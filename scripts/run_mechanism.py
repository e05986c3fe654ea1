#!/usr/bin/env python3
"""A/B the hinged length-adaptive penalty against plain MLM on the
two-regime generated corpus, reporting length-sliced entropy and ECE.

Short paragraphs carry an 8-way answer slot (a calibrated model holds
~ln 8 = 2.08 nats there, just above the hinge threshold 2(1 - 4/128) = 1.94);
long ones are deterministic and sit at r ~ 1, where the threshold is near
zero. Plain MLM memorizes the slot noise and goes overconfident on held-out
short inputs; the penalty blocks that and leaves the long regime alone.

    python3 scripts/run_mechanism.py --seeds 1,2,3 --out /tmp/mechanism

Each seed trains on its own corpus draw and is scored on an independent one.
Members run through ``lenreg.compare.run_members`` in up to
``LENREG_THREADS`` threads, roughly a minute each; ``--out`` receives
``compare.csv`` and ``compare.json``.
"""

import argparse
import sys
from pathlib import Path

from lenreg import calibration, cli, compare


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=cli.seed_list, default=[1, 2, 3, 4, 5],
                    help="comma-separated seed list")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--out", help="directory for compare.csv and compare.json (optional)")
    args = ap.parse_args()
    seeds = args.seeds
    try:
        workers = compare.workers_from_env()
    except ValueError as e:
        ap.error(str(e))

    modes = list(compare.MECHANISM_MODES)
    inputs = {s: compare.mechanism_inputs(s) for s in seeds}
    configs = {(m, s): cli.resolve_config({"model": {"dropout_p": 0.0}}, inputs[s].vocab.size,
                                          mode=m, seed=s, preset="nano", steps=args.steps,
                                          beta=args.beta)
               for m in modes for s in seeds}
    intervals = calibration.default_intervals(compare.MECHANISM_MAXLEN)
    rows, failures = compare.run_members(modes, seeds, configs, inputs, intervals,
                                         compare.MECHANISM_PER_INTERVAL_N, workers=workers)
    for line in failures:
        print(f"FAILED member: {line}", file=sys.stderr)
    n, entropy_up, ece_ok, long_close = compare.mechanism_verdict(rows, intervals)
    print(f"over {n} paired seeds: higher short entropy {entropy_up}/{n}, short ECE at or "
          f"below {ece_ok}/{n}, long entropies within {compare.LONG_ENTROPY_CLOSE_NATS} nats "
          f"{long_close}/{n}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = calibration.write_compare(out_dir, modes, seeds, intervals, rows, failures)
        print(f"wrote {outputs[0]}")
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
