#!/usr/bin/env python3
"""lenreg benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload markov-pretrain-eval --seed 1 --seconds 36 --trace 0

Run from anywhere inside a lenreg checkout; the sources are taken from
``src/`` and the fixtures from ``data/`` of the checkout that holds this
file. The run repeats as many whole rounds of the workload (see
workloads.py) as fit in ``--seconds`` seconds, at least one, in this single
process with one BLAS thread; a traced run counts its untraced reference
round in that time.

``--trace 0`` prints the end-to-end metrics, the median over rounds (and
over set-up probes for ``setup_s``). ``--trace 1`` runs one untraced
reference round and then traced rounds, and prints the per-layer metrics
(see layers.py) averaged per traced round. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Each run writes a record, and a traced run its spans, to
``perfbench/out/``. Exit status: 0 when every correctness check passed,
1 when one failed, 2 when the checkout has no lenreg sources or fixtures.
"""

import os

# Fix the thread pools before numpy is first imported, here and in probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_tokens_per_s": "tokens/s",
    "eval_positions_per_s": "positions/s",
    "gradcheck_checks_per_s": "checks/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _probe_setup(workload: str) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _rounds(run_round, t0: float, seconds: float) -> list:
    """As many whole rounds as fit in ``seconds`` from ``t0``, judged by the
    mean length of the rounds so far; at least one."""
    rounds = []
    while True:
        rounds.append(run_round())
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def timed_run(w, seed: int, seconds: float):
    setup = [_probe_setup(w.name) for _ in range(SETUP_PROBES)]
    import workloads

    inputs = workloads.build_inputs(w, ROOT / "data")
    rounds = _rounds(lambda: workloads.run_round(w, inputs, seed, OUT), perf_counter(), seconds)
    problems = [p for r in rounds for p in r.problems]
    if len({r.fingerprint for r in rounds}) != 1:
        problems.append("rounds with the same seed ended with different parameters or losses")
    med = statistics.median
    metrics = {
        "setup_s": med(setup),
        "train_tokens_per_s": med(r.tokens / s for r in rounds for s in r.train_s),
        "eval_positions_per_s": med(r.positions / s for r in rounds for s in r.eval_s),
        "gradcheck_checks_per_s": med(r.audit_checks / r.audit_s for r in rounds),
        "run_s": med(r.run_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"setup_samples_s": setup, "rounds": [vars(r) for r in rounds]}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, rounds, problems, record


def traced_run(w, seed: int, seconds: float):
    import layers
    import workloads
    from spans import Tracer

    tracer = Tracer()
    batches = layers.BatchStats()
    layers.install(tracer, batches)
    try:
        inputs = workloads.build_inputs(w, ROOT / "data")
    finally:
        tracer.restore()
    t0 = perf_counter()
    reference = workloads.run_round(w, inputs, seed, OUT)

    def traced_round():
        tracer.round += 1
        layers.install(tracer, batches)
        try:
            return workloads.run_round(w, inputs, seed, OUT)
        finally:
            tracer.restore()

    rounds = _rounds(traced_round, t0, seconds)
    problems = [p for r in [reference, *rounds] for p in r.problems]
    if any(r.fingerprint != reference.fingerprint for r in rounds):
        problems.append("traced and untraced rounds ended with different parameters or losses")
    tokens = sum(r.tokens * len(r.train_s) for r in rounds)
    if batches.true_tokens != tokens:
        problems.append(f"training batches held {batches.true_tokens} real tokens, "
                        f"the corpus count is {tokens}")
    values = layers.layer_metrics(tracer, batches, rounds, reference)
    record = {"reference_round": vars(reference), "rounds": [vars(r) for r in rounds],
              "aggregates": tracer.summary(), "spans_dropped": tracer.spans_dropped,
              "spans": tracer.spans}
    metrics = {k: (v, layers.LAYER_METRICS[k][0]) for k, v in values.items()}
    return metrics, [reference, *rounds], problems, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in [ROOT / "src" / "lenreg" / "__init__.py",
                           *(ROOT / "data" / f for f in ("markov_train.txt", "markov_eval.txt"))]
               if not p.is_file()]
    if missing:
        print(f"run.py: not a lenreg checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    tempfile.tempdir = str(OUT)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    metrics, rounds, problems, record = run(w, args.seed, args.seconds)

    env = _environment()
    result = {
        "correct": not problems,
        "attempted": sum(r.operations for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "environment": env,
         "problems": problems, "result": result, **record}) + "\n", encoding="utf-8")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
