"""The A/B runner behind ``lenreg compare``, ``scripts/run_mechanism.py`` and
test c08: train each (mode, seed) member, score it per length interval, and
count the mechanism's directional wins.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from . import calibration, trainer
from .corpus import TokenSequence, Vocab, build_vocab, encode, ingest
from .manifest import write_manifest
from .synthetic import MarkovSpec, generate_corpus

MECHANISM_MODES = ("mlm", "cp-l")  # baseline, treatment
MECHANISM_SPEC = MarkovSpec(n_topics=64, per_topic=4, n_long=56, n_keys=8)
MECHANISM_MAXLEN = 128
MECHANISM_PER_INTERVAL_N = 200
LONG_ENTROPY_CLOSE_NATS = 0.2


def workers_from_env() -> int:
    """Member threads: ``LENREG_THREADS``, default 1, at least 1."""
    text = os.environ.get("LENREG_THREADS", "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise ValueError(f"LENREG_THREADS must be an integer, got {text!r}") from None


class SeedInputs(NamedTuple):
    vocab: Vocab
    train: list[TokenSequence]
    eval: list[TokenSequence]


def run_members(modes, seeds, configs: dict, inputs: dict, intervals,
                per_interval_n: int = calibration.DEFAULT_PER_INTERVAL_N,
                n_bins: int = calibration.DEFAULT_BINS, *, workers: int = 1, out_dir=None,
                manifest_inputs=()) -> tuple[list[dict | None], list[str]]:
    """Train and score each member (mode, seed), mode-major, in ``workers`` threads.

    ``configs`` maps (mode, seed) to ``(ModelConfig, TrainConfig)`` and ``inputs``
    maps seed to ``SeedInputs``; a repeated (mode, seed) trains once. With
    ``out_dir`` each member writes its run and manifest to ``{mode}_seed{seed}``
    there. Returns one ``compare_row`` (None if the member failed) per member
    and one message per failure.
    """
    eval_doc = {"intervals": intervals, "per_interval_n": per_interval_n, "n_bins": n_bins}

    def run(mode, seed) -> dict:
        t0 = time.time()
        model_cfg, train_cfg = configs[(mode, seed)]
        vocab, train_seqs, eval_seqs = inputs[seed]
        run_dir = None if out_dir is None else Path(out_dir) / f"{mode}_seed{seed}"
        result = trainer.train(model_cfg, train_cfg, train_seqs, vocab, run_dir)
        ev = calibration.evaluate(result.params, eval_seqs, vocab, intervals, per_interval_n,
                                  n_bins, seed)
        if run_dir is not None:
            write_manifest(run_dir, "compare-member",
                           {"model": model_cfg, "train": train_cfg,
                            "regularizer": result.regularizer, "eval": {**eval_doc, "seed": seed}},
                           seed, manifest_inputs, [result.checkpoint_path, result.log_path],
                           t0, time.time())
        return calibration.compare_row(mode, seed, result.history[-1].total, ev)

    members = [(m, s) for m in modes for s in seeds]
    rows: list[dict | None] = [None] * len(members)
    failures: list[str] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {member: pool.submit(run, *member) for member in dict.fromkeys(members)}
        for i, (m, s) in enumerate(members):
            try:
                rows[i] = futures[(m, s)].result()
            except Exception as e:  # keep the table; note the failure
                failures.append(f"{m} seed {s}: {e}")
    return rows, failures


def mechanism_verdict(rows, intervals) -> tuple[int, int, int, int]:
    """Over the seeds where both ``MECHANISM_MODES`` finished, the number of
    seeds, then the counts where cp-l's entropy on the first (short) interval
    is higher than mlm's, its ECE there is at or below mlm's, and its entropy
    on the last (long) interval is within ``LONG_ENTROPY_CLOSE_NATS`` of mlm's."""
    labels = calibration.interval_labels(intervals)
    short_h, short_ece, long_h = (f"entropy {labels[0]}", f"ece {labels[0]}",
                                  f"entropy {labels[-1]}")
    baseline, treatment = MECHANISM_MODES
    done = {(r["mode"], r["seed"]): r for r in rows if r is not None}
    pairs = [(b, done[(treatment, s)]) for (m, s), b in done.items()
             if m == baseline and (treatment, s) in done]
    return (len(pairs), sum(t[short_h] > b[short_h] for b, t in pairs),
            sum(t[short_ece] <= b[short_ece] for b, t in pairs),
            sum(abs(t[long_h] - b[long_h]) <= LONG_ENTROPY_CLOSE_NATS for b, t in pairs))


def mechanism_inputs(seed: int) -> SeedInputs:
    """The mechanism corpus drawn at ``seed`` to train on and at ``1000 + seed``
    to score on (same long paragraphs, resampled short slots), with a vocabulary
    built from the training draw."""
    train_units = ingest(generate_corpus(MECHANISM_SPEC, seed=seed))
    eval_units = ingest(generate_corpus(MECHANISM_SPEC, seed=1000 + seed))
    vocab = build_vocab(train_units, 8192)
    return SeedInputs(vocab, [encode(u, vocab, MECHANISM_MAXLEN) for u in train_units],
                      [encode(u, vocab, MECHANISM_MAXLEN) for u in eval_units])
