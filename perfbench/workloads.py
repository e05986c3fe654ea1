"""The benchmark workloads and the round each of them repeats.

Every round runs lenreg's three jobs through its public API, the way
``lenreg eval-ece`` and ``scripts/run_mechanism.py`` do, with the workload
deciding how much of each. One or more passes of

1. train: ``trainer.train`` (nano preset, ``cp-l`` with beta 2, default
   dropout) for whole epochs, writing its log and checkpoint to a
   temporary directory;
2. reload the checkpoint with ``checkpoint.load_params`` and evaluate it:
   ``collect_predictions``, ``entropy_profile`` and ``ece`` per length
   interval, with the eval RNG domains 40/41 of ``eval-ece``;

then 3. audit: ``gradcheck.run_suite``, or one ``check_loss_mode`` and one
small sampled ``check_encoder``.

All calls go through module attributes, so the traced run can wrap them.
Program calls are timed; the correctness checks run after the round's
timed span and are not part of it.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lenreg import calibration, checkpoint, corpus, encoder, gradcheck, losses, trainer

import checks

MAXLEN = 128                 # nano preset
VOCAB_SIZE = 8192            # as the test fixtures and run_mechanism.py; the fixture has fewer types
BATCH = 32                   # nano training preset
SHORT_LENGTH = 4             # the fixture's short family: [CLS] w w [SEP]
LONG_LENGTHS = range(120, 127)
BETA = 2.0
EVAL_DOMAIN_PRED = 40        # eval-ece's RNG domain for collect_predictions
EVAL_DOMAIN_ENT = 41         # ... and for entropy_profile
SUITE_LOSS_INSTANCES = 1000  # as acceptance test c01
SUITE_ENTRIES_PER_TENSOR = 20
# Every audit keeps c01's seed, not --seed: the attn_bk audit fails on some
# seeds, and a fixed loss-mode audit keeps the companion audit's mix of cheap
# loss checks and costly encoder checks the same in every run.
AUDIT_SEED = 0
MODE_AUDIT_INSTANCES = 100
ENCODER_AUDIT_ENTRIES = 4    # per tensor, on the suite's sampled nano model


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's round; BENCHMARK.json and README.md say why each exists."""
    name: str
    short_only: bool        # train and evaluate on the length-4 units only
    epochs: int
    eval_per_interval: int
    passes: int             # train -> reload -> evaluate passes per round
    full_audit: bool        # gradcheck.run_suite; otherwise check_loss_mode + check_encoder


WORKLOADS = {w.name: w for w in (
    Workload("markov-pretrain-eval", short_only=False, epochs=1, eval_per_interval=256,
             passes=1, full_audit=False),
    Workload("short-pretrain", short_only=True, epochs=50, eval_per_interval=512,
             passes=1, full_audit=False),
    # Its audit is long, so five short passes per round give the training and
    # eval rates enough samples per run.
    Workload("gradcheck-audit", short_only=True, epochs=2, eval_per_interval=512,
             passes=5, full_audit=True),
)}


@dataclass
class Inputs:
    vocab: corpus.Vocab
    train: list
    eval: list


def build_inputs(workload: Workload, data_dir: Path) -> Inputs:
    """Read, ingest, build the vocabulary and encode: the workload's set-up."""
    train_units = corpus.ingest((data_dir / "markov_train.txt").read_bytes())
    vocab = corpus.build_vocab(train_units, VOCAB_SIZE)
    train = [corpus.encode(u, vocab, MAXLEN) for u in train_units]
    evals = [corpus.encode(u, vocab, MAXLEN)
             for u in corpus.ingest((data_dir / "markov_eval.txt").read_bytes())]
    if workload.short_only:
        train = [s for s in train if s.length == SHORT_LENGTH]
        evals = [s for s in evals if s.length == SHORT_LENGTH]
        if not train or len(train) % BATCH:
            raise ValueError(f"{len(train)} short units do not fill whole batches of {BATCH}")
    return Inputs(vocab, train, evals)


@dataclass
class Pass:
    """One train -> reload -> evaluate pass, with the program's outputs."""
    result: trainer.TrainResult
    reloaded: encoder.ModelParams
    checkpoint_bytes: int
    predictions: dict
    profile: calibration.EntropyProfile
    reports: dict
    train_s: float
    eval_s: float

    @property
    def positions(self) -> int:
        return (sum(map(len, self.predictions.values()))
                + sum(r.count for r in self.profile.intervals))


@dataclass
class RoundResult:
    run_s: float
    train_s: list       # per pass
    eval_s: list        # per pass
    tokens: int         # per pass
    positions: int      # per pass
    audit_s: float
    audit_checks: int
    operations: int
    checkpoint_bytes: int
    fingerprint: str
    problems: list = field(default_factory=list)


def _rng(seed: int, domain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, domain)))


def fingerprint(params, history) -> str:
    """Digest of final parameters and the loss history (step times excluded)."""
    h = hashlib.sha256()
    for name in encoder.tensor_names(params.config):
        h.update(name.encode())
        h.update(params.tensors[name].tobytes())
    for rec in history:
        h.update(repr((rec.step, rec.lr, rec.total, rec.ce_term, rec.penalty_term,
                       rec.entropy_mean, rec.ratio_r, rec.masked_count,
                       rec.hinge_active_fraction)).encode())
    return h.hexdigest()


def _train_and_evaluate(w: Workload, inp: Inputs, seed: int, work_dir: Path) -> Pass:
    steps = w.epochs * math.ceil(len(inp.train) / BATCH)
    model_cfg = encoder.preset_config("nano", vocab_size=inp.vocab.size, seed=seed)
    train_cfg = trainer.preset_train_config(
        "nano", seed=seed, total_steps=steps, warmup_steps=min(100, steps // 10),
        regularizer=losses.RegularizerConfig(mode=losses.Mode.CP_L, beta=BETA))
    intervals = calibration.default_intervals(MAXLEN)

    t0 = perf_counter()
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        result = trainer.train(model_cfg, train_cfg, inp.train, inp.vocab, tmp)
        t1 = perf_counter()
        reloaded = checkpoint.load_params(result.checkpoint_path)
        checkpoint_bytes = result.checkpoint_path.stat().st_size

    t2 = perf_counter()
    predictions = calibration.collect_predictions(
        reloaded, inp.eval, inp.vocab, intervals, w.eval_per_interval,
        _rng(seed, EVAL_DOMAIN_PRED))
    profile = calibration.entropy_profile(
        reloaded, inp.eval, inp.vocab, intervals, w.eval_per_interval,
        _rng(seed, EVAL_DOMAIN_ENT))
    reports = {iv: calibration.ece(predictions[iv]) for iv in intervals if predictions[iv]}
    t3 = perf_counter()
    return Pass(result, reloaded, checkpoint_bytes, predictions, profile, reports,
                train_s=t1 - t0, eval_s=t3 - t2)


def _pass_problems(w: Workload, inp: Inputs, p: Pass) -> list[str]:
    problems = checks.training_problems(
        p.result.history, maxlen=MAXLEN,
        allowed_lengths=((lambda n: n == SHORT_LENGTH) if w.short_only
                         else (lambda n: n == SHORT_LENGTH or n in LONG_LENGTHS)),
        masked_bounds=(BATCH, 2 * BATCH) if w.short_only else None,
        expect_decrease=not w.short_only)
    params = p.result.params
    problems += checks.tensor_problems(
        {n: params.tensors[n] for n in encoder.tensor_names(params.config)}, p.reloaded.tensors)
    for iv, report in p.reports.items():
        problems += checks.ece_problems(f"[{iv[0]},{iv[1]})", p.predictions[iv], report)
    problems += checks.entropy_problems(p.profile, inp.vocab.size)
    return problems


def run_round(w: Workload, inp: Inputs, seed: int, work_dir: Path) -> RoundResult:
    t_start = perf_counter()
    passes = [_train_and_evaluate(w, inp, seed, work_dir) for _ in range(w.passes)]
    t_audit = perf_counter()
    if w.full_audit:
        families = gradcheck.run_suite("nano", SUITE_LOSS_INSTANCES, SUITE_ENTRIES_PER_TENSOR,
                                       AUDIT_SEED)
    else:
        # The suite's sampled nano model at its seed, with fewer entries per tensor.
        audited = encoder.preset_config("nano", vocab_size=64, seed=AUDIT_SEED + 11, dropout_p=0.0)
        families = [gradcheck.check_loss_mode(losses.Mode.CP_L, MODE_AUDIT_INSTANCES, AUDIT_SEED),
                    *gradcheck.check_encoder(audited, ENCODER_AUDIT_ENTRIES, AUDIT_SEED).values()]
    t_end = perf_counter()

    problems = [msg for p in passes for msg in _pass_problems(w, inp, p)]
    problems += checks.audit_problems(
        families, [f"loss[{m.value}]" for m in losses.Mode] if w.full_audit else ())
    prints = {fingerprint(p.result.params, p.result.history) for p in passes}
    if len(prints) != 1:
        problems.append("passes with the same seed ended with different parameters or losses")
    return RoundResult(
        run_s=t_end - t_start,
        train_s=[p.train_s for p in passes],
        eval_s=[p.eval_s for p in passes],
        tokens=checks.trained_tokens(inp.train, w.epochs),
        positions=passes[0].positions,
        audit_s=t_end - t_audit,
        audit_checks=sum(f.n_checks for f in families),
        # per pass: train, load, collect, profile, one ece per non-empty interval; then the audit
        operations=sum(4 + len(p.reports) for p in passes) + (1 if w.full_audit else 2),
        checkpoint_bytes=passes[0].checkpoint_bytes,
        fingerprint=prints.pop(),
        problems=problems,
    )
