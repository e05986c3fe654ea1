"""One test per numbered acceptance criterion, tolerances pinned inline.

Criteria 7 and 8 train full nano models on the bundled and generated
corpora, so this file dominates the suite's wall clock (tens of minutes);
everything else finishes in about a minute combined. Both carry the
``slow`` marker, so ``pytest -m "not slow"`` leaves them out.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from lenreg import gradcheck
from lenreg.calibration import PredictionSample, default_intervals, ece
from lenreg.cli import resolve_config
from lenreg.compare import (MECHANISM_MODES, MECHANISM_PER_INTERVAL_N, mechanism_inputs,
                            mechanism_verdict, run_members)
from lenreg.checkpoint import load_params
from lenreg.corpus import MASK_ID, build_vocab, encode, group_by_length, mask_batch
from lenreg.encoder import forward, preset_config, tensor_names
from lenreg.losses import Mode, RegularizerConfig, batch_loss, kl_divergence, length_ratio
from lenreg.trainer import TrainConfig, preset_train_config, train

from conftest import make_batch, rng_of
from oracles import padding_tokens, rational_ece

TOY_UNITS = [f"w{i} w{(i * 7) % 23} w{(i * 3) % 23} w{i % 5}" for i in range(48)]


def _toy_model(vocab, maxlen):
    return preset_config("nano", vocab_size=vocab.size, seed=5, maxlen=maxlen,
                         hidden_size=16, num_heads=2, ffn_size=32)


# 1. Finite-difference gradient audit: every loss mode at 1,000 random
#    instances (V <= 16) under 1e-4, encoder nano families under 1e-3,
#    inside a 60 s single-core budget. The matrices involved are far too
#    small for BLAS threading to matter, so wall clock is the core budget.
def test_c01_gradient_correctness_within_budget():
    t0 = time.perf_counter()
    report = gradcheck.run_suite(preset="nano", loss_instances=1000,
                                 entries_per_tensor=20, seed=0)
    elapsed = time.perf_counter() - t0
    loss_rows = [r for r in report if r.family.startswith("loss[")]
    encoder_rows = [r for r in report if not r.family.startswith("loss[")]
    assert len(loss_rows) == len(Mode)
    assert encoder_rows
    for row in loss_rows:
        assert row.max_rel_err < 1e-4, row
    for row in encoder_rows:
        assert row.max_rel_err < 1e-3, row
    assert elapsed < 60.0


# 2. Exact reduction identities at 1e-12, both on random loss instances and
#    across paired 200-step training runs that share one seed.
def test_c02_reduction_identities_loss_level():
    rng = rng_of(2026, 2)
    maxlen = 128
    mlm = RegularizerConfig(mode=Mode.MLM)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        v = int(rng.integers(2, 17))
        logits = rng.normal(0.0, 2.0, size=(n, v))
        targets = rng.integers(0, v, size=n)
        r = float(rng.uniform(0.0, 1.0))
        base = batch_loss(logits, targets, mlm, r, maxlen=maxlen).total
        cpl_r1 = batch_loss(
            logits, targets,
            RegularizerConfig(mode=Mode.CP_L, beta=float(rng.uniform(0.5, 6.0))),
            1.0, maxlen=maxlen).total
        ls_a0 = batch_loss(logits, targets, RegularizerConfig(mode=Mode.LS, alpha=0.0),
                           r, maxlen=maxlen).total
        lsl_r1 = batch_loss(
            logits, targets,
            RegularizerConfig(mode=Mode.LS_L, T=float(rng.uniform(0.0, 0.3))),
            1.0, maxlen=maxlen).total
        assert abs(cpl_r1 - base) <= 1e-12
        assert abs(ls_a0 - base) <= 1e-12
        assert abs(lsl_r1 - base) <= 1e-12
        # the averaged variant collapses onto the pooled one when avg_len
        # equals the pooled batch maximum, active hinge or not
        beta = float(rng.uniform(0.5, 6.0))
        lengths = rng.integers(4, maxlen + 1, size=4)
        rr = length_ratio(lengths, maxlen)
        cpl = batch_loss(logits, targets,
                         RegularizerConfig(mode=Mode.CP_L, beta=beta),
                         rr, maxlen=maxlen).total
        cpa = batch_loss(logits, targets,
                         RegularizerConfig(mode=Mode.CP_AVG_L, beta=beta,
                                           avg_len=float(lengths.max())),
                         rr, maxlen=maxlen).total
        assert abs(cpa - cpl) <= 1e-12


def _run_200(vocab, seqs, maxlen, reg):
    tc = TrainConfig(total_steps=200, warmup_steps=10, peak_lr=1e-3,
                     batch_size=4, seed=11, regularizer=reg)
    return train(_toy_model(vocab, maxlen), tc, seqs, vocab, None)


def _assert_same_run(a, b):
    for ra, rb in zip(a.history, b.history):
        assert abs(ra.total - rb.total) <= 1e-12
    for name in tensor_names(a.params.config):
        np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])


def test_c02_reduction_identities_200_step_runs():
    vocab = build_vocab(TOY_UNITS, 64)
    # maxlen equal to the (uniform) sequence length pins r at exactly 1
    seqs6 = [encode(u, vocab, 6) for u in TOY_UNITS]
    mlm = _run_200(vocab, seqs6, 6, RegularizerConfig(mode=Mode.MLM))
    _assert_same_run(mlm, _run_200(vocab, seqs6, 6,
                                   RegularizerConfig(mode=Mode.CP_L, beta=2.0)))
    _assert_same_run(mlm, _run_200(vocab, seqs6, 6,
                                   RegularizerConfig(mode=Mode.LS, alpha=0.0)))
    _assert_same_run(mlm, _run_200(vocab, seqs6, 6,
                                   RegularizerConfig(mode=Mode.LS_L, T=0.05)))
    # constant-length data at maxlen 8: every batch pools to 6 tokens, so
    # avg_len = 6 reproduces the pooled ratio exactly
    seqs8 = [encode(u, vocab, 8) for u in TOY_UNITS]
    cpl = _run_200(vocab, seqs8, 8, RegularizerConfig(mode=Mode.CP_L, beta=8.0))
    cpa = _run_200(vocab, seqs8, 8,
                   RegularizerConfig(mode=Mode.CP_AVG_L, beta=8.0, avg_len=6.0))
    _assert_same_run(cpl, cpa)


# 3. Cross-entropy against a uniform target minus the matching KL term
#    equals ln V, within 1e-9 over 1,000 random distributions.
def test_c03_uniform_ce_minus_kl_is_log_v():
    rng = rng_of(2026, 3)
    for _ in range(1000):
        v = int(rng.integers(2, 513))
        p = np.exp(rng.normal(0.0, 2.0, size=v))
        p /= p.sum()
        u = np.full(v, 1.0 / v)
        ce = -float(np.mean(np.log(p)))
        assert abs(ce - kl_divergence(u, p) - math.log(v)) <= 1e-9


# 4. Calibration error: exact match with the rational-arithmetic oracle on
#    1,000 random sample sets; a calibrated generator at n = 1e5, M = 10
#    stays at or under 0.02; the four-sample worked case is exactly 0.25.
def test_c04_ece_oracle_generator_and_worked_example():
    rng = rng_of(2026, 4)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 16))
        confs = rng.uniform(0.0, 1.0, size=n)
        confs[rng.uniform(size=n) < 0.05] = 1.0
        corrects = rng.uniform(size=n) < np.maximum(confs, 0.3)
        samples = [PredictionSample(float(c), bool(k), 10)
                   for c, k in zip(confs, corrects)]
        expected = float(rational_ece([float(c) for c in confs], list(corrects), m))
        assert ece(samples, m).ece == expected

    n = 100_000
    confs = rng.uniform(0.0, 1.0, size=n)
    corrects = rng.uniform(size=n) < confs
    samples = [PredictionSample(float(c), bool(k), 10)
               for c, k in zip(confs, corrects)]
    assert ece(samples, 10).ece <= 0.02

    four = [PredictionSample(0.9, True, 1), PredictionSample(0.9, False, 1),
            PredictionSample(0.6, True, 1), PredictionSample(0.6, False, 1)]
    assert ece(four, 2).ece == 0.25


# 5. Masking statistics over 100,000 eligible tokens: selection rate
#    0.15 +- 0.005, replacement mix 0.80/0.10/0.10 +- 0.01, and special or
#    pad positions never selected (exact).
def test_c05_masking_statistics():
    rng = rng_of(2026, 5)
    tokens = [f"t{i:03d}" for i in range(507)]
    vocab = build_vocab([" ".join(tokens)], 512)
    words = rng.choice(tokens, size=(1000, 100))
    seqs = [encode(" ".join(row), vocab, 128) for row in words]

    eligible = selected = as_mask = changed = 0
    for start in range(0, len(seqs), 50):
        mb = mask_batch(seqs[start:start + 50], vocab, rng, maxlen=128)
        body = np.zeros_like(mb.pad_mask)
        for i, ln in enumerate(mb.true_lengths):
            body[i, 1:ln - 1] = True  # strictly between [CLS] and [SEP]
        assert not (mb.mask_positions & ~body).any()
        sel = mb.mask_positions
        eligible += int(body.sum())
        selected += int(sel.sum())
        as_mask += int((mb.ids[sel] == MASK_ID).sum())
        changed += int(((mb.ids[sel] != MASK_ID) & (mb.ids[sel] != mb.labels[sel])).sum())

    assert eligible == 100_000
    kept = selected - as_mask - changed
    assert abs(selected / eligible - 0.15) <= 0.005
    assert abs(as_mask / selected - 0.80) <= 0.01
    assert abs(changed / selected - 0.10) <= 0.01
    assert abs(kept / selected - 0.10) <= 0.01


# 6. Length bucketing cuts total padding by at least half versus uniformly
#    shuffled fixed-size batches on the bundled skewed-length fixture.
def test_c06_length_bucketing_halves_padding(skew_sequences):
    batch = 32
    chunks = group_by_length(skew_sequences, batch, rng_of(2026, 6))
    perm = rng_of(2026, 61).permutation(len(skew_sequences))
    shuffled = [skew_sequences[int(i)] for i in perm]
    naive = [shuffled[i:i + batch] for i in range(0, len(shuffled), batch)]
    assert padding_tokens(chunks) <= 0.5 * padding_tokens(naive)


# 7. Desk-scale progress: nano preset on the bundled corpus, 2,000 steps at
#    seed 42. The mean loss over the final 100 steps must reach 0.7x the
#    mean over the 100-step window starting at step 100, inside 30 minutes,
#    and a same-seed repeat must be bitwise identical.
@pytest.mark.slow
def test_c07_desk_scale_training_progress(markov_sequences, markov_vocab):
    mc = preset_config("nano", vocab_size=markov_vocab.size, seed=42)
    tc = preset_train_config("nano", seed=42)
    t0 = time.perf_counter()
    first = train(mc, tc, markov_sequences, markov_vocab, None)
    elapsed = time.perf_counter() - t0
    totals = [rec.total for rec in first.history]
    early = float(np.mean(totals[100:200]))
    late = float(np.mean(totals[-100:]))
    assert late <= 0.7 * early
    assert elapsed <= 30 * 60

    repeat = train(mc, tc, markov_sequences, markov_vocab, None)
    for name in tensor_names(mc):
        np.testing.assert_array_equal(first.params.tensors[name],
                                      repeat.params.tensors[name])
    assert [rec.total for rec in repeat.history] == totals


# 8. Mechanism check, stochastic and directional. The fixture makes the
#    point sharp: the short units carry an 8-way equiprobable slot, so a
#    calibrated model holds ~ln 8 = 2.08 nats there, just above the hinge
#    threshold 2(1 - 4/128) = 1.94; only memorizing the sampled noise dips
#    below it. The long units are deterministic and sit at r ~ 1 where the
#    threshold is near zero, so both objectives should converge together.
#    Evaluation uses a held-out draw: long units identical, short-unit
#    slot assignments resampled.
@pytest.mark.slow
def test_c08_mechanism_directional_wins():
    seeds = (1, 2, 3, 4, 5)
    modes = list(MECHANISM_MODES)
    inputs = {s: mechanism_inputs(s) for s in seeds}
    configs = {(m, s): resolve_config({"model": {"dropout_p": 0.0}}, inputs[s].vocab.size,
                                      mode=m, seed=s, preset="nano", steps=2000, beta=2.0)
               for m in modes for s in seeds}
    intervals = default_intervals(128)
    rows, failures = run_members(modes, seeds, configs, inputs, intervals,
                                 MECHANISM_PER_INTERVAL_N)
    assert failures == []
    _, wins_short_entropy, wins_short_ece, wins_long_close = mechanism_verdict(rows, intervals)
    assert wins_short_entropy >= 4
    assert wins_short_ece >= 3
    assert wins_long_close >= 3


# 9. Checkpoint round-trip reproduces eval-mode logits bitwise.
def test_c09_checkpoint_roundtrip_bitwise(tmp_path):
    vocab = build_vocab(TOY_UNITS, 64)
    seqs = [encode(u, vocab, 16) for u in TOY_UNITS]
    mc = _toy_model(vocab, 16)
    tc = TrainConfig(total_steps=6, warmup_steps=1, peak_lr=1e-3,
                     batch_size=4, seed=11)
    res = train(mc, tc, seqs, vocab, tmp_path)
    loaded = load_params(tmp_path / "final.ckpt")
    ids, pad = make_batch(mc, [16, 9, 5], rng_of(2026, 9))
    np.testing.assert_array_equal(forward(loaded, ids, pad),
                                  forward(res.params, ids, pad))


# 10. Fresh-model telemetry: with beta = 2 and V >= 64 the step-0 logged
#     hinge-active fraction is exactly zero.
def test_c10_step0_hinge_fraction_is_zero(markov_sequences, markov_vocab):
    assert markov_vocab.size >= 64
    mc = preset_config("nano", vocab_size=markov_vocab.size, seed=7)
    tc = dataclasses.replace(
        preset_train_config("nano", seed=7), total_steps=1, warmup_steps=0,
        regularizer=RegularizerConfig(mode=Mode.CP_L, beta=2.0))
    res = train(mc, tc, markov_sequences, markov_vocab, None)
    assert res.history[0].hinge_active_fraction == 0.0
