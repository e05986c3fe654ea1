import dataclasses
import json
import time
import types

import numpy as np
import pytest
from scipy import special

from lenreg import encoder, trainer
from lenreg.checkpoint import load_checkpoint, load_params
from lenreg.corpus import build_vocab, encode
from lenreg.encoder import forward, init_params, preset_config, tensor_names
from lenreg.losses import Mode, RegularizerConfig
from lenreg.trainer import (
    TRAIN_PRESETS,
    NonFiniteLossError,
    TrainConfig,
    TrainLogRecord,
    adamw_step,
    clip_global_norm,
    init_optim_state,
    lr_at_step,
    preset_train_config,
    train,
)

from conftest import rng_of
from oracles import adamw_one_step, lr_linear


def _tiny_cfg(**overrides):
    kw = dict(total_steps=20, warmup_steps=4, peak_lr=1e-3, batch_size=4, seed=11)
    kw.update(overrides)
    return TrainConfig(**kw)


# ------------------------------------------------------------------ schedule

def test_lr_schedule_examples():
    cfg = TrainConfig(total_steps=250_000, warmup_steps=2_500, peak_lr=2e-4,
                      batch_size=8)
    assert lr_at_step(0, cfg) == 0.0
    assert lr_at_step(2_500, cfg) == pytest.approx(2e-4, rel=0, abs=0)
    # halfway down the decay beyond warmup
    assert lr_at_step(126_250, cfg) == pytest.approx(1e-4, rel=1e-12)
    assert lr_at_step(250_000, cfg) == 0.0
    with pytest.raises(ValueError):
        lr_at_step(-1, cfg)
    with pytest.raises(ValueError):
        lr_at_step(250_001, cfg)


def test_lr_schedule_matches_oracle():
    cfg = _tiny_cfg(total_steps=100, warmup_steps=7, peak_lr=3e-4)
    for step in range(101):
        assert lr_at_step(step, cfg) == pytest.approx(
            lr_linear(step, cfg.warmup_steps, cfg.total_steps, cfg.peak_lr), abs=1e-18)


def test_lr_schedule_no_warmup_starts_at_peak():
    cfg = _tiny_cfg(total_steps=10, warmup_steps=0, peak_lr=5e-4)
    assert lr_at_step(0, cfg) == 5e-4
    assert lr_at_step(10, cfg) == 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        _tiny_cfg(warmup_steps=20)  # must stay below total_steps
    with pytest.raises(ValueError):
        _tiny_cfg(total_steps=0)
    with pytest.raises(ValueError):
        _tiny_cfg(peak_lr=0.0)
    with pytest.raises(ValueError):
        _tiny_cfg(grad_clip=0.0)
    with pytest.raises(ValueError):
        _tiny_cfg(adam_beta2=1.0)
    for name in TRAIN_PRESETS:
        preset_train_config(name)
    with pytest.raises(ValueError):
        preset_train_config("giga")


# ------------------------------------------------------------------ optimizer

def test_adamw_first_step_matches_closed_form(micro_config, micro_params):
    params = micro_params.copy()
    cfg = _tiny_cfg(weight_decay=0.0)
    state = init_optim_state(params)
    rng = rng_of(50)
    grads = {k: rng.normal(size=t.shape).astype(np.float32)
             for k, t in params.tensors.items()}
    before = {k: t.copy() for k, t in params.tensors.items()}
    adamw_step(params, {k: g.copy() for k, g in grads.items()}, state, cfg, lr=1e-3)
    assert state.step == 1
    for name, t in params.tensors.items():
        for fi in rng.choice(t.size, size=min(12, t.size), replace=False):
            expect = adamw_one_step(before[name].flat[fi], grads[name].flat[fi],
                                    1e-3, cfg.adam_beta1, cfg.adam_beta2,
                                    cfg.adam_eps, 0.0, decay=False)
            assert t.flat[fi] == pytest.approx(expect, abs=1e-6), name


def test_adamw_weight_decay_is_decoupled_and_matrix_only(micro_config, micro_params):
    # zero gradients: the only movement is the decay term on 2-D tensors
    params = micro_params.copy()
    cfg = _tiny_cfg(weight_decay=0.1)
    state = init_optim_state(params)
    grads = {k: np.zeros_like(t) for k, t in params.tensors.items()}
    before = {k: t.copy() for k, t in params.tensors.items()}
    adamw_step(params, grads, state, cfg, lr=1e-2)
    for name, t in params.tensors.items():
        if t.ndim == 2:
            np.testing.assert_allclose(t, before[name] * (1.0 - 1e-2 * 0.1),
                                       rtol=1e-6, atol=0)
        else:
            np.testing.assert_array_equal(t, before[name])


def test_adamw_rejects_shape_mismatch(micro_params):
    params = micro_params.copy()
    state = init_optim_state(params)
    grads = {k: np.zeros_like(t) for k, t in params.tensors.items()}
    grads["tok_emb"] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ValueError):
        adamw_step(params, grads, state, _tiny_cfg(), lr=1e-3)


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[0.0, 4.0]])}
    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(grads["a"], [0.6, 0.0], atol=1e-12)
    np.testing.assert_allclose(grads["b"], [[0.0, 0.8]], atol=1e-12)
    grads = {"a": np.array([0.3, 0.4])}
    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(grads["a"], [0.3, 0.4], atol=0)  # untouched


# ------------------------------------------------------------------ loop

@pytest.fixture(scope="module")
def toy_setup():
    units = [f"w{i} w{(i * 7) % 23} w{(i * 3) % 23} w{i % 5}" for i in range(48)]
    vocab = build_vocab(units, 64)
    seqs = [encode(u, vocab, 16) for u in units]
    mc = preset_config("nano", vocab_size=vocab.size, seed=5,
                       maxlen=16, hidden_size=16, num_heads=2, ffn_size=32)
    return units, vocab, seqs, mc


def test_train_two_runs_bitwise_identical(toy_setup, tmp_path):
    _, vocab, seqs, mc = toy_setup
    tc = _tiny_cfg(total_steps=12, warmup_steps=2, log_every=5)
    a = train(mc, tc, seqs, vocab, tmp_path / "a")
    b = train(mc, tc, seqs, vocab, tmp_path / "b")
    for name in tensor_names(mc):
        np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
    for ra, rb in zip(a.history, b.history):
        assert ra.total == rb.total and ra.lr == rb.lr
        assert ra.masked_count == rb.masked_count


def test_train_seed_changes_trajectory(toy_setup):
    _, vocab, seqs, mc = toy_setup
    a = train(mc, _tiny_cfg(total_steps=6, warmup_steps=1, seed=1), seqs, vocab)
    b = train(mc, _tiny_cfg(total_steps=6, warmup_steps=1, seed=2), seqs, vocab)
    assert any(ra.total != rb.total for ra, rb in zip(a.history, b.history))


def test_train_loss_decreases(toy_setup):
    _, vocab, seqs, mc = toy_setup
    res = train(mc, _tiny_cfg(total_steps=60, warmup_steps=5), seqs, vocab)
    head = np.mean([r.total for r in res.history[:10]])
    tail = np.mean([r.total for r in res.history[-10:]])
    assert tail < head


def test_train_log_and_checkpoints(toy_setup, tmp_path):
    _, vocab, seqs, mc = toy_setup
    out = tmp_path / "run"
    tc = _tiny_cfg(total_steps=10, warmup_steps=2, log_every=4, checkpoint_every=4)
    res = train(mc, tc, seqs, vocab, out)
    assert res.checkpoint_path == out / "final.ckpt"
    assert sorted(p.name for p in out.glob("*.ckpt")) == [
        "final.ckpt", "step4.ckpt", "step8.ckpt"]
    lines = (out / "train_log.jsonl").read_text().splitlines()
    records = [TrainLogRecord(**json.loads(line)) for line in lines]
    assert [r.step for r in records] == [0, 4, 8, 9]  # every 4th plus the last
    for r in records:
        assert r.masked_count >= 1
        assert 0.0 <= r.hinge_active_fraction <= 1.0
        assert r.ratio_r == pytest.approx(r.ratio_r, abs=0)


def test_train_history_covers_every_step(toy_setup):
    _, vocab, seqs, mc = toy_setup
    res = train(mc, _tiny_cfg(total_steps=8, warmup_steps=1), seqs, vocab)
    assert [r.step for r in res.history] == list(range(8))
    assert all(np.isfinite(r.total) for r in res.history)


def test_train_final_checkpoint_round_trips(toy_setup, tmp_path):
    _, vocab, seqs, mc = toy_setup
    out = tmp_path / "rt"
    res = train(mc, _tiny_cfg(total_steps=6, warmup_steps=1), seqs, vocab, out)
    reloaded = load_params(out / "final.ckpt")
    assert reloaded.config == mc
    ids, pad = np.array([[2, 5, 6, 3]]), np.zeros((1, 4), dtype=bool)
    np.testing.assert_array_equal(
        np.asarray(forward(res.params, ids, pad)),
        np.asarray(forward(reloaded, ids, pad)),
    )
    _, tensors, extra = load_checkpoint(out / "final.ckpt")
    assert extra["train_seed"] == "11"
    assert int(extra["opt_step"]) == 6
    for name in tensor_names(mc):
        np.testing.assert_array_equal(tensors[f"adam_m.{name}"],
                                      res.opt_state.m[name])


def test_train_vocab_mismatch_rejected(toy_setup):
    _, vocab, seqs, mc = toy_setup
    bad = preset_config("nano", vocab_size=vocab.size + 1, seed=5,
                        maxlen=16, hidden_size=16, num_heads=2, ffn_size=32)
    with pytest.raises(ValueError):
        train(bad, _tiny_cfg(total_steps=2, warmup_steps=1), seqs, vocab)


def test_train_cp_avg_l_fills_dataset_mean(toy_setup):
    _, vocab, seqs, mc = toy_setup
    tc = _tiny_cfg(total_steps=3, warmup_steps=1,
                   regularizer=RegularizerConfig(mode=Mode.CP_AVG_L, beta=2.0))
    res = train(mc, tc, seqs, vocab)
    assert res.regularizer.avg_len == pytest.approx(
        float(np.mean([s.length for s in seqs])), abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up is the point
def test_train_aborts_on_nonfinite_loss(toy_setup, tmp_path):
    _, vocab, seqs, mc = toy_setup
    out = tmp_path / "blowup"
    tc = _tiny_cfg(total_steps=40, warmup_steps=1, peak_lr=1e6,
                   regularizer=RegularizerConfig(mode=Mode.CP, beta=6.0))
    with pytest.raises(NonFiniteLossError) as exc:
        train(mc, tc, seqs, vocab, out)
    err = exc.value
    assert err.dump_path is not None
    dump = np.load(err.dump_path)
    assert int(dump["step"]) == err.step
    assert dump["ids"].ndim == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_aborts_on_nonfinite_gradient_before_update(toy_setup, tmp_path, monkeypatch, bad):
    _, vocab, seqs, mc = toy_setup
    real_backward = trainer.backward
    calls = []

    def poisoned(params, cache, dlogits):
        grads = real_backward(params, cache, dlogits)
        if len(calls) == 2:
            grads["tok_emb"][0, 0] = bad
        calls.append(1)
        return grads

    monkeypatch.setattr(trainer, "backward", poisoned)
    with pytest.raises(NonFiniteLossError) as exc:
        train(mc, _tiny_cfg(total_steps=6, warmup_steps=1), seqs, vocab, tmp_path)
    assert exc.value.step == 2
    assert "gradient norm" in str(exc.value)
    assert int(np.load(exc.value.dump_path)["step"]) == 2


def test_wall_ms_covers_masking(toy_setup, monkeypatch):
    _, vocab, seqs, mc = toy_setup
    real_mask_batch = trainer.mask_batch

    def slow_mask_batch(*args, **kwargs):
        time.sleep(0.02)
        return real_mask_batch(*args, **kwargs)

    monkeypatch.setattr(trainer, "mask_batch", slow_mask_batch)
    res = train(mc, _tiny_cfg(total_steps=3, warmup_steps=1), seqs, vocab)
    assert all(r.wall_ms >= 20.0 for r in res.history)


def test_hinge_fraction_zero_at_fresh_model(toy_setup):
    # near-uniform outputs keep entropy at ~ln V, far above the hinge
    _, vocab, seqs, mc = toy_setup
    tc = _tiny_cfg(total_steps=1, warmup_steps=0,
                   regularizer=RegularizerConfig(mode=Mode.CP_L, beta=2.0))
    res = train(mc, tc, seqs, vocab)
    assert res.history[0].hinge_active_fraction == 0.0
    assert res.history[0].penalty_term == 0.0


def test_train_step_runs_erf_once_per_gelu(toy_setup, monkeypatch):
    # forward runs one erf per FFN activation and one for the head; backward
    # reuses the cached CDF, so it runs none.
    _, vocab, seqs, mc = toy_setup
    calls = []

    def counting_erf(x):
        calls.append(x.shape)
        return special.erf(x)

    monkeypatch.setattr(encoder, "special", types.SimpleNamespace(erf=counting_erf))
    train(mc, _tiny_cfg(total_steps=1, warmup_steps=0), seqs, vocab)
    assert mc.num_layers >= 2
    assert len(calls) == mc.num_layers + 1, calls


@pytest.mark.parametrize("grad_clip, clipped", [(1e-6, True), (1e6, False)])
def test_train_logs_pre_clip_grad_norm(toy_setup, tmp_path, monkeypatch, grad_clip, clipped):
    _, vocab, seqs, mc = toy_setup
    real_clip = trainer.clip_global_norm
    norms = []

    def recording_clip(grads, max_norm):
        norms.append(real_clip(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(trainer, "clip_global_norm", recording_clip)
    tc = _tiny_cfg(total_steps=4, warmup_steps=1, log_every=1, grad_clip=grad_clip)
    res = train(mc, tc, seqs, vocab, tmp_path)
    logged = [json.loads(line) for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
    assert [r["grad_norm"] for r in logged] == [r.grad_norm for r in res.history] == norms
    for rec in logged:
        assert rec["clipped"] is clipped
        assert (rec["grad_norm"] > grad_clip) is clipped
