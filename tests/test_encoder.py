import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from lenreg.corpus import CLS_ID, SEP_ID
from lenreg.encoder import (
    MODEL_PRESETS,
    ModelConfig,
    StaleCacheError,
    _gelu,
    _gelu_grad,
    backward,
    forward,
    init_params,
    param_count,
    preset_config,
    tensor_names,
    tensor_shapes,
)
from lenreg.losses import Mode, RegularizerConfig, batch_loss, batch_loss_gradient

from conftest import make_batch, rng_of


# ------------------------------------------------------------------ config

def test_presets_match_documented_sizes():
    mini = preset_config("mini", vocab_size=100)
    assert (mini.hidden_size, mini.num_layers, mini.num_heads, mini.ffn_size,
            mini.maxlen) == (256, 4, 4, 1024, 512)
    nano = preset_config("nano", vocab_size=100)
    assert (nano.hidden_size, nano.num_layers, nano.num_heads, nano.ffn_size,
            nano.maxlen) == (64, 2, 2, 256, 128)
    for cfg in (mini, nano):
        assert cfg.dropout_p == 0.1
        assert cfg.layernorm_eps == 1e-12


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        ModelConfig(hidden_size=10, num_layers=1, num_heads=3, ffn_size=16,
                    maxlen=8, vocab_size=12)


def test_param_count_is_sum_of_tensor_sizes():
    for name in MODEL_PRESETS:
        cfg = preset_config(name, vocab_size=97)
        shapes = tensor_shapes(cfg)
        assert param_count(cfg) == sum(int(np.prod(s)) for s in shapes.values())


def test_param_count_frozen_nano():
    # closed-form value checked by hand for nano at vocab 32
    assert param_count(preset_config("nano", vocab_size=32)) == 114656


# ------------------------------------------------------------------ init

def test_init_deterministic_bitwise(micro_config):
    a = init_params(micro_config)
    b = init_params(micro_config)
    for name in tensor_names(micro_config):
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


def test_init_layernorm_and_bias_values(micro_config, micro_params):
    # every 1-D tensor is either a layernorm scale (ones) or a bias (zeros)
    for name in tensor_names(micro_config):
        t = micro_params.tensors[name]
        if t.ndim != 1:
            continue
        if name.endswith("_g"):
            assert np.all(t == 1.0), name
        else:
            assert np.all(t == 0.0), name


def test_init_weight_statistics():
    cfg = preset_config("mini", vocab_size=2048, seed=0)
    params = init_params(cfg)
    w = params.tensors["tok_emb"].ravel()
    # normal(0, 0.02) truncated at 2 sigma: std shrinks to ~0.8796 * 0.02
    assert abs(float(w.std()) - 0.01759) < 0.0005
    assert float(np.abs(w).max()) <= 0.04 + 1e-7
    assert abs(float(w.mean())) < 1e-3


def test_init_dtype_float32(micro_params):
    assert all(t.dtype == np.float32 for t in micro_params.tensors.values())


@pytest.mark.parametrize("layers", [1, 2, 4])
def test_init_draws_matrices_in_canonical_order(layers):
    # Oracle: one truncnorm draw per 2-D tensor, in tensor_names order, from
    # the init stream; every other tensor is drawn from nothing.
    cfg = preset_config("nano", vocab_size=40, seed=7, num_layers=layers)
    params = init_params(cfg)
    assert list(params.tensors) == tensor_names(cfg) == list(tensor_shapes(cfg))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0x1A17)))
    for name in tensor_names(cfg):
        got = params.tensors[name]
        assert got.shape == tensor_shapes(cfg)[name], name
        if got.ndim == 2:
            want = stats.truncnorm.rvs(-2.0, 2.0, loc=0.0, scale=0.02,
                                       size=got.shape, random_state=rng)
            assert got.tobytes() == np.asarray(want, dtype=np.float32).tobytes(), name


# ------------------------------------------------------------------ forward

def test_forward_shape_contract():
    cfg = preset_config("nano", vocab_size=100, seed=1)
    params = init_params(cfg)
    ids, pad = make_batch(cfg, [8, 8], rng_of(2))
    out = forward(params, ids, pad)
    assert out.shape == (2, 8, 100)


def test_forward_eval_deterministic(micro_config, micro_params):
    ids, pad = make_batch(micro_config, [6, 8], rng_of(3))
    a = forward(micro_params, ids, pad)
    b = forward(micro_params, ids, pad)
    np.testing.assert_array_equal(a, b)


def test_forward_train_requires_rng():
    cfg = preset_config("nano", vocab_size=50, seed=2)
    params = init_params(cfg)
    ids, pad = make_batch(cfg, [6], rng_of(4))
    with pytest.raises(ValueError):
        forward(params, ids, pad, train=True)


def test_forward_rejects_bad_inputs(micro_config, micro_params):
    ids, pad = make_batch(micro_config, [6], rng_of(5))
    with pytest.raises(ValueError):
        forward(micro_params, np.full_like(ids, 99), pad)  # id out of range
    long_ids = np.zeros((1, micro_config.maxlen + 1), dtype=np.int64)
    with pytest.raises(ValueError):
        forward(micro_params, long_ids, np.zeros_like(long_ids, dtype=bool))


def test_padding_isolation_content_swap():
    # swapping what sits at padded positions must not move real logits at all
    cfg = preset_config("nano", vocab_size=80, seed=5)
    params = init_params(cfg)
    rng = rng_of(9)
    ids, pad = make_batch(cfg, [6, 12], rng)
    base = np.asarray(forward(params, ids, pad))
    ids2 = ids.copy()
    ids2[0, 6:] = rng.integers(5, 80, size=ids.shape[1] - 6)
    swapped = np.asarray(forward(params, ids2, pad))
    assert np.abs(swapped[0, :6] - base[0, :6]).max() <= 1e-9
    assert np.abs(swapped[1] - base[1]).max() <= 1e-9


def test_padding_isolation_truncation_oracle():
    # double precision so the 1e-9 bound is meaningful; float32 summation
    # order across different sequence lengths already costs ~1e-7
    cfg = preset_config("nano", vocab_size=80, seed=5)
    params = init_params(cfg).astype(np.float64)
    rng = rng_of(10)
    ids, pad = make_batch(cfg, [6, 12], rng)
    padded = np.asarray(forward(params, ids, pad))
    truncated = np.asarray(forward(params, ids[0:1, :6], pad[0:1, :6]))
    assert np.abs(padded[0, :6] - truncated[0]).max() <= 1e-9


def test_padding_isolation_truncation_float32_sanity():
    cfg = preset_config("nano", vocab_size=80, seed=5)
    params = init_params(cfg)
    rng = rng_of(11)
    ids, pad = make_batch(cfg, [5, 11], rng)
    padded = np.asarray(forward(params, ids, pad))
    truncated = np.asarray(forward(params, ids[0:1, :5], pad[0:1, :5]))
    assert np.abs(padded[0, :5] - truncated[0]).max() <= 1e-6


def test_head_positions_gather_matches_full_forward(micro_config, micro_params):
    ids, pad, head = make_batch(micro_config, [6, 8], rng_of(12), with_head=True)
    full = np.asarray(forward(micro_params, ids, pad))
    gathered = np.asarray(forward(micro_params, ids, pad, head_positions=head))
    np.testing.assert_array_equal(gathered, full[head])


def test_dropout_changes_output_and_respects_rng(micro_config):
    cfg = dataclasses.replace(micro_config, dropout_p=0.3)
    params = init_params(cfg)
    ids, pad = make_batch(cfg, [8], rng_of(13))
    a = forward(params, ids, pad, train=True, rng=rng_of(100))
    b = forward(params, ids, pad, train=True, rng=rng_of(100))
    c = forward(params, ids, pad, train=True, rng=rng_of(101))
    np.testing.assert_array_equal(a, b)  # same stream, same noise
    assert np.abs(np.asarray(a) - np.asarray(c)).max() > 0  # new stream differs


def test_no_dropout_forward_draws_nothing(micro_config):
    # An eval forward, or a train forward at dropout_p 0, leaves the stream as it was.
    ids, pad = make_batch(micro_config, [8], rng_of(13))
    for cfg, train in ((dataclasses.replace(micro_config, dropout_p=0.3), False),
                       (micro_config, True)):
        rng = rng_of(100)
        forward(init_params(cfg), ids, pad, train=train, rng=rng, return_cache=True)
        assert rng.random() == rng_of(100).random()


def test_eval_forward_holds_no_backward_cache():
    # The batch calibration evaluates: 64 sequences of 126 tokens, nano model.
    cfg = preset_config("nano", vocab_size=181, seed=0)
    params = init_params(cfg)
    rng = rng_of(14)
    ids, pad = make_batch(cfg, [126] * 64, rng)
    head = (rng.random(ids.shape) < 0.15) & ~pad

    def peak(return_cache):
        tracemalloc.start()
        try:
            forward(params, ids, pad, head_positions=head, return_cache=return_cache)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(False) <= 0.8 * peak(True)


# ------------------------------------------------------------------ GELU

# Reference formulas that each run their own erf, independent of the cached
# CDF. The cached path must reproduce them bit for bit.
def _gelu_reference(x):
    return x * (0.5 * (1.0 + special.erf(x / float(np.sqrt(2.0)))))


def _gelu_grad_reference(x):
    cdf = 0.5 * (1.0 + special.erf(x / float(np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * float(1.0 / np.sqrt(2.0 * np.pi))
    return cdf + x * pdf


def _gelu_inputs(dtype):
    info = np.finfo(dtype)
    smallest_subnormal = np.nextafter(dtype(0), dtype(1))
    edge = np.array([0.0, 1e-3, 0.5, 1.0, 3.0, 8.0, 10.0, 40.0, 1e4,
                     info.tiny, smallest_subnormal, info.tiny / 4, info.max], dtype=dtype)
    draws = rng_of(30).normal(0.0, 3.0, size=512).astype(dtype)
    return np.concatenate([edge, -edge, draws])


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    uint = np.dtype(f"u{actual.dtype.itemsize}")
    np.testing.assert_array_equal(actual.view(uint), expected.view(uint))  # also +-0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_and_cached_grad_bitwise_equal_recomputing_formula(dtype):
    x = _gelu_inputs(dtype)
    assert np.signbit(x[np.nonzero(x == 0)[0]]).any()  # -0.0 is among the inputs
    with np.errstate(over="ignore"):  # x * x overflows at finfo.max in both paths
        act, cdf = _gelu(x)
        _assert_bitwise(act, _gelu_reference(x))
        _assert_bitwise(_gelu_grad(x, cdf), _gelu_grad_reference(x))
        # backward rebuilds the activation as u * cdf for the ffn_w2 gradient
        _assert_bitwise(x * cdf, act)


# ------------------------------------------------------------------ backward

def _loss_grad_setup(config, params, seed=20):
    rng = rng_of(seed)
    ids, pad, head = make_batch(config, [6, 8], rng, with_head=True)
    targets = rng.integers(0, config.vocab_size, size=int(head.sum()))
    loss_cfg = RegularizerConfig(mode=Mode.CP_L, beta=2.0 * float(np.log(config.vocab_size)))
    logits, cache = forward(params, ids, pad, head_positions=head, return_cache=True)
    dlogits = batch_loss_gradient(logits, targets, loss_cfg, 0.25)
    return ids, pad, head, targets, loss_cfg, logits, cache, dlogits


def test_backward_zero_upstream_gives_zero_grads(micro_config, micro_params):
    ids, pad, head, *_ = _loss_grad_setup(micro_config, micro_params)
    logits, cache = forward(micro_params, ids, pad, head_positions=head, return_cache=True)
    grads = backward(micro_params, cache, np.zeros_like(np.asarray(logits)))
    for name, g in grads.items():
        assert np.all(g == 0.0), name


def test_backward_rejects_stale_cache(micro_config, micro_params):
    ids, pad, head, *_ = _loss_grad_setup(micro_config, micro_params)
    logits, cache = forward(micro_params, ids, pad, head_positions=head, return_cache=True)
    other = init_params(micro_config)
    with pytest.raises(StaleCacheError):
        backward(other, cache, np.zeros_like(np.asarray(logits)))


def test_backward_matches_fd_sampled(micro_config):
    # spot FD audit here; the exhaustive/preset sweep runs in acceptance
    params = init_params(micro_config).astype(np.float64)
    ids, pad, head, targets, loss_cfg, logits, cache, dlogits = _loss_grad_setup(
        micro_config, params)
    grads = backward(params, cache, dlogits.astype(np.float64))

    def loss_of():
        lg = forward(params, ids, pad, head_positions=head)
        return batch_loss(lg, targets, loss_cfg, 0.25).total

    rng = rng_of(21)
    step = 1e-4
    for name in ("tok_emb", "pos_emb", "layer0.attn_wq", "layer0.ffn_w1", "head_w"):
        t = params.tensors[name]
        idx = rng.choice(t.size, size=min(10, t.size), replace=False)
        numeric = np.empty(len(idx))
        for j, fi in enumerate(idx):
            orig = t.flat[fi]
            t.flat[fi] = orig + step
            hi = loss_of()
            t.flat[fi] = orig - step
            lo = loss_of()
            t.flat[fi] = orig
            numeric[j] = (hi - lo) / (2 * step)
        analytic = grads[name].flat[idx]
        rel = np.linalg.norm(analytic - numeric) / max(1e-8, np.linalg.norm(numeric))
        assert rel < 1e-3, name


def test_tied_projection_gradient_splits_into_roles(micro_config):
    # sever the tie with finite differences: embedding role only (final
    # projection frozen at the unperturbed table) plus head role only
    # (network frozen, final projection perturbed) must sum to the
    # analytic gradient of the tied parameter.
    params = init_params(micro_config).astype(np.float64)
    ids, pad, head, targets, loss_cfg, logits, cache, dlogits = _loss_grad_setup(
        micro_config, params)
    grads = backward(params, cache, dlogits.astype(np.float64))
    tok = params.tensors["tok_emb"]
    w_frozen = tok.copy()
    out_bias = params.tensors["out_bias"]

    def loss_with_head_matrix(head_matrix):
        _, c = forward(params, ids, pad, head_positions=head, return_cache=True)
        lg = c.head_normed @ head_matrix.T + out_bias
        return batch_loss(lg, targets, loss_cfg, 0.25).total

    rng = rng_of(22)
    step = 1e-4
    idx = rng.choice(tok.size, size=12, replace=False)
    for fi in idx:
        orig = tok.flat[fi]
        # embedding role: perturb the table the network reads, project with frozen copy
        tok.flat[fi] = orig + step
        hi = loss_with_head_matrix(w_frozen)
        tok.flat[fi] = orig - step
        lo = loss_with_head_matrix(w_frozen)
        tok.flat[fi] = orig
        g_emb = (hi - lo) / (2 * step)
        # head role: freeze the network, perturb only the projection matrix
        w_hi = w_frozen.copy()
        w_hi.flat[fi] = orig + step
        w_lo = w_frozen.copy()
        w_lo.flat[fi] = orig - step
        g_head = (loss_with_head_matrix(w_hi) - loss_with_head_matrix(w_lo)) / (2 * step)
        combined = g_emb + g_head
        analytic = grads["tok_emb"].flat[fi]
        assert abs(analytic - combined) <= 1e-6 * max(1.0, abs(combined)), fi


def test_gradcheck_passes_on_every_preset():
    # the FD audit must hold on each architecture preset, dropout disabled;
    # sampled entries keep this fast
    from lenreg.gradcheck import check_encoder

    for name in sorted(MODEL_PRESETS):
        cfg = preset_config(name, vocab_size=48, seed=31, dropout_p=0.0)
        results = check_encoder(cfg, entries_per_tensor=4, seed=5)
        for fam, res in results.items():
            assert res.max_rel_err <= res.tolerance, (name, fam, res.max_rel_err)


# ------------------------------------------------------------------ properties

@given(st.integers(1, 3), st.integers(3, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_shape_property(b, s, seed):
    cfg = ModelConfig(hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
                      maxlen=8, vocab_size=12, dropout_p=0.0, seed=1)
    params = init_params(cfg)
    rng = rng_of(seed)
    lengths = [int(rng.integers(3, s + 1)) for _ in range(b)]
    ids, pad = make_batch(cfg, lengths, rng)
    out = forward(params, ids, pad)
    assert out.shape == (b, max(lengths), 12)
    assert np.all(np.isfinite(np.asarray(out)))
