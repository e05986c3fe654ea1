"""Miniature bidirectional transformer encoder with hand-derived gradients.

Post-layer-norm residual blocks, learned absolute position embeddings, GELU
feed-forward, and a masked-token prediction head whose output projection is
tied to the transpose of the token embedding (the output bias is untied).
Single-segment inputs only: sequences look like [CLS] tokens... [SEP] and
there is no next-sentence objective.

``forward(..., return_cache=True)`` keeps every intermediate that
``backward`` needs; without it, each layer's intermediates are freed as the
next layer runs. ``backward`` implements reverse-mode differentiation by
hand; the test suite checks every parameter family against central finite
differences. No autograd framework is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import special, stats

__all__ = [
    "ModelConfig",
    "ModelParams",
    "ForwardCache",
    "MODEL_PRESETS",
    "StaleCacheError",
    "init_params",
    "forward",
    "backward",
    "param_count",
    "tensor_names",
]

_INIT_STD = 0.02  # truncated at +-2 std
_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class StaleCacheError(RuntimeError):
    """Raised when backward receives a cache built for different parameters."""


@dataclass(frozen=True)
class ModelConfig:
    hidden_size: int
    num_layers: int
    num_heads: int
    ffn_size: int
    maxlen: int
    vocab_size: int
    dropout_p: float = 0.1
    layernorm_eps: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("hidden_size", "num_layers", "num_heads", "ffn_size", "maxlen", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.layernorm_eps <= 0:
            raise ValueError("layernorm_eps must be positive")
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the 5 reserved ids plus content")


# Architecture presets; vocab_size is data-dependent and supplied by the caller.
MODEL_PRESETS: dict[str, dict] = {
    "mini": dict(hidden_size=256, num_layers=4, num_heads=4, ffn_size=1024, maxlen=512),
    "nano": dict(hidden_size=64, num_layers=2, num_heads=2, ffn_size=256, maxlen=128),
}


def preset_config(name: str, vocab_size: int, seed: int = 0, **overrides) -> ModelConfig:
    if name not in MODEL_PRESETS:
        raise ValueError(f"unknown model preset {name!r} (expected one of {sorted(MODEL_PRESETS)})")
    kw = dict(MODEL_PRESETS[name])
    kw.update(overrides)
    return ModelConfig(vocab_size=vocab_size, seed=seed, **kw)


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in canonical order: also the init draw order
    and the checkpoint manifest order."""
    h, f, v, m = config.hidden_size, config.ffn_size, config.vocab_size, config.maxlen
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, h), "pos_emb": (m, h), "emb_ln_g": (h,), "emb_ln_b": (h,),
    }
    for i in range(config.num_layers):
        p = f"layer{i}."
        shapes.update({
            p + "attn_wq": (h, h), p + "attn_bq": (h,),
            p + "attn_wk": (h, h), p + "attn_bk": (h,),
            p + "attn_wv": (h, h), p + "attn_bv": (h,),
            p + "attn_wo": (h, h), p + "attn_bo": (h,),
            p + "attn_ln_g": (h,), p + "attn_ln_b": (h,),
            p + "ffn_w1": (h, f), p + "ffn_b1": (f,),
            p + "ffn_w2": (f, h), p + "ffn_b2": (h,),
            p + "ffn_ln_g": (h,), p + "ffn_ln_b": (h,),
        })
    shapes.update({
        "head_w": (h, h), "head_b": (h,), "head_ln_g": (h,), "head_ln_b": (h,),
        "out_bias": (v,),
    })
    return shapes


def tensor_names(config: ModelConfig) -> list[str]:
    """Canonical tensor order; also the checkpoint manifest order."""
    return list(tensor_shapes(config))


def param_count(config: ModelConfig) -> int:
    """Closed-form parameter count; regression-tested against actual tensors."""
    h, f, v, m, n = (
        config.hidden_size, config.ffn_size, config.vocab_size,
        config.maxlen, config.num_layers,
    )
    per_layer = 4 * h * h + 2 * h * f + f + 9 * h
    return v * h + m * h + 2 * h + n * per_layer + (h * h + 3 * h + v)


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["tok_emb"].dtype

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(self.config, {k: v.astype(dtype) for k, v in self.tensors.items()})

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Truncated-normal(0, 0.02) matrices, unit LN scales (``*_g``), zero
    biases and LN offsets.

    Deterministic given config.seed; the matrices are drawn in canonical
    (``tensor_shapes``) order so the stream layout is stable across runs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0x1A17)))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if len(shape) == 2:
            draw = stats.truncnorm.rvs(-2.0, 2.0, loc=0.0, scale=_INIT_STD,
                                       size=shape, random_state=rng)
            tensors[name] = np.asarray(draw, dtype=dtype)
        elif name.endswith("_g"):
            tensors[name] = np.ones(shape, dtype=dtype)
        else:
            tensors[name] = np.zeros(shape, dtype=dtype)
    return ModelParams(config, tensors)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (erf) GELU, x * Phi(x), and the standard normal CDF Phi(x).

    ``forward`` caches Phi so that ``backward`` needs no second ``erf``.
    """
    cdf = 0.5 * (1.0 + special.erf(x / _SQRT2))
    return x * cdf, cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """GELU'(x) = Phi(x) + x * phi(x), with Phi(x) as returned by ``_gelu``."""
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return cdf + x * pdf


def _ln_forward(x, g, b, eps):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ln_backward(dy, g, cache):
    xhat, inv = cache
    h = xhat.shape[-1]
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxh = dy * g
    dx = (inv / h) * (h * dxh - dxh.sum(axis=-1, keepdims=True)
                      - xhat * (dxh * xhat).sum(axis=-1, keepdims=True))
    return dx, dg, db


def _dropout(x, p, rng):
    """Inverted dropout: ``(x * keep / (1 - p), keep)``; ``(x, None)``
    without drawing when ``rng`` is None."""
    if rng is None:
        return x, None
    keep = rng.random(x.shape) >= p
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)  # keep float32 paths float32
    return x * (keep * scale), keep


def _undrop(d, keep, scale):
    """Gradient through ``_dropout``, given its ``keep`` mask (None: identity)."""
    return d if keep is None else d * (keep * scale)


@dataclass
class ForwardCache:
    params: ModelParams
    token_ids: np.ndarray
    head_positions: Optional[np.ndarray]
    emb_ln: tuple
    emb_drop: Optional[np.ndarray]
    layers: list
    head_in: np.ndarray
    head_pre: np.ndarray
    head_cdf: np.ndarray
    head_ln: tuple
    head_normed: np.ndarray


def forward(
    params: ModelParams,
    token_ids: np.ndarray,
    pad_mask: Optional[np.ndarray] = None,
    *,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    head_positions: Optional[np.ndarray] = None,
    return_cache: bool = False,
):
    """Logits at every position, (B, S, V); or (N, V) when ``head_positions``
    restricts the prediction head to the N flagged positions (row-major order).

    ``pad_mask`` is True at padding; padded keys are excluded from attention,
    so logits at real positions are invariant to padded content. Dropout runs
    only when ``train`` is set and draws from ``rng``.
    """
    cfg = params.config
    t = params.tensors
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ValueError(f"token_ids must be (B, S), got shape {ids.shape}")
    b, s = ids.shape
    if s < 1 or s > cfg.maxlen:
        raise ValueError(f"sequence length {s} outside [1, maxlen={cfg.maxlen}]")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise ValueError("token id outside the vocabulary")
    if pad_mask is None:
        pad_mask = np.zeros((b, s), dtype=bool)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != (b, s):
        raise ValueError(f"pad_mask shape {pad_mask.shape} does not match ids {ids.shape}")
    dropping = train and cfg.dropout_p > 0.0
    if dropping and rng is None:
        raise ValueError("train-mode forward with dropout requires an rng stream")
    drop_rng = rng if dropping else None

    dtype = params.dtype
    p_drop = cfg.dropout_p
    nh = cfg.num_heads
    hd = cfg.hidden_size // nh
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=dtype)
    neg_inf = np.asarray(-np.inf, dtype=dtype)

    x0 = t["tok_emb"][ids] + t["pos_emb"][:s]
    e, emb_ln = _ln_forward(x0, t["emb_ln_g"], t["emb_ln_b"], cfg.layernorm_eps)
    x, emb_drop = _dropout(e, p_drop, drop_rng)

    layer_caches = []
    for i in range(cfg.num_layers):
        pfx = f"layer{i}."
        x_in = x
        x2d = x.reshape(b * s, -1)
        q = (x2d @ t[pfx + "attn_wq"] + t[pfx + "attn_bq"]).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
        k = (x2d @ t[pfx + "attn_wk"] + t[pfx + "attn_bk"]).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
        v = (x2d @ t[pfx + "attn_wv"] + t[pfx + "attn_bv"]).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
        scores = np.where(pad_mask[:, None, None, :], neg_inf, scores)
        scores -= scores.max(axis=-1, keepdims=True)
        ew = np.exp(scores)
        attn = ew / ew.sum(axis=-1, keepdims=True)
        attn_used, attn_drop = _dropout(attn, p_drop, drop_rng)
        ctx = np.matmul(attn_used, v).transpose(0, 2, 1, 3).reshape(b * s, -1)
        proj = ctx @ t[pfx + "attn_wo"] + t[pfx + "attn_bo"]
        proj, proj_drop = _dropout(proj, p_drop, drop_rng)
        x1, ln1 = _ln_forward(x_in + proj.reshape(b, s, -1),
                              t[pfx + "attn_ln_g"], t[pfx + "attn_ln_b"], cfg.layernorm_eps)

        x1_2d = x1.reshape(b * s, -1)
        u = x1_2d @ t[pfx + "ffn_w1"] + t[pfx + "ffn_b1"]
        hact, u_cdf = _gelu(u)
        f = hact @ t[pfx + "ffn_w2"] + t[pfx + "ffn_b2"]
        del hact  # backward rebuilds it from u and u_cdf
        f, ffn_drop = _dropout(f, p_drop, drop_rng)
        x, ln2 = _ln_forward(x1 + f.reshape(b, s, -1),
                             t[pfx + "ffn_ln_g"], t[pfx + "ffn_ln_b"], cfg.layernorm_eps)
        if return_cache:  # otherwise this layer's intermediates die with the next one
            layer_caches.append(dict(
                x_in=x_in, q=q, k=k, v=v, attn=attn, attn_used=attn_used,
                attn_drop=attn_drop, ctx=ctx, proj_drop=proj_drop, ln1=ln1,
                x1=x1, u=u, u_cdf=u_cdf, ffn_drop=ffn_drop, ln2=ln2,
            ))

    if head_positions is not None:
        head_positions = np.asarray(head_positions, dtype=bool)
        if head_positions.shape != (b, s):
            raise ValueError(f"head_positions shape {head_positions.shape} does not match ids")
        head_in = x[head_positions]
    else:
        head_in = x.reshape(b * s, -1)
    head_pre = head_in @ t["head_w"] + t["head_b"]
    head_act, head_cdf = _gelu(head_pre)
    head_normed, head_ln = _ln_forward(head_act, t["head_ln_g"], t["head_ln_b"], cfg.layernorm_eps)
    logits = head_normed @ t["tok_emb"].T + t["out_bias"]
    if head_positions is None:
        logits = logits.reshape(b, s, cfg.vocab_size)

    if not return_cache:
        return logits
    cache = ForwardCache(
        params=params, token_ids=ids, head_positions=head_positions,
        emb_ln=emb_ln, emb_drop=emb_drop,
        layers=layer_caches, head_in=head_in, head_pre=head_pre, head_cdf=head_cdf,
        head_ln=head_ln, head_normed=head_normed,
    )
    return logits, cache


def backward(params: ModelParams, cache: ForwardCache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for the loss whose logit gradient is ``dlogits``.

    ``dlogits`` is (N, V) when the forward gathered head positions, else
    (B, S, V). The tied token embedding accumulates both its lookup role and
    its output-projection role. Positions absent from ``dlogits`` (or given
    zero rows) contribute exactly zero.
    """
    if cache.params is not params:
        raise StaleCacheError("forward cache was built for different parameters")
    cfg = params.config
    t = params.tensors
    ids = cache.token_ids
    b, s = ids.shape
    nh = cfg.num_heads
    hd = cfg.hidden_size // nh
    dtype = params.dtype
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=dtype)
    drop_scale = np.asarray(1.0 / (1.0 - cfg.dropout_p), dtype=dtype)

    grads: dict[str, np.ndarray] = {}
    dl = np.asarray(dlogits, dtype=dtype)
    if cache.head_positions is not None:
        n_rows = int(cache.head_positions.sum())
        if dl.shape != (n_rows, cfg.vocab_size):
            raise ValueError(f"dlogits shape {dl.shape} does not match gathered head of {n_rows} rows")
    else:
        if dl.shape != (b, s, cfg.vocab_size):
            raise ValueError(f"dlogits shape {dl.shape} does not match (B, S, V)")
        dl = dl.reshape(b * s, cfg.vocab_size)

    grads["out_bias"] = dl.sum(axis=0)
    d_tok_emb = dl.T @ cache.head_normed  # output-projection role of the tied embedding
    dhead_normed = dl @ t["tok_emb"]
    dhead_act, dg, db = _ln_backward(dhead_normed, t["head_ln_g"], cache.head_ln)
    grads["head_ln_g"], grads["head_ln_b"] = dg, db
    dhead_pre = dhead_act * _gelu_grad(cache.head_pre, cache.head_cdf)
    grads["head_w"] = cache.head_in.T @ dhead_pre
    grads["head_b"] = dhead_pre.sum(axis=0)
    dhead_in = dhead_pre @ t["head_w"].T

    if cache.head_positions is not None:
        dx = np.zeros((b, s, cfg.hidden_size), dtype=dtype)
        dx[cache.head_positions] = dhead_in
    else:
        dx = dhead_in.reshape(b, s, cfg.hidden_size)

    for i in reversed(range(cfg.num_layers)):
        pfx = f"layer{i}."
        lc = cache.layers[i]
        dsum2, dg, db = _ln_backward(dx, t[pfx + "ffn_ln_g"], lc["ln2"])
        grads[pfx + "ffn_ln_g"], grads[pfx + "ffn_ln_b"] = dg, db
        df = _undrop(dsum2.reshape(b * s, -1), lc["ffn_drop"], drop_scale)
        # GELU(u) rebuilt with _gelu's own operands and op, so bitwise its output.
        grads[pfx + "ffn_w2"] = (lc["u"] * lc["u_cdf"]).T @ df
        grads[pfx + "ffn_b2"] = df.sum(axis=0)
        dh = df @ t[pfx + "ffn_w2"].T
        du = dh * _gelu_grad(lc["u"], lc["u_cdf"])
        x1_2d = lc["x1"].reshape(b * s, -1)
        grads[pfx + "ffn_w1"] = x1_2d.T @ du
        grads[pfx + "ffn_b1"] = du.sum(axis=0)
        dx1 = dsum2 + (du @ t[pfx + "ffn_w1"].T).reshape(b, s, -1)

        dsum1, dg, db = _ln_backward(dx1, t[pfx + "attn_ln_g"], lc["ln1"])
        grads[pfx + "attn_ln_g"], grads[pfx + "attn_ln_b"] = dg, db
        dproj = _undrop(dsum1.reshape(b * s, -1), lc["proj_drop"], drop_scale)
        grads[pfx + "attn_wo"] = lc["ctx"].T @ dproj
        grads[pfx + "attn_bo"] = dproj.sum(axis=0)
        dctx = (dproj @ t[pfx + "attn_wo"].T).reshape(b, s, nh, hd).transpose(0, 2, 1, 3)
        dattn_used = np.matmul(dctx, lc["v"].transpose(0, 1, 3, 2))
        dv = np.matmul(lc["attn_used"].transpose(0, 1, 3, 2), dctx)
        dattn = _undrop(dattn_used, lc["attn_drop"], drop_scale)
        a = lc["attn"]
        dscores = a * (dattn - (dattn * a).sum(axis=-1, keepdims=True))
        dscores = dscores * scale
        dq = np.matmul(dscores, lc["k"])
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), lc["q"])

        x_in_2d = lc["x_in"].reshape(b * s, -1)
        dx_in = dsum1
        for nm, dval in (("q", dq), ("k", dk), ("v", dv)):
            d2d = dval.transpose(0, 2, 1, 3).reshape(b * s, -1)
            grads[pfx + f"attn_w{nm}"] = x_in_2d.T @ d2d
            grads[pfx + f"attn_b{nm}"] = d2d.sum(axis=0)
            dx_in = dx_in + (d2d @ t[pfx + f"attn_w{nm}"].T).reshape(b, s, -1)
        dx = dx_in

    dx = _undrop(dx, cache.emb_drop, drop_scale)
    dx0, dg, db = _ln_backward(dx, t["emb_ln_g"], cache.emb_ln)
    grads["emb_ln_g"], grads["emb_ln_b"] = dg, db
    grads["pos_emb"] = np.zeros_like(t["pos_emb"])
    grads["pos_emb"][:s] = dx0.sum(axis=0)
    d_tok = np.zeros_like(t["tok_emb"])
    np.add.at(d_tok, ids.reshape(-1), dx0.reshape(b * s, -1))
    grads["tok_emb"] = d_tok + d_tok_emb.astype(dtype)
    return grads
