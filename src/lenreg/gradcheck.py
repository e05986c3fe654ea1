"""Finite-difference audits for the analytic gradients.

Two suites: per-mode checks of the loss gradient on random small batches,
and parameter-space checks of the full network (exhaustive on a micro
model, sampled entries on a named preset). Network checks run on float64
copies of the parameters so the difference quotient is not drowned by
float32 rounding; step sizes are chosen per suite accordingly.

Relative error for one instance (or one tensor's sampled coordinate set)
is the vector form ||a - b|| / max(1e-8, ||b||): robust to single
near-zero coordinates where the difference quotient is all rounding
noise, while any dropped or sign-flipped term still shows up at O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .encoder import ModelConfig, backward, forward, init_params, preset_config, tensor_names
from .losses import Mode, RegularizerConfig, batch_loss, batch_loss_gradient, hinge_margins

LOSS_FD_STEP = 1e-5
ENCODER_FD_STEP = 1e-4
LOSS_TOL = 1e-4
ENCODER_TOL = 1e-3

# Stay away from the hinge kink: central differences straddle the
# non-differentiable point when the margin is smaller than the step.
_KINK_MARGIN = 1e-3

_MICRO = ModelConfig(hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
                     maxlen=8, vocab_size=12, dropout_p=0.0, seed=7)


@dataclass(frozen=True)
class FamilyResult:
    family: str
    max_rel_err: float
    tolerance: float
    n_checks: int


def _merge(into: dict[str, FamilyResult], res: FamilyResult) -> None:
    """Fold ``res`` into its family's entry: worst error, summed check count."""
    prev = into.get(res.family)
    into[res.family] = res if prev is None else FamilyResult(
        res.family, max(prev.max_rel_err, res.max_rel_err), res.tolerance,
        prev.n_checks + res.n_checks)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(1e-8, np.linalg.norm(b)))


def _random_loss_instance(mode: Mode, rng: np.random.Generator):
    n = int(rng.integers(1, 7))
    v = int(rng.integers(2, 17))
    logits = rng.normal(0.0, 2.0, size=(n, v))
    targets = rng.integers(0, v, size=n)
    r = float(rng.uniform(0.0, 1.0))
    maxlen = 128
    beta = float(rng.choice([0.5, 2.0, 6.0]))
    kw = {}
    if mode is Mode.CP_AVG_L:
        kw["avg_len"] = float(rng.uniform(4.0, maxlen))
    config = RegularizerConfig(mode=mode, beta=beta,
                               alpha=float(rng.uniform(0.0, 0.5)),
                               T=float(rng.uniform(0.0, 0.3)), **kw)
    return logits, targets, config, r, maxlen


def fd_loss_grad(logits, targets, config, r, maxlen, step=LOSS_FD_STEP):
    """Central-difference gradient of the total loss in the logits."""
    base = np.asarray(logits, dtype=np.float64)
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        bumped = base.copy()
        bumped[idx] = base[idx] + step
        hi = batch_loss(bumped, targets, config, r, maxlen=maxlen).total
        bumped[idx] = base[idx] - step
        lo = batch_loss(bumped, targets, config, r, maxlen=maxlen).total
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def check_loss_mode(mode: Mode, instances: int, seed: int = 0) -> FamilyResult:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xFD, list(Mode).index(mode))))
    worst = 0.0
    checked = 0
    active_rows = inactive_rows = 0
    made = 0
    while made < instances:
        logits, targets, config, r, maxlen = _random_loss_instance(mode, rng)
        if mode in (Mode.CP_L, Mode.CP_AVG_L):
            margins = hinge_margins(logits, config, r, maxlen)
            if np.abs(margins).min() < _KINK_MARGIN:
                continue
            active_rows += int((margins > 0).sum())
            inactive_rows += int((margins < 0).sum())
        made += 1
        analytic = batch_loss_gradient(logits, targets, config, r, maxlen=maxlen)
        numeric = fd_loss_grad(logits, targets, config, r, maxlen)
        worst = max(worst, rel_err(analytic, numeric))
        checked += analytic.size
    if mode in (Mode.CP_L, Mode.CP_AVG_L) and (active_rows == 0 or inactive_rows == 0):
        raise RuntimeError(f"{mode.value}: hinge branch coverage incomplete "
                           f"(active={active_rows}, inactive={inactive_rows})")
    return FamilyResult(f"loss[{mode.value}]", worst, LOSS_TOL, checked)


def _family_of(name: str) -> str:
    head, dot, rest = name.partition(".")
    if dot and head.startswith("layer") and head[5:].isdigit():
        return "layer*." + rest
    return name


def _encoder_case(config: ModelConfig, rng: np.random.Generator):
    """A small mixed-length batch with gathered prediction positions."""
    s = min(config.maxlen, 8)
    lengths = [s, max(3, s - 2)]
    ids = np.zeros((2, s), dtype=np.int64)
    pad = np.ones((2, s), dtype=bool)
    head = np.zeros((2, s), dtype=bool)
    for b, ln in enumerate(lengths):
        ids[b, 0] = 2
        ids[b, ln - 1] = 3
        ids[b, 1:ln - 1] = rng.integers(5, config.vocab_size, size=ln - 2)
        pad[b, :ln] = False
        k = int(rng.integers(1, ln - 1))
        pos = rng.choice(np.arange(1, ln - 1), size=min(k, ln - 2), replace=False)
        head[b, pos] = True
    n = int(head.sum())
    targets = rng.integers(0, config.vocab_size, size=n)
    # beta large enough that the hinge is active at near-uniform entropy,
    # so the audit exercises the entropy term through the network.
    loss_cfg = RegularizerConfig(mode=Mode.CP_L, beta=2.0 * np.log(config.vocab_size))
    return ids, pad, head, targets, loss_cfg, 0.25


def _loss_of(params, ids, pad, head, targets, loss_cfg, r):
    logits = forward(params, ids, pad, head_positions=head)
    return batch_loss(logits, targets, loss_cfg, r).total


def check_encoder(config: ModelConfig, entries_per_tensor: int | None,
                  seed: int = 0) -> dict[str, FamilyResult]:
    """FD audit of every parameter family; None samples means exhaustive."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xFD, 0xE7C)))
    params = init_params(config).astype(np.float64)
    ids, pad, head, targets, loss_cfg, r = _encoder_case(config, rng)

    logits, cache = forward(params, ids, pad, head_positions=head, return_cache=True)
    dlogits = batch_loss_gradient(logits, targets, loss_cfg, r)
    analytic = backward(params, cache, dlogits.astype(np.float64))

    margins = hinge_margins(logits, loss_cfg, r, config.maxlen)
    if np.abs(margins).min() < _KINK_MARGIN:
        raise RuntimeError("audit batch sits on the hinge kink; reseed")

    out: dict[str, FamilyResult] = {}
    for name in tensor_names(config):
        tensor = params.tensors[name]
        n = tensor.size
        if entries_per_tensor is None or n <= entries_per_tensor:
            flat_indices = np.arange(n)
        else:
            flat_indices = rng.choice(n, size=entries_per_tensor, replace=False)
        numeric = np.empty(len(flat_indices))
        for j, fi in enumerate(flat_indices):
            orig = tensor.flat[fi]
            tensor.flat[fi] = orig + ENCODER_FD_STEP
            hi = _loss_of(params, ids, pad, head, targets, loss_cfg, r)
            tensor.flat[fi] = orig - ENCODER_FD_STEP
            lo = _loss_of(params, ids, pad, head, targets, loss_cfg, r)
            tensor.flat[fi] = orig
            numeric[j] = (hi - lo) / (2.0 * ENCODER_FD_STEP)
        worst = rel_err(analytic[name].flat[flat_indices], numeric)
        _merge(out, FamilyResult(_family_of(name), worst, ENCODER_TOL, len(flat_indices)))
    return out


def run_suite(preset: str = "nano", loss_instances: int = 200,
              entries_per_tensor: int = 20, seed: int = 0) -> list[FamilyResult]:
    results = [check_loss_mode(mode, loss_instances, seed) for mode in Mode]

    micro = check_encoder(replace(_MICRO, seed=seed + 7), None, seed)
    sampled_cfg = preset_config(preset, vocab_size=64, seed=seed + 11, dropout_p=0.0)
    sampled = check_encoder(sampled_cfg, entries_per_tensor, seed)
    merged: dict[str, FamilyResult] = {}
    for res in [*micro.values(), *sampled.values()]:
        _merge(merged, res)
    results.extend(merged[k] for k in sorted(merged))
    return results
