"""Training objectives for confidence-regularized masked language modeling.

Six modes share one interface:

    mlm        plain cross-entropy on masked positions
    ls         label smoothing: (1-alpha)*CE + alpha*H(u, p), u uniform
    cp         confidence penalty: CE - beta*H(p)
    cp-l       length-adaptive hinged penalty: CE + max(0, beta*(1-r) - H(p))
    cp-avg-l   cp-l with r replaced by min(1, avg_len/maxlen)
    ls-l       label smoothing with alpha = T*(1-r)^2

r is the batch length ratio: the largest true (unpadded) token count in the
batch divided by the model's maximum sequence length. All entropies are in
nats. ``batch_loss`` averages per-position losses over the masked positions
of a batch; ``batch_loss_gradient`` returns the matching analytic gradient
with respect to the logits, which the finite-difference suite checks against
central differences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mode",
    "RegularizerConfig",
    "LossBreakdown",
    "softmax",
    "cross_entropy",
    "entropy",
    "kl_divergence",
    "length_ratio",
    "cp_l_penalty",
    "ls_l_alpha",
    "batch_loss",
    "batch_loss_gradient",
    "log_softmax_entropy",
    "hinge_margins",
    "hinge_active_fraction",
]


class Mode(enum.Enum):
    MLM = "mlm"
    LS = "ls"
    CP = "cp"
    CP_L = "cp-l"
    CP_AVG_L = "cp-avg-l"
    LS_L = "ls-l"

    @classmethod
    def parse(cls, name: str) -> "Mode":
        for mode in cls:
            if mode.value == name:
                return mode
        known = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown mode {name!r} (expected one of: {known})")


@dataclass(frozen=True)
class RegularizerConfig:
    """Hyperparameters for the regularized objectives.

    Fields not used by the active mode are ignored but still validated.
    ``avg_len`` is the dataset mean tokenized length and is only consulted by
    cp-avg-l, which also needs the model maxlen at call time. Leaving it None
    under cp-avg-l defers to the training loop, which fills in the dataset
    mean; computing a loss before then raises.
    """

    mode: Mode = Mode.MLM
    beta: float = 2.0
    alpha: float = 0.1
    T: float = 0.05
    avg_len: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be a finite non-negative real, got {self.beta}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0.0 <= self.T <= 1.0):
            raise ValueError(f"T must lie in [0, 1], got {self.T}")
        if self.avg_len is not None and not (self.avg_len > 0):
            raise ValueError(f"avg_len must be positive when set, got {self.avg_len}")


@dataclass(frozen=True)
class LossBreakdown:
    """Decomposition of a batch loss: total == ce_term + penalty_term."""

    total: float
    ce_term: float
    penalty_term: float
    entropy_mean: float
    ratio_r: float


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of a single logit vector (shifted by the max)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError(f"expected a non-empty 1-D logit vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    e = np.exp(z - z.max())
    return e / e.sum()


def cross_entropy(probs: np.ndarray, target: int) -> float:
    """-ln(probs[target]) in nats.

    When logits are available, prefer the batch path, which goes through
    log-softmax instead of the log of a possibly underflowed probability.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D distribution, got shape {p.shape}")
    if not 0 <= target < p.shape[0]:
        raise IndexError(f"target {target} out of range for {p.shape[0]} classes")
    _check_dist(p)
    with np.errstate(divide="ignore"):
        return float(-np.log(p[target]))


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy -sum(p*ln p) in nats, with 0*ln(0) taken as 0."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D distribution, got shape {p.shape}")
    _check_dist(p)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; requires support(p) included in support(q)."""
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape or pa.ndim != 1:
        raise ValueError(f"shape mismatch: {pa.shape} vs {qa.shape}")
    _check_dist(pa)
    _check_dist(qa)
    mask = pa > 0
    if np.any(qa[mask] == 0):
        raise ValueError("KL undefined: q has zero mass where p is positive")
    return float((pa[mask] * np.log(pa[mask] / qa[mask])).sum())


def _check_dist(p: np.ndarray) -> None:
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and non-negative")
    s = p.sum()
    if abs(s - 1.0) > 1e-6:
        raise ValueError(f"probabilities must sum to 1, got {s}")


def length_ratio(lengths, maxlen: int) -> float:
    """Max-pooled batch length ratio: max(true lengths) / maxlen."""
    arr = np.asarray(lengths)
    if arr.size == 0:
        raise ValueError("lengths must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer) or np.any(arr < 1):
        raise ValueError("lengths must be positive integers")
    if maxlen < 1:
        raise ValueError(f"maxlen must be positive, got {maxlen}")
    if np.any(arr > maxlen):
        raise ValueError("a sequence length exceeds maxlen")
    return float(arr.max()) / float(maxlen)


def cp_l_penalty(probs: np.ndarray, beta: float, r: float) -> float:
    """Hinged entropy penalty max(0, beta*(1-r) - H(probs)) for one position."""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return max(0.0, beta * (1.0 - r) - entropy(probs))


def ls_l_alpha(T: float, r: float) -> float:
    """Length-adaptive smoothing weight T*(1-r)^2."""
    if not (0.0 <= T <= 1.0):
        raise ValueError(f"T must lie in [0, 1], got {T}")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    return T * (1.0 - r) ** 2


def log_softmax_entropy(logits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``(logp, p, H)`` in float64 for (N, V) logits.

    The single log-softmax in the lab: losses, hinge telemetry and the
    calibration evaluator all read probabilities and entropies from here.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0 or z.shape[1] < 2:
        raise ValueError(f"expected (N, V) logits with N >= 1, V >= 2, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    p = np.exp(logp)
    return logp, p, -(p * logp).sum(axis=1)


def _prepare(logits, targets):
    logp, p, ent = log_softmax_entropy(logits)
    t = np.asarray(targets)
    if t.shape != (logp.shape[0],):
        raise ValueError(f"targets shape {t.shape} does not match {logp.shape[0]} positions")
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("targets must be integers")
    if np.any(t < 0) or np.any(t >= logp.shape[1]):
        raise IndexError("target id out of vocabulary range")
    ce = -logp[np.arange(logp.shape[0]), t]
    return t, logp, p, ent, ce


def _entropy_grad(logp: np.ndarray, p: np.ndarray, ent: np.ndarray) -> np.ndarray:
    """dH/dz_k = -p_k*(ln p_k + H) for every position."""
    return -p * (logp + ent[:, None])


def _effective_ratio(config: RegularizerConfig, r: float, maxlen: int | None) -> float:
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if config.mode is not Mode.CP_AVG_L:
        return r
    if maxlen is None:
        raise ValueError("mode cp-avg-l requires maxlen")
    if config.avg_len is None:
        raise ValueError("mode cp-avg-l requires avg_len")
    return min(1.0, config.avg_len / maxlen)


def batch_loss(
    logits,
    targets,
    config: RegularizerConfig,
    r: float,
    *,
    maxlen: int | None = None,
) -> LossBreakdown:
    """Mean per-position loss over the masked positions of one batch.

    ``logits`` is (N, V) over the N masked positions, ``targets`` the original
    token ids there, ``r`` the batch length ratio. The breakdown satisfies
    total == ce_term + penalty_term, with penalty_term == 0 for mlm and
    penalty_term >= 0 for cp-l / cp-avg-l.
    """
    t, logp, p, ent, ce = _prepare(logits, targets)
    r_eff = _effective_ratio(config, r, maxlen)
    n = ce.shape[0]
    ce_term = float(ce.mean())
    ent_mean = float(ent.mean())

    mode = config.mode
    if mode is Mode.MLM:
        penalty = 0.0
    elif mode in (Mode.LS, Mode.LS_L):
        alpha = config.alpha if mode is Mode.LS else ls_l_alpha(config.T, r_eff)
        # H(u, p) per position is the mean of -ln p over the vocabulary; the
        # uniform distribution is never materialized.
        h_up = -logp.mean(axis=1)
        penalty = float(alpha * (h_up.mean() - ce.mean()))
    elif mode is Mode.CP:
        penalty = float(-config.beta * ent.mean())
    elif mode in (Mode.CP_L, Mode.CP_AVG_L):
        hinge = np.maximum(0.0, config.beta * (1.0 - r_eff) - ent)
        penalty = float(hinge.mean())
    else:  # pragma: no cover - exhaustive over Mode
        raise ValueError(f"unhandled mode {mode}")

    total = ce_term + penalty
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite batch loss over {n} positions")
    return LossBreakdown(
        total=total,
        ce_term=ce_term,
        penalty_term=penalty,
        entropy_mean=ent_mean,
        ratio_r=r_eff,
    )


def batch_loss_gradient(
    logits,
    targets,
    config: RegularizerConfig,
    r: float,
    *,
    maxlen: int | None = None,
) -> np.ndarray:
    """Analytic d(total)/d(logits), shape (N, V), for the active mode.

    Uses dH/dz_k = -p_k*(ln p_k + H) and d(CE)/dz = p - onehot(target); the
    hinge contributes nothing when inactive, with subgradient 0 at the kink.
    """
    t, logp, p, ent, _ = _prepare(logits, targets)
    r_eff = _effective_ratio(config, r, maxlen)
    n, v = p.shape
    g_ce = p.copy()
    g_ce[np.arange(n), t] -= 1.0

    mode = config.mode
    if mode is Mode.MLM:
        grad = g_ce
    elif mode in (Mode.LS, Mode.LS_L):
        alpha = config.alpha if mode is Mode.LS else ls_l_alpha(config.T, r_eff)
        g_unif = p - 1.0 / v
        grad = (1.0 - alpha) * g_ce + alpha * g_unif
    elif mode is Mode.CP:
        grad = g_ce - config.beta * _entropy_grad(logp, p, ent)
    elif mode in (Mode.CP_L, Mode.CP_AVG_L):
        active = (config.beta * (1.0 - r_eff) - ent) > 0.0
        grad = g_ce - active[:, None] * _entropy_grad(logp, p, ent)
    else:  # pragma: no cover - exhaustive over Mode
        raise ValueError(f"unhandled mode {mode}")

    return grad / n


def hinge_margins(logits, config: RegularizerConfig, r: float, maxlen: int | None = None) -> np.ndarray:
    """Per-position hinge argument beta*(1 - r) - H(p); the hinge is active where > 0.

    ``r`` is replaced by the cp-avg-l ratio under that mode, as in the loss.
    """
    _, _, ent = log_softmax_entropy(logits)
    return config.beta * (1.0 - _effective_ratio(config, r, maxlen)) - ent


def hinge_active_fraction(logits, config: RegularizerConfig, r: float, *, maxlen: int | None = None) -> float:
    """Fraction of positions whose hinge is strictly active.

    Zero for modes without a hinge. Logged by the trainer as telemetry.
    """
    if config.mode not in (Mode.CP_L, Mode.CP_AVG_L):
        return 0.0
    return float(np.mean(hinge_margins(logits, config, r, maxlen) > 0.0))
