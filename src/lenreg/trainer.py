"""Training loop: linear warmup/decay schedule, AdamW, dynamic masking.

Batches are length-grouped per epoch and re-masked every epoch from
per-(epoch, batch) seed streams, so two runs with the same seed are bitwise
identical and two modes under one seed see identical data, masking, and
dropout streams. The loss is evaluated only at masked positions; gradient
contributions from unmasked positions are exactly zero by construction.

A non-finite loss or gradient norm aborts training, before AdamW touches
the parameters, with a diagnostic dump of the offending batch rather than
continuing on garbage.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .corpus import TokenSequence, Vocab, group_by_length, mask_batch
from .encoder import ModelConfig, ModelParams, backward, forward, init_params, tensor_names
from .losses import (
    Mode, RegularizerConfig,
    batch_loss, batch_loss_gradient, hinge_active_fraction,
)

__all__ = [
    "TrainConfig", "TRAIN_PRESETS", "OptimState", "TrainLogRecord", "TrainResult",
    "NonFiniteLossError", "lr_at_step", "init_optim_state", "adamw_step",
    "clip_global_norm", "train",
]

# Seed-stream domains; keep distinct from the encoder init domain.
_DOMAIN_ORDER = 1
_DOMAIN_MASK = 2
_DOMAIN_DROPOUT = 3


class NonFiniteLossError(RuntimeError):
    def __init__(self, message: str, step: int, dump_path: str | None):
        super().__init__(message)
        self.step = step
        self.dump_path = dump_path


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    warmup_steps: int
    peak_lr: float
    batch_size: int
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seed: int = 42
    log_every: int = 50
    checkpoint_every: int = 0  # 0: final checkpoint only

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")
        if not (0 <= self.warmup_steps < self.total_steps):
            raise ValueError("warmup_steps must lie in [0, total_steps)")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if self.adam_eps <= 0 or self.weight_decay < 0 or self.grad_clip <= 0:
            raise ValueError("adam_eps/grad_clip must be positive, weight_decay non-negative")
        if self.log_every < 1 or self.checkpoint_every < 0:
            raise ValueError("log_every must be >= 1 and checkpoint_every >= 0")


TRAIN_PRESETS: dict[str, dict] = {
    "nano": dict(total_steps=2_000, warmup_steps=100, peak_lr=1e-3, batch_size=32),
    "mini": dict(total_steps=150_000, warmup_steps=1_500, peak_lr=5e-4, batch_size=576),
    "base": dict(total_steps=250_000, warmup_steps=2_500, peak_lr=2e-4, batch_size=512),
}


def preset_train_config(name: str, **overrides) -> TrainConfig:
    if name not in TRAIN_PRESETS:
        raise ValueError(f"unknown training preset {name!r} (expected one of {sorted(TRAIN_PRESETS)})")
    kw = dict(TRAIN_PRESETS[name])
    kw.update(overrides)
    return TrainConfig(**kw)


def lr_at_step(step: int, config: TrainConfig) -> float:
    """Linear warmup from 0 to peak over warmup_steps, then linear decay to 0
    at total_steps."""
    if not 0 <= step <= config.total_steps:
        raise ValueError(f"step {step} outside [0, {config.total_steps}]")
    if config.warmup_steps > 0 and step <= config.warmup_steps:
        return config.peak_lr * step / config.warmup_steps
    return config.peak_lr * (config.total_steps - step) / (config.total_steps - config.warmup_steps)


@dataclass
class OptimState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optim_state(params: ModelParams) -> OptimState:
    zeros = {k: np.zeros_like(t) for k, t in params.tensors.items()}
    return OptimState(m=zeros, v={k: np.zeros_like(t) for k, t in params.tensors.items()})


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients by min(1, max_norm/||g||); returns the pre-clip norm.

    A non-finite norm leaves the gradients as they are; the caller aborts.
    """
    sq = 0.0
    for g in grads.values():
        sq += float(np.dot(g.reshape(-1).astype(np.float64), g.reshape(-1).astype(np.float64)))
    norm = float(np.sqrt(sq))
    if max_norm < norm < np.inf:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimState,
    config: TrainConfig,
    lr: float,
) -> None:
    """One AdamW update in place.

    Bias correction uses the fused step size lr*sqrt(1-b2^t)/(1-b1^t) with
    eps added to the uncorrected sqrt(v); decoupled weight decay lr*wd*p is
    applied to weight matrices only (2-D tensors), never to biases or
    layer-norm parameters.
    """
    state.step += 1
    t = state.step
    b1, b2 = config.adam_beta1, config.adam_beta2
    # Python float keeps float32 tensors float32 under scalar promotion.
    step_size = float(lr * np.sqrt(1.0 - b2**t) / (1.0 - b1**t))
    for name, p in params.tensors.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= step_size * (m / (np.sqrt(v) + config.adam_eps))
        if config.weight_decay > 0.0 and p.ndim == 2:
            p -= (lr * config.weight_decay) * p


@dataclass(frozen=True)
class TrainLogRecord:
    step: int
    lr: float
    total: float
    ce_term: float
    penalty_term: float
    entropy_mean: float
    ratio_r: float
    masked_count: int
    hinge_active_fraction: float
    grad_norm: float  # global L2 norm before clipping
    clipped: bool  # grad_norm > grad_clip, so the update was scaled down
    wall_ms: float


@dataclass
class TrainResult:
    params: ModelParams
    opt_state: OptimState
    history: list[TrainLogRecord]
    regularizer: RegularizerConfig
    checkpoint_path: Path | None
    log_path: Path | None


def _dataset_mean_length(sequences: list[TokenSequence]) -> float:
    return float(np.mean([s.length for s in sequences]))


def _save_train_checkpoint(path, params: ModelParams, state: OptimState, config: TrainConfig) -> None:
    tensors = {name: params.tensors[name] for name in tensor_names(params.config)}
    for name in tensor_names(params.config):
        tensors[f"adam_m.{name}"] = state.m[name]
    for name in tensor_names(params.config):
        tensors[f"adam_v.{name}"] = state.v[name]
    save_checkpoint(path, params.config, tensors,
                    extra={"opt_step": str(state.step), "train_seed": str(config.seed)})


def train(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    sequences: list[TokenSequence],
    vocab: Vocab,
    out_dir=None,
) -> TrainResult:
    """Run the full training loop; returns final parameters and per-step history.

    When ``out_dir`` is given, writes ``train_log.jsonl`` (one record every
    log_every steps, plus the first and last step) and ``final.ckpt``
    (parameters and optimizer moments in one container).
    """
    if vocab.size != model_cfg.vocab_size:
        raise ValueError(f"vocab size {vocab.size} does not match model config {model_cfg.vocab_size}")
    reg = train_cfg.regularizer
    if reg.mode is Mode.CP_AVG_L and reg.avg_len is None:
        reg = dataclasses.replace(reg, avg_len=_dataset_mean_length(sequences))

    params = init_params(model_cfg)
    state = init_optim_state(params)
    dropout_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(train_cfg.seed, _DOMAIN_DROPOUT)))

    out_path = Path(out_dir) if out_dir is not None else None
    log_fh = None
    log_path = ckpt_path = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        log_path = out_path / "train_log.jsonl"
        log_fh = open(log_path, "w", encoding="utf-8")

    history: list[TrainLogRecord] = []
    queue: deque = deque()
    epoch = -1
    batch_in_epoch = 0
    try:
        for step in range(train_cfg.total_steps):
            t0 = time.perf_counter()
            if not queue:
                epoch += 1
                order_rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=(train_cfg.seed, _DOMAIN_ORDER, epoch)))
                queue = deque(group_by_length(sequences, train_cfg.batch_size, order_rng))
                batch_in_epoch = 0
            chunk = queue.popleft()
            mask_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=(train_cfg.seed, _DOMAIN_MASK, epoch, batch_in_epoch)))
            batch_in_epoch += 1
            mb = mask_batch(chunk, vocab, mask_rng, maxlen=model_cfg.maxlen)

            logits, cache = forward(
                params, mb.ids, mb.pad_mask, train=True, rng=dropout_rng,
                head_positions=mb.mask_positions, return_cache=True,
            )
            targets = mb.labels[mb.mask_positions]
            try:
                if not np.all(np.isfinite(logits)):
                    raise FloatingPointError("non-finite logits")
                breakdown = batch_loss(logits, targets, reg, mb.ratio_r, maxlen=model_cfg.maxlen)
            except FloatingPointError as e:
                raise _abort(str(e), out_path, step, mb) from e
            hinge_frac = hinge_active_fraction(logits, reg, mb.ratio_r, maxlen=model_cfg.maxlen)
            dlogits = batch_loss_gradient(logits, targets, reg, mb.ratio_r,
                                          maxlen=model_cfg.maxlen).astype(params.dtype)
            grads = backward(params, cache, dlogits)
            grad_norm = clip_global_norm(grads, train_cfg.grad_clip)
            if not np.isfinite(grad_norm):
                raise _abort(f"non-finite gradient norm {grad_norm}", out_path, step, mb)
            lr = lr_at_step(step, train_cfg)
            adamw_step(params, grads, state, train_cfg, lr)
            wall_ms = (time.perf_counter() - t0) * 1e3

            record = TrainLogRecord(
                step=step, lr=lr, total=breakdown.total, ce_term=breakdown.ce_term,
                penalty_term=breakdown.penalty_term, entropy_mean=breakdown.entropy_mean,
                ratio_r=breakdown.ratio_r, masked_count=int(targets.shape[0]),
                hinge_active_fraction=hinge_frac, grad_norm=grad_norm,
                clipped=grad_norm > train_cfg.grad_clip, wall_ms=wall_ms,
            )
            history.append(record)
            if log_fh is not None and (
                step % train_cfg.log_every == 0 or step == train_cfg.total_steps - 1
            ):
                log_fh.write(json.dumps(dataclasses.asdict(record)) + "\n")
            if (
                out_path is not None
                and train_cfg.checkpoint_every
                and (step + 1) % train_cfg.checkpoint_every == 0
                and step + 1 < train_cfg.total_steps
            ):
                _save_train_checkpoint(out_path / f"step{step + 1}.ckpt", params, state, train_cfg)
    finally:
        if log_fh is not None:
            log_fh.close()

    if out_path is not None:
        ckpt_path = out_path / "final.ckpt"
        _save_train_checkpoint(ckpt_path, params, state, train_cfg)
    return TrainResult(
        params=params, opt_state=state, history=history, regularizer=reg,
        checkpoint_path=ckpt_path, log_path=log_path,
    )


def _abort(reason: str, out_path: Path | None, step: int, mb) -> NonFiniteLossError:
    """Dump the batch of ``step`` and build the error that stops training."""
    target_dir = out_path if out_path is not None else Path(tempfile.gettempdir())
    target_dir.mkdir(parents=True, exist_ok=True)
    dump = target_dir / f"diagnostic_step{step}.npz"
    np.savez(
        dump, ids=mb.ids, pad_mask=mb.pad_mask, mask_positions=mb.mask_positions,
        labels=mb.labels, true_lengths=mb.true_lengths,
        ratio_r=np.asarray(mb.ratio_r), step=np.asarray(step),
    )
    return NonFiniteLossError(f"{reason} at step {step} (batch dump: {dump})",
                              step=step, dump_path=str(dump))
