"""Length-adaptive confidence regularization for masked-LM pre-training."""

from .losses import (
    LossBreakdown,
    Mode,
    RegularizerConfig,
    batch_loss,
    batch_loss_gradient,
    cp_l_penalty,
    cross_entropy,
    entropy,
    hinge_active_fraction,
    kl_divergence,
    length_ratio,
    ls_l_alpha,
    softmax,
)
from .encoder import (
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    param_count,
    preset_config,
)
from .checkpoint import load_checkpoint, load_params, save_checkpoint
from .corpus import MaskedBatch, TokenSequence, Vocab, build_vocab, ingest, load_corpus, mask_batch
from .calibration import (CalibrationReport, Evaluation, collect_predictions, default_intervals,
                          ece, entropy_profile, evaluate)
from .trainer import NonFiniteLossError, TrainConfig, TrainResult, lr_at_step, train
from .synthetic import MarkovSpec, generate_corpus, write_corpus

__version__ = "0.1.0"

__all__ = [
    "LossBreakdown", "Mode", "RegularizerConfig", "batch_loss", "batch_loss_gradient",
    "cp_l_penalty", "cross_entropy", "entropy", "hinge_active_fraction", "kl_divergence",
    "length_ratio", "ls_l_alpha", "softmax",
    "ModelConfig", "ModelParams", "backward", "forward", "init_params", "param_count",
    "preset_config",
    "load_checkpoint", "load_params", "save_checkpoint",
    "MaskedBatch", "TokenSequence", "Vocab", "build_vocab", "ingest", "load_corpus", "mask_batch",
    "CalibrationReport", "Evaluation", "collect_predictions", "default_intervals", "ece",
    "entropy_profile", "evaluate",
    "NonFiniteLossError", "TrainConfig", "TrainResult", "lr_at_step", "train",
    "MarkovSpec", "generate_corpus", "write_corpus",
    "__version__",
]
