"""Trace points and the per-layer metrics derived from them.

Each trace point wraps a public function at the module-level name its
caller looks up (``lenreg.trainer.forward`` is the encoder as the training
loop sees it, ``lenreg.calibration.forward`` as the evaluator sees it),
and names the span after the module that defines the function. The
caller is then the enclosing span. Times are per traced round, except the
corpus set-up times, which are per run.
"""

from __future__ import annotations

import statistics

from lenreg import calibration, checkpoint, corpus, gradcheck, trainer

TRAIN = "trainer.train"
LOSS_FUNCTIONS = ("losses.batch_loss", "losses.batch_loss_gradient", "losses.hinge_active_fraction")


class BatchStats:
    """Counts read off the batches ``mask_batch`` returns to the training loop."""

    def __init__(self) -> None:
        self.slots = 0
        self.padding = 0
        self.true_tokens = 0

    def observe(self, parent, batch) -> None:
        if parent == TRAIN:
            self.slots += batch.pad_mask.size
            self.padding += int(batch.pad_mask.sum())
            self.true_tokens += int(batch.true_lengths.sum())


def install(tracer, batches: BatchStats) -> None:
    for module, attr, name in (
        (corpus, "ingest", "corpus.ingest"),
        (corpus, "build_vocab", "corpus.build_vocab"),
        (corpus, "encode", "corpus.encode"),
        (trainer, "train", TRAIN),
        (trainer, "init_params", "encoder.init_params"),
        (trainer, "forward", "encoder.forward"),
        (trainer, "backward", "encoder.backward"),
        (trainer, "batch_loss", "losses.batch_loss"),
        (trainer, "batch_loss_gradient", "losses.batch_loss_gradient"),
        (trainer, "hinge_active_fraction", "losses.hinge_active_fraction"),
        (trainer, "clip_global_norm", "trainer.clip_global_norm"),
        (trainer, "adamw_step", "trainer.adamw_step"),
        (trainer, "save_checkpoint", "checkpoint.save_checkpoint"),
        (checkpoint, "load_params", "checkpoint.load_params"),
        (calibration, "collect_predictions", "calibration.collect_predictions"),
        (calibration, "entropy_profile", "calibration.entropy_profile"),
        (calibration, "ece", "calibration.ece"),
        (calibration, "mask_batch", "corpus.mask_batch"),
        (calibration, "forward", "encoder.forward"),
        (gradcheck, "run_suite", "gradcheck.run_suite"),
        (gradcheck, "check_loss_mode", "gradcheck.check_loss_mode"),
        (gradcheck, "check_encoder", "gradcheck.check_encoder"),
        (gradcheck, "init_params", "encoder.init_params"),
        (gradcheck, "forward", "encoder.forward"),
        (gradcheck, "backward", "encoder.backward"),
        (gradcheck, "batch_loss", "losses.batch_loss"),
        (gradcheck, "batch_loss_gradient", "losses.batch_loss_gradient"),
    ):
        tracer.patch(module, attr, name)
    tracer.patch(trainer, "mask_batch", "corpus.mask_batch", on_result=batches.observe)


# name -> (unit, better); the order is the order of the printed metrics.
LAYER_METRICS = {
    "corpus.ingest_ms": ("ms", "lower"),
    "corpus.build_vocab_ms": ("ms", "lower"),
    "corpus.encode_ms": ("ms", "lower"),
    "corpus.mask_batch_ms": ("ms", "lower"),
    "corpus.mask_batch_calls": ("count", "lower"),
    "corpus.pad_fraction": ("fraction", "lower"),
    "encoder.forward_ms": ("ms", "lower"),
    "encoder.backward_ms": ("ms", "lower"),
    "encoder.forward_ms_p50": ("ms", "lower"),
    "encoder.backward_ms_p50": ("ms", "lower"),
    "encoder.eval_forward_ms": ("ms", "lower"),
    "encoder.audit_forward_ms": ("ms", "lower"),
    "losses.batch_loss_ms": ("ms", "lower"),
    "losses.batch_loss_gradient_ms": ("ms", "lower"),
    "losses.hinge_active_fraction_ms": ("ms", "lower"),
    "losses.logsoftmax_calls": ("count", "lower"),
    "trainer.adamw_ms": ("ms", "lower"),
    "trainer.clip_ms": ("ms", "lower"),
    "trainer.loop_self_ms": ("ms", "lower"),
    "trainer.steps": ("count", "higher"),
    "calibration.collect_predictions_ms": ("ms", "lower"),
    "calibration.entropy_profile_ms": ("ms", "lower"),
    "calibration.ece_ms": ("ms", "lower"),
    "calibration.positions": ("count", "higher"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "gradcheck.loss_modes_ms": ("ms", "lower"),
    "gradcheck.encoder_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer, batches: BatchStats, traced_rounds, reference_round) -> dict[str, float]:
    """Per-layer values; ``traced_rounds`` are RoundResults of the traced
    rounds and ``reference_round`` the untraced round of the same run."""
    n = len(traced_rounds)
    t = tracer
    values = {
        "corpus.ingest_ms": t.total_ms("corpus.ingest"),
        "corpus.build_vocab_ms": t.total_ms("corpus.build_vocab"),
        "corpus.encode_ms": t.total_ms("corpus.encode"),
        "corpus.mask_batch_ms": t.total_ms("corpus.mask_batch", TRAIN) / n,
        "corpus.mask_batch_calls": t.count("corpus.mask_batch", TRAIN) / n,
        "corpus.pad_fraction": batches.padding / batches.slots,
        "encoder.forward_ms": t.total_ms("encoder.forward", TRAIN) / n,
        "encoder.backward_ms": t.total_ms("encoder.backward", TRAIN) / n,
        "encoder.forward_ms_p50": t.median_ms("encoder.forward", TRAIN),
        "encoder.backward_ms_p50": t.median_ms("encoder.backward", TRAIN),
        "encoder.eval_forward_ms": t.total_ms("encoder.forward", "calibration.") / n,
        "encoder.audit_forward_ms": t.total_ms("encoder.forward", "gradcheck.") / n,
        "losses.batch_loss_ms": t.total_ms("losses.batch_loss") / n,
        "losses.batch_loss_gradient_ms": t.total_ms("losses.batch_loss_gradient") / n,
        "losses.hinge_active_fraction_ms": t.total_ms("losses.hinge_active_fraction") / n,
        "losses.logsoftmax_calls": sum(t.count(f, TRAIN) for f in LOSS_FUNCTIONS) / n,
        "trainer.adamw_ms": t.total_ms("trainer.adamw_step") / n,
        "trainer.clip_ms": t.total_ms("trainer.clip_global_norm") / n,
        "trainer.loop_self_ms": t.self_ms(TRAIN) / n,
        "trainer.steps": t.count("trainer.adamw_step") / n,
        "calibration.collect_predictions_ms": t.total_ms("calibration.collect_predictions") / n,
        "calibration.entropy_profile_ms": t.total_ms("calibration.entropy_profile") / n,
        "calibration.ece_ms": t.total_ms("calibration.ece") / n,
        "calibration.positions": sum(r.positions * len(r.eval_s) for r in traced_rounds) / n,
        "checkpoint.save_ms": t.total_ms("checkpoint.save_checkpoint") / n,
        "checkpoint.load_ms": t.total_ms("checkpoint.load_params") / n,
        "checkpoint.bytes": traced_rounds[0].checkpoint_bytes,
        "gradcheck.loss_modes_ms": t.total_ms("gradcheck.check_loss_mode") / n,
        "gradcheck.encoder_ms": t.total_ms("gradcheck.check_encoder") / n,
        "trace.overhead_s": statistics.median(r.run_s for r in traced_rounds) - reference_round.run_s,
    }
    return values
