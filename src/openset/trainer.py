"""Optimization loop: batch sampling, per-method objectives, Adam updates,
learning-rate decay, periodic validation, and best-checkpoint selection.

Per step a class-grouped batch is drawn from the training classes and the
method objective is computed over its embeddings:

  VE  metric loss over the video batch.
  WE  alignment MSE against each instance's frozen label embedding, plus an
      optional lambda-weighted metric term over the same video embeddings.
  JE  metric loss over the union of the video batch and one projected label
      per class in the batch.

Validation runs the same objective forward-only on batches drawn from the
validation classes; the parameters with the lowest validation loss are
returned. Early stop when no new best appears within `patience` steps.
Training is deterministic in (config, dataset, split): the batch stream and
each validation round use generators derived from the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import episodic
from .data import Dataset
from .errors import (
    ConfigError, DegenerateInputError, NumericError, SamplingError, check_fields
)
from .losses import HistogramConfig, MultiSimConfig, je_loss, make_dml, we_loss
from .model import METHOD_JE, METHOD_VE, METHOD_WE, METHODS, EmbeddingModel
from .numcore import AdamState, adam_step
from .splits import SplitResult

_DEGENERATE_LIMIT = 100


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; the schedule shape (decay, validation cadence,
    patience) is proportionate to the full-scale settings."""

    method: str = METHOD_VE
    dml: str = "multisim"
    lambda_we: float = 0.0
    lr0: float = 1e-3
    decay_factor: float = 0.8
    decay_every: int = 1000
    val_every: int = 100
    val_batches: int = 50
    max_batches: int = 5000
    patience: int = 1500
    batch_classes: int = 12
    batch_k_max: int = 8
    batch_min_total: int = 36
    seed: int = 0
    histogram: HistogramConfig = field(default_factory=HistogramConfig)
    multisim: MultiSimConfig = field(default_factory=MultiSimConfig)

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.dml not in ("histogram", "multisim"):
            raise ConfigError(f"unknown metric loss {self.dml!r}")
        for name in ("lambda_we", "lr0", "max_batches"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError("decay_factor must be in (0, 1]")
        for name in (
            "decay_every",
            "val_every",
            "val_batches",
            "patience",
            "batch_classes",
            "batch_k_max",
            "batch_min_total",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")


@dataclass
class TrainLog:
    step_losses: list[float] = field(default_factory=list)
    validations: list[tuple[int, float]] = field(default_factory=list)
    best_step: int | None = None
    best_val_loss: float | None = None
    stop_reason: str = "max"
    degenerate_resamples: int = 0


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Geometric decay: lr0 * factor^(step // decay_every), step 0-based."""
    if step < 0:
        raise ConfigError("lr_at: step must be nonnegative")
    return cfg.lr0 * cfg.decay_factor ** (step // cfg.decay_every)


def batch_objective(
    model: EmbeddingModel,
    frames: np.ndarray,
    class_ids: np.ndarray,
    labels: dict[int, np.ndarray],
    with_grads: bool,
    cfg: TrainConfig,
) -> float:
    """Compute the method objective on one batch; when with_grads, backprop
    into the model's gradient buffers (caller steps and zeroes them).

    frames and class_ids are the batch's rows of the dataset columns;
    labels maps each class the batch drew (even one that gave no rows) to
    its label embedding."""
    dml = make_dml(cfg.dml, cfg.histogram, cfg.multisim)
    video_emb, video_cache = model.embed_video_batch(frames)

    if cfg.method == METHOD_VE:
        loss, grads = dml(video_emb, class_ids)
        if with_grads:
            model.backward_video_batch(video_cache, grads)
        return loss

    classes = np.array(sorted(labels), dtype=np.int64)
    raw_labels = np.stack([labels[c] for c in classes.tolist()])
    if cfg.method == METHOD_WE:
        # each row's own label embedding, gathered from the drawn classes' stack
        label_rows = raw_labels[np.searchsorted(classes, class_ids)]
        loss, grads = we_loss(video_emb, class_ids, label_rows, cfg.lambda_we, dml)
        if with_grads:
            model.backward_video_batch(video_cache, grads)
        return loss

    # JE: one projected label item per class of the batch
    label_emb, label_cache = model.embed_label_batch(raw_labels)
    loss, grads_video, grads_label = je_loss(video_emb, class_ids, label_emb, classes, dml)
    if with_grads:
        model.backward_video_batch(video_cache, grads_video)
        model.backward_label_batch(label_cache, grads_label)
    return loss


def _batch_loss(
    model: EmbeddingModel,
    dataset: Dataset,
    classes: list[int],
    rng: np.random.Generator,
    cfg: TrainConfig,
    with_grads: bool,
) -> float:
    """Draw one batch from classes and return its objective."""
    picked, rows = episodic.sample_training_batch(
        dataset, classes, rng,
        n=cfg.batch_classes, k_max=cfg.batch_k_max, min_total=cfg.batch_min_total,
    )
    labels = {c: dataset.label_embeddings[c] for c in picked}
    return batch_objective(
        model, dataset.features[rows], dataset.class_ids[rows], labels, with_grads, cfg
    )


def _validation_loss(
    model: EmbeddingModel,
    dataset: Dataset,
    val_classes: list[int],
    cfg: TrainConfig,
    round_idx: int,
) -> float:
    rng = np.random.default_rng([cfg.seed, 1, round_idx])
    total = 0.0
    counted = 0
    for _ in range(cfg.val_batches):
        try:
            total += _batch_loss(model, dataset, val_classes, rng, cfg, with_grads=False)
        except DegenerateInputError:
            continue
        counted += 1
    if counted == 0:
        raise SamplingError("validation: every batch was degenerate")
    return total / counted


def train(
    model: EmbeddingModel,
    dataset: Dataset,
    split: SplitResult,
    cfg: TrainConfig,
) -> tuple[EmbeddingModel, TrainLog]:
    """Run the loop on `model` (mutated in place) and return a copy holding
    the best-validation parameters, alongside the log.

    If no validation round ever runs (max_batches < val_every), the final
    parameters are returned instead and the log records no best step.
    """
    if cfg.method != model.method:
        raise ConfigError(
            f"config method {cfg.method} != model method {model.method}"
        )
    train_classes = sorted(split.train)
    val_classes = sorted(split.validation)
    if len(train_classes) < cfg.batch_classes:
        raise ConfigError(
            f"train: need {cfg.batch_classes} training classes, have {len(train_classes)}"
        )
    will_validate = cfg.max_batches >= cfg.val_every
    if will_validate and len(val_classes) < cfg.batch_classes:
        raise ConfigError(
            f"train: need {cfg.batch_classes} validation classes, have {len(val_classes)}"
        )

    log = TrainLog()
    if cfg.max_batches == 0:
        return model.copy(), log

    states = {blk.name: AdamState.for_block(blk) for blk in model.blocks()}
    rng = np.random.default_rng([cfg.seed, 0])
    best_model: EmbeddingModel | None = None
    best_val = np.inf
    best_step = 0
    val_round = 0

    # a numeric blow-up anywhere in a step (forward, Adam or validation) names it
    try:
        for step in range(1, cfg.max_batches + 1):
            loss = None
            for _ in range(_DEGENERATE_LIMIT):
                try:
                    loss = _batch_loss(model, dataset, train_classes, rng, cfg, with_grads=True)
                    break
                except DegenerateInputError:
                    model.zero_grad()
                    log.degenerate_resamples += 1
            if loss is None:
                raise SamplingError(
                    f"step {step}: {_DEGENERATE_LIMIT} degenerate batches in a row"
                )
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss {loss}")
            lr = lr_at(step - 1, cfg)
            for blk in model.blocks():
                adam_step(blk, states[blk.name], lr)
            log.step_losses.append(float(loss))

            if step % cfg.val_every == 0:
                val_round += 1
                val_loss = _validation_loss(model, dataset, val_classes, cfg, val_round)
                log.validations.append((step, float(val_loss)))
                if val_loss < best_val:
                    best_val = float(val_loss)
                    best_step = step
                    best_model = model.copy()
                elif step - best_step >= cfg.patience:
                    log.stop_reason = "patience"
                    break
    except NumericError as exc:
        raise NumericError(f"step {step}: {exc}") from exc

    if best_model is None:
        return model.copy(), log
    log.best_step = best_step
    log.best_val_loss = best_val
    return best_model, log


_LOG_HEADER = "kind,step,value"


def write_train_log(path: str, log: TrainLog) -> None:
    """Flat CSV: per-step losses, validation points, then summary rows."""
    lines = [_LOG_HEADER]
    for step, loss in enumerate(log.step_losses, start=1):
        lines.append(f"loss,{step},{loss!r}")
    for step, val in log.validations:
        lines.append(f"val,{step},{val!r}")
    if log.best_step is not None:
        lines.append(f"best,{log.best_step},{log.best_val_loss!r}")
    lines.append(f"stop,{len(log.step_losses)},{log.stop_reason}")
    lines.append(f"resamples,0,{log.degenerate_resamples}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
