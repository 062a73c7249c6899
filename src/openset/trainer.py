"""Optimization loop: batch sampling, per-method objectives, Adam updates,
learning-rate decay, periodic validation, and best-checkpoint selection.

Per step a class-grouped batch is drawn from the training classes and the
method objective is computed over its embeddings:

  VE  metric loss over the video batch; it reads no labels.
  WE  alignment MSE against each instance's frozen label embedding, plus an
      optional lambda-weighted metric term over the same video embeddings.
  JE  metric loss over the union of the video batch and one projected label
      per class in the batch.

Validation runs the same objective forward-only on batches drawn from the
validation classes, gathered from one embedding of every validation row per
round; the parameters with the lowest validation loss are returned. Early
stop when no new best appears within `patience` steps.
Training is deterministic in (config, dataset, split): batch b of the stream
is keyed by (seed, 0, b) and batch b of validation round r by (seed, 1, r, b),
each with its attempt (see episodic). Both draw in blocks from the ClassPools
check_split builds once per run: the loop queues _BATCH_BLOCK batches (a
degenerate batch's resample is the next batch) and a round all its batches at
once; a keyed batch is the same whatever block it is drawn in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import episodic
from .data import Dataset, write_lines
from .errors import (
    ConfigError, DegenerateInputError, NumericError, SamplingError, check_fields
)
from .losses import HistogramConfig, MultiSimConfig, je_loss, make_dml, we_loss
from .model import METHOD_JE, METHOD_VE, METHOD_WE, METHODS, EmbeddingModel
from .numcore import AdamState, adam_step
from .splits import SplitResult

_DEGENERATE_LIMIT = 100
_BATCH_BLOCK = 64  # training batches per sampler call; positions resolve once per block


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
        if self.batch_classes * self.batch_k_max < self.batch_min_total:
            raise ConfigError(
                f"batch_min_total {self.batch_min_total} exceeds the largest batch, "
                f"batch_classes {self.batch_classes} x batch_k_max {self.batch_k_max}"
            )
        # a batch of one class has no negative pair, and one row per class no
        # positive pair but JE's label items; WE at 0 skips the loss
        if self.dml == "histogram" and (self.method != METHOD_WE or self.lambda_we > 0) and (
                self.batch_classes == 1 or self.batch_k_max == 1 and self.method != METHOD_JE):
            pairs, name = (("negative", "batch_classes") if self.batch_classes == 1
                           else ("positive", "batch_k_max"))
            raise ConfigError(f"the histogram loss needs {pairs} pairs, which a batch of "
                              f"{name} 1 never holds")


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


def _objective(
    video: np.ndarray, class_ids: np.ndarray, classes: np.ndarray, labels: np.ndarray | None,
    cfg: TrainConfig,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The method objective from one batch's embeddings: (loss, video grads,
    label grads or None). classes are the batch's drawn classes, sorted, and
    labels their rows: raw labels for WE, projected ones for JE, None for VE."""
    dml = make_dml(cfg.dml, cfg.histogram, cfg.multisim)
    if cfg.method == METHOD_VE:
        return *dml(video, class_ids), None
    if cfg.method == METHOD_WE:
        # each row's own label embedding, gathered from the drawn classes' stack
        label_rows = labels[np.searchsorted(classes, class_ids)]
        return *we_loss(video, class_ids, label_rows, cfg.lambda_we, dml), None
    # JE: one projected label item per class of the batch
    return je_loss(video, class_ids, labels, classes, dml)


def batch_objective(
    model: EmbeddingModel, dataset: Dataset, pool: episodic.ClassPool, batch, cfg: TrainConfig
) -> float:
    """Compute the method objective on one batch of pool, (picked pool indices,
    positions into pool.rows), and backprop it into the model's gradient
    buffers (caller steps and zeroes them). WE and JE take pool.labels rows."""
    picked, positions = batch
    rows = pool.rows[positions]
    video_emb, video_cache = model.embed_video_batch(dataset.features[rows])
    drawn = np.sort(picked)
    label_emb = None if cfg.method == METHOD_VE else pool.labels[drawn]
    if cfg.method == METHOD_JE:
        label_emb, label_cache = model.embed_label_batch(label_emb)
    loss, grads_video, grads_label = _objective(
        video_emb, dataset.class_ids[rows], pool.classes[drawn], label_emb, cfg)
    model.backward_video_batch(video_cache, grads_video)
    if grads_label is not None:
        model.backward_label_batch(label_cache, grads_label)
    return loss


def _validation_loss(
    model: EmbeddingModel,
    dataset: Dataset,
    pool: episodic.ClassPool,
    cfg: TrainConfig,
    round_idx: int,
) -> float:
    """Mean objective over the round's batches of pool, skipping degenerate ones.
    Each validation row is embedded once, in pool order and in blocks of at
    most one batch's size; each batch gathers its positions. A 1-row product
    takes BLAS's gemv path, with other bits: a row whose batch can hold no
    other row is embedded alone, a JE label whose batch holds one class is
    projected alone, and any other 1-row remainder joins the block before it."""
    single = cfg.batch_classes == 1
    lone = np.repeat(single & (pool.takes == 1), pool.sizes)
    rest = np.flatnonzero(~lone)
    size = cfg.batch_classes * cfg.batch_k_max
    blocks = np.split(rest, range(size, len(rest) - (len(rest) % size == 1), size))
    blocks = [b for b in blocks if len(b)] + [[i] for i in np.flatnonzero(lone)]
    video = np.empty((len(pool.rows), model.config.embed_dim))
    for block in blocks:
        video[block] = model.embed_video_batch(dataset.features[pool.rows[block]])[0]
    labels = None if cfg.method == METHOD_VE else pool.labels
    if cfg.method == METHOD_JE:
        labels = np.concatenate([model.embed_label_batch(part)[0]
                                 for part in (labels[:, None] if single else [labels])])

    batch_losses = []
    for picked, positions in episodic.sample_training_batch(
        pool, cfg.batch_classes, cfg.batch_min_total, cfg.seed, 1, round_idx,
        np.arange(cfg.val_batches),
    ):
        drawn = np.sort(picked)
        try:
            batch_losses.append(_objective(
                video[positions], dataset.class_ids[pool.rows[positions]], pool.classes[drawn],
                None if labels is None else labels[drawn], cfg,
            )[0])
        except DegenerateInputError:
            continue
    if not batch_losses:
        raise SamplingError("validation: every batch was degenerate")
    # sum() adds in batch order, as the running total of a loop would
    return sum(batch_losses) / len(batch_losses)


def check_split(
    dataset: Dataset, split: SplitResult, cfg: TrainConfig
) -> tuple[episodic.ClassPool, episodic.ClassPool | None]:
    """The pools of the training classes and, when a validation round will
    run, of the validation classes (else None). Raises ConfigError, so train
    rejects the request before its first step, if a class is not in the
    table or (WE, JE) has no label embedding, or if a pool cannot fill a batch:
    fewer than batch_classes classes with instances, or (if a batch will be
    drawn) the batch_classes largest, capped at batch_k_max, below batch_min_total."""
    subsets = {"training": split.classes("train")}
    if cfg.max_batches >= cfg.val_every:
        subsets["validation"] = split.classes("val")
    pools = {}
    for name, classes in subsets.items():
        pool = pools[name] = episodic.ClassPool(dataset, classes, cfg.batch_k_max)
        if len(pool.classes) < cfg.batch_classes:
            raise ConfigError(
                f"train: need {cfg.batch_classes} {name} classes, have {len(pool.classes)}"
            )
        largest = int(np.sort(pool.takes)[-cfg.batch_classes:].sum())
        if cfg.max_batches and largest < cfg.batch_min_total:
            raise ConfigError(
                f"train: the {cfg.batch_classes} largest {name} classes give at most "
                f"{largest} instances per batch, below batch_min_total {cfg.batch_min_total}"
            )
        if cfg.method != METHOD_VE:
            pool.labels  # stacked now, so a missing label fails before any output
    return pools["training"], pools.get("validation")


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
    pool, val_pool = check_split(dataset, split, cfg)

    log = TrainLog()
    state = AdamState(np.zeros_like(model.params), np.zeros_like(model.params))
    pending: deque[tuple[np.ndarray, np.ndarray]] = deque()
    drawn = 0  # batches drawn so far, each one's index in the stream
    best_model: EmbeddingModel | None = None
    best_val = np.inf
    best_step = 0
    val_round = 0

    # a numeric blow-up anywhere in a step (forward, Adam or validation) names it
    try:
        for step in range(1, cfg.max_batches + 1):
            for _ in range(_DEGENERATE_LIMIT):
                if not pending:
                    count = min(_BATCH_BLOCK, cfg.max_batches - step + 1)
                    pending.extend(episodic.sample_training_batch(
                        pool, cfg.batch_classes, cfg.batch_min_total, cfg.seed, 0,
                        np.arange(drawn, drawn + count),
                    ))
                    drawn += count
                try:
                    loss = batch_objective(model, dataset, pool, pending.popleft(), cfg)
                    break
                except DegenerateInputError:
                    model.zero_grad()
                    log.degenerate_resamples += 1
            else:
                raise SamplingError(
                    f"step {step}: {_DEGENERATE_LIMIT} degenerate batches in a row"
                )
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss {loss}")
            adam_step(model, state, lr_at(step - 1, cfg))
            log.step_losses.append(float(loss))

            if step % cfg.val_every == 0:
                val_round += 1
                val_loss = _validation_loss(model, dataset, val_pool, cfg, val_round)
                if not np.isfinite(val_loss):
                    raise NumericError(f"non-finite validation loss {val_loss}")
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
    write_lines(path, lines)
