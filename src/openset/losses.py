"""Metric-learning losses over unit-norm embedding batches.

Two deep-metric losses (histogram, multi-similarity) plus the two composite
objectives that train the cross-modal methods: direct alignment (MSE against
frozen label embeddings, optionally mixed with a metric term) and the joint
objective (metric loss over the union of video and projected-label items).

All losses return (scalar, gradient array(s) w.r.t. the input embeddings).
Similarity is the plain dot product, which on unit vectors is the cosine.
Pairs are positive iff their class_ids match; modality never matters, so
batches carry no modality tags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError
from .numcore import log1p_sum_exp

_NORM_TOL = 1e-6


@dataclass
class EmbeddingBatch:
    """A batch of embeddings with their class ids.

    check_norms=False skips the unit-norm invariant; finite-difference tests
    need it because coordinate perturbations move points off the sphere.
    """

    embeddings: np.ndarray
    class_ids: np.ndarray
    check_norms: bool = True

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if self.embeddings.ndim != 2:
            raise DimensionError("EmbeddingBatch: embeddings must be 2-D")
        n = self.embeddings.shape[0]
        if self.class_ids.shape != (n,):
            raise DimensionError("EmbeddingBatch: class_ids length mismatch")
        if self.check_norms and n:
            norms = np.linalg.norm(self.embeddings, axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > _NORM_TOL:
                raise ConfigError(
                    f"EmbeddingBatch: embedding norm off unit by {worst:.2e}"
                )

    def __len__(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class PairedBatch:
    """Aligned (video embedding, label embedding) rows of equal dimension."""

    video_embeddings: np.ndarray
    label_embeddings: np.ndarray

    def __post_init__(self):
        self.video_embeddings = np.asarray(self.video_embeddings, dtype=np.float64)
        self.label_embeddings = np.asarray(self.label_embeddings, dtype=np.float64)
        if self.video_embeddings.ndim != 2 or self.label_embeddings.ndim != 2:
            raise DimensionError("PairedBatch: embeddings must be 2-D")
        if self.video_embeddings.shape != self.label_embeddings.shape:
            raise DimensionError(
                f"PairedBatch: shape mismatch {self.video_embeddings.shape} vs "
                f"{self.label_embeddings.shape}"
            )

    def __len__(self) -> int:
        return self.video_embeddings.shape[0]


@dataclass(frozen=True)
class HistogramConfig:
    bins: int = 100

    def validate(self) -> None:
        if self.bins < 2:
            raise ConfigError("histogram: need at least 2 bins")


@dataclass(frozen=True)
class MultiSimConfig:
    alpha: float = 2.0
    beta: float = 50.0
    # lambda, the similarity pivot. Unit-norm similarities lie in [-1, 1], so
    # at 1.0 every negative sits below it and beta=50 scales the push on any
    # negative under 0.9 by less than e^-5.
    base: float = 0.5
    margin: float = 0.1

    def validate(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("multisim: alpha and beta must be positive")
        if self.margin < 0:
            raise ConfigError("multisim: margin must be nonnegative")


def _pair_masks(class_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n, n) masks of positive and negative pairs, diagonal off."""
    same = class_ids[:, None] == class_ids[None, :]
    off_diag = ~np.eye(class_ids.shape[0], dtype=bool)
    return same & off_diag, (~same) & off_diag


def histogram_loss(
    batch: EmbeddingBatch, cfg: HistogramConfig = HistogramConfig()
) -> tuple[float, np.ndarray]:
    """Probability that a random negative pair is at least as similar as a
    random positive pair, estimated from soft histograms.

    Pair similarities are spread over R nodes t_r = -1 + r*delta with
    delta = 2/(R-1) using triangular weights on the two nodes bracketing each
    similarity; the normalized node masses give distributions p+ and p-, and
    the loss is sum_r p-_r * cumsum(p+)_r, always within [0, 1]. Gradients
    flow through the piecewise-linear weights (kinked at bin nodes).
    """
    cfg.validate()
    n = len(batch)
    e = batch.embeddings
    pos_mask, neg_mask = _pair_masks(batch.class_ids)
    iu = np.triu_indices(n, k=1)
    pos_pairs = pos_mask[iu]
    neg_pairs = neg_mask[iu]
    n_pos = int(pos_pairs.sum())
    n_neg = int(neg_pairs.sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError(
            f"histogram_loss: need both pair kinds (positives={n_pos}, negatives={n_neg})"
        )

    sims = np.clip(e @ e.T, -1.0, 1.0)
    s_flat = sims[iu]
    r_bins = cfg.bins
    delta = 2.0 / (r_bins - 1)

    u = (s_flat + 1.0) / delta
    left = np.minimum(np.floor(u), r_bins - 2).astype(np.int64)
    left = np.maximum(left, 0)
    w_right = u - left
    w_left = 1.0 - w_right

    hist_pos = np.zeros(r_bins)
    hist_neg = np.zeros(r_bins)
    for mask, hist in ((pos_pairs, hist_pos), (neg_pairs, hist_neg)):
        np.add.at(hist, left[mask], w_left[mask])
        np.add.at(hist, left[mask] + 1, w_right[mask])
    p_pos = hist_pos / n_pos
    p_neg = hist_neg / n_neg

    phi = np.cumsum(p_pos)
    loss = float(p_neg @ phi)

    # dL/dp+_q = sum_{r >= q} p-_r; dL/dp-_r = phi_r. A pair in bin
    # [t_l, t_l+1] shifts mass between its two nodes at rate 1/delta.
    tail_neg = np.cumsum(p_neg[::-1])[::-1]
    dl_ds = np.zeros(s_flat.shape[0])
    lp = left[pos_pairs]
    dl_ds[pos_pairs] = (tail_neg[lp + 1] - tail_neg[lp]) / (delta * n_pos)
    ln = left[neg_pairs]
    dl_ds[neg_pairs] = (phi[ln + 1] - phi[ln]) / (delta * n_neg)

    coeff = np.zeros((n, n))
    coeff[iu] = dl_ds
    coeff += coeff.T
    grads = coeff @ e
    return loss, grads


def multisim_loss(
    batch: EmbeddingBatch, cfg: MultiSimConfig = MultiSimConfig()
) -> tuple[float, np.ndarray]:
    """Per-anchor mined log-sum-exp loss.

    For each anchor, negatives harder than (closest positive - margin) and
    positives harder than (farthest negative + margin) are kept; anchors with
    no positives skip the positive term (all negatives kept), anchors with no
    negatives skip the negative term (all positives kept). Mining is a fixed
    selection: gradients do not flow through the thresholds.
    """
    cfg.validate()
    n = len(batch)
    if n < 2:
        raise DegenerateInputError("multisim_loss: need at least 2 items")
    e = batch.embeddings
    sims = e @ e.T
    pos_mask, neg_mask = _pair_masks(batch.class_ids)
    no_pos = ~pos_mask.any(axis=1, keepdims=True)
    no_neg = ~neg_mask.any(axis=1, keepdims=True)
    closest_pos = np.where(pos_mask, sims, np.inf).min(axis=1, keepdims=True)
    farthest_neg = np.where(neg_mask, sims, -np.inf).max(axis=1, keepdims=True)
    mined_neg = neg_mask & ((sims > closest_pos - cfg.margin) | no_pos)
    mined_pos = pos_mask & ((sims < farthest_neg + cfg.margin) | no_neg)

    w = np.zeros((n, n))
    terms = []
    for mined, x, scale, sign in (
        (mined_pos, -cfg.alpha * (sims - cfg.base), cfg.alpha, -1.0),
        (mined_neg, cfg.beta * (sims - cfg.base), cfg.beta, 1.0),
    ):
        lse = log1p_sum_exp(x, mined)
        terms.append((lse / scale).tolist())
        # w is +0.0 and the masks are disjoint: each entry becomes 0 -/+ weight
        w[mined] += sign * np.exp((x - lse[:, None])[mined])
    # anchor by anchor, positive term first, as a loop sums; absent terms add +0.0
    total = 0.0
    for pos_term, neg_term in zip(*terms):
        total += pos_term
        total += neg_term

    loss = total / n
    grads = (w + w.T) @ e / n
    return loss, grads


def alignment_mse(paired: PairedBatch) -> tuple[float, np.ndarray]:
    """Mean squared distance between each video embedding and its (frozen)
    label embedding; gradient is for the video side only."""
    if len(paired) == 0:
        raise DegenerateInputError("alignment_mse: empty batch")
    diff = paired.video_embeddings - paired.label_embeddings
    loss = float((diff * diff).sum() / len(paired))
    grads = 2.0 * diff / len(paired)
    return loss, grads


def we_loss(
    video_batch: EmbeddingBatch,
    label_rows: np.ndarray,
    lam: float,
    dml,
) -> tuple[float, np.ndarray]:
    """Alignment objective: lam * dml(video batch) + alignment_mse of each
    video embedding against its row of label_rows (the frozen embedding of
    its class, in batch order); the combined gradient is returned per item.
    With lam = 0 the metric term is skipped entirely, so its degenerate-batch
    precondition never applies.
    """
    mse, grads = alignment_mse(PairedBatch(video_batch.embeddings, label_rows))
    loss = mse
    if lam != 0.0:
        dml_val, dml_grads = dml(video_batch)
        loss += lam * dml_val
        grads = grads + lam * dml_grads
    return loss, grads


def je_loss(
    video_batch: EmbeddingBatch,
    label_batch: EmbeddingBatch,
    dml,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Joint objective: the metric loss over video items plus exactly one
    projected label item per class in the batch. Returns gradients split
    back into (video, label) blocks."""
    label_ids = label_batch.class_ids
    if len(set(label_ids.tolist())) != label_ids.shape[0]:
        raise ConfigError("je_loss: duplicate label items for a class")
    if set(label_ids.tolist()) != set(video_batch.class_ids.tolist()):
        raise ConfigError("je_loss: label classes must match video batch classes")
    if video_batch.embeddings.shape[1] != label_batch.embeddings.shape[1]:
        raise DimensionError("je_loss: embedding dimension mismatch")
    union = EmbeddingBatch(
        embeddings=np.vstack([video_batch.embeddings, label_batch.embeddings]),
        class_ids=np.concatenate([video_batch.class_ids, label_batch.class_ids]),
        check_norms=video_batch.check_norms and label_batch.check_norms,
    )
    loss, grads = dml(union)
    n_video = len(video_batch)
    return loss, grads[:n_video], grads[n_video:]


def make_dml(
    kind: str,
    hist_cfg: HistogramConfig = HistogramConfig(),
    ms_cfg: MultiSimConfig = MultiSimConfig(),
):
    """Loss selector: 'histogram' or 'multisim' -> batch -> (loss, grads)."""
    if kind == "histogram":
        return lambda batch: histogram_loss(batch, hist_cfg)
    if kind == "multisim":
        return lambda batch: multisim_loss(batch, ms_cfg)
    raise ConfigError(f"unknown metric loss {kind!r}")
