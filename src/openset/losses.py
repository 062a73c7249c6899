"""Metric-learning losses over unit-norm embedding batches.

Two deep-metric losses (histogram, multi-similarity) plus the two composite
objectives that train the cross-modal methods: direct alignment (MSE against
frozen label embeddings, optionally mixed with a metric term) and the joint
objective (metric loss over the union of video and projected-label items).

All losses return (scalar, gradient array(s) w.r.t. the input embeddings).
Similarity is the plain dot product, which on unit vectors is the cosine.
Pairs are positive iff their class_ids match; modality never matters, so
batches carry no modality tags.

Embeddings are plain (n, d) float64 arrays of unit rows, as the encoders'
row normalization returns them, with an (n,) int array of class ids; the
losses do not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError, check_fields
from .numcore import log1p_sum_exp


@dataclass(frozen=True)
class HistogramConfig:
    bins: int = 100

    def __post_init__(self):
        if not 2 <= self.bins <= 2**32:
            raise ConfigError(f"histogram: bins {self.bins} not in 2..2^32")


@dataclass(frozen=True)
class MultiSimConfig:
    alpha: float = 2.0
    beta: float = 50.0
    # lambda, the similarity pivot. Unit-norm similarities lie in [-1, 1], so
    # at 1.0 every negative sits below it and beta=50 scales the push on any
    # negative under 0.9 by less than e^-5.
    base: float = 0.5
    margin: float = 0.1

    def __post_init__(self):
        check_fields(self)
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("multisim: alpha and beta must be positive")
        if self.margin < 0:
            raise ConfigError("multisim: margin must be nonnegative")


def _pair_masks(class_ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n, n) masks of positive and negative pairs, diagonal off; a
    DimensionError unless there is one class id per embedding."""
    if len(class_ids) != n:
        raise DimensionError(f"{len(class_ids)} class ids for {n} embeddings")
    pos = class_ids[:, None] == class_ids[None, :]
    neg = ~pos
    pos.ravel()[:: n + 1] = False
    return pos, neg


def histogram_loss(
    embeddings: np.ndarray, class_ids: np.ndarray, cfg: HistogramConfig = HistogramConfig()
) -> tuple[float, np.ndarray]:
    """Probability that a random negative pair is at least as similar as a
    random positive pair, estimated from soft histograms.

    Pair similarities are spread over R nodes t_r = -1 + r*delta with
    delta = 2/(R-1) using triangular weights on the two nodes bracketing each
    similarity; the normalized node masses give distributions p+ and p-, and
    the loss is sum_r p-_r * cumsum(p+)_r, always within [0, 1]. Gradients
    flow through the piecewise-linear weights (kinked at bin nodes).
    """
    n = len(embeddings)
    e = embeddings
    pos_mask, neg_mask = _pair_masks(class_ids, n)
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
    embeddings: np.ndarray, class_ids: np.ndarray, cfg: MultiSimConfig = MultiSimConfig()
) -> tuple[float, np.ndarray]:
    """Per-anchor mined log-sum-exp loss.

    For each anchor, negatives harder than (closest positive - margin) and
    positives harder than (farthest negative + margin) are kept; anchors with
    no positives skip the positive term (all negatives kept), anchors with no
    negatives skip the negative term (all positives kept). Mining is a fixed
    selection: gradients do not flow through the thresholds.

    Every anchor is mined at once; the kept pairs, positive rows over negative
    ones, are compacted into one run that log1p_sum_exp and the weights share.
    The bits are those of the anchor-by-anchor loop, `multisim_loss_loop` in
    tests/reference.py (checked on numpy 2.4.6 only).
    """
    n = len(embeddings)
    pos_mask, neg_mask = _pair_masks(class_ids, n)
    if n < 2:
        raise DegenerateInputError("multisim_loss: need at least 2 items")
    e = embeddings
    sims = e @ e.T
    closest_pos = np.min(sims, axis=1, where=pos_mask, initial=np.inf, keepdims=True)
    farthest_neg = np.max(sims, axis=1, where=neg_mask, initial=-np.inf, keepdims=True)
    # rows 0..n-1 hold each anchor's positive term, rows n..2n-1 its negative
    # one; an anchor with no negatives (farthest_neg -inf) keeps every
    # positive, one with no positives (closest_pos inf) every negative
    keep = np.concatenate([
        pos_mask & ((sims < farthest_neg + cfg.margin) | (farthest_neg == -np.inf)),
        neg_mask & ((sims > closest_pos - cfg.margin) | (closest_pos == np.inf)),
    ])
    # the mined pairs compacted once, row-major: (sim - base) times -alpha in
    # the positive rows, beta in the negative ones, the loop's two operations
    mined = np.flatnonzero(keep)
    rows, pairs = mined // n, mined % (n * n)
    coef = np.where(rows < n, -cfg.alpha, cfg.beta)
    # beta * (sim - base), or a term over a tiny alpha or beta, may overflow to
    # inf and then NaN; the trainer's finiteness checks make that a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        x = coef * (np.take(sims, pairs) - cfg.base)
        lse = log1p_sum_exp(x, rows, 2 * n)
        weights = np.exp(x - lse[rows])
        # anchor by anchor, positive term first, as a loop sums: the cumsum adds
        # the interleaved terms in that order, and since every term is >= +0.0
        # (absent ones are +0.0) it starts from the loop's 0.0 with the same bits
        terms = lse.reshape(2, n) / np.array([[cfg.alpha], [cfg.beta]])
        loss = float(np.cumsum(terms.T)[-1]) / n
    # each mined pair's weight lands once, signed as its coef, on 0.0: the
    # halves are disjoint, so w is the loop's 0.0 -=/+= weight, +0.0 too
    w = np.bincount(pairs, np.copysign(weights, coef), n * n).reshape(n, n)
    grads = (w + w.T) @ e / n
    return loss, grads


def alignment_mse(video: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared distance between each video embedding and its (frozen)
    label embedding, row by row; gradient is for the video side only."""
    if video.shape != labels.shape:
        raise DimensionError(f"alignment_mse: shape mismatch {video.shape} vs {labels.shape}")
    n = len(video)
    if n == 0:
        raise DegenerateInputError("alignment_mse: empty batch")
    diff = video - labels
    loss = float((diff * diff).sum() / n)
    grads = 2.0 * diff / n
    return loss, grads


def we_loss(
    video: np.ndarray,
    class_ids: np.ndarray,
    label_rows: np.ndarray,
    lam: float,
    dml,
) -> tuple[float, np.ndarray]:
    """Alignment objective: lam * dml(video, class_ids) + alignment_mse of
    each video embedding against its row of label_rows (the frozen embedding
    of its class, in batch order); the combined gradient is returned per item.
    With lam = 0 the metric term is skipped entirely, so its degenerate-batch
    precondition never applies.
    """
    mse, grads = alignment_mse(video, label_rows)
    loss = mse
    if lam != 0.0:
        dml_val, dml_grads = dml(video, class_ids)
        loss += lam * dml_val
        grads = grads + lam * dml_grads
    return loss, grads


def je_loss(
    video: np.ndarray,
    video_ids: np.ndarray,
    labels: np.ndarray,
    label_ids: np.ndarray,
    dml,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Joint objective: the metric loss over video items plus exactly one
    projected label item per class in the batch. Returns gradients split
    back into (video, label) blocks."""
    if len(set(label_ids.tolist())) != label_ids.shape[0]:
        raise ConfigError("je_loss: duplicate label items for a class")
    if set(label_ids.tolist()) != set(video_ids.tolist()):
        raise ConfigError("je_loss: label classes must match video batch classes")
    if video.shape[1] != labels.shape[1]:
        raise DimensionError("je_loss: embedding dimension mismatch")
    loss, grads = dml(np.vstack([video, labels]), np.concatenate([video_ids, label_ids]))
    n_video = len(video)
    return loss, grads[:n_video], grads[n_video:]


def make_dml(
    kind: str,
    hist_cfg: HistogramConfig = HistogramConfig(),
    ms_cfg: MultiSimConfig = MultiSimConfig(),
):
    """Loss selector: 'histogram' or 'multisim' ->
    (embeddings, class_ids) -> (loss, grads)."""
    if kind == "histogram":
        return lambda embeddings, class_ids: histogram_loss(embeddings, class_ids, hist_cfg)
    if kind == "multisim":
        return lambda embeddings, class_ids: multisim_loss(embeddings, class_ids, ms_cfg)
    raise ConfigError(f"unknown metric loss {kind!r}")
