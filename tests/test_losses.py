"""Tests for the metric losses and the alignment objectives.

Analytic anchor cases use Cholesky factors of hand-built Gram matrices so
pairwise similarities are controlled exactly; oracle cases compare against
the loop-based implementations in reference.py.
"""

import math

import numpy as np
import pytest

from openset import losses
from openset.errors import ConfigError, DegenerateInputError

import reference


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_batch(rng, n_classes=4, per_class=3, d=8):
    emb = unit_rows(rng, n_classes * per_class, d)
    ids = np.repeat(np.arange(n_classes), per_class)
    return losses.EmbeddingBatch(embeddings=emb, class_ids=ids)


def vectors_with_gram(gram):
    """Rows whose pairwise dot products equal the given PSD matrix."""
    return np.linalg.cholesky(np.asarray(gram, dtype=np.float64))


def fd_error(loss_fn, emb, ids):
    shape = emb.shape

    def f(x):
        batch = losses.EmbeddingBatch(
            embeddings=x.reshape(shape), class_ids=ids, check_norms=False
        )
        val, grads = loss_fn(batch)
        return val, np.asarray(grads).ravel().copy()

    return reference.check_gradient(f, emb.ravel().copy())


class TestHistogram:
    def test_perfect_separation_is_zero(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        batch = losses.EmbeddingBatch(
            embeddings=np.stack([e1, e1, e2, e2]),
            class_ids=np.array([0, 0, 1, 1]),
        )
        loss, _ = losses.histogram_loss(batch, losses.HistogramConfig())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_total_inversion_is_one(self):
        # positives at similarity -1, negatives at 0: the negative
        # distribution sits entirely above the positive one
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        batch = losses.EmbeddingBatch(
            embeddings=np.stack([e1, -e1, e2, -e2]),
            class_ids=np.array([0, 0, 1, 1]),
        )
        loss, _ = losses.histogram_loss(batch, losses.HistogramConfig())
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_node_aligned_step_value(self):
        # one positive pair exactly on node 50, negatives exactly on nodes
        # 49 and 51: only the negative above the positive mass contributes
        delta = 2.0 / 99
        t = lambda r: -1.0 + r * delta
        gram = [
            [1.0, t(50), t(49)],
            [t(50), 1.0, t(51)],
            [t(49), t(51), 1.0],
        ]
        emb = vectors_with_gram(gram)
        batch = losses.EmbeddingBatch(
            embeddings=emb, class_ids=np.array([0, 0, 1]), check_norms=False
        )
        loss, _ = losses.histogram_loss(batch, losses.HistogramConfig())
        assert loss == pytest.approx(0.5, abs=1e-9)

    def test_triangular_kernel_fraction(self):
        # positive pair 40% of the way from node 50 to node 51 leaves
        # 0.6 of its mass at node 50; a negative exactly on node 50 then
        # integrates only that fraction
        delta = 2.0 / 99
        t = lambda r: -1.0 + r * delta
        gram = [
            [1.0, t(50) + 0.4 * delta, t(50)],
            [t(50) + 0.4 * delta, 1.0, t(49)],
            [t(50), t(49), 1.0],
        ]
        emb = vectors_with_gram(gram)
        batch = losses.EmbeddingBatch(
            embeddings=emb, class_ids=np.array([0, 0, 1]), check_norms=False
        )
        loss, _ = losses.histogram_loss(batch, losses.HistogramConfig())
        assert loss == pytest.approx(0.3, abs=1e-9)

    def test_bounded_in_unit_interval(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            batch = random_batch(rng, n_classes=int(rng.integers(2, 5)),
                                 per_class=int(rng.integers(2, 4)))
            loss, _ = losses.histogram_loss(batch, losses.HistogramConfig())
            assert 0.0 <= loss <= 1.0

    def test_matches_pairwise_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            batch = random_batch(rng, n_classes=int(rng.integers(2, 6)),
                                 per_class=int(rng.integers(2, 5)))
            loss, _ = losses.histogram_loss(batch, losses.HistogramConfig())
            want = reference.histogram_loss_naive(
                batch.embeddings, batch.class_ids, bins=100
            )
            assert loss == pytest.approx(want, abs=1e-10)

    def test_gradient_matches_central_differences(self):
        cfg = losses.HistogramConfig()
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            batch = random_batch(rng, n_classes=3, per_class=3, d=8)
            err = fd_error(
                lambda b: losses.histogram_loss(b, cfg),
                batch.embeddings, batch.class_ids,
            )
            assert err < 1e-4, seed

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng)
        perm = rng.permutation(len(batch))
        shuffled = losses.EmbeddingBatch(
            embeddings=batch.embeddings[perm], class_ids=batch.class_ids[perm]
        )
        a, ga = losses.histogram_loss(batch, losses.HistogramConfig())
        b, gb = losses.histogram_loss(shuffled, losses.HistogramConfig())
        assert a == pytest.approx(b, abs=1e-12)
        assert np.allclose(ga[perm], gb, atol=1e-10)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, d=6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = losses.EmbeddingBatch(
            embeddings=batch.embeddings @ q, class_ids=batch.class_ids
        )
        a, _ = losses.histogram_loss(batch, losses.HistogramConfig())
        b, _ = losses.histogram_loss(rotated, losses.HistogramConfig())
        assert a == pytest.approx(b, abs=1e-10)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(5)
        batch = losses.EmbeddingBatch(
            embeddings=unit_rows(rng, 4, 5), class_ids=np.zeros(4, dtype=int)
        )
        with pytest.raises(DegenerateInputError):
            losses.histogram_loss(batch, losses.HistogramConfig())

    def test_all_singletons_rejected(self):
        rng = np.random.default_rng(6)
        batch = losses.EmbeddingBatch(
            embeddings=unit_rows(rng, 4, 5), class_ids=np.arange(4)
        )
        with pytest.raises(DegenerateInputError):
            losses.histogram_loss(batch, losses.HistogramConfig())


# Class layouts for the bit-exact referee: a VE/WE batch (12 classes x 8),
# a JE union (the same plus one label item per class), and the two batches
# where one kind of pair is absent.
REFEREE_LAYOUTS = {
    "n96": np.repeat(np.arange(12), 8),
    "n108": np.concatenate([np.repeat(np.arange(12), 8), np.arange(12)]),
    "singletons": np.arange(20),
    "single_class": np.zeros(16, dtype=np.int64),
}
REFEREE_CFGS = (
    losses.MultiSimConfig(),
    losses.MultiSimConfig(margin=0.0),
    losses.MultiSimConfig(base=1.0),
    losses.MultiSimConfig(margin=0.0, base=1.0),
    losses.MultiSimConfig(alpha=0.5, beta=10.0, margin=0.5),
)


def referee_batch(rng, ids, style, d=16):
    """Unit rows in one of three styles: 0 spread at random; 1 tight class
    clusters, so an anchor's positives all beat its farthest negative and
    are mined away; 2 every row copied from a pool of three, so
    similarities tie exactly at the mining thresholds."""
    if style == 0:
        emb = unit_rows(rng, len(ids), d)
    elif style == 1:
        centres = unit_rows(rng, int(ids.max()) + 1, d)
        emb = centres[ids] + 0.05 * rng.normal(size=(len(ids), d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    else:
        emb = unit_rows(rng, 3, d)[rng.integers(0, 3, size=len(ids))]
    return losses.EmbeddingBatch(embeddings=emb, class_ids=ids, check_norms=False)


def mining_coverage(batch, cfg):
    """(anchors with a similarity exactly at a mining threshold, anchors
    whose positives are all mined away)."""
    sims = batch.embeddings @ batch.embeddings.T
    ties = away = 0
    for i in range(len(batch)):
        same = batch.class_ids == batch.class_ids[i]
        pos = sims[i, same & (np.arange(len(batch)) != i)]
        neg = sims[i, ~same]
        if pos.size and neg.size:
            ties += bool(np.any(neg == pos.min() - cfg.margin)
                         or np.any(pos == neg.max() + cfg.margin))
            away += bool(np.all(pos >= neg.max() + cfg.margin))
    return ties, away


class TestMultiSim:
    def test_bits_equal_per_anchor_loop(self):
        # the vectorized kernel must reproduce the loop's bits, not just
        # its value: training trajectories and checkpoints depend on them
        cases = ties = away = 0
        for name, ids in REFEREE_LAYOUTS.items():
            for c, cfg in enumerate(REFEREE_CFGS):
                for seed in range(15):
                    rng = np.random.default_rng([len(ids), c, seed])
                    batch = referee_batch(rng, ids, style=seed % 3)
                    loss, grads = losses.multisim_loss(batch, cfg)
                    ref_loss, ref_grads = reference.multisim_loss_loop(batch, cfg)
                    assert loss == ref_loss, (name, cfg, seed)
                    assert np.array_equal(grads, ref_grads), (name, cfg, seed)
                    assert grads.tobytes() == ref_grads.tobytes(), (name, cfg, seed)
                    t, a = mining_coverage(batch, cfg)
                    cases, ties, away = cases + 1, ties + t, away + a
        assert cases >= 300
        assert ties > 0 and away > 0

    def test_two_item_negative_closed_form(self):
        # one negative pair at similarity == base: each anchor has no
        # positives, keeps its sole negative, contributing log(2)/beta
        cfg = losses.MultiSimConfig(alpha=2.0, beta=2.0, base=0.5, margin=0.1)
        gram = [[1.0, 0.5], [0.5, 1.0]]
        batch = losses.EmbeddingBatch(
            embeddings=vectors_with_gram(gram),
            class_ids=np.array([0, 1]),
            check_norms=False,
        )
        loss, _ = losses.multisim_loss(batch, cfg)
        assert loss == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_two_item_positive_closed_form(self):
        cfg = losses.MultiSimConfig(alpha=4.0, beta=50.0, base=0.25, margin=0.1)
        gram = [[1.0, 0.25], [0.25, 1.0]]
        batch = losses.EmbeddingBatch(
            embeddings=vectors_with_gram(gram),
            class_ids=np.array([7, 7]),
            check_norms=False,
        )
        loss, _ = losses.multisim_loss(batch, cfg)
        assert loss == pytest.approx(math.log(2.0) / 4.0, abs=1e-12)

    def test_mining_hand_case(self):
        # anchor a: easy positive (0.9 vs negative 0.6), both mined away;
        # anchor b: hard positive/negative pair kept; anchor c: no
        # positives, so every negative is kept
        cfg = losses.MultiSimConfig()
        gram = [
            [1.0, 0.9, 0.6],
            [0.9, 1.0, 0.85],
            [0.6, 0.85, 1.0],
        ]
        batch = losses.EmbeddingBatch(
            embeddings=vectors_with_gram(gram),
            class_ids=np.array([0, 0, 1]),
            check_norms=False,
        )
        loss, _ = losses.multisim_loss(batch, cfg)
        term_b = (
            math.log1p(math.exp(-cfg.alpha * (0.9 - cfg.base))) / cfg.alpha
            + math.log1p(math.exp(cfg.beta * (0.85 - cfg.base))) / cfg.beta
        )
        term_c = math.log1p(
            math.exp(cfg.beta * (0.6 - cfg.base))
            + math.exp(cfg.beta * (0.85 - cfg.base))
        ) / cfg.beta
        assert loss == pytest.approx((term_b + term_c) / 3.0, abs=1e-9)

    def test_matches_per_anchor_oracle(self):
        cfg = losses.MultiSimConfig()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            batch = random_batch(rng, n_classes=int(rng.integers(2, 6)),
                                 per_class=int(rng.integers(1, 5)))
            if len(batch) < 2:
                continue
            loss, _ = losses.multisim_loss(batch, cfg)
            want = reference.multisim_loss_naive(
                batch.embeddings, batch.class_ids,
                alpha=cfg.alpha, beta=cfg.beta, base=cfg.base, margin=cfg.margin,
            )
            assert loss == pytest.approx(want, abs=1e-10)

    def test_all_singletons_allowed(self):
        # no positive pairs anywhere: pure negative repulsion, not an error
        rng = np.random.default_rng(7)
        batch = losses.EmbeddingBatch(
            embeddings=unit_rows(rng, 4, 6), class_ids=np.arange(4)
        )
        loss, grads = losses.multisim_loss(batch, losses.MultiSimConfig())
        assert loss > 0.0
        assert grads.shape == batch.embeddings.shape

    def test_single_class_allowed(self):
        rng = np.random.default_rng(8)
        batch = losses.EmbeddingBatch(
            embeddings=unit_rows(rng, 4, 6), class_ids=np.zeros(4, dtype=int)
        )
        loss, _ = losses.multisim_loss(batch, losses.MultiSimConfig())
        assert loss > 0.0

    def test_single_item_rejected(self):
        batch = losses.EmbeddingBatch(
            embeddings=np.array([[1.0, 0.0]]), class_ids=np.array([0])
        )
        with pytest.raises(DegenerateInputError):
            losses.multisim_loss(batch, losses.MultiSimConfig())

    def test_gradient_matches_central_differences(self):
        cfg = losses.MultiSimConfig()
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            batch = random_batch(rng, n_classes=3, per_class=3, d=8)
            err = fd_error(
                lambda b: losses.multisim_loss(b, cfg),
                batch.embeddings, batch.class_ids,
            )
            assert err < 1e-4, seed

    def test_harder_negative_raises_loss(self):
        cfg = losses.MultiSimConfig()
        def at(s):
            gram = [[1.0, 0.9, 0.6], [0.9, 1.0, s], [0.6, s, 1.0]]
            batch = losses.EmbeddingBatch(
                embeddings=vectors_with_gram(gram),
                class_ids=np.array([0, 0, 1]),
                check_norms=False,
            )
            return losses.multisim_loss(batch, cfg)[0]
        # both settings keep the same mined pairs; only the similarity moves
        assert at(0.88) > at(0.82)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        batch = random_batch(rng)
        perm = rng.permutation(len(batch))
        shuffled = losses.EmbeddingBatch(
            embeddings=batch.embeddings[perm], class_ids=batch.class_ids[perm]
        )
        a, ga = losses.multisim_loss(batch, losses.MultiSimConfig())
        b, gb = losses.multisim_loss(shuffled, losses.MultiSimConfig())
        assert a == pytest.approx(b, abs=1e-12)
        assert np.allclose(ga[perm], gb, atol=1e-10)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, d=6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = losses.EmbeddingBatch(
            embeddings=batch.embeddings @ q, class_ids=batch.class_ids
        )
        a, _ = losses.multisim_loss(batch, losses.MultiSimConfig())
        b, _ = losses.multisim_loss(rotated, losses.MultiSimConfig())
        assert a == pytest.approx(b, abs=1e-10)


class TestAlignment:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(11)
        v = unit_rows(rng, 3, 4)
        loss, grads = losses.alignment_mse(losses.PairedBatch(v, v.copy()))
        assert loss == 0.0
        assert np.all(grads == 0.0)

    def test_orthogonal_unit_rows(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, _ = losses.alignment_mse(losses.PairedBatch(v, b))
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        v = rng.normal(size=(5, 4))
        b = rng.normal(size=(5, 4))
        loss, grads = losses.alignment_mse(losses.PairedBatch(v, b))
        want = float(np.mean([np.sum((v[i] - b[i]) ** 2) for i in range(5)]))
        assert loss == pytest.approx(want, abs=1e-12)
        assert np.allclose(grads, 2.0 * (v - b) / 5, atol=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))

        def f(x):
            loss, grads = losses.alignment_mse(
                losses.PairedBatch(x.reshape(4, 3), b)
            )
            return loss, grads.ravel().copy()

        assert reference.check_gradient(f, v.ravel().copy()) < 1e-7

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            losses.alignment_mse(
                losses.PairedBatch(np.zeros((0, 3)), np.zeros((0, 3)))
            )


class TestWeLoss:
    def make_inputs(self, seed=14, n_classes=3, per_class=2, d=5):
        rng = np.random.default_rng(seed)
        emb = unit_rows(rng, n_classes * per_class, d)
        ids = np.repeat(np.arange(n_classes), per_class)
        targets = unit_rows(rng, n_classes, d)[ids]
        batch = losses.EmbeddingBatch(embeddings=emb, class_ids=ids)
        paired = losses.PairedBatch(emb.copy(), targets)
        return batch, paired

    def test_lambda_zero_is_pure_alignment(self):
        batch, paired = self.make_inputs()
        # dml must not be touched at lambda 0: passing None proves it
        loss, grads = losses.we_loss(batch, paired.label_embeddings, lam=0.0, dml=None)
        want, want_grads = losses.alignment_mse(paired)
        assert loss == want
        assert np.array_equal(grads, want_grads)

    def test_combination_is_affine_in_lambda(self):
        batch, paired = self.make_inputs()
        dml = losses.make_dml("multisim")
        mse, mse_grads = losses.alignment_mse(paired)
        dml_val, dml_grads = dml(batch)
        for lam in (0.5, 10.0):
            loss, grads = losses.we_loss(batch, paired.label_embeddings, lam=lam, dml=dml)
            assert loss == pytest.approx(mse + lam * dml_val, abs=1e-12)
            assert np.allclose(grads, mse_grads + lam * dml_grads, atol=1e-12)


class TestJeLoss:
    def make_inputs(self, seed=15, n_classes=3, per_class=2, d=5):
        rng = np.random.default_rng(seed)
        video = losses.EmbeddingBatch(
            embeddings=unit_rows(rng, n_classes * per_class, d),
            class_ids=np.repeat(np.arange(n_classes), per_class),
        )
        label = losses.EmbeddingBatch(
            embeddings=unit_rows(rng, n_classes, d),
            class_ids=np.arange(n_classes),
        )
        return video, label

    def test_equals_dml_on_union(self):
        video, label = self.make_inputs()
        dml = losses.make_dml("multisim")
        loss, g_video, g_label = losses.je_loss(video, label, dml)
        union = losses.EmbeddingBatch(
            embeddings=np.vstack([video.embeddings, label.embeddings]),
            class_ids=np.concatenate([video.class_ids, label.class_ids]),
        )
        want, want_grads = dml(union)
        assert loss == want
        assert np.array_equal(g_video, want_grads[: len(video)])
        assert np.array_equal(g_label, want_grads[len(video):])

    def test_duplicate_label_rejected(self):
        video, label = self.make_inputs()
        dup = losses.EmbeddingBatch(
            embeddings=np.vstack([label.embeddings, label.embeddings[:1]]),
            class_ids=np.concatenate([label.class_ids, label.class_ids[:1]]),
        )
        with pytest.raises(ConfigError):
            losses.je_loss(video, dup, losses.make_dml("multisim"))

    def test_class_mismatch_rejected(self):
        video, label = self.make_inputs()
        shifted = losses.EmbeddingBatch(
            embeddings=label.embeddings, class_ids=label.class_ids + 100
        )
        with pytest.raises(ConfigError):
            losses.je_loss(video, shifted, losses.make_dml("multisim"))


def test_make_dml_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        losses.make_dml("triplet")
