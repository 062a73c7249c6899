"""Tests for the optimization loop and its logging."""

import dataclasses

import numpy as np
import pytest

from openset import data, episodic, losses, model, splits, trainer
from openset.errors import ConfigError, NumericError, SamplingError

import reference


def desk_data():
    cfg = data.SynthConfig(
        n_verbs=8, n_nouns=8, class_density=0.9, instances_per_class=(4, 6),
        d_latent=3, input_dim=10, frames=2, label_dim=6,
        sigma_frame=0.3, sigma_instance=0.3, seed=21,
    )
    ds = data.synth_generate(cfg)
    split = splits.generate_split(ds.classes, splits.SplitSpec(p_verbs=2, p_nouns=2, seed=0))
    return ds, split


def make_net(method="VE", embed_dim=6, seed=0):
    cfg = model.ModelConfig(
        method=method, input_dim=10, hidden_dim=8, embed_dim=embed_dim, label_dim=6
    )
    return model.init_model(cfg, seed=seed)


DATASET, SPLIT = desk_data()


def in_class(pool, positions, index):
    """Which of a batch's positions into pool.rows hold the pool's class index."""
    return np.repeat(pool.classes, pool.sizes)[positions] == pool.classes[index]


def keep_only(split, name, kept):
    """split with subset name cut down to the classes kept; the rest of that
    subset leaves the split."""
    subset = {cid: s for cid, s in split.subset.items() if s != name or cid in kept}
    return splits.SplitResult(subset, split.category)


def validation_loss(net, ds, classes, cfg, round_idx):
    """trainer._validation_loss over the pool of classes that check_split builds."""
    pool = episodic.ClassPool(ds, classes, cfg.batch_k_max)
    return trainer._validation_loss(net, ds, pool, cfg, round_idx)


def few_instance_data():
    """Reference dims (input 64, label 32) with 1-3 instances per class, and
    the validation classes of its split."""
    cfg = data.SynthConfig(
        n_verbs=8, n_nouns=8, class_density=0.9, instances_per_class=(1, 3),
        d_latent=8, input_dim=64, frames=4, label_dim=32,
        sigma_frame=0.3, sigma_instance=0.3, seed=21,
    )
    ds = data.synth_generate(cfg)
    split = splits.generate_split(ds.classes, splits.SplitSpec(p_verbs=2, p_nouns=2, seed=0))
    return ds, sorted(split.classes("val"))


def shared_content_validation_data():
    """14 training classes of 4 identical instances each, distinct across
    classes, and 14 validation classes whose instances all share one content
    vector: every validation similarity is 1, so every pair is mined."""
    rng = np.random.default_rng(0)
    shared = rng.normal(size=(2, 10))
    entries, class_ids, features, labels = {}, [], [], {}
    for cid in range(28):
        entries[cid] = data.ClassEntry(cid, cid, cid, f"v{cid:02d}", f"n{cid:02d}", 4)
        content = rng.normal(size=(2, 10)) if cid < 14 else shared
        features += [content] * 4
        class_ids += [cid] * 4
        vec = rng.normal(size=6)
        labels[cid] = vec / np.linalg.norm(vec)
    ds = data.Dataset(classes=data.ClassTable(entries=entries), instance_ids=np.arange(112),
                      class_ids=class_ids, features=np.array(features), label_embeddings=labels)
    split = splits.SplitResult(
        subset={cid: "train" if cid < 14 else "val" for cid in range(28)},
        category={cid: "HoV" for cid in range(14, 28)},
    )
    return ds, split


# one validation round at step 5; with multisim beta 1e308 and base -0.8 on
# shared_content_validation_data, beta * (1 - base) overflows on the mined
# negatives and the round's loss is NaN
NAN_VALIDATION_RUN = dict(max_batches=5, val_every=5, val_batches=3, patience=5)


def fast_cfg(**kw):
    base = dict(
        method="VE", dml="multisim", lr0=1e-3,
        val_every=20, val_batches=5, max_batches=60, patience=1500, seed=0,
    )
    base.update(kw)
    return trainer.TrainConfig(**base)


class TestLrSchedule:
    def test_piecewise_geometric(self):
        cfg = trainer.TrainConfig(lr0=1.0, decay_factor=0.8, decay_every=1000)
        assert trainer.lr_at(0, cfg) == 1.0
        assert trainer.lr_at(999, cfg) == 1.0
        assert trainer.lr_at(1000, cfg) == pytest.approx(0.8)
        assert trainer.lr_at(3000, cfg) == pytest.approx(0.8**3)

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigError):
            trainer.lr_at(-1, trainer.TrainConfig())


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            fast_cfg(method="QQ")

    def test_unknown_dml(self):
        with pytest.raises(ConfigError):
            fast_cfg(dml="contrastive")

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            fast_cfg(lambda_we=-1.0)

    def test_batch_floor_above_largest_batch(self):
        # batch_classes x batch_k_max caps every batch, so a higher floor can
        # never be drawn: a ConfigError (exit 1) at construction
        with pytest.raises(ConfigError) as exc:
            fast_cfg(batch_k_max=1, batch_min_total=13)
        assert str(exc.value) == (
            "batch_min_total 13 exceeds the largest batch, batch_classes 12 x batch_k_max 1"
        )
        assert fast_cfg(batch_k_max=1, batch_min_total=12).batch_min_total == 12

    def test_method_model_mismatch(self):
        with pytest.raises(ConfigError):
            trainer.train(make_net("VE"), DATASET, SPLIT, fast_cfg(method="JE"))

    def test_too_few_train_classes(self):
        thin = keep_only(SPLIT, "train", list(SPLIT.classes("train"))[:5])
        with pytest.raises(ConfigError, match="train"):
            trainer.train(make_net(), DATASET, thin, fast_cfg())

    def test_val_classes_checked_only_when_validating(self):
        thin = keep_only(SPLIT, "val", list(SPLIT.classes("val"))[:3])
        with pytest.raises(ConfigError, match="validation"):
            trainer.train(make_net(), DATASET, thin, fast_cfg())
        # below one validation interval the loop never validates
        net, log = trainer.train(make_net(), DATASET, thin, fast_cfg(max_batches=10))
        assert log.validations == []
        assert log.best_step is None

    def test_unfillable_batches_rejected(self):
        # at k_max 8 the 12 smallest training classes (eight of 4 instances,
        # four of 5) give at most 52 rows, the 12 validation classes 66 and
        # the 12 largest training classes 71
        small = sorted(SPLIT.classes("train"), key=lambda c: len(DATASET.class_rows[c]))[:12]
        thin = keep_only(SPLIT, "train", small)
        with pytest.raises(ConfigError) as exc:
            trainer.check_split(DATASET, thin, fast_cfg(batch_min_total=53))
        assert str(exc.value) == (
            "train: the 12 largest training classes give at most 52 instances per batch, "
            "below batch_min_total 53"
        )
        trainer.check_split(DATASET, thin, fast_cfg(batch_min_total=52))
        # no batch is drawn at max_batches 0, so only the class count is checked
        trainer.check_split(DATASET, thin, fast_cfg(batch_min_total=53, max_batches=0))
        with pytest.raises(ConfigError, match="^train: the 12 largest validation classes "
                                              "give at most 66 instances per batch"):
            trainer.check_split(DATASET, SPLIT, fast_cfg(batch_min_total=67))
        # below one validation interval the loop never validates
        trainer.check_split(DATASET, SPLIT, fast_cfg(batch_min_total=67, max_batches=10))


class TestTrainLoop:
    def test_zero_batches_returns_initial_copy(self):
        net = make_net()
        out, log = trainer.train(net, DATASET, SPLIT, fast_cfg(max_batches=0))
        assert out is not net
        for a, b in zip(out.blocks(), net.blocks()):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
        assert log.step_losses == [] and log.stop_reason == "max"

    def test_zero_lr_keeps_parameters(self):
        net = make_net()
        before = [blk.weights.copy() for blk in net.blocks()]
        _, log = trainer.train(net, DATASET, SPLIT, fast_cfg(lr0=0.0, max_batches=5))
        assert len(log.step_losses) == 5
        for blk, w in zip(net.blocks(), before):
            assert np.array_equal(blk.weights, w)

    def test_deterministic(self):
        def run():
            net = make_net(seed=3)
            out, log = trainer.train(net, DATASET, SPLIT, fast_cfg())
            return log, [blk.weights.copy() for blk in out.blocks()]

        log_a, w_a = run()
        log_b, w_b = run()
        assert log_a.step_losses == log_b.step_losses
        assert log_a.validations == log_b.validations
        for x, y in zip(w_a, w_b):
            assert np.array_equal(x, y)

    def test_loss_trends_down(self):
        net = make_net(seed=1)
        _, log = trainer.train(
            net, DATASET, SPLIT,
            fast_cfg(max_batches=300, val_every=100, val_batches=10),
        )
        first = float(np.mean(log.step_losses[:50]))
        last = float(np.mean(log.step_losses[-50:]))
        assert last < first

    def test_best_checkpoint_returned(self):
        net = make_net(seed=2)
        cfg = fast_cfg(max_batches=120, val_every=20, val_batches=10)
        best, log = trainer.train(net, DATASET, SPLIT, cfg)
        assert log.validations
        best_recorded = min(v for _, v in log.validations)
        assert log.best_val_loss == best_recorded
        assert (log.best_step, log.best_val_loss) in [
            (s, v) for s, v in log.validations
        ]
        # the returned parameters reproduce the recorded best loss exactly
        round_idx = [s for s, _ in log.validations].index(log.best_step) + 1
        recomputed = validation_loss(best, DATASET, sorted(SPLIT.classes("val")), cfg, round_idx)
        assert recomputed == log.best_val_loss

    def test_patience_stops_without_improvement(self):
        # frozen parameters: after the first round sets the best, later
        # rounds only rarely beat it, so patience must trigger
        net = make_net(seed=4)
        cfg = fast_cfg(lr0=0.0, max_batches=2000, val_every=10,
                       val_batches=5, patience=30)
        _, log = trainer.train(net, DATASET, SPLIT, cfg)
        assert log.stop_reason == "patience"
        last_step = len(log.step_losses)
        assert last_step < 2000
        assert last_step - log.best_step >= 30

    def test_batches_drawn_from_correct_subsets(self, monkeypatch):
        calls = []
        real = episodic.sample_training_batch

        def spy(pool, *args):
            batches = real(pool, *args)
            calls.append((set(pool.classes.tolist()), len(batches)))
            return batches

        monkeypatch.setattr(episodic, "sample_training_batch", spy)
        monkeypatch.setattr(trainer.episodic, "sample_training_batch", spy)
        trainer.train(make_net(seed=5), DATASET, SPLIT, fast_cfg(max_batches=40))
        assert calls
        for pool, _ in calls:
            assert pool == SPLIT.classes("train") or pool == SPLIT.classes("val")
        assert any(pool == SPLIT.classes("val") for pool, _ in calls)
        # one block holds all 40 steps' batches; each round draws its 5 at once
        assert [n for pool, n in calls if pool == SPLIT.classes("train")] == [40]
        assert [n for pool, n in calls if pool == SPLIT.classes("val")] == [5, 5]

    def test_label_table_never_written(self):
        before = {
            cid: emb.copy() for cid, emb in DATASET.label_embeddings.items()
        }
        for method, lam in (("WE", 0.0), ("WE", 10.0), ("JE", 0.0)):
            net = make_net(method, embed_dim=6 if method == "WE" else 5, seed=6)
            trainer.train(
                net, DATASET, SPLIT,
                fast_cfg(method=method, lambda_we=lam, max_batches=30),
            )
        for cid, emb in DATASET.label_embeddings.items():
            assert np.array_equal(emb, before[cid])

    def test_je_projector_moves(self):
        net = make_net("JE", embed_dim=5, seed=7)
        before = net.label_projector.weights.copy()
        out, _ = trainer.train(
            net, DATASET, SPLIT, fast_cfg(method="JE", max_batches=30)
        )
        assert not np.array_equal(out.label_projector.weights, before)

    def test_histogram_objective_runs(self):
        net = make_net(seed=8)
        _, log = trainer.train(
            net, DATASET, SPLIT, fast_cfg(dml="histogram", max_batches=25)
        )
        assert len(log.step_losses) == 25
        assert all(0.0 <= l <= 1.0 for l in log.step_losses)

    def test_nonfinite_loss_raises(self, monkeypatch):
        monkeypatch.setattr(
            trainer, "batch_objective",
            lambda *a, **kw: float("nan"),
        )
        with pytest.raises(NumericError, match="non-finite"):
            trainer.train(make_net(seed=9), DATASET, SPLIT, fast_cfg(max_batches=5))

    def test_nonfinite_validation_loss_raises_naming_the_step(self):
        ds, split = shared_content_validation_data()
        cfg = fast_cfg(**NAN_VALIDATION_RUN)
        _, log = trainer.train(make_net(seed=9), ds, split, cfg)
        assert log.validations[0][0] == 5 and np.isfinite(log.validations[0][1])
        assert log.best_step == 5
        bad = dataclasses.replace(cfg, multisim=losses.MultiSimConfig(beta=1e308, base=-0.8))
        # numpy's overflow and invalid warnings are on the way to the NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError,
                               match=r"^step 5: non-finite validation loss nan$"):
                trainer.train(make_net(seed=9), ds, split, bad)

    def test_degenerate_batches_resampled_and_counted(self, monkeypatch):
        real = episodic.sample_training_batch
        state = {"first": True}

        def fake(pool, *args):
            batches = real(pool, *args)
            if state["first"]:
                state["first"] = False
                # single-class batch has no negative pairs
                picked, positions = batches[0]
                batches[0] = picked[:1], positions[in_class(pool, positions, picked[0])]
            return batches

        monkeypatch.setattr(trainer.episodic, "sample_training_batch", fake)
        net = make_net(seed=10)
        _, log = trainer.train(
            net, DATASET, SPLIT, fast_cfg(dml="histogram", max_batches=5)
        )
        assert log.degenerate_resamples == 1
        assert len(log.step_losses) == 5

    def test_every_batch_degenerate_raises(self, monkeypatch):
        real = episodic.sample_training_batch

        def fake(pool, *args):
            return [(picked[:1], positions[in_class(pool, positions, picked[0])])
                    for picked, positions in real(pool, *args)]

        monkeypatch.setattr(trainer.episodic, "sample_training_batch", fake)
        with pytest.raises(SamplingError, match="degenerate"):
            trainer.train(
                make_net(seed=11), DATASET, SPLIT,
                fast_cfg(dml="histogram", max_batches=2),
            )


class TestClassPools:
    """check_split builds the run's pools; every step and round draws from them."""

    def test_train_builds_one_pool_per_class_set(self, monkeypatch):
        built = []

        class CountingPool(episodic.ClassPool):
            def __init__(self, dataset, classes, *args):
                built.append(set(classes))
                super().__init__(dataset, classes, *args)

        monkeypatch.setattr(episodic, "ClassPool", CountingPool)
        _, log = trainer.train(make_net(seed=5), DATASET, SPLIT, fast_cfg(max_batches=60))
        assert len(log.validations) == 3
        assert built == [SPLIT.classes("train"), SPLIT.classes("val")]

    def test_ve_trains_without_label_embeddings(self):
        unlabelled = data.Dataset(DATASET.classes, DATASET.instance_ids, DATASET.class_ids,
                                  DATASET.features, {})
        cfg = fast_cfg(max_batches=40)
        got, got_log = trainer.train(make_net(seed=3), unlabelled, SPLIT, cfg)
        want, want_log = trainer.train(make_net(seed=3), DATASET, SPLIT, cfg)
        assert len(got_log.validations) == 2
        assert got.params.tobytes() == want.params.tobytes() and got_log == want_log

    @pytest.mark.parametrize("subset", ["train", "val"])
    @pytest.mark.parametrize("method,embed_dim", [("WE", 6), ("JE", 5)])
    def test_pool_class_without_label_rejected_before_training(self, monkeypatch, method,
                                                               embed_dim, subset):
        missing = max(SPLIT.classes(subset))
        labels = {c: v for c, v in DATASET.label_embeddings.items() if c != missing}
        ds = data.Dataset(DATASET.classes, DATASET.instance_ids, DATASET.class_ids,
                          DATASET.features, labels)
        monkeypatch.setattr(trainer, "batch_objective", lambda *a: pytest.fail("a step ran"))
        message = f"^class {missing} has no label embedding$"
        with pytest.raises(ConfigError, match=message):
            trainer.check_split(ds, SPLIT, fast_cfg(method=method))
        with pytest.raises(ConfigError, match=message):
            trainer.train(make_net(method, embed_dim), ds, SPLIT, fast_cfg(method=method))
        trainer.check_split(ds, SPLIT, fast_cfg())

    def test_je_trains_past_a_training_class_without_rows(self):
        # the class table still lists the class whose rows are dropped
        dropped = min(SPLIT.classes("train"))
        keep = DATASET.class_ids != dropped
        ds = data.Dataset(DATASET.classes, DATASET.instance_ids[keep], DATASET.class_ids[keep],
                          DATASET.features[keep], DATASET.label_embeddings)
        cfg = fast_cfg(method="JE", max_batches=40)
        pool, val_pool = trainer.check_split(ds, SPLIT, cfg)
        assert set(pool.classes.tolist()) == SPLIT.classes("train") - {dropped}
        assert set(val_pool.classes.tolist()) == SPLIT.classes("val")
        _, log = trainer.train(make_net("JE", embed_dim=5, seed=7), ds, SPLIT, cfg)
        assert len(log.step_losses) == 40 and len(log.validations) == 2
        # only classes with rows count towards batch_classes
        thin = keep_only(SPLIT, "train", sorted(SPLIT.classes("train"))[:12])
        trainer.check_split(DATASET, thin, cfg)
        with pytest.raises(ConfigError, match="^train: need 12 training classes, have 11$"):
            trainer.check_split(ds, thin, cfg)

    def test_split_class_missing_from_table_rejected(self):
        assert 999 not in DATASET.classes
        bad = dataclasses.replace(SPLIT, subset={**SPLIT.subset, 999: "train"})
        with pytest.raises(ConfigError, match="^class 999 is not in the class table$"):
            trainer.train(make_net(), DATASET, bad, fast_cfg())


class TestObjectives:
    def batch_for(self, n=12):
        """A drawn batch as batch_objective's inputs (pool, batch), with the
        batch's frames and class ids."""
        pool = episodic.ClassPool(DATASET, SPLIT.classes("train"), 8)
        [batch] = episodic.sample_training_batch(pool, n, 36, 13, 0, np.arange(1))
        rows = pool.rows[batch[1]]
        return pool, batch, DATASET.features[rows], DATASET.class_ids[rows]

    def test_we_lambda_zero_matches_alignment_only(self):
        from openset import losses
        net = make_net("WE", embed_dim=6, seed=12)
        pool, batch, frames, ids = self.batch_for()
        cfg = fast_cfg(method="WE", lambda_we=0.0)
        loss = trainer.batch_objective(net, DATASET, pool, batch, cfg)
        net.zero_grad()
        emb, _ = net.embed_video_batch(frames)
        targets = np.stack([DATASET.label_embeddings[int(c)] for c in ids])
        want, _ = losses.alignment_mse(emb, targets)
        assert loss == want

    def test_we_lambda_shifts_loss_by_metric_term(self):
        from openset import losses
        net = make_net("WE", embed_dim=6, seed=12)
        pool, batch, frames, ids = self.batch_for()
        base = trainer.batch_objective(
            net, DATASET, pool, batch, fast_cfg(method="WE", lambda_we=0.0)
        )
        shifted = trainer.batch_objective(
            net, DATASET, pool, batch, fast_cfg(method="WE", lambda_we=2.0)
        )
        net.zero_grad()
        emb, _ = net.embed_video_batch(frames)
        dml_val, _ = losses.multisim_loss(emb, ids, losses.MultiSimConfig())
        assert shifted == pytest.approx(base + 2.0 * dml_val, abs=1e-12)

    def test_je_objective_includes_one_label_per_class(self):
        from openset import losses
        net = make_net("JE", embed_dim=5, seed=13)
        pool, batch, frames, ids = self.batch_for()
        cfg = fast_cfg(method="JE")
        loss = trainer.batch_objective(net, DATASET, pool, batch, cfg)
        net.zero_grad()
        video_emb, _ = net.embed_video_batch(frames)
        classes = sorted(set(ids.tolist()))
        raw = np.stack([DATASET.label_embeddings[c] for c in classes])
        label_emb, _ = net.embed_label_batch(raw)
        want, _ = losses.multisim_loss(
            np.vstack([video_emb, label_emb]),
            np.concatenate([ids, np.array(classes)]),
            losses.MultiSimConfig(),
        )
        assert loss == want

    @pytest.mark.parametrize(
        "method,embed_dim,lam", [("VE", 6, 0.0), ("WE", 6, 10.0), ("JE", 5, 0.0)]
    )
    def test_metric_loss_sees_unit_rows(self, monkeypatch, method, embed_dim, lam):
        # the losses do not check norms, so batch_objective must hand them unit rows
        seen = []
        real_make_dml = trainer.make_dml

        def spy_make_dml(*args):
            dml = real_make_dml(*args)

            def spy(embeddings, class_ids):
                seen.append(embeddings.copy())
                return dml(embeddings, class_ids)

            return spy

        monkeypatch.setattr(trainer, "make_dml", spy_make_dml)
        net = make_net(method, embed_dim=embed_dim, seed=12)
        pool, batch, _, _ = self.batch_for()
        cfg = fast_cfg(method=method, lambda_we=lam)
        trainer.batch_objective(net, DATASET, pool, batch, cfg)
        (rows,) = seen
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12


VAL_CLASSES = sorted(SPLIT.classes("val"))
METHOD_CASES = [("VE", 6, 0.0), ("WE", 6, 0.0), ("WE", 6, 10.0), ("JE", 5, 0.0)]


class TestValidationRound:
    # 66 validation rows: one block at 12 x 8, blocks of 30, 30 and 6 at
    # 6 x 5, and at 5 x 1 a 1-row remainder that joins the block before it
    @pytest.mark.parametrize("shape", [(12, 8, 36), (6, 5, 12), (5, 1, 5)])
    @pytest.mark.parametrize("dml", ["multisim", "histogram"])
    @pytest.mark.parametrize("method,embed_dim,lam", METHOD_CASES)
    def test_equals_per_batch_referee(self, method, embed_dim, lam, dml, shape):
        net = make_net(method, embed_dim=embed_dim, seed=15)
        classes, k_max, min_total = shape
        fields = dict(method=method, lambda_we=lam, dml=dml, val_batches=40,
                      batch_classes=classes, batch_k_max=k_max, batch_min_total=min_total)
        if dml == "histogram" and k_max == 1 and (method == "VE" or lam > 0):
            # one row per class (5 x 1) leaves the histogram no positive pair
            with pytest.raises(ConfigError, match="needs positive pairs"):
                fast_cfg(**fields)
            return
        cfg = fast_cfg(**fields)
        for round_idx in (1, 2):
            got = validation_loss(net, DATASET, VAL_CLASSES, cfg, round_idx)
            want = reference.validation_loss_per_batch(net, DATASET, VAL_CLASSES, cfg, round_idx)
            assert got == want, (method, lam, dml, shape, round_idx)

    def test_one_row_batches_keep_their_bits(self):
        # every batch is one row, so every block is too: the gemv path the
        # per-batch round took, with the same bits
        net = make_net("WE", seed=16)
        cfg = fast_cfg(method="WE", batch_classes=1, batch_k_max=1, batch_min_total=1)
        got = validation_loss(net, DATASET, VAL_CLASSES, cfg, 1)
        want = reference.validation_loss_per_batch(net, DATASET, VAL_CLASSES, cfg, 1)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # one class per batch at reference dims, on classes of 1-3 instances: a
        # 1-instance class's batch is one row, and JE projects one label per batch
        ds, val_classes = few_instance_data()
        for method, k_max in (("JE", 1), ("WE", 8)):
            cfg = fast_cfg(method=method, val_batches=50, batch_classes=1, batch_k_max=k_max,
                           batch_min_total=1)
            for seed in range(13):
                net = model.init_model(model.ModelConfig(method=method, input_dim=64), seed=seed)
                for round_idx in (1, 2):
                    got = validation_loss(net, ds, val_classes, cfg, round_idx)
                    want = reference.validation_loss_per_batch(net, ds, val_classes, cfg, round_idx)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                        method, seed, round_idx)

    @pytest.mark.parametrize("shape,blocks", [
        ((12, 8, 36), [66]), ((6, 5, 12), [30, 30, 6]), ((5, 1, 5), [5] * 12 + [6]),
    ])
    def test_embeds_each_validation_row_once(self, monkeypatch, shape, blocks):
        seen, label_calls = [], []
        real_video = model.EmbeddingModel.embed_video_batch
        real_label = model.EmbeddingModel.embed_label_batch

        def spy_video(self, frames):
            seen.append(np.array(frames))
            return real_video(self, frames)

        def spy_label(self, labels):
            label_calls.append(len(labels))
            return real_label(self, labels)

        monkeypatch.setattr(model.EmbeddingModel, "embed_video_batch", spy_video)
        monkeypatch.setattr(model.EmbeddingModel, "embed_label_batch", spy_label)
        classes, k_max, min_total = shape
        cfg = fast_cfg(method="JE", val_batches=20, batch_classes=classes, batch_k_max=k_max,
                       batch_min_total=min_total)
        validation_loss(make_net("JE", embed_dim=5, seed=17), DATASET, VAL_CLASSES, cfg, 1)
        index = {DATASET.features[i].tobytes(): i for i in range(len(DATASET.class_ids))}
        embedded = sorted(index[row.tobytes()] for frames in seen for row in frames)
        want = np.flatnonzero(np.isin(DATASET.class_ids, VAL_CLASSES)).tolist()
        assert embedded == want
        # no 1-row block: its product would take BLAS's gemv path
        assert [len(frames) for frames in seen] == blocks
        assert label_calls == [len(VAL_CLASSES)]


def sparse_data():
    """Desk dims with 1-2 instances per class, and its split: a batch of two
    1-instance classes has no positive pair."""
    cfg = data.SynthConfig(
        n_verbs=8, n_nouns=8, class_density=0.9, instances_per_class=(1, 2),
        d_latent=3, input_dim=10, frames=2, label_dim=6,
        sigma_frame=0.3, sigma_instance=0.3, seed=22,
    )
    ds = data.synth_generate(cfg)
    return ds, splits.generate_split(ds.classes, splits.SplitSpec(p_verbs=2, p_nouns=2, seed=0))


SPARSE_DATA, SPARSE_SPLIT = sparse_data()


def train_per_batch(monkeypatch, net, dataset, split, cfg):
    """train at _BATCH_BLOCK 1 with every batch drawn by the scalar referee,
    one counter at a time: the loop that drew each batch when it needed one."""

    def referee(pool, n, min_total, seed, *path):
        # the referee's draws, as indices into the pool and positions into its rows
        *prefix, indices = path
        batches = []
        order = np.argsort(pool.rows)
        for batch in indices.tolist():
            picked, rows = reference.sample_training_batch_sorted(
                dataset, pool.classes.tolist(), seed, (*prefix, batch), n, cfg.batch_k_max,
                min_total)
            batches.append((np.searchsorted(pool.classes, picked),
                            order[np.searchsorted(pool.rows[order], rows)]))
        return batches

    monkeypatch.setattr(trainer.episodic, "sample_training_batch", referee)
    monkeypatch.setattr(trainer, "_BATCH_BLOCK", 1)
    return trainer.train(net, dataset, split, cfg)


class TestBatchBlocks:
    @pytest.mark.parametrize("max_batches", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("dml", ["multisim", "histogram"])
    @pytest.mark.parametrize("method,embed_dim,lam", METHOD_CASES)
    def test_equals_per_batch_referee(self, monkeypatch, method, embed_dim, lam, dml, max_batches):
        # train as it is, queueing blocks of batches, against the loop that
        # drew each batch when it needed one, through the scalar referee
        # at seed 2 the first block's last batch has no positive pair
        cfg = fast_cfg(method=method, lambda_we=lam, dml=dml, max_batches=max_batches,
                       val_batches=8, batch_classes=2, batch_k_max=2, batch_min_total=2, seed=2)
        real, blocks = episodic.sample_training_batch, []

        def spy(pool, *args):
            batches = real(pool, *args)
            if set(pool.classes.tolist()) == SPARSE_SPLIT.classes("train"):
                blocks.append([pool.rows[positions] for _, positions in batches])
            return batches

        monkeypatch.setattr(trainer.episodic, "sample_training_batch", spy)
        got, got_log = trainer.train(make_net(method, embed_dim, seed=18), SPARSE_DATA,
                                     SPARSE_SPLIT, cfg)
        want, want_log = train_per_batch(monkeypatch, make_net(method, embed_dim, seed=18),
                                         SPARSE_DATA, SPARSE_SPLIT, cfg)
        assert got.params.tobytes() == want.params.tobytes()
        assert got_log == want_log
        # a batch of 1-instance classes has no positive pair, so the VE and
        # WE(10) histogram objectives resample it; one that ends a block takes
        # the next block's first batch
        if dml == "histogram" and (method == "VE" or lam) and max_batches >= 64:
            assert want_log.degenerate_resamples > 0
            no_pair = [len(set(SPARSE_DATA.class_ids[rows])) == len(rows)
                       for block in blocks[:-1] for rows in block[-1:]]
            assert any(no_pair)


class TestTrainLogFile:
    def test_rows_round_trip(self, tmp_path):
        net = make_net(seed=14)
        _, log = trainer.train(net, DATASET, SPLIT, fast_cfg(max_batches=40))
        path = tmp_path / "log.csv"
        trainer.write_train_log(str(path), log)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,step,value"
        loss_rows = [l for l in lines if l.startswith("loss,")]
        assert len(loss_rows) == 40
        step, value = loss_rows[4].split(",")[1:]
        assert int(step) == 5
        assert float(value) == log.step_losses[4]
        assert any(l.startswith("best,") for l in lines)
        assert lines[-2].startswith("stop,")
        assert lines[-1] == f"resamples,0,{log.degenerate_resamples}"


def interleaved(ds):
    """ds with its rows shuffled, so file order is no longer class order."""
    order = np.random.default_rng(23).permutation(len(ds.class_ids))
    return data.Dataset(ds.classes, ds.instance_ids[order], ds.class_ids[order],
                        ds.features[order], ds.label_embeddings)


INTERLEAVED = interleaved(DATASET)


class TestInterleavedRows:
    """Every draw on rows interleaved across classes, where a pool's rows
    (class order) differ from the rows' file order, against its referee."""

    def test_rows_interleaved(self):
        rows = np.concatenate([INTERLEAVED.class_rows[c] for c in VAL_CLASSES])
        assert not np.array_equal(rows, np.sort(rows))

    @pytest.mark.parametrize("shape", [(12, 8, 36), (6, 5, 12), (5, 1, 5)])
    @pytest.mark.parametrize("method,embed_dim,lam", METHOD_CASES)
    def test_validation_equals_per_batch_referee(self, method, embed_dim, lam, shape):
        net = make_net(method, embed_dim=embed_dim, seed=19)
        classes, k_max, min_total = shape
        cfg = fast_cfg(method=method, lambda_we=lam, val_batches=40, batch_classes=classes,
                       batch_k_max=k_max, batch_min_total=min_total)
        for round_idx in (1, 2):
            got = validation_loss(net, INTERLEAVED, VAL_CLASSES, cfg, round_idx)
            want = reference.validation_loss_per_batch(net, INTERLEAVED, VAL_CLASSES, cfg,
                                                       round_idx)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("method,embed_dim,lam", METHOD_CASES)
    def test_train_equals_per_batch_referee(self, monkeypatch, method, embed_dim, lam):
        cfg = fast_cfg(method=method, lambda_we=lam, max_batches=70, val_every=35)
        got, got_log = trainer.train(make_net(method, embed_dim, seed=20), INTERLEAVED, SPLIT, cfg)
        want, want_log = train_per_batch(monkeypatch, make_net(method, embed_dim, seed=20),
                                         INTERLEAVED, SPLIT, cfg)
        assert got.params.tobytes() == want.params.tobytes()
        assert got_log == want_log

    @pytest.mark.parametrize("task,method,embed_dim,k", [
        ("FSG", "VE", 6, 1), ("FSG", "VE", 6, 2), ("FSG", "JE", 5, 2),
        ("CM-FSG", "WE", 6, 1), ("CM-FSG", "JE", 5, 1),
    ])
    def test_evaluate_equals_per_episode_referee(self, task, method, embed_dim, k):
        net = make_net(method, embed_dim, seed=21)
        cfg = episodic.EvalConfig(task, n=4, k=k, m=3, episodes=70, seed=5)
        got = episodic.evaluate(net, INTERLEAVED, SPLIT, cfg)
        want = reference.evaluate_per_episode(net, INTERLEAVED, SPLIT, cfg)
        assert got.subsets == want.subsets
        assert got.warnings == want.warnings
