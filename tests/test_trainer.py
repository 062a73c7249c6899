"""Tests for the optimization loop and its logging."""

import dataclasses

import numpy as np
import pytest

from openset import data, episodic, model, splits, trainer
from openset.errors import ConfigError, NumericError, SamplingError


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

    def test_method_model_mismatch(self):
        with pytest.raises(ConfigError):
            trainer.train(make_net("VE"), DATASET, SPLIT, fast_cfg(method="JE"))

    def test_too_few_train_classes(self):
        thin = splits.SplitResult(
            train=set(list(SPLIT.train)[:5]), validation=SPLIT.validation,
            test=SPLIT.test, held_out_verbs_val=set(), held_out_verbs_test=set(),
            held_out_nouns_val=set(), held_out_nouns_test=set(), category={},
        )
        with pytest.raises(ConfigError, match="train"):
            trainer.train(make_net(), DATASET, thin, fast_cfg())

    def test_val_classes_checked_only_when_validating(self):
        thin = splits.SplitResult(
            train=SPLIT.train, validation=set(list(SPLIT.validation)[:3]),
            test=SPLIT.test, held_out_verbs_val=set(), held_out_verbs_test=set(),
            held_out_nouns_val=set(), held_out_nouns_test=set(), category={},
        )
        with pytest.raises(ConfigError, match="validation"):
            trainer.train(make_net(), DATASET, thin, fast_cfg())
        # below one validation interval the loop never validates
        net, log = trainer.train(make_net(), DATASET, thin, fast_cfg(max_batches=10))
        assert log.validations == []
        assert log.best_step is None


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
        recomputed = trainer._validation_loss(
            best, DATASET, sorted(SPLIT.validation), cfg, round_idx
        )
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

        def spy(dataset, classes, rng, **kw):
            calls.append(set(classes))
            return real(dataset, classes, rng, **kw)

        monkeypatch.setattr(episodic, "sample_training_batch", spy)
        monkeypatch.setattr(trainer.episodic, "sample_training_batch", spy)
        trainer.train(make_net(seed=5), DATASET, SPLIT, fast_cfg(max_batches=40))
        assert calls
        for pool in calls:
            assert pool == SPLIT.train or pool == SPLIT.validation
        assert any(pool == SPLIT.validation for pool in calls)

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

    def test_degenerate_batches_resampled_and_counted(self, monkeypatch):
        real = episodic.sample_training_batch
        state = {"first": True}

        def fake(dataset, classes, rng, **kw):
            picked, rows = real(dataset, classes, rng, **kw)
            if state["first"]:
                state["first"] = False
                # single-class batch has no negative pairs
                return picked[:1], rows[dataset.class_ids[rows] == picked[0]]
            return picked, rows

        monkeypatch.setattr(trainer.episodic, "sample_training_batch", fake)
        net = make_net(seed=10)
        _, log = trainer.train(
            net, DATASET, SPLIT, fast_cfg(dml="histogram", max_batches=5)
        )
        assert log.degenerate_resamples == 1
        assert len(log.step_losses) == 5

    def test_every_batch_degenerate_raises(self, monkeypatch):
        real = episodic.sample_training_batch

        def fake(dataset, classes, rng, **kw):
            picked, rows = real(dataset, classes, rng, **kw)
            return picked[:1], rows[dataset.class_ids[rows] == picked[0]]

        monkeypatch.setattr(trainer.episodic, "sample_training_batch", fake)
        with pytest.raises(SamplingError, match="degenerate"):
            trainer.train(
                make_net(seed=11), DATASET, SPLIT,
                fast_cfg(dml="histogram", max_batches=2),
            )


class TestObjectives:
    def batch_for(self, n=12):
        """A drawn batch as batch_objective's inputs: (frames, class ids, labels)."""
        rng = np.random.default_rng(13)
        picked, rows = episodic.sample_training_batch(
            DATASET, sorted(SPLIT.train), rng, n=n, k_max=8, min_total=36
        )
        labels = {c: DATASET.label_embeddings[c] for c in picked}
        return DATASET.features[rows], DATASET.class_ids[rows], labels

    def test_we_lambda_zero_matches_alignment_only(self):
        from openset import losses
        net = make_net("WE", embed_dim=6, seed=12)
        frames, ids, labels = self.batch_for()
        cfg = fast_cfg(method="WE", lambda_we=0.0)
        loss = trainer.batch_objective(net, frames, ids, labels, False, cfg)
        emb, _ = net.embed_video_batch(frames)
        targets = np.stack([DATASET.label_embeddings[int(c)] for c in ids])
        want, _ = losses.alignment_mse(emb, targets)
        assert loss == want

    def test_we_lambda_shifts_loss_by_metric_term(self):
        from openset import losses
        net = make_net("WE", embed_dim=6, seed=12)
        frames, ids, labels = self.batch_for()
        base = trainer.batch_objective(
            net, frames, ids, labels, False, fast_cfg(method="WE", lambda_we=0.0)
        )
        shifted = trainer.batch_objective(
            net, frames, ids, labels, False, fast_cfg(method="WE", lambda_we=2.0)
        )
        emb, _ = net.embed_video_batch(frames)
        dml_val, _ = losses.multisim_loss(emb, ids, losses.MultiSimConfig())
        assert shifted == pytest.approx(base + 2.0 * dml_val, abs=1e-12)

    def test_je_objective_includes_one_label_per_class(self):
        from openset import losses
        net = make_net("JE", embed_dim=5, seed=13)
        frames, ids, labels = self.batch_for()
        cfg = fast_cfg(method="JE")
        loss = trainer.batch_objective(net, frames, ids, labels, False, cfg)
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
        frames, ids, labels = self.batch_for()
        cfg = fast_cfg(method=method, lambda_we=lam)
        trainer.batch_objective(net, frames, ids, labels, True, cfg)
        (rows,) = seen
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12


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
