"""Tests for the video encoder, label projector, and checkpoint format."""

import pathlib

import numpy as np
import pytest

from openset import model
from openset.errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    MethodError,
)

import reference


VE_CFG = model.ModelConfig(method="VE", input_dim=6, hidden_dim=5, embed_dim=4, label_dim=4)
JE_CFG = model.ModelConfig(method="JE", input_dim=6, hidden_dim=5, embed_dim=4, label_dim=3)


def random_frames(rng, b=3, f=2, d=6):
    return rng.normal(size=(b, f, d))


class TestForward:
    def test_outputs_unit_norm(self):
        net = model.init_model(VE_CFG, seed=0)
        rng = np.random.default_rng(1)
        out, _ = net.embed_video_batch(random_frames(rng, b=8))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_identical_inputs_identical_outputs(self):
        net = model.init_model(VE_CFG, seed=0)
        rng = np.random.default_rng(2)
        one = random_frames(rng, b=1)
        both = np.concatenate([one, one], axis=0)
        out, _ = net.embed_video_batch(both)
        assert np.array_equal(out[0], out[1])

    def test_frame_order_invariant(self):
        net = model.init_model(VE_CFG, seed=0)
        rng = np.random.default_rng(3)
        frames = random_frames(rng, b=1, f=4)
        flipped = frames[:, ::-1, :].copy()
        a, _ = net.embed_video_batch(frames)
        b, _ = net.embed_video_batch(flipped)
        # mean pooling: order only reshuffles the summation
        assert np.allclose(a, b, atol=1e-12)

    def test_batch_matches_singletons(self):
        net = model.init_model(VE_CFG, seed=0)
        rng = np.random.default_rng(4)
        frames = random_frames(rng, b=5)
        batch, _ = net.embed_video_batch(frames)
        for i in range(5):
            single, _ = net.embed_video_batch(frames[i:i + 1])
            assert np.allclose(batch[i], single[0], atol=1e-12)

    def test_first_layer_matches_naive_affine(self):
        net = model.init_model(VE_CFG, seed=0)
        rng = np.random.default_rng(5)
        frames = random_frames(rng, b=2, f=2)
        _, cache = net.embed_video_batch(frames)
        flat = frames.reshape(4, 6)
        want = np.tanh(reference.naive_affine(flat, net.frame_layer.weights, net.frame_layer.bias))
        assert np.allclose(cache.activations, want, atol=1e-12)

    def test_wrong_input_dim_rejected(self):
        net = model.init_model(VE_CFG, seed=0)
        with pytest.raises(DimensionError):
            net.embed_video_batch(np.zeros((2, 2, 9)))

    def test_label_path_requires_projector(self):
        net = model.init_model(VE_CFG, seed=0)
        with pytest.raises(MethodError):
            net.embed_label_batch(np.zeros((2, 4)))

    def test_label_path_unit_norm(self):
        net = model.init_model(JE_CFG, seed=0)
        rng = np.random.default_rng(6)
        out, _ = net.embed_label_batch(rng.normal(size=(4, 3)))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestZeroNorm:
    def test_zero_output_layer_is_degenerate(self):
        net = model.init_model(VE_CFG, seed=0)
        net.out_layer.weights[:] = 0.0
        net.out_layer.bias[:] = 0.0
        with pytest.raises(DegenerateInputError):
            net.embed_video_batch(random_frames(np.random.default_rng(12)))

    def test_zero_label_projector_is_degenerate(self):
        net = model.init_model(JE_CFG, seed=0)
        net.label_projector.weights[:] = 0.0
        net.label_projector.bias[:] = 0.0
        with pytest.raises(DegenerateInputError):
            net.embed_label_batch(np.random.default_rng(13).normal(size=(2, 3)))


class TestBackward:
    def probe_value(self, net, frames, probe):
        out, cache = net.embed_video_batch(frames)
        return float(np.sum(out * probe)), cache

    def test_video_gradients_match_central_differences(self):
        rng = np.random.default_rng(7)
        net = model.init_model(VE_CFG, seed=1)
        frames = random_frames(rng, b=3, f=2)
        probe = rng.normal(size=(3, 4))
        for block in (net.frame_layer, net.out_layer):
            shape = block.weights.shape

            def f(w_flat):
                m2 = net.copy()
                blk = {"frame_layer": m2.frame_layer, "out_layer": m2.out_layer}[block.name]
                blk.weights = w_flat.reshape(shape)
                m2.zero_grad()
                val, cache = self.probe_value(m2, frames, probe)
                m2.backward_video_batch(cache, probe)
                return val, blk.grad_weights.ravel().copy()

            err = reference.check_gradient(f, block.weights.ravel().copy())
            assert err < 1e-6, block.name

    def test_video_bias_gradients_match_central_differences(self):
        rng = np.random.default_rng(8)
        net = model.init_model(VE_CFG, seed=2)
        frames = random_frames(rng, b=2, f=3)
        probe = rng.normal(size=(2, 4))

        def f(b_flat):
            m2 = net.copy()
            m2.frame_layer.bias = b_flat.copy()
            m2.zero_grad()
            val, cache = self.probe_value(m2, frames, probe)
            m2.backward_video_batch(cache, probe)
            return val, m2.frame_layer.grad_bias.copy()

        err = reference.check_gradient(f, net.frame_layer.bias.copy())
        assert err < 1e-6

    def test_label_gradients_match_central_differences(self):
        rng = np.random.default_rng(9)
        net = model.init_model(JE_CFG, seed=3)
        inputs = rng.normal(size=(4, 3))
        probe = rng.normal(size=(4, 4))
        shape = net.label_projector.weights.shape

        def f(w_flat):
            m2 = net.copy()
            m2.label_projector.weights = w_flat.reshape(shape)
            m2.zero_grad()
            out, cache = m2.embed_label_batch(inputs)
            val = float(np.sum(out * probe))
            m2.backward_label_batch(cache, probe)
            return val, m2.label_projector.grad_weights.ravel().copy()

        err = reference.check_gradient(f, net.label_projector.weights.ravel().copy())
        assert err < 1e-6

    def test_gradients_accumulate_across_calls(self):
        rng = np.random.default_rng(10)
        net = model.init_model(VE_CFG, seed=4)
        frames = random_frames(rng)
        probe = rng.normal(size=(3, 4))
        _, cache = net.embed_video_batch(frames)
        net.backward_video_batch(cache, probe)
        once = net.out_layer.grad_weights.copy()
        net.backward_video_batch(cache, probe)
        assert np.allclose(net.out_layer.grad_weights, 2 * once, atol=1e-12)


class TestInit:
    def test_deterministic(self):
        a = model.init_model(VE_CFG, seed=5)
        b = model.init_model(VE_CFG, seed=5)
        for x, y in zip(a.blocks(), b.blocks()):
            assert np.array_equal(x.weights, y.weights)
            assert np.array_equal(x.bias, y.bias)

    def test_seed_changes_weights(self):
        a = model.init_model(VE_CFG, seed=5)
        b = model.init_model(VE_CFG, seed=6)
        assert not np.array_equal(a.frame_layer.weights, b.frame_layer.weights)

    def test_scale_matches_fan_in(self):
        cfg = model.ModelConfig(method="VE", input_dim=64, hidden_dim=64,
                                embed_dim=32, label_dim=32)
        net = model.init_model(cfg, seed=7)
        var = net.frame_layer.weights.var()
        assert abs(var - 1.0 / 64) < 0.25 / 64

    def test_we_requires_matching_dims(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(method="WE", input_dim=6, hidden_dim=5,
                              embed_dim=4, label_dim=3)

    def test_we_valid_when_dims_match(self):
        cfg = model.ModelConfig(method="WE", input_dim=6, hidden_dim=5,
                                embed_dim=4, label_dim=4)
        net = model.init_model(cfg, seed=8)
        assert net.label_projector is None

    def test_je_gets_projector(self):
        net = model.init_model(JE_CFG, seed=9)
        assert net.label_projector is not None
        assert net.label_projector.weights.shape == (3, 4)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(method="XX", input_dim=6)

    def test_non_je_must_not_carry_projector(self):
        je = model.init_model(JE_CFG, seed=10)
        with pytest.raises(ConfigError):
            model.EmbeddingModel(
                config=VE_CFG,
                frame_layer=je.frame_layer.copy(),
                out_layer=je.out_layer.copy(),
                label_projector=je.label_projector.copy(),
            )


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for cfg, seed in ((VE_CFG, 0), (JE_CFG, 1)):
            net = model.init_model(cfg, seed=seed)
            p1 = str(tmp_path / f"{cfg.method}_a.osm")
            p2 = str(tmp_path / f"{cfg.method}_b.osm")
            model.save_checkpoint(p1, net)
            back = model.load_checkpoint(p1)
            assert back.config == net.config
            for x, y in zip(net.blocks(), back.blocks()):
                assert x.name == y.name
                assert np.array_equal(x.weights, y.weights)
                assert np.array_equal(x.bias, y.bias)
            model.save_checkpoint(p2, back)
            assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()

    def test_embeddings_survive_round_trip(self, tmp_path):
        net = model.init_model(VE_CFG, seed=2)
        rng = np.random.default_rng(11)
        frames = random_frames(rng)
        path = str(tmp_path / "m.osm")
        model.save_checkpoint(path, net)
        back = model.load_checkpoint(path)
        a, _ = net.embed_video_batch(frames)
        b, _ = back.embed_video_batch(frames)
        assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.osm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            model.load_checkpoint(str(path))

    def test_truncated_rejected(self, tmp_path):
        net = model.init_model(VE_CFG, seed=3)
        path = str(tmp_path / "m.osm")
        model.save_checkpoint(path, net)
        blob = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            model.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = model.init_model(VE_CFG, seed=4)
        path = str(tmp_path / "m.osm")
        model.save_checkpoint(path, net)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(FormatError):
            model.load_checkpoint(path)

    def test_non_utf8_block_name_rejected(self, tmp_path):
        net = model.init_model(VE_CFG, seed=5)
        path = tmp_path / "m.osm"
        model.save_checkpoint(str(path), net)
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"frame_layer")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8"):
            model.load_checkpoint(str(path))

    @pytest.mark.parametrize("block", ["frame_layer", "out_layer", "label_projector"])
    @pytest.mark.parametrize("part", ["weights", "bias"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, block, part, bad):
        net = model.init_model(JE_CFG, seed=6)
        getattr(getattr(net, block), part).flat[-1] = bad
        path = str(tmp_path / "m.osm")
        model.save_checkpoint(path, net)
        with pytest.raises(FormatError, match=f"block '{block}' has non-finite"):
            model.load_checkpoint(path)
