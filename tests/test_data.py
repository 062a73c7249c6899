"""Tests for the synthetic generator, class table, and binary formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset import data
from openset.errors import ConfigError, DimensionError, FormatError, ParseError


SMALL = data.SynthConfig(
    n_verbs=4, n_nouns=4, class_density=0.8, instances_per_class=(3, 5),
    d_latent=4, input_dim=12, frames=3, label_dim=6, seed=11,
)


class TestSynth:
    def test_deterministic_bit_identical(self):
        a = data.synth_generate(SMALL)
        b = data.synth_generate(SMALL)
        assert a.classes.entries == b.classes.entries
        assert len(a.instances) == len(b.instances)
        for x, y in zip(a.instances, b.instances):
            assert x.instance_id == y.instance_id
            assert np.array_equal(x.features, y.features)
        for cid in a.label_embeddings:
            assert np.array_equal(a.label_embeddings[cid], b.label_embeddings[cid])

    def test_seed_changes_output(self):
        import dataclasses
        a = data.synth_generate(SMALL)
        b = data.synth_generate(dataclasses.replace(SMALL, seed=12))
        assert not np.array_equal(a.instances[0].features, b.instances[0].features)

    def test_shapes_and_counts(self):
        ds = data.synth_generate(SMALL)
        n_grid = SMALL.n_verbs * SMALL.n_nouns
        assert len(ds.classes.entries) == round(SMALL.class_density * n_grid)
        assert ds.input_dim == 12
        assert ds.frames == 3
        assert ds.label_dim == 6
        lo, hi = SMALL.instances_per_class
        for cid, insts in ds.instances_by_class.items():
            assert lo <= len(insts) <= hi
            assert len(insts) == ds.classes.entries[cid].instance_count

    def test_verb_noun_pairs_unique_and_in_grid(self):
        ds = data.synth_generate(SMALL)
        pairs = [(e.verb_id, e.noun_id) for e in ds.classes.entries.values()]
        assert len(set(pairs)) == len(pairs)
        for v, n in pairs:
            assert 0 <= v < SMALL.n_verbs
            assert 0 <= n < SMALL.n_nouns

    def test_zero_noise_collapses_instances(self):
        cfg = data.SynthConfig(
            n_verbs=3, n_nouns=3, class_density=1.0, instances_per_class=(3, 3),
            d_latent=3, input_dim=8, frames=2, label_dim=4,
            sigma_frame=0.0, sigma_instance=0.0, seed=5,
        )
        ds = data.synth_generate(cfg)
        for insts in ds.instances_by_class.values():
            base = insts[0].features
            # frames within an instance coincide, as do sibling instances
            assert np.array_equal(base[0], base[1])
            for other in insts[1:]:
                assert np.array_equal(base, other.features)

    def test_low_noise_frame_means_classify_perfectly(self):
        cfg = data.SynthConfig(
            n_verbs=5, n_nouns=5, class_density=0.8, instances_per_class=(4, 6),
            d_latent=4, input_dim=16, frames=3, label_dim=8,
            sigma_frame=0.01, sigma_instance=0.01, seed=3,
        )
        ds = data.synth_generate(cfg)
        # leave-one-out nearest neighbour on raw frame means
        means = [(inst.class_id, inst.features.mean(axis=0)) for inst in ds.instances]
        for i, (cid, m) in enumerate(means):
            dists = [
                (np.linalg.norm(m - other), other_cid)
                for j, (other_cid, other) in enumerate(means)
                if j != i
            ]
            _, predicted = min(dists, key=lambda t: t[0])
            assert predicted == cid

    def test_label_embeddings_unit_norm(self):
        ds = data.synth_generate(SMALL)
        for emb in ds.label_embeddings.values():
            assert abs(np.linalg.norm(emb) - 1.0) < 1e-12

    def test_within_class_tighter_than_across(self):
        cfg = data.SynthConfig(
            n_verbs=5, n_nouns=5, class_density=1.0, instances_per_class=(5, 5),
            d_latent=4, input_dim=16, frames=3, label_dim=8,
            sigma_frame=0.05, sigma_instance=0.05, seed=9,
        )
        ds = data.synth_generate(cfg)
        centroids = {
            cid: np.mean([i.features.mean(axis=0) for i in insts], axis=0)
            for cid, insts in ds.instances_by_class.items()
        }
        within = []
        for cid, insts in ds.instances_by_class.items():
            for inst in insts:
                within.append(np.linalg.norm(inst.features.mean(axis=0) - centroids[cid]))
        across = []
        cids = sorted(centroids)
        for i, a in enumerate(cids):
            for b in cids[i + 1:]:
                across.append(np.linalg.norm(centroids[a] - centroids[b]))
        assert max(within) < min(across)

    def test_validation_rejects_bad_density(self):
        with pytest.raises(ConfigError):
            data.synth_generate(data.SynthConfig(class_density=0.0))

    def test_validation_rejects_bad_instance_range(self):
        with pytest.raises(ConfigError):
            data.synth_generate(data.SynthConfig(instances_per_class=(5, 2)))


class TestClassTable:
    def test_round_trip(self, tmp_path):
        ds = data.synth_generate(SMALL)
        path = str(tmp_path / "classes.csv")
        data.write_class_table(path, ds.classes)
        back = data.read_class_table(path)
        assert back.entries == ds.classes.entries

    def test_header_written(self, tmp_path):
        ds = data.synth_generate(SMALL)
        path = str(tmp_path / "classes.csv")
        data.write_class_table(path, ds.classes)
        first = open(path).readline().strip()
        assert first == "class_id,verb_id,noun_id,verb_text,noun_text,n_instances"

    def test_header_only_is_empty_table(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("class_id,verb_id,noun_id,verb_text,noun_text,n_instances\n")
        table = data.read_class_table(str(path))
        assert table.entries == {}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("class,verb,noun\n")
        with pytest.raises(ParseError):
            data.read_class_table(str(path))

    def test_duplicate_class_id_rejected(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text(
            "class_id,verb_id,noun_id,verb_text,noun_text,n_instances\n"
            "0,0,0,take,cup,4\n"
            "0,1,1,put,plate,4\n"
        )
        with pytest.raises(ParseError, match="2|duplicate"):
            data.read_class_table(str(path))

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text(
            "class_id,verb_id,noun_id,verb_text,noun_text,n_instances\n"
            "0,0,0,take,cup,4\n"
            "1,0,0,take,cup,4\n"
        )
        with pytest.raises((ParseError, ConfigError)):
            data.read_class_table(str(path))

    def test_nonnumeric_field_names_line(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text(
            "class_id,verb_id,noun_id,verb_text,noun_text,n_instances\n"
            "0,0,0,take,cup,4\n"
            "x,1,1,put,plate,4\n"
        )
        with pytest.raises(ParseError, match="3"):
            data.read_class_table(str(path))

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "ct.csv"
        data.write_class_table(str(path), data.synth_generate(SMALL).classes)
        blob = bytearray(path.read_bytes())
        blob[blob.index(b"verb00")] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="UTF-8"):
            data.read_class_table(str(path))

    def test_comma_in_text_rejected_at_write(self, tmp_path):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, data.ActionLabel(0, 0, "take,now", "cup"), 1),
        })
        with pytest.raises(FormatError):
            data.write_class_table(str(tmp_path / "c.csv"), table)


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        insts = [
            data.Instance(7, 2, rng.normal(size=(3, 5)).astype(np.float32))
            for _ in range(4)
        ]
        # distinct ids
        insts = [
            data.Instance(i, 2, inst.features) for i, inst in enumerate(insts)
        ]
        path = str(tmp_path / "f.osf")
        data.write_features(path, insts)
        back = data.read_features(path)
        assert len(back) == 4
        for a, b in zip(insts, back):
            assert a.instance_id == b.instance_id
            assert a.class_id == b.class_id
            assert np.array_equal(a.features, b.features)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, n, frames, dim, seed):
        rng = np.random.default_rng(seed)
        insts = [
            data.Instance(i, int(rng.integers(0, 3)),
                          rng.normal(size=(frames, dim)).astype(np.float32))
            for i in range(n)
        ]
        path = str(tmp_path_factory.mktemp("osf") / "f.osf")
        data.write_features(path, insts)
        back = data.read_features(path)
        for a, b in zip(insts, back):
            assert a.instance_id == b.instance_id
            assert np.array_equal(a.features, b.features)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "f.osf"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError):
            data.read_features(str(path))

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        insts = [data.Instance(0, 0, rng.normal(size=(2, 3)))]
        path = str(tmp_path / "f.osf")
        data.write_features(path, insts)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-4])
        with pytest.raises(FormatError):
            data.read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        insts = [data.Instance(0, 0, rng.normal(size=(2, 3)))]
        path = str(tmp_path / "f.osf")
        data.write_features(path, insts)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(FormatError):
            data.read_features(path)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tmp_path, bad):
        feats = np.zeros((3, 2, 3))
        feats[1, 1, 2] = bad
        insts = [data.Instance(i, 0, f) for i, f in enumerate(feats)]
        path = str(tmp_path / "f.osf")
        data.write_features(path, insts)
        with pytest.raises(FormatError, match="instance 1 has non-finite"):
            data.read_features(path)

    @pytest.mark.parametrize("ids", [(-1, 0), (0, -1), (2**32, 0), (0, 2**32)])
    def test_out_of_range_ids_rejected_at_write(self, tmp_path, ids):
        insts = [data.Instance(ids[0], ids[1], np.zeros((2, 3)))]
        with pytest.raises(FormatError):
            data.write_features(str(tmp_path / "f.osf"), insts)

    @pytest.mark.parametrize("bad, error", [
        ([(0, 0, (2, 3)), (-1, 0, (2, 3))], FormatError),
        ([(0, 0, (2, 3)), (1, 0, (3, 3))], DimensionError),
    ], ids=["bad_id", "bad_shape"])
    def test_rejected_write_leaves_no_file(self, tmp_path, bad, error):
        insts = [data.Instance(i, c, np.zeros(shape)) for i, c, shape in bad]
        path = tmp_path / "f.osf"
        with pytest.raises(error):
            data.write_features(str(path), insts)
        assert not path.exists()

    def test_rejected_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "f.osf"
        data.write_features(str(path), [data.Instance(7, 1, np.ones((2, 3)))])
        before = path.read_bytes()
        insts = [data.Instance(0, 0, np.zeros((2, 3))), data.Instance(-1, 0, np.zeros((2, 3)))]
        with pytest.raises(FormatError):
            data.write_features(str(path), insts)
        assert path.read_bytes() == before


class TestLabelFile:
    def test_round_trip_unit_norm(self, tmp_path):
        rng = np.random.default_rng(2)
        embs = {}
        for cid in range(4):
            v = rng.normal(size=6)
            embs[cid] = v / np.linalg.norm(v)
        path = str(tmp_path / "l.osl")
        data.write_labels(path, embs)
        back = data.read_labels(path)
        assert set(back) == set(embs)
        for cid in embs:
            assert abs(np.linalg.norm(back[cid]) - 1.0) < 1e-12
            assert np.allclose(back[cid], embs[cid], atol=1e-7)

    def test_load_renormalizes_float32_drift(self, tmp_path):
        v = np.array([0.3, -0.7, 0.64, 0.01])
        v = v / np.linalg.norm(v)
        path = str(tmp_path / "l.osl")
        data.write_labels(path, {0: v})
        back = data.read_labels(path)
        # float32 storage perturbs the norm; load must restore exact unit length
        assert np.linalg.norm(back[0]) == pytest.approx(1.0, abs=1e-15)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "l.osl"
        path.write_bytes(b"ZZZZ" + b"\x00" * 16)
        with pytest.raises(FormatError):
            data.read_labels(str(path))

    def test_duplicate_class_rejected(self, tmp_path):
        import struct
        path = tmp_path / "l.osl"
        payload = struct.pack("<4sIII", b"OSL1", 1, 2, 2)
        vec = np.array([1.0, 0.0], dtype="<f4").tobytes()
        payload += struct.pack("<I", 5) + vec
        payload += struct.pack("<I", 5) + vec
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            data.read_labels(str(path))


    @pytest.mark.parametrize("cid", [-1, 2**32])
    def test_out_of_range_class_id_rejected_at_write(self, tmp_path, cid):
        with pytest.raises(FormatError):
            data.write_labels(str(tmp_path / "l.osl"), {cid: np.array([1.0, 0.0])})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_rejected_at_read(self, tmp_path, bad):
        path = str(tmp_path / "l.osl")
        data.write_labels(path, {0: np.array([1.0, 0.0]), 3: np.array([0.0, bad])})
        with pytest.raises(FormatError, match="class 3 has a non-finite"):
            data.read_labels(path)

    def test_empty_file_rejected_before_its_dim_is_used(self, tmp_path):
        import struct
        path = tmp_path / "l.osl"
        path.write_bytes(struct.pack("<4sIII", b"OSL1", 1, 0, 2**31))
        with pytest.raises(FormatError, match="no label embeddings"):
            data.read_labels(str(path))

    def test_all_zero_label_rejected_at_read(self, tmp_path):
        path = str(tmp_path / "l.osl")
        data.write_labels(path, {0: [1, 0], 1: [0, 0]})
        with pytest.raises(FormatError, match="class 1 has an all-zero"):
            data.read_labels(path)

    def test_rejected_write_leaves_no_file_or_old_bytes(self, tmp_path):
        path = tmp_path / "l.osl"
        bad = {0: np.array([1.0, 0.0]), -1: np.array([0.0, 1.0])}
        with pytest.raises(FormatError):
            data.write_labels(str(path), bad)
        assert not path.exists()
        data.write_labels(str(path), {4: np.array([0.6, 0.8])})
        before = path.read_bytes()
        with pytest.raises(FormatError):
            data.write_labels(str(path), bad)
        assert path.read_bytes() == before


class TestLoadDataset:
    def test_full_round_trip(self, tmp_path):
        ds = data.synth_generate(SMALL)
        ct = str(tmp_path / "classes.csv")
        ff = str(tmp_path / "features.osf")
        lf = str(tmp_path / "labels.osl")
        data.write_class_table(ct, ds.classes)
        data.write_features(ff, ds.instances)
        data.write_labels(lf, ds.label_embeddings)
        back = data.load_dataset(ct, ff, lf)
        assert back.classes.entries == ds.classes.entries
        assert len(back.instances) == len(ds.instances)
        # features survive the float32 container exactly when written from
        # float32-representable data; synth emits float64, so compare loosely
        for a, b in zip(ds.instances, back.instances):
            assert np.allclose(a.features, b.features, atol=1e-6)

    def test_missing_label_rejected(self, tmp_path):
        ds = data.synth_generate(SMALL)
        ct = str(tmp_path / "classes.csv")
        ff = str(tmp_path / "features.osf")
        lf = str(tmp_path / "labels.osl")
        data.write_class_table(ct, ds.classes)
        data.write_features(ff, ds.instances)
        partial = dict(ds.label_embeddings)
        partial.pop(next(iter(partial)))
        data.write_labels(lf, partial)
        with pytest.raises(FormatError):
            data.load_dataset(ct, ff, lf)

    def test_instance_with_unknown_class_rejected(self):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, data.ActionLabel(0, 0, "v", "n"), 1),
        })
        with pytest.raises(ConfigError):
            data.Dataset(
                classes=table,
                instances=[data.Instance(0, 99, np.zeros((2, 3)))],
                label_embeddings={0: np.array([1.0, 0.0])},
            )

    def test_non_unit_label_rejected(self):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, data.ActionLabel(0, 0, "v", "n"), 1),
        })
        with pytest.raises(ConfigError):
            data.Dataset(
                classes=table,
                instances=[data.Instance(0, 0, np.zeros((2, 3)))],
                label_embeddings={0: np.array([2.0, 0.0])},
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_label_rejected(self, bad):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, data.ActionLabel(0, 0, "v", "n"), 1),
        })
        with pytest.raises(ConfigError, match="not finite"):
            data.Dataset(
                classes=table,
                instances=[data.Instance(0, 0, np.zeros((2, 3)))],
                label_embeddings={0: np.array([bad, 0.0])},
            )
