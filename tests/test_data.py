"""Tests for the synthetic generator, class table, and binary formats."""

import dataclasses
import os
import pathlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset import data, model
from openset.errors import ConfigError, DimensionError, FormatError, ParseError

import reference


SMALL = data.SynthConfig(
    n_verbs=4, n_nouns=4, class_density=0.8, instances_per_class=(3, 5),
    d_latent=4, input_dim=12, frames=3, label_dim=6, seed=11,
)


class TestSynth:
    def test_deterministic_bit_identical(self):
        a = data.synth_generate(SMALL)
        b = data.synth_generate(SMALL)
        assert a.classes.entries == b.classes.entries
        assert len(a.instance_ids) == len(b.instance_ids)
        assert np.array_equal(a.instance_ids, b.instance_ids)
        assert np.array_equal(a.class_ids, b.class_ids)
        assert np.array_equal(a.features, b.features)
        for cid in a.label_embeddings:
            assert np.array_equal(a.label_embeddings[cid], b.label_embeddings[cid])

    def test_seed_changes_output(self):
        a = data.synth_generate(SMALL)
        b = data.synth_generate(dataclasses.replace(SMALL, seed=12))
        assert not np.array_equal(a.features[0], b.features[0])

    def test_shapes_and_counts(self):
        ds = data.synth_generate(SMALL)
        n_grid = SMALL.n_verbs * SMALL.n_nouns
        assert len(ds.classes.entries) == round(SMALL.class_density * n_grid)
        assert ds.input_dim == 12
        assert ds.features.shape[1] == 3
        assert ds.label_dim == 6
        lo, hi = SMALL.instances_per_class
        assert ds.features.shape == (len(ds.instance_ids), 3, 12)
        for cid, rows in ds.class_rows.items():
            assert lo <= len(rows) <= hi
            assert len(rows) == ds.classes.entries[cid].instance_count
            assert (ds.class_ids[rows] == cid).all()

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
        for rows in ds.class_rows.values():
            base = ds.features[rows[0]]
            # frames within an instance coincide, as do sibling instances
            assert np.array_equal(base[0], base[1])
            for other in rows[1:]:
                assert np.array_equal(base, ds.features[other])

    def test_low_noise_frame_means_classify_perfectly(self):
        cfg = data.SynthConfig(
            n_verbs=5, n_nouns=5, class_density=0.8, instances_per_class=(4, 6),
            d_latent=4, input_dim=16, frames=3, label_dim=8,
            sigma_frame=0.01, sigma_instance=0.01, seed=3,
        )
        ds = data.synth_generate(cfg)
        # leave-one-out nearest neighbour on raw frame means
        means = list(zip(ds.class_ids, ds.features.mean(axis=1)))
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
            cid: np.mean([ds.features[r].mean(axis=0) for r in rows], axis=0)
            for cid, rows in ds.class_rows.items()
        }
        within = []
        for cid, rows in ds.class_rows.items():
            for r in rows:
                within.append(np.linalg.norm(ds.features[r].mean(axis=0) - centroids[cid]))
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

    def test_validation_rejects_more_instances_than_uint32_ids(self):
        # 70 classes of up to 61,356,676 instances reach 2^32 ids; nothing
        # is allocated, because validation comes first
        with pytest.raises(ConfigError, match="2\\^32"):
            data.synth_generate(data.SynthConfig(instances_per_class=(1, 61_356_676)))
        data.SynthConfig(instances_per_class=(1, 61_356_675))


REFERENCE = data.SynthConfig(instances_per_class=(30, 30))
RAGGED = data.SynthConfig(instances_per_class=(1, 5), frames=3, input_dim=17, d_latent=5)
REFEREE_CONFIGS = [
    *(dataclasses.replace(REFERENCE, seed=s) for s in (0, 1, 2)),
    dataclasses.replace(REFERENCE, sigma_frame=2.0),
    *(dataclasses.replace(RAGGED, seed=s) for s in (0, 1, 2, 3)),
    dataclasses.replace(RAGGED, sigma_instance=0.0, sigma_frame=0.0, seed=4),
    *(data.SynthConfig(seed=s) for s in (0, 5)),
    data.SynthConfig(frames=1, seed=1),
    data.SynthConfig(frames=1, instances_per_class=(1, 5), seed=2),
    data.SynthConfig(input_dim=17, seed=3),
    data.SynthConfig(d_latent=5, label_dim=7, seed=4),
    data.SynthConfig(sigma_instance=0.0, seed=6),
    data.SynthConfig(sigma_frame=0.0, seed=7),
    data.SynthConfig(class_density=1.0, seed=8),
    data.SynthConfig(n_verbs=1, n_nouns=1, instances_per_class=(1, 5), seed=9),
    data.SynthConfig(n_verbs=1, n_nouns=1, instances_per_class=(1, 1), frames=1, seed=10),
    SMALL,
    # the data_roundtrip benchmark's 40x40 grid, 33,600 instances
    data.SynthConfig(n_verbs=40, n_nouns=40, instances_per_class=(30, 30), seed=1),
    # grids that are not square, the last sparse enough that choice draws without a permutation
    data.SynthConfig(n_verbs=3, n_nouns=11, seed=12),
    data.SynthConfig(n_verbs=13, n_nouns=2, class_density=0.5, seed=13),
    data.SynthConfig(n_verbs=300, n_nouns=700, class_density=1e-4, seed=14),
]


class TestSynthReferee:
    """synth_generate against the per-instance loop in reference.py, bit for bit."""

    def test_sparse_grid_is_never_built(self):
        # 10 classes of a 2000 x 2000 grid: its 4,000,000 cells as Python
        # pairs would hold hundreds of MB
        cfg = data.SynthConfig(n_verbs=2000, n_nouns=2000, class_density=2.5e-6)
        data.synth_generate(SMALL)  # numpy's lazy imports, outside the trace
        ds, peak = traced_peak(data.synth_generate, cfg)
        assert len(ds.classes) == 10
        assert peak <= 16 << 20, peak

    @pytest.mark.parametrize("cfg", REFEREE_CONFIGS)
    def test_matches_per_instance_loop(self, cfg):
        got, want = data.synth_generate(cfg), reference.synth_generate_loop(cfg)
        assert got.features.shape == want.features.shape
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.class_ids, want.class_ids)
        assert np.array_equal(got.instance_ids, want.instance_ids)
        assert got.classes.entries == want.classes.entries
        assert list(got.label_embeddings) == list(want.label_embeddings)
        for cid, emb in want.label_embeddings.items():
            assert got.label_embeddings[cid].tobytes() == emb.tobytes()


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
        first = pathlib.Path(path).read_text().splitlines()[0].strip()
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

    # a comma, or anything str.splitlines splits at, would break the row
    @pytest.mark.parametrize("text", ["take,now", "take\nnow", "take\r", "\x1ctake",
                                      "take\u2028now", "take\r\n", "take\x85"])
    @pytest.mark.parametrize("field", ["verb", "noun"])
    def test_comma_in_text_rejected_at_write(self, tmp_path, text, field):
        verb, noun = (text, "cup") if field == "verb" else ("take", text)
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, 0, 0, "take", "cup", 1),
            7: data.ClassEntry(7, 1, 1, verb, noun, 1),
        })
        path = tmp_path / "c.csv"
        with pytest.raises(FormatError, match=re.escape(f"class 7: text field {text!r}")):
            data.write_class_table(str(path), table)
        assert not path.exists()


def patch_float32(path, offset, values):
    """Overwrite float32 values of a written file at a byte offset."""
    blob = bytearray(pathlib.Path(path).read_bytes())
    raw = np.asarray(values, dtype="<f4").tobytes()
    blob[offset:offset + len(raw)] = raw
    pathlib.Path(path).write_bytes(bytes(blob))


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(4, 3, 5)).astype(np.float32)
        # distinct ids
        ids, cids = np.arange(4), np.full(4, 2)
        path = str(tmp_path / "f.osf")
        data.write_features(path, ids, cids, feats)
        back_ids, back_cids, back_feats = data.read_features(path)
        assert len(back_ids) == 4
        assert np.array_equal(back_ids, ids)
        assert np.array_equal(back_cids, cids)
        assert np.array_equal(back_feats, feats)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, n, frames, dim, seed):
        rng = np.random.default_rng(seed)
        cids = rng.integers(0, 3, size=n)
        feats = rng.normal(size=(n, frames, dim)).astype(np.float32)
        path = str(tmp_path_factory.mktemp("osf") / "f.osf")
        data.write_features(path, np.arange(n), cids, feats)
        back_ids, back_cids, back_feats = data.read_features(path)
        assert np.array_equal(back_ids, np.arange(n))
        assert np.array_equal(back_cids, cids)
        assert np.array_equal(back_feats, feats)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "f.osf"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError):
            data.read_features(str(path))

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        path = str(tmp_path / "f.osf")
        data.write_features(path, [0], [0], rng.normal(size=(1, 2, 3)))
        blob = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            data.read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        path = str(tmp_path / "f.osf")
        data.write_features(path, [0], [0], rng.normal(size=(1, 2, 3)))
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(FormatError):
            data.read_features(path)

    def test_empty_file_rejected(self, tmp_path):
        import struct
        path = tmp_path / "f.osf"
        path.write_bytes(struct.pack("<4sIIII", b"OSF1", 1, 0, 2**31, 2**31))
        with pytest.raises(FormatError, match="no instances"):
            data.read_features(str(path))

    @pytest.mark.parametrize("frames, input_dim", [(0, 3), (2, 0)])
    def test_zero_header_dim_rejected(self, tmp_path, frames, input_dim):
        # a zero dim reads back as an (N, 0, D) or (N, F, 0) array, whose
        # frame mean is empty; it must stop at read time as a malformed file
        import struct
        path = tmp_path / "f.osf"
        records = struct.pack("<II", 0, 0) + b"\x00" * (4 * frames * input_dim)
        path.write_bytes(struct.pack("<4sIIII", b"OSF1", 1, 1, frames, input_dim) + records)
        with pytest.raises(FormatError, match="must be nonzero"):
            data.read_features(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tmp_path, bad):
        path = str(tmp_path / "f.osf")
        data.write_features(path, np.arange(3), np.zeros(3, int), np.zeros((3, 2, 3)))
        # header 20 bytes, records of 8 id bytes + 6 floats; frame 1, column 2
        patch_float32(path, 20 + 32 + 8 + 4 * (1 * 3 + 2), [bad])
        with pytest.raises(FormatError, match="instance 1 has non-finite"):
            data.read_features(path)

    @pytest.mark.filterwarnings("error")
    def test_mixed_infinities_rejected_with_warnings_as_errors(self, tmp_path):
        # +inf and -inf in one row sum to NaN; that must end in the typed
        # error, not in numpy's invalid-value warning
        path = str(tmp_path / "f.osf")
        data.write_features(path, np.arange(2), np.zeros(2, int), np.zeros((2, 2, 3)))
        patch_float32(path, 20 + 32 + 8, [np.inf, -np.inf])
        with pytest.raises(FormatError, match="instance 1 has non-finite"):
            data.read_features(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_features_rejected_at_write(self, tmp_path, bad):
        feats = np.zeros((3, 2, 3))
        feats[1, 1, 2] = bad
        path = tmp_path / "f.osf"
        with pytest.raises(FormatError, match="instance 1 has non-finite"):
            data.write_features(str(path), np.arange(3), np.zeros(3, int), feats)
        assert not path.exists()
        data.write_features(str(path), [7], [1], np.ones((1, 2, 3)))
        before = path.read_bytes()
        with pytest.raises(FormatError):
            data.write_features(str(path), np.arange(3), np.zeros(3, int), feats)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("ids", [(-1, 0), (0, -1), (2**32, 0), (0, 2**32)])
    def test_out_of_range_ids_rejected_at_write(self, tmp_path, ids):
        with pytest.raises(FormatError):
            data.write_features(str(tmp_path / "f.osf"), [ids[0]], [ids[1]], np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("ids, shape, error", [
        ([0, -1], (2, 2, 3), FormatError),
        ([0, 1], (3, 2, 3), DimensionError),
    ], ids=["bad_id", "bad_shape"])
    def test_rejected_write_leaves_no_file(self, tmp_path, ids, shape, error):
        path = tmp_path / "f.osf"
        with pytest.raises(error):
            data.write_features(str(path), ids, [0, 0], np.zeros(shape))
        assert not path.exists()

    def test_rejected_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "f.osf"
        data.write_features(str(path), [7], [1], np.ones((1, 2, 3)))
        before = path.read_bytes()
        with pytest.raises(FormatError):
            data.write_features(str(path), [0, -1], [0, 0], np.zeros((2, 2, 3)))
        assert path.read_bytes() == before


# records of 4 frames x 64 dims (the reference shape) are 1032 bytes each
RECORD_BYTES = 8 + 4 * 4 * 64
CHUNK_ROWS = data._CHUNK_BYTES // RECORD_BYTES


def chunk_case(n, seed=0):
    """n rows of the reference shape with spread-out ids."""
    rng = np.random.default_rng(seed)
    return np.arange(n) * 3 + 1, rng.integers(0, 50, size=n), rng.standard_normal((n, 4, 64))


def traced_peak(fn, *args):
    """fn's result and the most bytes it held at once, as tracemalloc sees
    them; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFeatureChunks:
    """The OSF1 writer moves one chunk of records at a time and the reader
    takes every record in one read, at row counts around the writer's chunk;
    the whole-file referees in tests/reference.py define their bytes, arrays
    and messages."""

    @pytest.mark.parametrize("n", [1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1],
                             ids=["one_row", "one_chunk", "two_chunks_and_a_row"])
    def test_matches_whole_file_referee(self, tmp_path, n):
        ids, cids, feats = chunk_case(n)
        path, ref = tmp_path / "f.osf", tmp_path / "ref.osf"
        data.write_features(str(path), ids, cids, feats)
        reference.write_features_whole(str(ref), ids, cids, feats)
        assert path.read_bytes() == ref.read_bytes()
        for got, want in zip(data.read_features(str(path)), reference.read_features_whole(str(ref))):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, 1e39])
    def test_non_finite_in_last_chunk_rejected_at_write(self, tmp_path, bad):
        ids, cids, feats = chunk_case(2 * CHUNK_ROWS + 1)
        feats[-1, 3, 63] = bad
        with pytest.raises(FormatError) as referee:
            reference.write_features_whole(str(tmp_path / "ref.osf"), ids, cids, feats)
        path = tmp_path / "f.osf"
        with pytest.raises(FormatError, match=f"instance {ids[-1]} has non-finite") as exc:
            data.write_features(str(path), ids, cids, feats)
        assert str(exc.value) == str(referee.value)
        assert not path.exists()
        data.write_features(str(path), [7], [1], np.ones((1, 2, 3)))
        before = path.read_bytes()
        with pytest.raises(FormatError):
            data.write_features(str(path), ids, cids, feats)
        assert path.read_bytes() == before

    def test_non_finite_in_later_chunk_rejected_at_read(self, tmp_path):
        ids, cids, feats = chunk_case(2 * CHUNK_ROWS + 1)
        path = str(tmp_path / "f.osf")
        data.write_features(path, ids, cids, feats)
        row = CHUNK_ROWS + 7
        patch_float32(path, 20 + row * RECORD_BYTES + 8 + 4 * 100, [np.inf])
        with pytest.raises(FormatError) as referee:
            reference.read_features_whole(path)
        with pytest.raises(FormatError, match=f"instance {ids[row]} has non-finite") as exc:
            data.read_features(path)
        assert str(exc.value) == str(referee.value)

    def test_truncated_inside_later_chunk(self, tmp_path):
        n = 2 * CHUNK_ROWS + 1
        path = str(tmp_path / "f.osf")
        data.write_features(path, *chunk_case(n))
        os.truncate(path, 20 + (CHUNK_ROWS + 3) * RECORD_BYTES + 100)
        with pytest.raises(FormatError) as referee:
            reference.read_features_whole(path)
        with pytest.raises(FormatError, match=f"truncated at byte 20, need {n * RECORD_BYTES} more") as exc:
            data.read_features(path)
        assert str(exc.value) == str(referee.value)

    def test_file_shrunk_while_read_rejected(self, tmp_path):
        n = 2 * CHUNK_ROWS + 1
        path = str(tmp_path / "f.osf")
        data.write_features(path, *chunk_case(n))
        with data.ContainerReader(path, b"OSF1", 3) as reader:
            os.truncate(path, 20 + CHUNK_ROWS * RECORD_BYTES + 5)
            with pytest.raises(FormatError, match="shorter than its size when opened"):
                reader.take(n * RECORD_BYTES)

    # the instances of a 20 x 20 grid at density 0.7 and 30 per class
    GRID_20 = 8400
    SLACK = 256 * 1024

    def test_read_peak_is_the_records_and_the_id_columns(self, tmp_path):
        # the features are a view of the records buffer, not a copy of it
        path = str(tmp_path / "f.osf")
        data.write_features(path, *chunk_case(self.GRID_20))
        (ids, cids, _), peak = traced_peak(data.read_features, path)
        assert peak <= self.GRID_20 * RECORD_BYTES + ids.nbytes + cids.nbytes + self.SLACK

    def test_write_peak_is_at_most_two_chunks(self, tmp_path):
        args = (str(tmp_path / "f.osf"), *chunk_case(self.GRID_20))
        _, peak = traced_peak(data.write_features, *args)
        assert peak <= 2 * data._CHUNK_BYTES + self.SLACK


class TestFloat32Storage:
    """Dataset.features holds the OSF file's float32; a float64 input is
    rounded once, where it enters, and one beyond float32 is refused."""

    # TestLoadDataset.test_full_round_trip checks synth's and load's dtype
    def test_float64_input_is_rounded_to_float32(self):
        wide = np.random.default_rng(0).standard_normal((3, 2, 4))
        direct = data.Dataset(one_class_table(0), [0, 1, 2], [0, 0, 0], wide, {})
        assert direct.features.dtype == np.float32
        assert np.array_equal(direct.features, wide.astype(np.float32))

    def test_float64_beyond_float32_names_its_instance(self):
        feats = np.zeros((4, 2, 3))
        feats[1, 0, 0] = np.nan  # non-finite input passes, as it did in float64
        feats[2, 1, 2] = -1e39
        feats[3, 0, 0] = 1e39
        with pytest.raises(ConfigError, match="^instance 12 has features beyond the float32 range$"):
            data.Dataset(one_class_table(0), [10, 11, 12, 13], [0] * 4, feats, {})

    def test_non_finite_and_float32_max_pass(self):
        feats = np.array([np.nan, np.inf, -np.inf, np.finfo(np.float32).max]).reshape(4, 1, 1)
        ds = data.Dataset(one_class_table(0), [0, 1, 2, 3], [0] * 4, feats, {})
        assert np.array_equal(ds.features, feats.astype(np.float32), equal_nan=True)

    def test_synth_beyond_float32_names_its_instance(self):
        cfg = dataclasses.replace(SMALL, sigma_frame=1e39)
        with pytest.raises(ConfigError, match="^instance 0 has features beyond the float32 range$"):
            data.synth_generate(cfg)

    # 280 classes of 30 instances: an 8.6 MB float32 feature array
    GRID_20 = data.SynthConfig(n_verbs=20, n_nouns=20, instances_per_class=(30, 30), seed=1)

    def test_peaks_hold_one_float32_copy_of_the_features(self, tmp_path):
        data.synth_generate(SMALL)  # numpy's lazy imports, outside the trace
        ds, peak = traced_peak(data.synth_generate, self.GRID_20)
        bound = ds.features.nbytes + data._CHUNK_BYTES + (1 << 20)
        assert peak <= bound, (peak, bound)
        paths = [str(tmp_path / name) for name in ("c.csv", "f.osf", "l.osl")]
        data.write_class_table(paths[0], ds.classes)
        data.write_features(paths[1], ds.instance_ids, ds.class_ids, ds.features)
        data.write_labels(paths[2], ds.label_embeddings)
        del ds
        back, peak = traced_peak(data.load_dataset, *paths)
        assert back.features.nbytes == 8400 * 4 * 64 * 4
        assert peak <= bound, (peak, bound)


def _oversized(fmt, tmp_path):
    """A file whose header (and for OSM, first block shape) claims far more
    payload than it holds, and the message that must reject it."""
    if fmt == "osf":
        n = 2**32 - 1
        blob = struct.pack("<4s4I", b"OSF1", 1, n, 4, 64) + bytes(RECORD_BYTES)
        return blob, f"truncated at byte 20, need {n * RECORD_BYTES} more"
    if fmt == "osl":
        blob = struct.pack("<4s3I", b"OSL1", 1, 2**32 - 1, 32) + bytes(132)
        return blob, f"truncated at byte 16, need {(2**32 - 1) * 132} more"
    path = tmp_path / "m.osm"
    cfg = model.ModelConfig("JE", input_dim=3, hidden_dim=2, embed_dim=2, label_dim=4)
    model.save_checkpoint(str(path), model.init_model(cfg, seed=0))
    # the header's input and hidden dims sit at 12 and 16; the first block is
    # frame_layer: name length at 32, its 11 bytes, then rows and cols, which
    # must agree with the header's dims to reach the read they size
    blob = bytearray(path.read_bytes())
    blob[12:20] = blob[47:55] = struct.pack("<2I", 4096, 4096)
    return bytes(blob), f"truncated at byte 55, need {4096 * 4096 * 8} more"


@pytest.mark.parametrize("fmt", ["osf", "osl", "osm"])
def test_oversized_header_rejected_before_any_allocation_it_sizes(tmp_path, fmt):
    blob, message = _oversized(fmt, tmp_path)
    path = tmp_path / f"big.{fmt}"
    path.write_bytes(blob)
    read = {"osf": data.read_features, "osl": data.read_labels, "osm": model.load_checkpoint}[fmt]

    def rejected():
        with pytest.raises(FormatError, match=re.escape(message)):
            read(str(path))

    _, peak = traced_peak(rejected)
    # every claim is 128 MiB or more
    assert peak < 1 << 20


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
        data.write_labels(path, {0: np.array([1.0, 0.0]), 3: np.array([0.0, 1.0])})
        # header 16 bytes, records of 4 id bytes + 2 floats; class 3, column 1
        patch_float32(path, 16 + 12 + 4 + 4, [bad])
        with pytest.raises(FormatError, match="class 3 has a non-finite"):
            data.read_labels(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_label_rejected_at_write(self, tmp_path, bad):
        path = tmp_path / "l.osl"
        embs = {0: np.array([1.0, 0.0]), 3: np.array([0.0, bad])}
        with pytest.raises(FormatError, match="class 3 has a non-finite"):
            data.write_labels(str(path), embs)
        assert not path.exists()
        data.write_labels(str(path), {4: np.array([0.6, 0.8])})
        before = path.read_bytes()
        with pytest.raises(FormatError):
            data.write_labels(str(path), embs)
        assert path.read_bytes() == before

    def test_empty_file_rejected_before_its_dim_is_used(self, tmp_path):
        import struct
        path = tmp_path / "l.osl"
        path.write_bytes(struct.pack("<4sIII", b"OSL1", 1, 0, 2**31))
        with pytest.raises(FormatError, match="no label embeddings"):
            data.read_labels(str(path))

    def test_zero_dim_rejected(self, tmp_path):
        import struct
        path = tmp_path / "l.osl"
        path.write_bytes(struct.pack("<4sIIIII", b"OSL1", 1, 2, 0, 0, 1))
        with pytest.raises(FormatError, match="dim must be nonzero"):
            data.read_labels(str(path))

    def test_all_zero_label_rejected_at_read(self, tmp_path):
        path = str(tmp_path / "l.osl")
        data.write_labels(path, {0: [1, 0], 1: [0, 0]})
        with pytest.raises(FormatError, match="class 1 has an all-zero"):
            data.read_labels(path)

    @pytest.mark.parametrize("bad", [np.eye(2), 1.0], ids=["2-D", "scalar"])
    def test_non_vector_embedding_rejected_at_write(self, tmp_path, bad):
        path = tmp_path / "l.osl"
        shape = str(np.shape(bad))
        with pytest.raises(DimensionError, match=re.escape(shape)):
            data.write_labels(str(path), {0: bad})
        assert not path.exists()
        data.write_labels(str(path), {4: np.array([0.6, 0.8])})
        before = path.read_bytes()
        with pytest.raises(DimensionError, match=re.escape(shape)):
            data.write_labels(str(path), {0: bad})
        assert path.read_bytes() == before

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
        data.write_features(ff, ds.instance_ids, ds.class_ids, ds.features)
        data.write_labels(lf, ds.label_embeddings)
        back = data.load_dataset(ct, ff, lf)
        assert back.classes.entries == ds.classes.entries
        assert len(back.instance_ids) == len(ds.instance_ids)
        assert np.array_equal(back.instance_ids, ds.instance_ids)
        assert np.array_equal(back.class_ids, ds.class_ids)
        # synth holds features at the file's float32, so they survive exactly
        assert back.features.dtype == ds.features.dtype == np.float32
        assert np.array_equal(ds.features, back.features)
        for cid, rows in ds.class_rows.items():
            assert np.array_equal(back.class_rows[cid], rows)

    def test_missing_label_rejected(self, tmp_path):
        ds = data.synth_generate(SMALL)
        ct = str(tmp_path / "classes.csv")
        ff = str(tmp_path / "features.osf")
        lf = str(tmp_path / "labels.osl")
        data.write_class_table(ct, ds.classes)
        data.write_features(ff, ds.instance_ids, ds.class_ids, ds.features)
        partial = dict(ds.label_embeddings)
        partial.pop(next(iter(partial)))
        data.write_labels(lf, partial)
        with pytest.raises(FormatError):
            data.load_dataset(ct, ff, lf)

    def test_features_disagreeing_with_class_table_rejected(self, tmp_path):
        # the features lack one class's rows, which the table still counts
        ds = data.synth_generate(SMALL)
        ct = str(tmp_path / "classes.csv")
        ff = str(tmp_path / "features.osf")
        lf = str(tmp_path / "labels.osl")
        data.write_class_table(ct, ds.classes)
        data.write_labels(lf, ds.label_embeddings)
        dropped = int(ds.class_ids[0])
        keep = ds.class_ids != dropped
        data.write_features(ff, ds.instance_ids[keep], ds.class_ids[keep], ds.features[keep])
        want = ds.classes[dropped].instance_count
        with pytest.raises(FormatError) as exc:
            data.load_dataset(ct, ff, lf)
        assert str(exc.value) == (
            f"{ff}: class {dropped} has 0 instances, the class table says {want}"
        )

    def test_instance_with_unknown_class_rejected(self):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, 0, 0, "v", "n", 1),
        })
        with pytest.raises(ConfigError):
            data.Dataset(
                classes=table,
                instance_ids=[0], class_ids=[99], features=np.zeros((1, 2, 3)),
                label_embeddings={0: np.array([1.0, 0.0])},
            )

    def test_non_unit_label_rejected(self):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, 0, 0, "v", "n", 1),
        })
        with pytest.raises(ConfigError):
            data.Dataset(
                classes=table,
                instance_ids=[0], class_ids=[0], features=np.zeros((1, 2, 3)),
                label_embeddings={0: np.array([2.0, 0.0])},
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_label_rejected(self, bad):
        table = data.ClassTable(entries={
            0: data.ClassEntry(0, 0, 0, "v", "n", 1),
        })
        with pytest.raises(ConfigError, match="not finite"):
            data.Dataset(
                classes=table,
                instance_ids=[0], class_ids=[0], features=np.zeros((1, 2, 3)),
                label_embeddings={0: np.array([bad, 0.0])},
            )


def one_class_table(*cids):
    return data.ClassTable(entries={
        c: data.ClassEntry(c, c, c, "v", "n", 1) for c in cids
    })


class TestDatasetColumns:
    def test_class_rows_keep_file_order_and_cover_every_class(self):
        ds = data.Dataset(
            classes=one_class_table(0, 1, 5),
            instance_ids=[10, 11, 12, 13, 14], class_ids=[5, 0, 5, 0, 5],
            features=np.arange(30.0).reshape(5, 2, 3), label_embeddings={},
        )
        assert {c: r.tolist() for c, r in ds.class_rows.items()} == {
            0: [1, 3], 1: [], 5: [0, 2, 4]}
        assert ds.features.shape[1] == 2 and ds.input_dim == 3

    def test_duplicate_instance_id_rejected(self):
        with pytest.raises(ConfigError, match="duplicate instance_id 4"):
            data.Dataset(
                classes=one_class_table(0), instance_ids=[4, 2, 4], class_ids=[0, 0, 0],
                features=np.zeros((3, 2, 3)), label_embeddings={},
            )

    @pytest.mark.parametrize("ids, features", [
        ([0, 1], np.zeros((2, 3))),
        ([0, 1], np.zeros((3, 2, 3))),
        ([[0, 1]], np.zeros((1, 2, 3))),
    ], ids=["2d_features", "length_mismatch", "2d_ids"])
    def test_column_shapes_checked(self, ids, features):
        with pytest.raises(DimensionError):
            data.Dataset(
                classes=one_class_table(0), instance_ids=ids, class_ids=[0] * len(ids),
                features=features, label_embeddings={},
            )

    def test_instances_view_features_and_are_built_once(self):
        ds = data.synth_generate(SMALL)
        insts = ds.instances
        assert ds.instances is insts
        assert [i.instance_id for i in insts] == ds.instance_ids.tolist()
        assert [i.class_id for i in insts] == ds.class_ids.tolist()
        assert all(np.shares_memory(i.features, ds.features) for i in insts)
