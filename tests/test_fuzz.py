"""Fuzzing of the file readers: a corrupted input ends in a typed error.

Each reader gets a valid file damaged by one to three mutations (truncation,
bit flips, trailing bytes, an oversized header count or numeric field).
Whatever the reader raises must be an OpensetError subclass, which the CLI
maps to its documented exit code; anything else would be a traceback.

The κ-NN gets generated tie-heavy similarity blocks and must predict what
reference.knn_oracle predicts row by row.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset import data, episodic, model, splits
from openset.errors import OpensetError

import reference

TABLE = data.synth_generate(data.SynthConfig(
    n_verbs=3, n_nouns=3, class_density=0.8, instances_per_class=(2, 3),
    d_latent=2, input_dim=3, frames=2, label_dim=4, seed=5,
)).classes


def _valid_files(tmp):
    ds = data.synth_generate(data.SynthConfig(
        n_verbs=2, n_nouns=2, class_density=1.0, instances_per_class=(1, 1),
        d_latent=2, input_dim=3, frames=2, label_dim=4, seed=5,
    ))
    net = model.init_model(
        model.ModelConfig("JE", input_dim=3, hidden_dim=2, embed_dim=2, label_dim=4), seed=0
    )
    split = splits.generate_split(TABLE, splits.SplitSpec(p_verbs=1, p_nouns=1, seed=1))
    writers = {
        "osf": lambda p: data.write_features(p, ds.instance_ids, ds.class_ids, ds.features),
        "osl": lambda p: data.write_labels(p, ds.label_embeddings),
        "osm": lambda p: model.save_checkpoint(p, net),
        "class_table": lambda p: data.write_class_table(p, TABLE),
        "split": lambda p: splits.write_split(p, split),
    }
    blobs = {}
    for name, write in writers.items():
        path = str(tmp / name)
        write(path)
        with open(path, "rb") as fh:
            blobs[name] = fh.read()
    return blobs


READERS = {
    "osf": data.read_features,
    "osl": data.read_labels,
    "osm": model.load_checkpoint,
    "class_table": data.read_class_table,
    "split": lambda p: splits.read_split(p, TABLE),
}

# byte offsets of the uint32 header counts and dims; None marks a text format,
# whose numeric fields are oversized instead
COUNT_OFFSETS = {
    "osf": (4, 8, 12, 16),
    "osl": (4, 8, 12),
    # version, tag, four dims, block count; then the first block's name
    # length, rows and cols ("frame_layer" is 11 bytes)
    "osm": (4, 8, 12, 16, 20, 24, 28, 32, 47, 51),
    "class_table": None,
    "split": None,
}

U32 = st.one_of(st.sampled_from([0, 1, 2**16, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))
HUGE = st.one_of(
    st.sampled_from(["4294967296", "9" * 5000, "-1"]),
    st.integers(2**31, 10**30).map(str),
)


@st.composite
def mutated(draw, blob, offsets):
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "trail", "count"]))
        if kind == "truncate":
            blob = blob[: draw(st.integers(0, max(len(blob) - 1, 0)))]
        elif kind == "flip" and blob:
            # half the flips land in the first 64 bytes, where the headers,
            # block names and CSV header lines are
            last = len(blob) - 1
            where = st.one_of(st.integers(0, min(63, last)), st.integers(0, last))
            buf = bytearray(blob)
            for _ in range(draw(st.integers(1, 4))):
                buf[draw(where)] ^= draw(st.integers(1, 255))
            blob = bytes(buf)
        elif kind == "trail":
            blob = blob + draw(st.binary(min_size=1, max_size=16))
        elif kind == "count" and offsets is not None:
            off = draw(st.sampled_from(offsets))
            blob = blob[:off] + struct.pack("<I", draw(U32)) + blob[off + 4:]
        elif kind == "count":
            runs = [m.span() for m in re.finditer(rb"\d+", blob)]
            if runs:
                start, end = draw(st.sampled_from(runs))
                blob = blob[:start] + draw(HUGE).encode() + blob[end:]
    return blob


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    return tmp, _valid_files(tmp)


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(max_examples=200, deadline=None)
@given(draw=st.data())
def test_corrupted_file_raises_only_typed_errors(workdir, fmt, draw):
    tmp, blobs = workdir
    path = tmp / f"fuzzed_{fmt}"
    path.write_bytes(draw.draw(mutated(blobs[fmt], COUNT_OFFSETS[fmt]), label=fmt))
    try:
        READERS[fmt](str(path))
    except OpensetError:
        pass


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_valid_files_read_back(workdir, fmt):
    tmp, blobs = workdir
    path = tmp / f"valid_{fmt}"
    path.write_bytes(blobs[fmt])
    assert READERS[fmt](str(path))


# few values, signed zeros among them, so exact neighbor and vote ties are common
QUANTIZED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])


@st.composite
def knn_blocks(draw):
    """A (Q, S) similarity block whose S supports repeat a few distinct
    columns (duplicated supports), with (S,) shared or (Q, S) per-row classes."""
    n_query, n_sup = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    distinct = draw(st.integers(1, n_sup))
    rows = draw(st.lists(st.lists(QUANTIZED, min_size=distinct, max_size=distinct),
                         min_size=n_query, max_size=n_query))
    which = draw(st.lists(st.integers(0, distinct - 1), min_size=n_sup, max_size=n_sup))
    sims = np.array(rows)[:, which]
    shape = draw(st.sampled_from([(n_sup,), (n_query, n_sup)]))
    classes = np.array(draw(st.lists(st.integers(0, 3), min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape))))).reshape(shape)
    return sims, classes


@settings(max_examples=300, deadline=None)
@given(block=knn_blocks())
def test_knn_matches_oracle_on_tie_heavy_blocks(block):
    sims, classes = block
    rows = np.broadcast_to(classes, sims.shape)
    eye = np.eye(sims.shape[1])  # identity supports: the oracle's dot products are sims
    for kappa in range(1, sims.shape[1] + 1):
        got = episodic.knn_classify(sims, classes, kappa)
        want = [reference.knn_oracle(eye, cls, q, kappa) for q, cls in zip(sims, rows)]
        assert got.tolist() == want, kappa
