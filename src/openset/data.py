"""Datasets of frame-level video features with verb-noun action labels.

A class is a (verb, noun) pair; each instance carries a fixed-length stack of
frame feature vectors. Label embeddings live in their own space and are unit
norm. Synthetic data is generated from latent verb/noun vectors so that video
features and label embeddings share structure, which is what the alignment
methods exploit.

Every file is opened here. A binary file is a magic, uint32 version 1 and
uint32 header fields, then its payload: ContainerReader checks the framing
and reads the payload in order, each request checked against the file's
size first, and write_container writes it. A reader views what take
reads in place: the OSF1 features are a view of the records, read in one
call. Only the writer streams, turning the columns into OSF1 records one
chunk of at most _CHUNK_BYTES at a time, so it never holds a second copy
of the features. Text files are UTF-8 lines written by write_lines;
read_rows checks a CSV's header and field counts and names path:line on
error.

On-disk formats (binary fields little-endian; writer in parentheses if not here):
  features.osf      OSF1 header n, frames, input_dim, all nonzero; per
                    instance its id, class id and float32 frames
  labels.osl        OSL1 header n, dim, both nonzero; per class its id and
                    float32 embedding
  checkpoint.osm    OSM1 header method tag, four dims, block count; per block
                    its name, shape, float64 weights and bias (model)
  class_table.csv   class_id,verb_id,noun_id,verb_text,noun_text,n_instances
  split_<seed>.csv  class_id,subset,category; beside it overlap_stats.csv and
                    imbalance.csv (splits, cli)
  train_log.csv     kind,step,value (trainer)
  eval.csv          task,subset,n,k,m,episodes,queries,correct,accuracy,seed
                    and '#' warning lines (episodic); report.csv merges them (cli)
  resolved.cfg      key=value per line (cli)
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    ParseError,
    check_fields,
)
from .numcore import l2_normalize

_MAGIC_FEATURES = b"OSF1"
_MAGIC_LABELS = b"OSL1"
# the most record bytes an OSF1 write holds at once
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ClassEntry:
    """One class of the universe, a row of the class table: its verb-noun
    label with display strings and how many instances exist."""

    class_id: int
    verb_id: int
    noun_id: int
    verb_text: str
    noun_text: str
    instance_count: int


@dataclass
class ClassTable:
    """All classes of a dataset, indexed by class_id."""

    entries: dict[int, ClassEntry]

    def __post_init__(self):
        for cid, entry in self.entries.items():
            if cid != entry.class_id:
                raise ConfigError(f"class table key {cid} != entry id {entry.class_id}")
            if entry.instance_count < 1:
                raise ConfigError(f"class {cid}: instance count must be >= 1")
        pairs = [(e.verb_id, e.noun_id) for e in self.entries.values()]
        if len(set(pairs)) != len(pairs):
            raise ConfigError("class table contains duplicate (verb_id, noun_id) pairs")

    def class_ids(self) -> list[int]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, class_id: int) -> ClassEntry:
        return self.entries[class_id]

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.entries


@dataclass
class Instance:
    """One row of a Dataset as a record; see Dataset.instances."""

    instance_id: int
    class_id: int
    features: np.ndarray


def _columns(instance_ids, class_ids, features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three instance columns as arrays, once their shapes agree."""
    ids, cids, feats = np.asarray(instance_ids), np.asarray(class_ids), np.asarray(features)
    n = feats.shape[:1]
    if feats.ndim != 3 or ids.shape != n or cids.shape != n:
        raise DimensionError(
            f"features {feats.shape}, instance_ids {ids.shape} and class_ids {cids.shape} "
            "are not (N, frames, input_dim), (N,), (N,)"
        )
    return ids, cids, feats


def _as_float32(ids, feats: np.ndarray) -> np.ndarray:
    """feats as float32; a finite value the cast overflows is a ConfigError naming its instance."""
    try:
        with np.errstate(over="raise"):
            return feats.astype(np.float32, copy=False)
    except FloatingPointError:
        with np.errstate(over="ignore"):  # nonzero lists rows in order; take the first
            row = np.nonzero(np.isfinite(feats) > np.isfinite(feats.astype(np.float32)))[0][0]
        raise ConfigError(f"instance {ids[row]} has features beyond the float32 range") from None


@dataclass
class Dataset:
    """Class table, instances as columns, and per-class label embeddings.

    Row i is one instance: id instance_ids[i], class class_ids[i] and the
    float32 (frames, input_dim) stack features[i], widened per batch by the
    encoder. Every class id must be in the table; label embeddings are unit
    vectors of one dimensionality. class_rows maps every table class to its
    rows in file order (possibly none): batches and episodes index features.
    """

    classes: ClassTable
    instance_ids: np.ndarray
    class_ids: np.ndarray
    features: np.ndarray
    label_embeddings: dict[int, np.ndarray]
    class_rows: dict[int, np.ndarray] = field(init=False)

    def __post_init__(self):
        ids, cids, feats = _columns(self.instance_ids, self.class_ids, self.features)
        self.instance_ids = ids.astype(np.int64, copy=False)
        self.class_ids = cids.astype(np.int64, copy=False)
        self.features = _as_float32(ids, feats)
        ids, counts = np.unique(self.instance_ids, return_counts=True)
        if (counts > 1).any():
            raise ConfigError(f"duplicate instance_id {ids[np.argmax(counts > 1)]}")
        table_ids = self.classes.class_ids()
        known = np.isin(self.class_ids, table_ids)
        if not known.all():
            i = np.argmin(known)
            raise ConfigError(
                f"instance {self.instance_ids[i]} references unknown class {self.class_ids[i]}"
            )
        dims = set()
        for cid, emb in self.label_embeddings.items():
            if cid not in self.classes:
                raise ConfigError(f"label embedding for unknown class {cid}")
            emb = np.asarray(emb, dtype=np.float64)
            if emb.ndim != 1:
                raise DimensionError(f"label embedding for class {cid} must be 1-D")
            if not np.isfinite(emb).all():
                raise ConfigError(f"label embedding for class {cid} is not finite")
            if abs(float(np.linalg.norm(emb)) - 1.0) > 1e-6:
                raise ConfigError(f"label embedding for class {cid} is not unit norm")
            self.label_embeddings[cid] = emb
            dims.add(emb.shape[0])
        if len(dims) > 1:
            raise DimensionError(f"inconsistent label embedding dims: {sorted(dims)}")
        # a stable sort keeps each class's rows in file order
        order = np.argsort(self.class_ids, kind="stable")
        bounds = np.searchsorted(self.class_ids[order], table_ids[1:])
        self.class_rows = dict(zip(table_ids, np.split(order, bounds)))

    @cached_property
    def instances(self) -> list[Instance]:
        """The rows as Instance records viewing features, built on first use.

        Only the benchmark harness under perfbench/ reads this; nothing in
        the package does. ROADMAP item 1 removes it together with Instance.
        """
        return [
            Instance(instance_id=i, class_id=c, features=f)
            for i, c, f in zip(self.instance_ids.tolist(), self.class_ids.tolist(), self.features)
        ]

    @property
    def input_dim(self) -> int:
        if not len(self.features):
            raise ConfigError("dataset has no instances")
        return self.features.shape[2]

    @property
    def label_dim(self) -> int:
        if not self.label_embeddings:
            raise ConfigError("dataset has no label embeddings")
        return next(iter(self.label_embeddings.values())).shape[0]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator.

    class_density is the fraction of the verb x noun grid realized as
    classes; instances_per_class is an inclusive (lo, hi) range sampled
    uniformly per class.
    """

    n_verbs: int = 10
    n_nouns: int = 10
    class_density: float = 0.7
    instances_per_class: tuple[int, int] = (20, 30)
    d_latent: int = 8
    input_dim: int = 64
    frames: int = 4
    label_dim: int = 32
    sigma_frame: float = 0.1
    sigma_instance: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_verbs < 1 or self.n_nouns < 1:
            raise ConfigError("synth: need at least one verb and one noun")
        if not (0.0 < self.class_density <= 1.0):
            raise ConfigError("synth: class_density must be in (0, 1]")
        lo, hi = self.instances_per_class
        if lo < 1 or hi < lo:
            raise ConfigError("synth: instances_per_class bounds must satisfy 1 <= lo <= hi")
        if min(self.d_latent, self.input_dim, self.frames, self.label_dim) < 1:
            raise ConfigError("synth: dimensions must be positive")
        if self.sigma_frame < 0 or self.sigma_instance < 0:
            raise ConfigError("synth: noise scales must be nonnegative")
        if self.n_classes * hi >= 2**32:
            raise ConfigError(f"synth: {self.n_classes} classes of {hi} instances reach 2^32 ids")

    @property
    def n_classes(self) -> int:
        """Classes realized: class_density of the grid's cells, at least one."""
        return max(1, round(self.class_density * (self.n_verbs * self.n_nouns)))


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Generate a dataset from latent verb/noun vectors.

    Each class concatenates its verb and noun latents into a context vector c.
    Video features are an affine image of c plus instance and frame noise,
    tiled across frames and rounded to float32; the label embedding is a
    different affine image of the same c, unit-normalized. Deterministic in cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    d2 = 2 * cfg.d_latent

    verb_latent = rng.standard_normal((cfg.n_verbs, cfg.d_latent))
    noun_latent = rng.standard_normal((cfg.n_nouns, cfg.d_latent))
    m_video = rng.standard_normal((cfg.input_dim, d2)) / np.sqrt(d2)
    m_label = rng.standard_normal((cfg.label_dim, d2)) / np.sqrt(d2)

    # cell i of the verb x noun grid is divmod(i, n_nouns), so the grid is never built
    cells = rng.choice(cfg.n_verbs * cfg.n_nouns, size=cfg.n_classes, replace=False)
    chosen = sorted(divmod(int(i), cfg.n_nouns) for i in cells)

    entries: dict[int, ClassEntry] = {}
    label_embeddings: dict[int, np.ndarray] = {}
    lo, hi = cfg.instances_per_class
    # rows for the largest possible draw, filled in place; the pages of rows
    # past the last one used are never touched, so never resident
    features = np.empty((cfg.n_classes * hi, cfg.frames, cfg.input_dim), dtype=np.float32)
    row = 0
    for class_id, (v, n) in enumerate(chosen):
        context = np.concatenate([verb_latent[v], noun_latent[n]])
        label_embeddings[class_id] = l2_normalize(m_label @ context)
        count = int(rng.integers(lo, hi, endpoint=True))
        entries[class_id] = ClassEntry(class_id, v, n, f"verb{v:02d}", f"noun{n:02d}", count)
        # row i holds instance i's normals in the loop's draw order, delta then frame noise;
        # np.matmul runs one gemv per row, which keeps the loop's bits (a 2-D gemm does not)
        draws = rng.standard_normal((count, d2 + cfg.frames * cfg.input_dim))
        # an overflow, in float64 or in the float32 rounding, leaves a non-finite value
        with np.errstate(over="ignore", invalid="ignore"):
            delta = draws[:, :d2] * cfg.sigma_instance
            noise = draws[:, d2:].reshape(count, cfg.frames, cfg.input_dim) * cfg.sigma_frame
            video = np.matmul(m_video, (context + delta)[:, :, None])
            features[row : row + count] = video[:, None, :, 0] + noise
        bad = np.flatnonzero(~np.isfinite(features[row : row + count]).all(axis=(1, 2)))
        if len(bad):
            raise ConfigError(f"instance {row + bad[0]} has features beyond the float32 range")
        row += count

    return Dataset(
        classes=ClassTable(entries),
        instance_ids=np.arange(row),
        class_ids=np.repeat(np.arange(cfg.n_classes), [e.instance_count for e in entries.values()]),
        features=features[:row],
        label_embeddings=label_embeddings,
    )


# --- text files ---

_CSV_HEADER = "class_id,verb_id,noun_id,verb_text,noun_text,n_instances"


def write_lines(path: str, lines: list[str]) -> None:
    """Write lines as a UTF-8 text file, each ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text(path: str) -> str:
    """A UTF-8 text file's contents; bytes that do not decode are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def read_rows(path: str, header: str, *, comments: bool = False):
    """Yield (line number, fields) for each row of a CSV whose first line is
    header, skipping blank lines and, with comments, lines starting '#'."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"{path}:1: expected header {header!r}")
    n_fields = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or (comments and line.startswith("#")):
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
        yield lineno, parts


def write_class_table(path: str, table: ClassTable) -> None:
    """Write the class table as CSV; text fields must not contain commas."""
    lines = [_CSV_HEADER]
    for cid in table.class_ids():
        e = table[cid]
        for text in (e.verb_text, e.noun_text):
            if "," in text:
                raise FormatError(f"class {cid}: comma in text field {text!r}")
        lines.append(f"{cid},{e.verb_id},{e.noun_id},{e.verb_text},{e.noun_text},{e.instance_count}")
    write_lines(path, lines)


def read_class_table(path: str) -> ClassTable:
    """Parse a class table CSV, reporting the offending line on error."""
    entries: dict[int, ClassEntry] = {}
    for lineno, parts in read_rows(path, _CSV_HEADER):
        try:
            cid = int(parts[0])
            verb_id = int(parts[1])
            noun_id = int(parts[2])
            n_instances = int(parts[5])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer numeric field") from exc
        if cid in entries:
            raise ParseError(f"{path}:{lineno}: duplicate class_id {cid}")
        if n_instances < 1:
            raise ParseError(f"{path}:{lineno}: n_instances must be >= 1")
        entries[cid] = ClassEntry(cid, verb_id, noun_id, parts[3], parts[4], n_instances)
    return ClassTable(entries)


# --- binary files ---


class ContainerReader:
    """A binary file read in order from its open handle: its magic and
    version 1 checked, the n_fields uint32 header fields after the version
    in header, and the payload handed out by take.

    Each request is checked against the file's size before anything is read
    or allocated, so a header that claims more than the file holds ends in
    a FormatError. Use it in a with block, which closes the handle; a bad
    magic or version closes it at once.
    """

    def __init__(self, path: str, magic: bytes, n_fields: int):
        self.path, self._off = path, 4
        self._fh = open(path, "rb")
        try:
            self._size = os.fstat(self._fh.fileno()).st_size
            head = self._fh.read(4)
            if head != magic:
                raise FormatError(f"{path}: bad magic {head!r}")
            version, *self.header = self.take_u32(1 + n_fields)
            if version != 1:
                raise FormatError(f"{path}: unsupported version {version}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> ContainerReader:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _claim(self, n: int) -> None:
        """Count the next n bytes as handed out, if the file holds them."""
        if self._off + n > self._size:
            raise FormatError(f"{self.path}: truncated at byte {self._off}, need {n} more")
        self._off += n

    def _fill(self, buf: memoryview) -> memoryview:
        """buf, filled with the next len(buf) bytes of the file."""
        if self._fh.readinto(buf) != len(buf):
            raise FormatError(f"{self.path}: shorter than its size when opened")
        return buf

    def take(self, n: int) -> memoryview:
        """The next n bytes, read into a buffer of their own."""
        self._claim(n)
        return self._fill(memoryview(np.empty(n, np.uint8)))

    def take_u32(self, count: int) -> tuple[int, ...]:
        """The next count fields, each a little-endian uint32."""
        return struct.unpack(f"<{count}I", self.take(4 * count))

    def end(self) -> None:
        """Reject bytes past the last one taken."""
        if self._off != self._size:
            raise FormatError(f"{self.path}: {self._size - self._off} trailing bytes")


def pack_u32(*values: int) -> bytes:
    """values as little-endian uint32 fields."""
    return struct.pack(f"<{len(values)}I", *values)


def write_container(path: str, magic: bytes, header: tuple[int, ...], payload) -> None:
    """Write magic, version 1 and the uint32 header fields, then each
    buffer of payload in order."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(pack_u32(1, *header))
        fh.writelines(payload)


def _check_u32(what: str, ids: np.ndarray) -> None:
    """Reject ids that are not integers fitting the formats' uint32 id fields."""
    if ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= 2**32:
        raise FormatError(f"{what} ids must be integers in [0, 2^32)")


def _feature_record(frames: int, input_dim: int) -> np.dtype:
    """One OSF1 record: instance id, class id, then the float32 frames."""
    return np.dtype([("ids", "<u4", (2,)), ("features", "<f4", (frames * input_dim,))])


def _first_non_finite(rows: np.ndarray) -> int | None:
    """Index of the first float32 row holding a NaN or inf, or None."""
    # a float64 row sum is finite exactly when every float32 term is, and
    # needs no temporary of the rows' shape; +inf and -inf in one row
    # sum to NaN, which is the answer, not a condition worth a warning
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(rows.sum(axis=1, dtype=np.float64))
    return None if finite.all() else int(np.argmin(finite))


def _feature_chunks(ids: np.ndarray, cids: np.ndarray, features: np.ndarray):
    """The OSF1 records of the rows as (first row, records) pairs, at most
    _CHUNK_BYTES of records at a time, each a view of one reused buffer."""
    n, frames, input_dim = features.shape
    record = _feature_record(frames, input_dim)
    buf = np.empty(min(n, max(1, _CHUNK_BYTES // record.itemsize)), dtype=record)
    for start in range(0, n, len(buf)):
        block = buf[: min(n - start, len(buf))]
        stop = start + len(block)
        block["ids"][:, 0] = ids[start:stop]
        block["ids"][:, 1] = cids[start:stop]
        # a float64 beyond the float32 range becomes inf, which the writer rejects
        with np.errstate(over="ignore"):
            block["features"] = features[start:stop].reshape(len(block), -1)
        yield start, block


def write_features(path: str, instance_ids, class_ids, features) -> None:
    """Serialize an (N, frames, input_dim) feature array as OSF1 (float32
    little-endian), one record per row with its instance and class id.

    Everything is validated before the file is opened, so a rejected write
    leaves no file behind and an existing file untouched. The rows go
    through one chunk of records at a time: once to check them, once to
    write them.
    """
    ids, cids, features = _columns(instance_ids, class_ids, features)
    n, frames, input_dim = features.shape
    if n == 0:
        raise FormatError("write_features: no instances")
    _check_u32("write_features: instance", ids)
    _check_u32("write_features: class", cids)
    for start, block in _feature_chunks(ids, cids, features):
        bad = _first_non_finite(block["features"])
        if bad is not None:
            raise FormatError(f"write_features: instance {ids[start + bad]} has non-finite features")
    del block  # the writing pass fills a buffer of its own
    records = (block for _, block in _feature_chunks(ids, cids, features))
    write_container(path, _MAGIC_FEATURES, (n, frames, input_dim), records)


def read_features(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load an OSF1 feature file as (instance_ids, class_ids, features):
    two (N,) int64 columns and an (N, frames, input_dim) float32 view of
    the records as read, so the features are never copied."""
    with ContainerReader(path, _MAGIC_FEATURES, 3) as reader:
        n_instances, frames, input_dim = reader.header
        if n_instances == 0:
            raise FormatError(f"{path}: no instances")
        if frames == 0 or input_dim == 0:
            raise FormatError(f"{path}: frames {frames} and input_dim {input_dim} must be nonzero")
        # the size is checked before the record dtype exists, which would
        # raise ValueError for frames * input_dim past a C int
        payload = reader.take(n_instances * (8 + frames * input_dim * 4))
        reader.end()
    records = np.frombuffer(payload, dtype=_feature_record(frames, input_dim))
    bad = _first_non_finite(records["features"])
    if bad is not None:
        raise FormatError(f"{path}: instance {records['ids'][bad, 0]} has non-finite features")
    ids = records["ids"].T.astype(np.int64, order="C")  # instance ids over class ids
    return ids[0], ids[1], records["features"].reshape(n_instances, frames, input_dim)


def _label_record(d_b: int) -> np.dtype:
    """One OSL1 record: class id, then the float32 embedding."""
    return np.dtype([("cid", "<u4"), ("embedding", "<f4", (d_b,))])


def write_labels(path: str, embeddings: dict[int, np.ndarray]) -> None:
    """Serialize label embeddings as OSL1 (float32 little-endian); like
    write_features, every record is validated before the file is opened."""
    if not embeddings:
        raise FormatError("write_labels: no embeddings")
    dims = {np.asarray(e).shape for e in embeddings.values()}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise DimensionError(f"write_labels: need one 1-D shape, got {sorted(dims)}")
    (d_b,) = dims.pop()
    cids = np.asarray(list(embeddings))
    _check_u32("write_labels: class", cids)
    records = np.empty(len(embeddings), dtype=_label_record(d_b))
    records["cid"] = np.sort(cids)
    # a float64 beyond the float32 range becomes inf, rejected just below
    with np.errstate(over="ignore"):
        records["embedding"] = [embeddings[cid] for cid in records["cid"].tolist()]
    bad = _first_non_finite(records["embedding"])
    if bad is not None:
        cid = records["cid"][bad]
        raise FormatError(f"write_labels: class {cid} has a non-finite label embedding")
    write_container(path, _MAGIC_LABELS, (len(embeddings), d_b), [records])


def read_labels(path: str) -> dict[int, np.ndarray]:
    """Load an OSL1 label file; embeddings are re-normalized after the
    float32 round trip so they are exactly unit norm in float64."""
    with ContainerReader(path, _MAGIC_LABELS, 2) as reader:
        n_classes, d_b = reader.header
        if n_classes == 0:
            raise FormatError(f"{path}: no label embeddings")
        if d_b == 0:
            raise FormatError(f"{path}: label embedding dim must be nonzero")
        records = np.frombuffer(reader.take(n_classes * (4 + d_b * 4)), dtype=_label_record(d_b))
        reader.end()
    bad = _first_non_finite(records["embedding"])
    if bad is not None:
        raise FormatError(f"{path}: class {records['cid'][bad]} has a non-finite label embedding")
    nonzero = records["embedding"].any(axis=1)
    if not nonzero.all():
        bad = int(records["cid"][np.argmin(nonzero)])
        raise FormatError(f"{path}: class {bad} has an all-zero label embedding")
    embeddings: dict[int, np.ndarray] = {}
    for cid, vec in zip(records["cid"].tolist(), records["embedding"]):
        if cid in embeddings:
            raise FormatError(f"{path}: duplicate class_id {cid}")
        embeddings[cid] = l2_normalize(vec.astype(np.float64))
    return embeddings


def load_dataset(class_table_path: str, features_path: str, labels_path: str) -> Dataset:
    """Assemble a Dataset from its three on-disk parts."""
    table = read_class_table(class_table_path)
    instance_ids, class_ids, features = read_features(features_path)
    embeddings = read_labels(labels_path)
    missing = [cid for cid in table.class_ids() if cid not in embeddings]
    if missing:
        raise FormatError(f"labels file missing classes {missing}")
    dataset = Dataset(table, instance_ids, class_ids, features, embeddings)
    for cid, rows in dataset.class_rows.items():
        if len(rows) != table[cid].instance_count:
            raise FormatError(f"{features_path}: class {cid} has {len(rows)} instances, "
                              f"the class table says {table[cid].instance_count}")
    return dataset
