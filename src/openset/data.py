"""Datasets of frame-level video features with verb-noun action labels.

A class is a (verb, noun) pair; each instance carries a fixed-length stack of
frame feature vectors. Label embeddings live in their own space and are unit
norm. Synthetic data is generated from latent verb/noun vectors so that video
features and label embeddings share structure, which is what the alignment
methods exploit.

On-disk formats:
  class table  CSV   class_id,verb_id,noun_id,verb_text,noun_text,n_instances
  features     OSF1  binary, float32 little-endian frames
  labels       OSL1  binary, float32 little-endian embedding per class
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    ParseError,
)
from .numcore import l2_normalize

_MAGIC_FEATURES = b"OSF1"
_MAGIC_LABELS = b"OSL1"


@dataclass(frozen=True)
class ActionLabel:
    """A verb-noun action label with display strings."""

    verb_id: int
    noun_id: int
    verb_text: str
    noun_text: str


@dataclass(frozen=True)
class ClassEntry:
    """One class of the universe: its label and how many instances exist."""

    class_id: int
    label: ActionLabel
    instance_count: int

    @property
    def verb_id(self) -> int:
        return self.label.verb_id

    @property
    def noun_id(self) -> int:
        return self.label.noun_id


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
    """One video clip: a (frames, input_dim) float feature stack."""

    instance_id: int
    class_id: int
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DimensionError(
                f"instance {self.instance_id}: features must be 2-D, "
                f"got ndim={self.features.ndim}"
            )


@dataclass
class Dataset:
    """Class table, instances, and per-class label embeddings.

    Every instance's class_id must appear in the table; label embeddings are
    unit-norm vectors sharing one dimensionality. instances_by_class maps
    class_id to the list of its instances in insertion order.
    """

    classes: ClassTable
    instances: list[Instance]
    label_embeddings: dict[int, np.ndarray]
    instances_by_class: dict[int, list[Instance]] = field(init=False)

    def __post_init__(self):
        ids_seen = set()
        by_class: dict[int, list[Instance]] = {cid: [] for cid in self.classes.class_ids()}
        for inst in self.instances:
            if inst.instance_id in ids_seen:
                raise ConfigError(f"duplicate instance_id {inst.instance_id}")
            ids_seen.add(inst.instance_id)
            if inst.class_id not in self.classes:
                raise ConfigError(
                    f"instance {inst.instance_id} references unknown class "
                    f"{inst.class_id}"
                )
            by_class[inst.class_id].append(inst)
        shapes = {inst.features.shape for inst in self.instances}
        if len(shapes) > 1:
            raise DimensionError(f"inconsistent feature shapes: {sorted(shapes)}")
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
        self.instances_by_class = by_class

    @property
    def input_dim(self) -> int:
        if not self.instances:
            raise ConfigError("dataset has no instances")
        return self.instances[0].features.shape[1]

    @property
    def frames(self) -> int:
        if not self.instances:
            raise ConfigError("dataset has no instances")
        return self.instances[0].features.shape[0]

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

    def validate(self) -> None:
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


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Generate a dataset from latent verb/noun vectors.

    Each class concatenates its verb and noun latents into a context vector c.
    Video features are an affine image of c plus instance and frame noise,
    tiled across frames; the label embedding is a different affine image of
    the same c, unit-normalized. Deterministic in cfg.seed.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d2 = 2 * cfg.d_latent

    verb_latent = rng.standard_normal((cfg.n_verbs, cfg.d_latent))
    noun_latent = rng.standard_normal((cfg.n_nouns, cfg.d_latent))
    m_video = rng.standard_normal((cfg.input_dim, d2)) / np.sqrt(d2)
    m_label = rng.standard_normal((cfg.label_dim, d2)) / np.sqrt(d2)

    all_pairs = [(v, n) for v in range(cfg.n_verbs) for n in range(cfg.n_nouns)]
    n_classes = max(1, round(cfg.class_density * len(all_pairs)))
    chosen_idx = rng.choice(len(all_pairs), size=n_classes, replace=False)
    chosen = sorted(all_pairs[i] for i in chosen_idx)

    entries: dict[int, ClassEntry] = {}
    label_embeddings: dict[int, np.ndarray] = {}
    instances: list[Instance] = []
    lo, hi = cfg.instances_per_class
    next_instance = 0
    for class_id, (v, n) in enumerate(chosen):
        context = np.concatenate([verb_latent[v], noun_latent[n]])
        label_embeddings[class_id] = l2_normalize(m_label @ context)
        count = int(rng.integers(lo, hi, endpoint=True))
        entries[class_id] = ClassEntry(
            class_id=class_id,
            label=ActionLabel(
                verb_id=v,
                noun_id=n,
                verb_text=f"verb{v:02d}",
                noun_text=f"noun{n:02d}",
            ),
            instance_count=count,
        )
        for _ in range(count):
            delta = rng.standard_normal(d2) * cfg.sigma_instance
            frame_noise = rng.standard_normal((cfg.frames, cfg.input_dim)) * cfg.sigma_frame
            base = m_video @ (context + delta)
            features = np.tile(base, (cfg.frames, 1)) + frame_noise
            instances.append(
                Instance(instance_id=next_instance, class_id=class_id, features=features)
            )
            next_instance += 1

    return Dataset(
        classes=ClassTable(entries),
        instances=instances,
        label_embeddings=label_embeddings,
    )


# --- class table CSV ---

_CSV_HEADER = "class_id,verb_id,noun_id,verb_text,noun_text,n_instances"


def write_class_table(path: str, table: ClassTable) -> None:
    """Write the class table as CSV; text fields must not contain commas."""
    lines = [_CSV_HEADER]
    for cid in table.class_ids():
        entry = table[cid]
        lab = entry.label
        for text in (lab.verb_text, lab.noun_text):
            if "," in text:
                raise FormatError(f"class {cid}: comma in text field {text!r}")
        lines.append(
            f"{cid},{lab.verb_id},{lab.noun_id},{lab.verb_text},{lab.noun_text},"
            f"{entry.instance_count}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text(path: str) -> str:
    """A UTF-8 text file's contents; bytes that do not decode are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def read_class_table(path: str) -> ClassTable:
    """Parse a class table CSV, reporting the offending line on error."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ParseError(f"{path}: expected header {_CSV_HEADER!r}")
    entries: dict[int, ClassEntry] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
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
        entries[cid] = ClassEntry(
            class_id=cid,
            label=ActionLabel(
                verb_id=verb_id,
                noun_id=noun_id,
                verb_text=parts[3],
                noun_text=parts[4],
            ),
            instance_count=n_instances,
        )
    return ClassTable(entries)


# --- binary feature / label files ---


def _fits_u32(value) -> bool:
    """True when value is an integer that fits the formats' uint32 id fields."""
    try:
        return 0 <= operator.index(value) < 2**32
    except TypeError:
        return False


def write_features(path: str, instances: list[Instance]) -> None:
    """Serialize instance feature stacks as OSF1 (float32 little-endian).

    Every record is validated before the file is opened, so a rejected write
    leaves no file behind and an existing file untouched.
    """
    if not instances:
        raise FormatError("write_features: no instances")
    frames, input_dim = instances[0].features.shape
    for inst in instances:
        if inst.features.shape != (frames, input_dim):
            raise DimensionError(
                f"write_features: instance {inst.instance_id} shape "
                f"{inst.features.shape} != ({frames}, {input_dim})"
            )
        if not (_fits_u32(inst.instance_id) and _fits_u32(inst.class_id)):
            raise FormatError(
                f"write_features: instance {inst.instance_id} class {inst.class_id}: "
                "ids must be integers in [0, 2^32)"
            )
    with open(path, "wb") as fh:
        fh.write(_MAGIC_FEATURES)
        fh.write(struct.pack("<III", 1, len(instances), frames))
        fh.write(struct.pack("<I", input_dim))
        for inst in instances:
            fh.write(struct.pack("<II", inst.instance_id, inst.class_id))
            fh.write(inst.features.astype("<f4").tobytes(order="C"))


def read_features(path: str) -> list[Instance]:
    """Load an OSF1 feature file back into Instance objects (float64)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC_FEATURES:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated header")
    version, n_instances, frames, input_dim = struct.unpack("<IIII", blob[4:20])
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    payload = frames * input_dim * 4
    expected = 20 + n_instances * (8 + payload)
    if len(blob) != expected:
        raise FormatError(f"{path}: size {len(blob)} != expected {expected}")
    if n_instances:
        record = np.dtype([("ids", "<u4", (2,)), ("features", "<f4", (frames * input_dim,))])
        records = np.frombuffer(blob, dtype=record, offset=20)
        # a float64 row sum is finite exactly when every float32 term is, and
        # needs no (N, frames * input_dim) temporary
        finite = np.isfinite(records["features"].sum(axis=1, dtype=np.float64))
        if not finite.all():
            bad = int(records["ids"][np.argmin(finite), 0])
            raise FormatError(f"{path}: instance {bad} has non-finite features")
    instances = []
    off = 20
    for _ in range(n_instances):
        instance_id, class_id = struct.unpack("<II", blob[off : off + 8])
        off += 8
        feats = np.frombuffer(blob[off : off + payload], dtype="<f4").reshape(
            frames, input_dim
        )
        off += payload
        instances.append(
            Instance(
                instance_id=instance_id,
                class_id=class_id,
                features=feats.astype(np.float64),
            )
        )
    return instances


def write_labels(path: str, embeddings: dict[int, np.ndarray]) -> None:
    """Serialize label embeddings as OSL1 (float32 little-endian); like
    write_features, every record is validated before the file is opened."""
    if not embeddings:
        raise FormatError("write_labels: no embeddings")
    dims = {np.asarray(e).shape for e in embeddings.values()}
    if len(dims) != 1:
        raise DimensionError(f"write_labels: inconsistent dims {sorted(dims)}")
    (d_b,) = dims.pop()
    for cid in embeddings:
        if not _fits_u32(cid):
            raise FormatError(f"write_labels: class id {cid} must be an integer in [0, 2^32)")
    with open(path, "wb") as fh:
        fh.write(_MAGIC_LABELS)
        fh.write(struct.pack("<III", 1, len(embeddings), d_b))
        for cid in sorted(embeddings):
            fh.write(struct.pack("<I", cid))
            fh.write(np.asarray(embeddings[cid], dtype="<f4").tobytes(order="C"))


def read_labels(path: str) -> dict[int, np.ndarray]:
    """Load an OSL1 label file; embeddings are re-normalized after the
    float32 round trip so they are exactly unit norm in float64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC_LABELS:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated header")
    version, n_classes, d_b = struct.unpack("<III", blob[4:16])
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    if n_classes == 0:
        raise FormatError(f"{path}: no label embeddings")
    payload = d_b * 4
    expected = 16 + n_classes * (4 + payload)
    if len(blob) != expected:
        raise FormatError(f"{path}: size {len(blob)} != expected {expected}")
    record = np.dtype([("cid", "<u4"), ("embedding", "<f4", (d_b,))])
    records = np.frombuffer(blob, dtype=record, offset=16)
    finite = np.isfinite(records["embedding"]).all(axis=1)
    if not finite.all():
        bad = int(records["cid"][np.argmin(finite)])
        raise FormatError(f"{path}: class {bad} has a non-finite label embedding")
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
    instances = read_features(features_path)
    embeddings = read_labels(labels_path)
    missing = [cid for cid in table.class_ids() if cid not in embeddings]
    if missing:
        raise FormatError(f"labels file missing classes {missing}")
    return Dataset(classes=table, instances=instances, label_embeddings=embeddings)
