"""Episode sampling, κ-NN classification, and pooled-accuracy evaluation.

An episode is one open-set trial: n classes drawn from an evaluation subset,
a support set (k video instances per class, or one label embedding per class
for the cross-modal task), and up to m query instances per class. Queries
are classified by κ-NN over unit embeddings with κ = k, and accuracy is
pooled across episodes (total correct / total queries).

Evaluation subsets: All (every test class), HoV (held-out verb only), HoN
(held-out noun only); classes held out on both sides appear in All only.
Batches, validation rounds and episodes each draw from a ClassPool built once
per class set and run, a block of draws per call. Every draw is a pure
function of its counter: an episode's is (seed, subset index, episode index),
a training batch's (seed, 0, batch index, attempt) and a validation batch's
(seed, 1, round, batch index, attempt). _key hashes a counter with
SplitMix64's finaliser, and the key seeds the SplitMix64 stream that ranks the
classes and rows (ClassPool.draw). So draws are independent of execution
order and of the block size, and of numpy's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset, write_lines
from .errors import (
    ConfigError,
    DimensionError,
    EligibilityError,
    MethodError,
    SamplingError,
    check_fields,
)
from .model import METHOD_VE, METHOD_WE, EmbeddingModel, ModelConfig
from .splits import CATEGORY_HON, CATEGORY_HOV, SplitResult

TASK_FSG = "FSG"
TASK_CMFSG = "CM-FSG"
TASKS = (TASK_FSG, TASK_CMFSG)

_RESAMPLE_LIMIT = 100
_VOTE_BLOCK = 64  # episodes drawn and voted per step of evaluate; bounds its memory


@dataclass(frozen=True)
class EvalConfig:
    """One episodic protocol: n-way, k-shot, up to m queries per class, the given
    number of episodes per subset, at most 2^32, a bound no run comes near
    (days per subset) that keeps a typo from running for ever. The cross-modal
    task supports each class with its one label embedding, so k = 1."""

    task: str = TASK_FSG
    n: int = 5
    k: int = 1
    m: int = 20
    episodes: int = 500
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if min(self.n, self.k, self.m, self.episodes) < 1:
            raise ConfigError("eval: n, k, m and episodes must be positive")
        if self.episodes > 2**32:
            raise ConfigError(f"eval: episodes {self.episodes} > 2^32 per subset")
        if self.task == TASK_CMFSG and self.k != 1:
            raise MethodError("cross-modal episodes provide one label per class; k must be 1")

    @property
    def n_support(self) -> int:
        """Video supports per episode class: k for FSG, none cross-modally."""
        return self.k if self.task == TASK_FSG else 0


class ClassPool:
    """The classes of a class set that can give a draw, those with more than
    n_support rows, sorted. rows is their class_rows concatenated in class
    order, class i's from starts[i]; a draw of class i takes takes[i] of its
    sizes[i] rows, n_support supports and up to m more (see draw)."""

    def __init__(self, dataset: Dataset, classes, m: int, n_support: int = 0):
        if unknown := set(classes) - dataset.class_rows.keys():
            raise ConfigError(f"class {min(unknown)} is not in the class table")
        self.dataset = dataset
        kept = [c for c in sorted(classes) if len(dataset.class_rows[c]) > n_support]
        self.classes = np.array(kept, dtype=np.int64)
        parts = [dataset.class_rows[c] for c in kept]
        self.rows = np.concatenate([np.zeros(0, np.int64), *parts])
        self.sizes = np.array([len(p) for p in parts], dtype=np.int64)
        self.starts = np.cumsum(self.sizes) - self.sizes
        # min(size, n_support + m), with the sum clamped to the largest size
        # while a Python int, so an m or k past int64 cannot overflow numpy
        self.takes = np.minimum(self.sizes, min(n_support + m, int(self.sizes.max(initial=0))))

    @cached_property
    def labels(self) -> np.ndarray:
        """The classes' raw label embeddings, stacked in pool order on first use."""
        try:
            return np.stack([self.dataset.label_embeddings[c] for c in self.classes.tolist()])
        except KeyError as exc:
            raise ConfigError(f"class {exc.args[0]} has no label embedding") from None

    def draw(self, members: np.ndarray, n: int, keys: np.ndarray, min_total: int = 0):
        """Per key (see _key), n distinct classes of members (sorted indices
        into classes), then takes[c] distinct rows of each picked class c,
        from the SplitMix64 stream the key seeds: word id ranks the class of
        that id and word 2^63 + i dataset row i, by the word's top 32 bits,
        ties to the lower slot, and the lowest ranks are taken in rank order.
        So a draw depends on its members' ids and rows, not on the pool. With
        min_total (training) the key is first folded with an attempt index,
        from 0, and a draw whose takes sum below min_total is made again at
        the next attempt, up to _RESAMPLE_LIMIT. Returns the picked indices,
        (keys, n), and each pick's positions into rows, in draw order."""
        attempt = np.zeros(len(keys), np.uint64)
        for _ in range(_RESAMPLE_LIMIT):
            keyed = _fold(keys, attempt) if min_total else keys
            ranks = _stream(keyed[:, None], self.classes[members]) >> 32
            picked = members[np.argsort(ranks, axis=1, kind="stable")[:, :n]]
            short = self.takes[picked].sum(axis=1) < min_total
            if not short.any():
                break
            attempt += short
        else:
            raise SamplingError(f"batch sampling: {_RESAMPLE_LIMIT} draws "
                                f"below {min_total} total instances")
        # every row of the picked classes, one segment per pick: its rank
        # under the segment's index, so one sort orders each segment
        flat = picked.ravel()
        sizes = self.sizes[flat]
        local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        at = np.repeat(self.starts[flat], sizes) + local
        ranks = _stream(np.repeat(keyed, sizes.reshape(picked.shape).sum(axis=1)),
                        self.rows[at].astype(np.uint64) | 1 << 63) >> 32
        ranks |= np.repeat(np.arange(len(flat), dtype=np.uint64) << 32, sizes)
        order = np.argsort(ranks)
        if (np.diff(ranks[order]) == 0).any():  # a tie: the lower slot first
            order = np.argsort(ranks, kind="stable")
        return picked, at[order[local < np.repeat(self.takes[flat], sizes)]]


def sample_training_batch(
    pool: ClassPool, n: int, min_total: int, seed: int, *path
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One batch per counter (seed, *path, index) of path's last array: n
    distinct pool classes taking their takes, at least min_total instances
    in total, drawn again at the next attempt while short (see
    ClassPool.draw). Returns (picked pool indices, positions into pool.rows)
    per batch, in counter order (each class's positions follow its place in
    picked)."""
    if len(pool.classes) < n:
        raise ConfigError(f"batch sampling: need {n} classes, have {len(pool.classes)}")
    members = np.arange(len(pool.classes))
    picked, positions = pool.draw(members, n, _key(seed, *path), min_total)
    return list(zip(picked, np.split(positions, np.cumsum(pool.takes[picked].sum(axis=1))[:-1])))


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2^64 over the golden ratio


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a uint64 array (Steele, Lea &
    Flood, OOPSLA 2014). The array has a dimension: numpy warns when a 0-d
    uint64 product wraps, and an array's products wrap silently."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _stream(keys: np.ndarray, slots) -> np.ndarray:
    """Word number slot (from 0) of the SplitMix64 stream each key seeds,
    counter-style as in Philox (Salmon et al., SC 2011): the finaliser of
    key + (slot + 1)·gamma. keys and slots broadcast."""
    return _mix(keys + (np.array(slots, np.uint64, ndmin=1) + 1) * np.uint64(_GAMMA))


def _fold(keys: np.ndarray, word) -> np.ndarray:
    """keys with one more counter word folded in: word 0 of the stream that
    key xor word seeds."""
    return _stream(keys ^ np.asarray(word, np.uint64), 0)


def _key(seed: int, *path) -> np.ndarray:
    """The uint64 keys of counters (seed, *path): the seed's 64-bit words,
    least significant first, after their count, then each path index, folded
    in turn into 0. Path entries are non-negative ints or 1-D integer arrays,
    which broadcast; the result always has one dimension."""
    words = [seed >> shift & 0xFFFFFFFFFFFFFFFF
             for shift in range(0, max(seed.bit_length(), 1), 64)]
    keys = np.zeros(1, np.uint64)
    for word in [len(words), *words, *path]:
        keys = _fold(keys, word)
    return keys


def knn_classify(sims: np.ndarray, support_classes: np.ndarray, kappa: int) -> np.ndarray:
    """Predict, per row of a (Q, S) similarity block, the majority class of
    its kappa most similar supports: an int64 array of Q predictions.

    support_classes is (S,), shared by every row, or (Q, S), one per row.
    Order-free: neighbor ties go to the smaller class id, vote ties to the
    larger summed similarity, then the smaller class id. Ties are those of
    sims as given: BLAS can give two equal support rows unequal similarities.
    """
    if sims.ndim != 2 or sims.shape[1] == 0:
        raise ConfigError("knn: need a 2-D similarity block with at least one support")
    if not (1 <= kappa <= sims.shape[1]):
        raise ConfigError(f"knn: kappa {kappa} out of range 1..{sims.shape[1]}")
    support_classes = np.broadcast_to(support_classes, sims.shape)
    top = np.lexsort((support_classes, -sims), axis=-1)[:, :kappa]
    top_classes = np.take_along_axis(support_classes, top, axis=1)
    top_sims = np.take_along_axis(sims, top, axis=1)
    # each candidate's class counts its votes and sums its similarities in
    # rank order; +0.0 for another class's rank leaves the sum's bits alone
    votes = np.zeros(top.shape, dtype=np.int64)
    sum_sim = np.zeros(top.shape)
    for rank in range(kappa):
        same = top_classes == top_classes[:, rank:rank + 1]
        votes += same
        sum_sim += np.where(same, top_sims[:, rank:rank + 1], 0.0)
    # the candidate with most votes, then the largest sum, then the smallest class
    winner = np.lexsort((-top_classes, sum_sim, votes), axis=1)[:, -1:]
    return np.take_along_axis(top_classes, winner, axis=1)[:, 0]


@dataclass
class SubsetResult:
    episodes: int = 0
    queries: int = 0
    correct: int = 0
    skipped: bool = False

    @property
    def accuracy(self) -> float:
        if self.queries == 0:
            raise ConfigError("accuracy undefined without queries")
        return self.correct / self.queries


@dataclass
class EvalReport:
    cfg: EvalConfig
    subsets: dict[str, SubsetResult] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def eval_subsets(
    model_cfg: ModelConfig, dataset: Dataset, split: SplitResult, cfg: EvalConfig
) -> tuple[ClassPool, list[tuple[str, np.ndarray]]]:
    """The pool of the test classes that can field an episode (the supports
    and a query), and each evaluation subset's members, indices into it, in
    report order: All, HoV and HoN. Raises MethodError if the method cannot
    run the task, DimensionError if the model's input dim (and, cross-modally,
    its label dim) differs from the dataset's, and EligibilityError if no
    subset has n members, so evaluate rejects the request before it embeds."""
    if cfg.task == TASK_CMFSG and model_cfg.method == METHOD_VE:
        raise MethodError("VE has no label-embedding path; cannot run CM-FSG")
    # FSG supports are videos, so only the cross-modal task reads labels
    for name in ["input_dim"] + (["label_dim"] if cfg.task == TASK_CMFSG else []):
        want, have = getattr(model_cfg, name), getattr(dataset, name)
        if want != have:
            raise DimensionError(f"eval: the model's {name} is {want}, the dataset's is {have}")
    pool = ClassPool(dataset, split.classes("test"), cfg.m, cfg.n_support)
    category = [split.category.get(c) for c in pool.classes.tolist()]
    subsets = [("All", np.arange(len(category)))] + [
        (name, np.flatnonzero([c == name for c in category]))
        for name in (CATEGORY_HOV, CATEGORY_HON)
    ]
    if all(len(members) < cfg.n for _, members in subsets):
        counts = ", ".join(f"{name} {len(members)}" for name, members in subsets)
        raise EligibilityError(f"eval: no subset has n={cfg.n} eligible classes ({counts})")
    return pool, subsets


def evaluate(
    model: EmbeddingModel, dataset: Dataset, split: SplitResult, cfg: EvalConfig
) -> EvalReport:
    """Pooled κ-NN accuracy (κ = k) over cfg.episodes per subset.

    Episode classes and queries are drawn from the subset alone; subsets with
    too few eligible classes are skipped with a warning instead of failing
    the whole run, unless every subset is (see eval_subsets). Each class of
    the test pool is embedded once per call, into one array in pool order.
    Per _VOTE_BLOCK episodes, one ClassPool.draw keyed by (seed, subset
    index, episode index) gives every episode's positions, which index that
    array, and votes are cast once. Each episode still takes its own
    (queries, n·k) similarity product, since BLAS bits depend on the
    product's shape. FSG supports are video
    embeddings; the cross-modal task supports each class with its raw label
    embedding (WE trains into that space) or its projected one (JE). Deterministic in seed.
    """
    cross_modal = cfg.task == TASK_CMFSG
    report = EvalReport(cfg)
    n, k, n_support = cfg.n, cfg.k, cfg.n_support
    pool, subsets = eval_subsets(model.config, dataset, split, cfg)
    emb = np.concatenate([model.embed_video_batch(dataset.features[rows])[0]
                          for rows in np.split(pool.rows, pool.starts[1:])])
    if cross_modal:
        labels = pool.labels if model.method == METHOD_WE else np.concatenate(
            [model.embed_label_batch(label[None])[0] for label in pool.labels])
    for subset_idx, (name, members) in enumerate(subsets):
        if len(members) < n:
            report.subsets[name] = SubsetResult(skipped=True)
            report.warnings.append(
                f"subset {name}: {len(members)} eligible classes < n={n}; skipped"
            )
            continue
        result = report.subsets[name] = SubsetResult()
        for start in range(0, cfg.episodes, _VOTE_BLOCK):
            episodes = np.arange(start, min(start + _VOTE_BLOCK, cfg.episodes))
            # pool indices, (episodes, n), and each pick's positions into emb
            picked, positions = pool.draw(members, n, _key(cfg.seed, subset_idx, episodes))
            counts = pool.takes[picked.ravel()]
            # each class's first n_support positions are its supports
            rank = np.arange(len(positions)) - np.repeat(np.cumsum(counts) - counts, counts)
            is_support = rank < n_support
            support = labels[picked] if cross_modal else emb[positions[is_support]]
            support = support.reshape(-1, n * k, emb.shape[1])
            queries = (counts - n_support).reshape(-1, n).sum(axis=1)
            query_rows = np.split(positions[~is_support], np.cumsum(queries[:-1]))
            sims = [emb[q] @ s.T for q, s in zip(query_rows, support)]
            picked = pool.classes[picked]
            support_classes = np.repeat(np.repeat(picked, k, axis=1), queries, axis=0)
            pred = knn_classify(np.concatenate(sims), support_classes, k)
            true_cid = np.repeat(picked.ravel(), counts - n_support)
            result.episodes += len(queries)
            result.queries += len(true_cid)
            result.correct += int(np.count_nonzero(pred == true_cid))
    return report


EVAL_HEADER = "task,subset,n,k,m,episodes,queries,correct,accuracy,seed"


def write_eval_report(path: str, report: EvalReport) -> None:
    """One CSV row per non-skipped subset, in evaluation order; skipped
    subsets appear only in the warnings, which are written as comment lines."""
    cfg = report.cfg
    lines = [EVAL_HEADER]
    for warning in report.warnings:
        lines.append(f"# {warning}")
    for name, res in report.subsets.items():
        if res.skipped:
            continue
        lines.append(
            f"{cfg.task},{name},{cfg.n},{cfg.k},{cfg.m},"
            f"{res.episodes},{res.queries},{res.correct},{res.accuracy!r},{cfg.seed}"
        )
    write_lines(path, lines)
