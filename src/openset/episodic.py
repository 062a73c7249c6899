"""Episode sampling, κ-NN classification, and pooled-accuracy evaluation.

An episode is one open-set trial: n classes drawn from an evaluation subset,
a support set (k video instances per class, or one label embedding per class
for the cross-modal task), and up to m query instances per class. Queries
are classified by κ-NN over unit embeddings with κ = k, and accuracy is
pooled across episodes (total correct / total queries).

Evaluation subsets: All (every test class), HoV (held-out verb only), HoN
(held-out noun only); classes held out on both sides appear in All only.
Per-episode generators are derived from (seed, subset index, episode index),
so episodes are independent of execution order. Batches, validation rounds and
episodes each draw from a ClassPool built once per class set and run, whose
draw makes two generator calls each and resolves a block with choice_positions.
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
_VOTE_BLOCK = 32  # episodes per knn_classify call in evaluate; bounds its memory


@dataclass(frozen=True)
class EvalConfig:
    """One episodic protocol: n-way, k-shot, up to m queries per class, the
    given number of episodes per subset. The cross-modal task supports each
    class with its one label embedding, so it needs k = 1."""

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
    sizes[i] rows, n_support supports and up to m more (see bounds)."""

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
        self.takes = n_support + np.minimum(m, self.sizes - n_support)
        width = int(self.takes.max(initial=1))
        self.bounds = np.array([choice_bounds(s, t, width) for s, t in zip(self.sizes, self.takes)])

    @cached_property
    def labels(self) -> np.ndarray:
        """The classes' raw label embeddings, stacked in pool order on first use."""
        try:
            return np.stack([self.dataset.label_embeddings[c] for c in self.classes.tolist()])
        except KeyError as exc:
            raise ConfigError(f"class {exc.args[0]} has no label embedding") from None

    def draw(self, members: np.ndarray, rngs: list, n: int, min_total: int = 0):
        """Per generator, n distinct classes of members (indices into classes)
        by rng.choice, then one rng.integers over their bounds, redrawn while
        their takes sum below min_total. Returns the picked indices, (draws,
        n), and each pick's positions into rows, in draw order."""
        picked, raw = [], []
        member_bounds, member_takes = self.bounds[members], self.takes[members]
        for rng in rngs:
            for _ in range(_RESAMPLE_LIMIT):
                chosen = rng.choice(len(members), size=n, replace=False)
                draws = rng.integers(0, member_bounds[chosen], endpoint=True)
                if not min_total or member_takes[chosen].sum() >= min_total:
                    break
            else:
                raise SamplingError(f"batch sampling: {_RESAMPLE_LIMIT} draws "
                                    f"below {min_total} total instances")
            picked.append(members[chosen])
            raw.append(draws)
        flat = np.concatenate(picked)
        takes = self.takes[flat]
        drawn = choice_positions(np.concatenate(raw), self.sizes[flat], takes)
        return flat.reshape(len(raw), n), np.repeat(self.starts[flat], takes) + drawn


def sample_training_batch(
    pool: ClassPool, rng: np.random.Generator, n: int, min_total: int, count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """count batches, each of n distinct pool classes taking their takes, at
    least min_total instances in total; whole draws failing the total are
    resampled. Returns (picked pool indices, positions into pool.rows) per
    batch, in draw order (each class's positions follow its place in picked)."""
    if len(pool.classes) < n:
        raise ConfigError(f"batch sampling: need {n} classes, have {len(pool.classes)}")
    picked, positions = pool.draw(np.arange(len(pool.classes)), [rng] * count, n, min_total)
    return list(zip(picked, np.split(positions, np.cumsum(pool.takes[picked].sum(axis=1))[:-1])))


def choice_bounds(size: int, take: int, width: int) -> np.ndarray:
    """Bounds of rng.choice(size, take, replace=False)'s draws, padded with 0 (no
    draw) to 2 * width - 1: Floyd's steps from column 0, shuffle step i at column -i."""
    if size > 10000 and take > size // 50:  # numpy's tail shuffle
        head, tail = np.arange(size - 1, max(size - take, 1) - 1, -1), np.arange(0)
    else:
        head, tail = np.arange(size - take, size), np.arange(take - 1, 0, -1)
    return np.concatenate([head, np.zeros(2 * width - 1 - len(head) - len(tail), int), tail])


def choice_positions(raw: np.ndarray, sizes: np.ndarray, takes: np.ndarray) -> np.ndarray:
    """The positions rng.choice(size, take, replace=False) returns per (size,
    take) row, concatenated, from the row's draws over its choice_bounds.
    numpy's choice is Floyd's algorithm (step j draws v in [0, j] and takes v,
    or j if an earlier step took v), then a Fisher-Yates shuffle; above size
    10000 with take > size // 50 it shuffles the tail of arange(size) instead."""
    width = int(takes.max())  # raw may be padded wider (see choice_bounds)
    col, row, shift = np.arange(width), np.arange(len(raw))[:, None], width.bit_length()
    size, take, live = sizes[:, None], takes[:, None], col < takes[:, None]
    value = np.where(live, raw[:, :width], -1)
    # v was taken if an earlier step drew it (sorted by (v, step), that step
    # comes first), or if it is the j of an earlier step that took j
    keyed = np.sort(value << shift | col, axis=1)
    repeat = np.zeros(value.size, bool)
    repeat[row * width + (keyed[:, 1:] & (1 << shift) - 1)] = np.diff(keyed >> shift) == 0
    earlier = value - (size - take)
    chained = ((earlier >= 0) & (earlier < col)).ravel()
    link = (row * width + earlier.clip(0)).ravel()
    took_j = repeat
    while not np.array_equal(took_j, update := repeat | chained & took_j[link]):
        took_j = update
    # the shuffle, one step per line of pos across all rows; padding swaps in place
    pos = np.where(took_j.reshape(value.shape), size - take + col, value).T.copy()
    partner = (np.where(live[:, 1:], raw[:, -1:-width:-1], col[1:]) * len(raw) + row).T.copy()
    flat = pos.reshape(-1)
    for line, ends in zip(pos[:0:-1], partner[::-1]):
        moved = flat[ends]
        flat[ends] = line
        line[...] = moved
    for r in np.flatnonzero((sizes > 10000) & (takes > sizes // 50)):  # tail shuffles
        swapped: dict[int, int] = {}
        for i, d in zip(range(sizes[r] - 1, 0, -1), raw[r, :min(takes[r], sizes[r] - 1)].tolist()):
            swapped[i], swapped[d] = swapped.get(d, d), swapped.get(i, i)
        pos[:takes[r], r] = [swapped.get(i, i) for i in range(sizes[r])[-takes[r]:]]
    return pos.T[live]


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
    pool = ClassPool(dataset, split.test, cfg.m, cfg.n_support)
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
    Per _VOTE_BLOCK episodes, one ClassPool.draw resolves every episode's
    draws into positions, which index that array, and votes are cast once;
    each episode still takes its own (queries, n·k) similarity product,
    since BLAS bits depend on the product's shape. FSG supports are video
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
            rngs = [np.random.default_rng([cfg.seed, subset_idx, episode_idx])
                    for episode_idx in range(start, min(start + _VOTE_BLOCK, cfg.episodes))]
            # pool indices, (episodes, n), and each pick's positions into emb
            picked, positions = pool.draw(members, rngs, n)
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
