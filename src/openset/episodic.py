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
episodes each draw from a ClassPool built once per class set and run. Its draw
makes two Generator calls per batch and resolves a block with choice_positions.
Evaluation replays those draws for a block of episodes from raw PCG64 words
(ClassPool.replay), or through Generators if numpy would reject a word, both
over episode_generators (indices below 2^32; numpy.random loads on first use).
The replay follows numpy's SeedSequence, PCG64 and bounded-integer code; it was
verified on numpy 2.4.6 only, although pyproject.toml allows numpy>=1.24.
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
    number of episodes per subset, at most 2^32 (see episode_generators). The
    cross-modal task supports each class with its one label embedding, so k = 1."""

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
            raise ConfigError(f"eval: episodes {self.episodes} > 2^32 (an index is one seed word)")
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
        return self._resolve(np.array(picked), np.concatenate(raw))

    def replay(self, members: np.ndarray, generators: list, n: int):
        """draw's picks and positions at min_total 0, made from each PCG64's
        raw words instead of through a Generator. Every draw of choice and
        integers is Lemire's (see lemire), one next_uint32 word each, low half
        of a raw word first, so the words go to the non-zero bounds in draw
        order: choice's over members, then the picked classes' rows of bounds.
        None if any draw rejects its word, as numpy would then draw another;
        a row's first rejection meets its own word, so none is missed."""
        size, rows = len(members), len(generators)
        heads = np.tile(choice_bounds(size, n, n), (rows, 1))
        used = np.count_nonzero(heads[0])
        most = used + np.sort(np.count_nonzero(self.bounds[members], axis=1))[-n:].sum()
        raw = np.array([g.random_raw(most // 2 + 1) for g in generators])
        words = raw.astype("<u8", copy=False).view("<u4")
        chosen, rejected = _bounded_draws(words, heads)
        picked = members[choice_positions(chosen, np.full(rows, size), np.full(rows, n))]
        picked = picked.reshape(rows, n)
        draws, also = _bounded_draws(words[:, used:], self.bounds[picked].reshape(rows, -1))
        return None if rejected or also else self._resolve(picked, draws.reshape(picked.size, -1))

    def _resolve(self, picked: np.ndarray, raw: np.ndarray):
        """picked, (draws, n), and each pick's positions into rows, from one
        row of raw draws over its bounds per pick."""
        flat = picked.ravel()
        takes = self.takes[flat]
        drawn = choice_positions(raw, self.sizes[flat], takes)
        return picked, np.repeat(self.starts[flat], takes) + drawn


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


def lemire(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's draws in [0, b] from uint32 words u (Lemire's method): (u·(b+1))
    >> 32, and whether each rejects its word, its product's low 32 bits below
    2^32 mod (b+1), where numpy would draw again. That threshold is below b+1,
    so, as in numpy, it is computed only where the low bits are. A bound of 0
    gives 0 and never rejects."""
    span = bounds.astype(np.uint64)
    span += 1
    scaled = words.astype(np.uint64) * span
    low = scaled & 0xFFFFFFFF
    rejected = low < span
    rejected[rejected] = low[rejected] < (1 << 32) % span[rejected]
    scaled >>= 32
    return scaled.view(np.int64), rejected


def _bounded_draws(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, bool]:
    """Each row's lemire draws over its bounds, the non-zero bounds taking the
    row's words in order (a zero bound draws nothing), and whether any rejects."""
    order = np.cumsum(bounds != 0, axis=1)
    order -= 1  # a zero bound ahead of the row's first draw reads word -1, to no effect
    draws, rejected = lemire(np.take_along_axis(words, order, axis=1), bounds)
    return draws, bool(rejected.any())


class _SeedState:
    """Hands PCG64 the seed state a SeedSequence would generate (see episode_generators)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def episode_generators(seed: int, subset_idx: int, episodes: range) -> list[np.random.PCG64]:
    """PCG64(SeedSequence([seed, subset_idx, e])) for each episode e < 2^32,
    their SeedSequence states computed together (see _seed_states), _SeedState
    registered as an ISeedSequence here, not on import, to leave numpy.random lazy."""
    np.random.bit_generator.ISeedSequence.register(_SeedState)
    entropy = _words(seed) + _words(subset_idx) + [np.arange(episodes.start, episodes.stop,
                                                             dtype=np.uint32)]
    return [np.random.PCG64(_SeedState(state)) for state in _seed_states(entropy)]


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, least significant first."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_states(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, np.uint64) for entropy words
    that are each an int or an array of one word per generator, at least one
    an array: numpy's pool of four mixed by its hashes in uint32 arithmetic,
    (generators, 4) uint64. An int stays an int, masked to 32 bits, until an
    array meets it."""

    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value = value ^ const
            const = const * mult & 0xFFFFFFFF
            value = value * const & 0xFFFFFFFF
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        value = (0xCA01F9DD * x & 0xFFFFFFFF) - (0x4973F715 * y & 0xFFFFFFFF) & 0xFFFFFFFF
        return value ^ value >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = hasher(0x8B51F9DD, 0x58F38DED)
    state = np.stack([generate(word) for word in pool * 2], axis=1).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


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
    Per _VOTE_BLOCK episodes, ClassPool.replay makes every episode's draws
    from its generator's raw words and resolves them into positions, which
    index that array, and votes are cast once. A block with a rejected word
    (about one in a thousand runs of 1,500 episodes) is drawn again through
    Generators of fresh episode_generators by ClassPool.draw, with the same result.
    Each episode still takes its own (queries, n·k) similarity product,
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
            episodes = range(start, min(start + _VOTE_BLOCK, cfg.episodes))
            # pool indices, (episodes, n), and each pick's positions into emb
            drawn = pool.replay(members, episode_generators(cfg.seed, subset_idx, episodes), n)
            if drawn is None:  # a word was rejected: draw the block as numpy does
                generators = episode_generators(cfg.seed, subset_idx, episodes)
                drawn = pool.draw(members, [np.random.Generator(g) for g in generators], n)
            picked, positions = drawn
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
