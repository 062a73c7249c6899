"""Episode sampling, κ-NN classification, and pooled-accuracy evaluation.

An episode is one open-set trial: n classes drawn from an evaluation subset,
a support set (k video instances per class, or one label embedding per class
for the cross-modal task), and up to m query instances per class. Queries
are classified by κ-NN over unit embeddings with κ = k, and accuracy is
pooled across episodes (total correct / total queries).

Evaluation subsets: All (every test class), HoV (held-out verb only), HoN
(held-out noun only); classes held out on both sides appear in All only.
Per-episode generators are derived from (seed, subset index, episode index),
so episodes are independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, MethodError, SamplingError, check_fields
from .model import METHOD_VE, METHOD_WE, EmbeddingModel
from .splits import CATEGORY_HON, CATEGORY_HOV, SplitResult

TASK_FSG = "FSG"
TASK_CMFSG = "CM-FSG"
TASKS = (TASK_FSG, TASK_CMFSG)

_RESAMPLE_LIMIT = 100


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


def sample_training_batch(
    dataset: Dataset,
    train_classes: list[int],
    rng: np.random.Generator,
    n: int,
    k_max: int,
    min_total: int,
) -> tuple[list[int], np.ndarray]:
    """n distinct classes with up to k_max instances each, at least min_total
    instances in total; whole draws failing the total are resampled.

    Returns the picked classes and the dataset rows of the batch, both in
    draw order (each class's rows follow the class's place in picked)."""
    pool = sorted(train_classes)
    if len(pool) < n:
        raise ConfigError(f"batch sampling: need {n} classes, have {len(pool)}")
    for _ in range(_RESAMPLE_LIMIT):
        picked = [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        rows = []
        for cid in picked:
            avail = dataset.class_rows[cid]
            take = min(k_max, len(avail))
            rows.append(avail[rng.choice(len(avail), size=take, replace=False)])
        rows = np.concatenate(rows)
        if len(rows) >= min_total:
            return picked, rows
    raise SamplingError(
        f"batch sampling: {_RESAMPLE_LIMIT} draws below {min_total} total instances"
    )


def eligible_episode_classes(dataset: Dataset, classes: set[int], cfg: EvalConfig) -> list[int]:
    """Classes with enough instances for one episode: the supports plus at
    least one query."""
    need = cfg.n_support + 1
    return [cid for cid in sorted(classes) if len(dataset.class_rows.get(cid, ())) >= need]


def draw_episode(
    dataset: Dataset, eligible: list[int], rng: np.random.Generator, cfg: EvalConfig
) -> tuple[list[int], list[np.ndarray]]:
    """Draw one episode from at least n eligible classes: its n classes and,
    per class, the drawn positions into class_rows. FSG positions hold k
    supports, then the queries, disjoint instances of the same class; the
    cross-modal task supports each class with its label embedding, so every
    position is a query. Each class gets up to m queries."""
    picked = [eligible[i] for i in rng.choice(len(eligible), size=cfg.n, replace=False)]
    n_support, m = cfg.n_support, cfg.m
    sizes = [len(dataset.class_rows[cid]) for cid in picked]
    return picked, [rng.choice(s, n_support + min(m, s - n_support), replace=False) for s in sizes]


def knn_classify(
    support_embeddings: np.ndarray,
    support_classes: np.ndarray,
    query_embedding: np.ndarray,
    kappa: int,
) -> int | np.ndarray:
    """Predict the majority class of the kappa most similar support items.

    A (Q, D) block of queries gives an int64 array of Q predictions; one
    1-D query gives an int. Deterministic and order-free: neighbor ties
    broken by smaller class_id, vote ties by larger summed similarity then
    smaller class_id.
    """
    support_embeddings = np.asarray(support_embeddings, dtype=np.float64)
    support_classes = np.asarray(support_classes, dtype=np.int64)
    if support_embeddings.ndim != 2 or support_embeddings.shape[0] == 0:
        raise ConfigError("knn: support must be a nonempty 2-D array")
    if not (1 <= kappa <= support_embeddings.shape[0]):
        raise ConfigError(f"knn: kappa {kappa} out of range 1..{support_embeddings.shape[0]}")
    queries = np.asarray(query_embedding, dtype=np.float64)
    sims = np.atleast_2d(queries) @ support_embeddings.T
    order = np.lexsort((np.broadcast_to(support_classes, sims.shape), -sims), axis=-1)
    classes, slot = np.unique(support_classes, return_inverse=True)
    rows = np.arange(sims.shape[0])
    votes = np.zeros((sims.shape[0], len(classes)), dtype=np.int64)
    sum_sim = np.zeros(votes.shape)
    # one rank at a time, so each class's similarities add in top-kappa order
    for col in order[:, :kappa].T:
        votes[rows, slot[col]] += 1
        sum_sim[rows, slot[col]] += sims[rows, col]
    best = votes == votes.max(axis=1, keepdims=True)
    sum_sim[~best] = -np.inf
    best &= sum_sim == sum_sim.max(axis=1, keepdims=True)
    pred = classes[np.argmax(best, axis=1)]
    return int(pred[0]) if queries.ndim == 1 else pred


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


def _episode_subsets(split: SplitResult) -> list[tuple[str, set[int]]]:
    """The evaluation subsets, in report order."""
    return [
        ("All", set(split.test)),
        ("HoV", split.classes_in_category(split.test, CATEGORY_HOV)),
        ("HoN", split.classes_in_category(split.test, CATEGORY_HON)),
    ]


def evaluate(
    model: EmbeddingModel, dataset: Dataset, split: SplitResult, cfg: EvalConfig
) -> EvalReport:
    """Pooled κ-NN accuracy (κ = k) over cfg.episodes per subset.

    Episode classes and queries are drawn from the subset alone; subsets with
    too few eligible classes are skipped with a warning instead of failing
    the whole run. Each eligible class is embedded once per call, and every
    episode indexes those rows. FSG supports are video embeddings; the
    cross-modal task supports each class with its raw label embedding (WE
    trains into that space) or its projected one (JE). Deterministic in seed.
    """
    cross_modal = cfg.task == TASK_CMFSG
    if cross_modal and model.method == METHOD_VE:
        raise MethodError("VE has no label-embedding path; cannot run CM-FSG")
    report = EvalReport(cfg)
    k, n_support = cfg.k, cfg.n_support
    video: dict[int, np.ndarray] = {}
    labels: dict[int, np.ndarray] = {}
    for subset_idx, (name, classes) in enumerate(_episode_subsets(split)):
        eligible = eligible_episode_classes(dataset, classes, cfg)
        if len(eligible) < cfg.n:
            report.subsets[name] = SubsetResult(skipped=True)
            report.warnings.append(
                f"subset {name}: {len(eligible)} eligible classes < n={cfg.n}; skipped"
            )
            continue
        for cid in sorted(set(eligible) - video.keys()):
            video[cid], _ = model.embed_video_batch(dataset.features[dataset.class_rows[cid]])
            if cross_modal:
                label = dataset.label_embeddings[cid]
                labels[cid] = (label if model.method == METHOD_WE
                               else model.embed_label_batch(label[None])[0][0])
        result = SubsetResult()
        for episode_idx in range(cfg.episodes):
            rng = np.random.default_rng([cfg.seed, subset_idx, episode_idx])
            picked, drawn = draw_episode(dataset, eligible, rng, cfg)
            if cross_modal:
                sup_emb = np.stack([labels[c] for c in picked])
            else:
                sup_emb = np.concatenate([video[c][i[:k]] for c, i in zip(picked, drawn)])
            query_emb = np.concatenate([video[c][i[n_support:]] for c, i in zip(picked, drawn)])
            true_cid = np.repeat(picked, [len(i) - n_support for i in drawn])
            pred = knn_classify(sup_emb, np.repeat(picked, k), query_emb, kappa=k)
            result.episodes += 1
            result.queries += len(true_cid)
            result.correct += int(np.count_nonzero(pred == true_cid))
        report.subsets[name] = result
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
