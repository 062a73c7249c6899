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

from .data import Dataset, Instance
from .errors import ConfigError, MethodError, SamplingError
from .model import METHOD_JE, METHOD_VE, METHOD_WE, EmbeddingModel
from .splits import CATEGORY_HON, CATEGORY_HOV, SplitResult

TASK_FSG = "FSG"
TASK_CMFSG = "CM-FSG"
TASKS = (TASK_FSG, TASK_CMFSG)

SUPPORT_VIDEO = "video"
SUPPORT_LABEL_RAW = "label_raw"
SUPPORT_LABEL_PROJECTED = "label_projected"

_SUBSET_ORDER = ("All", "HoV", "HoN")
_RESAMPLE_LIMIT = 100


@dataclass
class Episode:
    """support items are Instances (FSG) or label-embedding vectors (CM-FSG),
    each tagged with its class; queries are always (Instance, true class)."""

    task: str
    classes: list[int]
    support: list[tuple[object, int]]
    queries: list[tuple[Instance, int]]


def sample_training_batch(
    dataset: Dataset,
    train_classes: list[int],
    rng: np.random.Generator,
    n: int,
    k_max: int,
    min_total: int,
) -> dict[int, list[Instance]]:
    """n distinct classes with up to k_max instances each, at least min_total
    instances in total; whole draws failing the total are resampled."""
    pool = sorted(train_classes)
    if len(pool) < n:
        raise ConfigError(f"batch sampling: need {n} classes, have {len(pool)}")
    for _ in range(_RESAMPLE_LIMIT):
        picked = [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        batch: dict[int, list[Instance]] = {}
        total = 0
        for cid in picked:
            avail = dataset.instances_by_class[cid]
            take = min(k_max, len(avail))
            idx = rng.choice(len(avail), size=take, replace=False)
            batch[cid] = [avail[i] for i in idx]
            total += take
        if total >= min_total:
            return batch
    raise SamplingError(
        f"batch sampling: {_RESAMPLE_LIMIT} draws below {min_total} total instances"
    )


def eligible_episode_classes(
    dataset: Dataset, classes: set[int], task: str, k: int
) -> list[int]:
    """Classes with enough instances for one episode: k supports plus at
    least one query (FSG), or at least one query (CM-FSG)."""
    need = k + 1 if task == TASK_FSG else 1
    return [
        cid
        for cid in sorted(classes)
        if len(dataset.instances_by_class.get(cid, [])) >= need
    ]


def sample_episode(
    dataset: Dataset,
    eval_classes: set[int],
    task: str,
    rng: np.random.Generator,
    n: int,
    k: int,
    m: int,
) -> Episode:
    """Draw one episode. FSG supports and queries are disjoint instances of
    the same class; the cross-modal task supports each class with its single
    label embedding (k must be 1)."""
    picked, drawn = _draw_episode(dataset, eval_classes, task, rng, n, k, m)
    support: list[tuple[object, int]] = []
    queries: list[tuple[Instance, int]] = []
    for cid, idx in zip(picked, drawn):
        avail = dataset.instances_by_class[cid]
        if task == TASK_FSG:
            support.extend((avail[i], cid) for i in idx[:k])
            idx = idx[k:]
        else:
            support.append((dataset.label_embeddings[cid], cid))
        queries.extend((avail[i], cid) for i in idx)
    return Episode(task=task, classes=picked, support=support, queries=queries)


def _draw_episode(
    dataset: Dataset, eval_classes: set[int], task: str, rng: np.random.Generator,
    n: int, k: int, m: int,
) -> tuple[list[int], list[np.ndarray]]:
    """The episode's classes and, per class, the drawn positions into
    instances_by_class: FSG supports first (k of them), then queries."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    if n < 1 or k < 1 or m < 1:
        raise ConfigError("episode: n, k, m must be positive")
    if task == TASK_CMFSG and k != 1:
        raise MethodError("cross-modal episodes provide one label per class; k must be 1")
    eligible = eligible_episode_classes(dataset, eval_classes, task, k)
    if len(eligible) < n:
        raise SamplingError(f"episode: need {n} eligible classes, have {len(eligible)}")
    picked = [eligible[i] for i in rng.choice(len(eligible), size=n, replace=False)]
    n_support = k if task == TASK_FSG else 0
    sizes = [len(dataset.instances_by_class[cid]) for cid in picked]
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
    task: str
    n: int
    k: int
    m: int
    n_episodes: int
    seed: int
    support_mode: str
    subsets: dict[str, SubsetResult] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def support_mode_for(model: EmbeddingModel, task: str) -> str:
    """How support items are embedded: video encoder for FSG; for the
    cross-modal task, raw label embeddings (WE trains into that space) or
    the label projector (JE). VE has no label path at all."""
    if task == TASK_FSG:
        return SUPPORT_VIDEO
    if task == TASK_CMFSG:
        if model.method == METHOD_WE:
            return SUPPORT_LABEL_RAW
        if model.method == METHOD_JE:
            return SUPPORT_LABEL_PROJECTED
        if model.method == METHOD_VE:
            raise MethodError("VE has no label-embedding path; cannot run CM-FSG")
    raise ConfigError(f"unknown task {task!r}")


def _episode_subsets(split: SplitResult) -> list[tuple[str, set[int]]]:
    return [
        ("All", set(split.test)),
        ("HoV", split.classes_in_category(split.test, CATEGORY_HOV)),
        ("HoN", split.classes_in_category(split.test, CATEGORY_HON)),
    ]


def evaluate(
    model: EmbeddingModel,
    dataset: Dataset,
    split: SplitResult,
    task: str,
    n: int,
    k: int,
    m: int,
    n_episodes: int,
    seed: int,
) -> EvalReport:
    """Pooled κ-NN accuracy (κ = k) over n_episodes per subset.

    Episode classes and queries are drawn from the subset alone; subsets with
    too few eligible classes are skipped with a warning instead of failing
    the whole run. Each eligible class is embedded once per call, and every
    episode indexes those rows. Deterministic in seed.
    """
    support_mode = support_mode_for(model, task)
    if n_episodes < 1:
        raise ConfigError("evaluate: n_episodes must be positive")
    report = EvalReport(task=task, n=n, k=k, m=m, n_episodes=n_episodes, seed=seed,
                        support_mode=support_mode)
    n_support = k if support_mode == SUPPORT_VIDEO else 0
    video: dict[int, np.ndarray] = {}
    labels: dict[int, np.ndarray] = {}
    for subset_idx, (name, classes) in enumerate(_episode_subsets(split)):
        eligible = eligible_episode_classes(dataset, classes, task, k)
        if len(eligible) < n:
            report.subsets[name] = SubsetResult(skipped=True)
            report.warnings.append(
                f"subset {name}: {len(eligible)} eligible classes < n={n}; skipped"
            )
            continue
        for cid in sorted(set(eligible) - video.keys()):
            frames = np.stack([inst.features for inst in dataset.instances_by_class[cid]])
            video[cid], _ = model.embed_video_batch(frames)
            if support_mode == SUPPORT_LABEL_RAW:
                labels[cid] = dataset.label_embeddings[cid]
            elif support_mode == SUPPORT_LABEL_PROJECTED:
                labels[cid] = model.embed_label_batch(dataset.label_embeddings[cid][None])[0][0]
        result = SubsetResult()
        for episode_idx in range(n_episodes):
            rng = np.random.default_rng([seed, subset_idx, episode_idx])
            picked, drawn = _draw_episode(dataset, classes, task, rng, n, k, m)
            if support_mode == SUPPORT_VIDEO:
                sup_emb = np.concatenate([video[c][i[:k]] for c, i in zip(picked, drawn)])
            else:
                sup_emb = np.stack([labels[c] for c in picked])
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
    """One CSV row per non-skipped subset; skipped subsets appear only in
    the warnings, which are written as comment lines."""
    lines = [EVAL_HEADER]
    for warning in report.warnings:
        lines.append(f"# {warning}")
    for name in _SUBSET_ORDER:
        res = report.subsets.get(name)
        if res is None or res.skipped:
            continue
        lines.append(
            f"{report.task},{name},{report.n},{report.k},{report.m},"
            f"{res.episodes},{res.queries},{res.correct},{res.accuracy!r},{report.seed}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
