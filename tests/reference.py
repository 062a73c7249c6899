"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written the slow, obvious way:
explicit loops, no vectorization, no shared code with ``src/openset``
beyond the record types a referee returns.
A test that compares the package against one of these oracles is checking
two separately derived implementations against each other. The
exceptions are referees of orchestration, not of arithmetic:
``validation_loss_per_batch`` runs the package's encoders, sampler and
losses in the order the validation round used before it embedded each row
once, and ``evaluate_per_episode`` runs the package's episode draws with
the one-block κ-NN (``knn_classify_one_block``) that voted each episode on
its own before evaluation voted a block of episodes at once. So are the
whole-file OSF1 writer and reader (``write_features_whole``,
``read_features_whole``), which hold every record at once where the package
streams them one chunk at a time.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np

from openset import episodic
from openset.data import ActionLabel, ClassEntry, ClassTable, Dataset
from openset.errors import ConfigError, DegenerateInputError, FormatError, SamplingError
from openset.losses import je_loss, make_dml, we_loss
from openset.model import METHOD_VE, METHOD_WE


def check_gradient(f, point: np.ndarray, h: float = 1e-5) -> float:
    """Compare an analytic gradient against central finite differences.

    `f` maps a 1-D point to (scalar value, gradient vector). Returns the
    maximum over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    point = np.asarray(point, dtype=np.float64)
    _, grad = f(point)
    grad = np.asarray(grad, dtype=np.float64)
    worst = 0.0
    for i in range(point.size):
        bumped = point.copy()
        bumped[i] += h
        hi, _ = f(bumped)
        bumped[i] -= 2.0 * h
        lo, _ = f(bumped)
        numeric = (hi - lo) / (2.0 * h)
        err = abs(grad[i] - numeric) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst


def naive_affine(inp: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Triple-loop inp @ weights + bias."""
    n, d_in = inp.shape
    d_out = weights.shape[1]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = bias[j]
            for p in range(d_in):
                acc += inp[i, p] * weights[p, j]
            out[i, j] = acc
    return out


def histogram_loss_naive(
    embeddings: np.ndarray,
    class_ids: np.ndarray,
    bins: int = 100,
) -> float:
    """Pair-by-pair histogram overlap loss.

    Walks every ordered pair once, assigns each similarity to its two
    neighbouring nodes with triangular weights, then integrates the
    positive CDF against the negative density.
    """
    n = len(class_ids)
    delta = 2.0 / (bins - 1)
    nodes = [-1.0 + r * delta for r in range(bins)]
    h_pos = [0.0] * bins
    h_neg = [0.0] * bins
    n_pos = 0
    n_neg = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = float(np.dot(embeddings[i], embeddings[j]))
            s = min(1.0, max(-1.0, s))
            # locate the node interval containing s
            left = int(math.floor((s + 1.0) / delta))
            left = min(max(left, 0), bins - 2)
            w_right = (s - nodes[left]) / delta
            w_left = 1.0 - w_right
            if class_ids[i] == class_ids[j]:
                h_pos[left] += w_left
                h_pos[left + 1] += w_right
                n_pos += 1
            else:
                h_neg[left] += w_left
                h_neg[left + 1] += w_right
                n_neg += 1
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative pair")
    loss = 0.0
    cum_pos = 0.0
    for r in range(bins):
        cum_pos += h_pos[r] / n_pos
        loss += (h_neg[r] / n_neg) * cum_pos
    return loss


def multisim_loss_naive(
    embeddings: np.ndarray,
    class_ids: np.ndarray,
    *,
    alpha: float,
    beta: float,
    base: float,
    margin: float,
) -> float:
    """Per-anchor mined multi-similarity loss, scalar loops only. The
    hyperparameters have no defaults, so every caller states the
    configuration it checks."""
    n = len(class_ids)
    total = 0.0
    for i in range(n):
        pos = []
        neg = []
        for j in range(n):
            if j == i:
                continue
            s = float(np.dot(embeddings[i], embeddings[j]))
            if class_ids[j] == class_ids[i]:
                pos.append(s)
            else:
                neg.append(s)
        if pos and neg:
            min_pos = min(pos)
            max_neg = max(neg)
            pos = [s for s in pos if s < max_neg + margin]
            neg = [s for s in neg if s > min_pos - margin]
        if pos:
            acc = sum(math.exp(-alpha * (s - base)) for s in pos)
            total += math.log(1.0 + acc) / alpha
        if neg:
            acc = sum(math.exp(beta * (s - base)) for s in neg)
            total += math.log(1.0 + acc) / beta
    return total / n


def _log1p_sum_exp(xs: np.ndarray) -> float:
    """Stable log(1 + sum(exp(xs))) of one 1-D array; 0 for an empty one."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return 0.0
    m = max(float(xs.max()), 0.0)
    return m + float(np.log(np.exp(-m) + np.exp(xs - m).sum()))


def log1p_sum_exp_rows(xs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Row-wise stable log(1 + sum(exp(xs[i, keep[i]]))), each row's kept
    entries summed by one 1-D `.sum()` of their compacted run. This is the
    bit-exact referee of numcore.log1p_sum_exp's grouped row sums."""
    m = np.maximum(np.where(keep, xs, -np.inf).max(axis=1, initial=-np.inf), 0.0)
    kept = np.exp((xs - m[:, None])[keep])
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    sums = np.array([kept[start:end].sum() for start, end in zip([0] + ends, ends)])
    return m + np.log(np.exp(-m) + sums)


def multisim_loss_loop(e, class_ids, cfg) -> tuple[float, np.ndarray]:
    """The multi-similarity loss and its gradient, mined and weighted one
    anchor at a time. This is the bit-exact referee of the vectorized
    kernel: its floating-point operations, and their order, define the
    bits the package must reproduce."""
    n = len(e)
    sims = e @ e.T
    same = class_ids[:, None] == class_ids[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos_mask, neg_mask = same & off_diag, (~same) & off_diag

    total = 0.0
    w = np.zeros((n, n))
    for i in range(n):
        pos_idx = np.flatnonzero(pos_mask[i])
        neg_idx = np.flatnonzero(neg_mask[i])

        mined_pos = pos_idx
        mined_neg = neg_idx
        if pos_idx.size and neg_idx.size:
            neg_thresh = sims[i, pos_idx].min() - cfg.margin
            mined_neg = neg_idx[sims[i, neg_idx] > neg_thresh]
            pos_thresh = sims[i, neg_idx].max() + cfg.margin
            mined_pos = pos_idx[sims[i, pos_idx] < pos_thresh]

        if pos_idx.size and mined_pos.size:
            x = -cfg.alpha * (sims[i, mined_pos] - cfg.base)
            lse = _log1p_sum_exp(x)
            total += lse / cfg.alpha
            w[i, mined_pos] -= np.exp(x - lse)
        if neg_idx.size and mined_neg.size:
            x = cfg.beta * (sims[i, mined_neg] - cfg.base)
            lse = _log1p_sum_exp(x)
            total += lse / cfg.beta
            w[i, mined_neg] += np.exp(x - lse)

    loss = total / n
    grads = (w + w.T) @ e / n
    return loss, grads


def knn_oracle(
    support_embeddings: np.ndarray,
    support_classes: np.ndarray,
    query: np.ndarray,
    kappa: int,
) -> int:
    """Exhaustive-sort nearest-neighbour vote with explicit tie rules.

    Neighbour ties at equal similarity go to the smaller class id;
    vote ties go first to the larger summed similarity, then to the
    smaller class id.
    """
    sims = [float(np.dot(support_embeddings[i], query)) for i in range(len(support_classes))]
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], support_classes[i]))
    top = order[:kappa]
    votes: dict[int, int] = {}
    sim_sums: dict[int, float] = {}
    for i in top:
        c = int(support_classes[i])
        votes[c] = votes.get(c, 0) + 1
        sim_sums[c] = sim_sums.get(c, 0.0) + sims[i]
    best = None
    for c in votes:
        key = (votes[c], sim_sums[c], -c)
        if best is None or key > best[0]:
            best = (key, c)
    return best[1]


def venn_oracle(sets: list[set]) -> dict[tuple[int, ...], int]:
    """Exclusive region sizes for an arbitrary family of sets.

    For every non-empty subset of indices, counts elements that belong
    to exactly those sets and no others, by direct set arithmetic.
    """
    regions: dict[tuple[int, ...], int] = {}
    idx = range(len(sets))
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(idx, r):
            inside = set.intersection(*(sets[i] for i in combo)) if combo else set()
            for i in idx:
                if i not in combo:
                    inside = inside - sets[i]
            regions[combo] = len(inside)
    return regions


def split_reference(
    pairs: list[tuple[int, int, int]],
    *,
    v_lower: float,
    v_upper: float,
    n_lower: float,
    n_upper: float,
    p_verbs: int,
    p_nouns: int,
    p_verbs_test: float,
    p_nouns_test: float,
    seed: int,
) -> dict:
    """Step-by-step disjoint-class split over (class_id, verb, noun) rows.

    Mirrors the published procedure directly: context counts from the
    class list, eligibility filtering, uniform draws from the sorted
    eligible pools, ceil-rounded test share taken from the front of the
    draw, then class assignment with test taking precedence.
    """
    verbs_ctx: dict[int, set] = {}
    nouns_ctx: dict[int, set] = {}
    for _, v, n in pairs:
        verbs_ctx.setdefault(v, set()).add(n)
        nouns_ctx.setdefault(n, set()).add(v)

    rng = np.random.default_rng(seed)

    def draw(ctx: dict[int, set], lower: float, upper: float, count: int, frac: float):
        pool = sorted(x for x, peers in ctx.items() if lower <= len(peers) <= upper)
        if count == 0:
            return set(), set()
        if len(pool) < count:
            raise ValueError("not enough eligible items")
        chosen = rng.choice(np.array(pool), size=count, replace=False)
        n_test = math.ceil(count * frac)
        return set(int(x) for x in chosen[:n_test]), set(int(x) for x in chosen[n_test:])

    v_test, v_val = draw(verbs_ctx, v_lower, v_upper, p_verbs, p_verbs_test)
    n_test, n_val = draw(nouns_ctx, n_lower, n_upper, p_nouns, p_nouns_test)

    train, val, test = set(), set(), set()
    category: dict[int, str] = {}
    held_verbs = v_test | v_val
    held_nouns = n_test | n_val
    for cid, v, n in pairs:
        if v in v_test or n in n_test:
            test.add(cid)
        elif v in held_verbs or n in held_nouns:
            val.add(cid)
        else:
            train.add(cid)
            continue
        # category reflects every held side, not just the subset that won
        held_v = v in held_verbs
        held_n = n in held_nouns
        if held_v and held_n:
            category[cid] = "HoVN"
        elif held_v:
            category[cid] = "HoV"
        else:
            category[cid] = "HoN"
    return {
        "train": train,
        "validation": val,
        "test": test,
        "category": category,
        "held_out_verbs_val": v_val,
        "held_out_verbs_test": v_test,
        "held_out_nouns_val": n_val,
        "held_out_nouns_test": n_test,
    }


def pooled_accuracy(correct_per_episode: list[int], queries_per_episode: list[int]) -> float:
    """Micro-averaged accuracy over a subset's episodes."""
    return sum(correct_per_episode) / sum(queries_per_episode)


def synth_generate_loop(cfg) -> Dataset:
    """The synthetic generator with one pair of normal draws, one gemv and one
    row store per instance. This is the bit-exact referee of
    data.synth_generate: its draw order and its per-instance matrix-vector
    products define the bits every feature must have."""
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
    lo, hi = cfg.instances_per_class
    features = np.empty((n_classes * hi, cfg.frames, cfg.input_dim))
    counts = []
    row = 0
    for class_id, (v, n) in enumerate(chosen):
        context = np.concatenate([verb_latent[v], noun_latent[n]])
        label = m_label @ context
        label_embeddings[class_id] = label / float(np.linalg.norm(label))
        count = int(rng.integers(lo, hi, endpoint=True))
        counts.append(count)
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
            features[row] = m_video @ (context + delta) + frame_noise
            row += 1

    return Dataset(
        classes=ClassTable(entries),
        instance_ids=np.arange(row),
        class_ids=np.repeat(np.arange(n_classes), counts),
        features=features[:row],
        label_embeddings=label_embeddings,
    )


def _osf_record(frames: int, input_dim: int) -> np.dtype:
    return np.dtype([("ids", "<u4", (2,)), ("features", "<f4", (frames * input_dim,))])


def write_features_whole(path: str, instance_ids, class_ids, features) -> None:
    """data.write_features before it streamed: every OSF1 record built in one
    structured array, checked for non-finite rows, then written at once.
    The referee of the chunked writer's bytes and messages."""
    ids, cids = np.asarray(instance_ids), np.asarray(class_ids)
    features = np.asarray(features)
    n, frames, input_dim = features.shape
    records = np.empty(n, dtype=_osf_record(frames, input_dim))
    records["ids"][:, 0] = ids
    records["ids"][:, 1] = cids
    with np.errstate(over="ignore"):
        records["features"] = features.reshape(n, frames * input_dim)
    finite = np.isfinite(records["features"]).all(axis=1)
    if not finite.all():
        raise FormatError(
            f"write_features: instance {ids[np.argmin(finite)]} has non-finite features")
    with open(path, "wb") as fh:
        fh.write(b"OSF1" + struct.pack("<4I", 1, n, frames, input_dim))
        fh.write(records.tobytes())


def read_features_whole(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """data.read_features before it streamed: the file read whole, its
    records viewed in place, checked, and converted at once. The referee
    of the chunked reader's arrays and messages."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"OSF1":
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated at byte 4, need 16 more")
    _, n, frames, input_dim = struct.unpack_from("<4I", blob, 4)
    size = n * (8 + frames * input_dim * 4)
    if 20 + size > len(blob):
        raise FormatError(f"{path}: truncated at byte 20, need {size} more")
    if 20 + size < len(blob):
        raise FormatError(f"{path}: {len(blob) - 20 - size} trailing bytes")
    records = np.frombuffer(blob, dtype=_osf_record(frames, input_dim), count=n, offset=20)
    finite = np.isfinite(records["features"]).all(axis=1)
    if not finite.all():
        bad = records["ids"][np.argmin(finite), 0]
        raise FormatError(f"{path}: instance {bad} has non-finite features")
    return (
        records["ids"][:, 0].astype(np.int64),
        records["ids"][:, 1].astype(np.int64),
        records["features"].reshape(n, frames, input_dim).astype(np.float64),
    )


def validation_loss_per_batch(model, dataset: Dataset, val_classes, cfg, round_idx: int) -> float:
    """One validation round that embeds every batch on its own: draw a batch,
    embed its rows (and, for JE, project its classes' labels), take the
    method objective, and average over the batches that are not degenerate.
    This is the bit-exact referee of trainer._validation_loss, which embeds
    each validation row once and gathers the batches from those rows."""
    rng = np.random.default_rng([cfg.seed, 1, round_idx])
    dml = make_dml(cfg.dml, cfg.histogram, cfg.multisim)
    total = 0.0
    counted = 0
    for _ in range(cfg.val_batches):
        picked, rows = episodic.sample_training_batch(
            dataset, val_classes, rng,
            n=cfg.batch_classes, k_max=cfg.batch_k_max, min_total=cfg.batch_min_total,
        )
        class_ids = dataset.class_ids[rows]
        try:
            video_emb, _ = model.embed_video_batch(dataset.features[rows])
            if cfg.method == METHOD_VE:
                loss, _ = dml(video_emb, class_ids)
            else:
                classes = np.array(sorted(picked), dtype=np.int64)
                raw_labels = np.stack([dataset.label_embeddings[c] for c in classes.tolist()])
                if cfg.method == METHOD_WE:
                    label_rows = raw_labels[np.searchsorted(classes, class_ids)]
                    loss, _ = we_loss(video_emb, class_ids, label_rows, cfg.lambda_we, dml)
                else:
                    label_emb, _ = model.embed_label_batch(raw_labels)
                    loss, _, _ = je_loss(video_emb, class_ids, label_emb, classes, dml)
        except DegenerateInputError:
            continue
        total += loss
        counted += 1
    if counted == 0:
        raise SamplingError("validation: every batch was degenerate")
    return total / counted


def knn_classify_one_block(
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

    The package's κ-NN before it voted a block of episodes at once, kept
    verbatim as the referee of episodic.knn_classify inside
    evaluate_per_episode.
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


def evaluate_per_episode(
    model, dataset: Dataset, split, cfg: episodic.EvalConfig
) -> episodic.EvalReport:
    """Pooled κ-NN accuracy (κ = k) over cfg.episodes per subset.

    Episode classes and queries are drawn from the subset alone; subsets with
    too few eligible classes are skipped with a warning instead of failing
    the whole run, unless every subset is (see eval_subsets). Each eligible
    class is embedded once per call, and every episode indexes those rows.
    FSG supports are video embeddings; the cross-modal task supports each
    class with its raw label embedding (WE trains into that space) or its
    projected one (JE). Deterministic in seed.

    The package's evaluate before it voted a block of episodes at once, kept
    verbatim as the bit-exact referee of episodic.evaluate: one κ-NN call
    per episode.
    """
    cross_modal = cfg.task == episodic.TASK_CMFSG
    report = episodic.EvalReport(cfg)
    k, n_support = cfg.k, cfg.n_support
    video: dict[int, np.ndarray] = {}
    labels: dict[int, np.ndarray] = {}
    subsets = episodic.eval_subsets(model.method, dataset, split, cfg)
    for subset_idx, (name, eligible) in enumerate(subsets):
        if len(eligible) < cfg.n:
            report.subsets[name] = episodic.SubsetResult(skipped=True)
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
        result = episodic.SubsetResult()
        for episode_idx in range(cfg.episodes):
            rng = np.random.default_rng([cfg.seed, subset_idx, episode_idx])
            picked, drawn = episodic.draw_episode(dataset, eligible, rng, cfg)
            if cross_modal:
                sup_emb = np.stack([labels[c] for c in picked])
            else:
                sup_emb = np.concatenate([video[c][i[:k]] for c, i in zip(picked, drawn)])
            query_emb = np.concatenate([video[c][i[n_support:]] for c, i in zip(picked, drawn)])
            true_cid = np.repeat(picked, [len(i) - n_support for i in drawn])
            pred = knn_classify_one_block(sup_emb, np.repeat(picked, k), query_emb, kappa=k)
            result.episodes += 1
            result.queries += len(true_cid)
            result.correct += int(np.count_nonzero(pred == true_cid))
        report.subsets[name] = result
    return report
