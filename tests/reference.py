"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written the slow, obvious way:
explicit loops, no vectorization, no shared code with ``src/openset``
beyond the record types a referee returns.
A test that compares the package against one of these oracles is checking
two separately derived implementations against each other. The
exceptions are referees of orchestration, not of arithmetic:
``validation_loss_per_batch`` runs the package's encoders and losses in the
order the validation round used before it embedded each row once, and
``evaluate_per_episode`` votes each episode with the one-block κ-NN
(``knn_classify_one_block``) that voted each episode on its own before
evaluation voted a block of episodes at once. Both draw one batch or episode
at a time through the scalar sampler (``counter_key`` and ``counter_draw``:
SplitMix64 in Python ints, then ``sorted``), where the package draws a block
in uint64 arrays. So are the
whole-file OSF1 writer and reader (``write_features_whole``,
``read_features_whole``), which hold every record at once where the package
streams them one chunk at a time. And so is ``adam_step_per_block``, the
Adam update one block at a time, with its own moments per block, that the
package ran before it stepped one flat parameter vector. ``video_encoder_plain``
and ``label_projector_plain`` are the encoders' plain numpy expressions, the
arithmetic the package ran before it computed each frame-sized array in
place; a test asks for every output and gradient byte to match them.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from openset import episodic
from openset.data import ClassEntry, ClassTable, Dataset
from openset.errors import (
    ConfigError, DegenerateInputError, FormatError, NumericError, SamplingError
)
from openset.losses import je_loss, make_dml, we_loss
from openset.model import METHOD_VE, METHOD_WE

RESAMPLE_LIMIT = 100  # whole batch draws before sample_training_batch_sorted gives up


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
    bit-exact referee of numcore.log1p_sum_exp's zero-led reduceat sums."""
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
            verb_id=v,
            noun_id=n,
            verb_text=f"verb{v:02d}",
            noun_text=f"noun{n:02d}",
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
    records viewed in place, checked, and copied out at once, the features
    at the file's float32. The referee of the chunked reader's arrays and
    messages."""
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
        records["features"].reshape(n, frames, input_dim).astype(np.float32),
    )


def splitmix64(state: int, slot: int) -> int:
    """Word number slot (from 0) of the SplitMix64 stream from state: its
    finaliser of state + (slot + 1)·gamma, all mod 2^64."""
    z = (state + (slot + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def counter_key(seed: int, *path: int) -> int:
    """The key of a draw's counter (seed, *path): the seed's count of 64-bit
    words, its words from the least significant, then each path index, each
    folded into the key (from 0) as word 0 of the stream from key xor it."""
    words = [seed >> shift & (2**64 - 1) for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = 0
    for word in [len(words), *words, *path]:
        key = splitmix64(key ^ word, 0)
    return key


def counter_draw(key: int, members: dict[int, list[int]], n: int,
                 takes: dict[int, int]) -> tuple[list[int], list[list[int]]]:
    """SplitMix64, then sorted: the draw under key from members, each class
    id with its dataset rows (ascending). Word c of key's stream ranks class
    c, and word 2^63 + i dataset row i; a rank is a word's top 32 bits, ties
    go to the lower slot. Returns the n lowest-ranked classes, in rank
    order, and for each its takes lowest-ranked rows as indices into its
    rows, in rank order."""
    ranked = sorted(members, key=lambda c: (splitmix64(key, c) >> 32, c))[:n]
    positions = []
    for c in ranked:
        rows = members[c]
        order = sorted(range(len(rows)), key=lambda r: (splitmix64(key, 2**63 + rows[r]) >> 32, r))
        positions.append(order[:takes[c]])
    return ranked, positions


def sample_training_batch_sorted(
    dataset: Dataset,
    train_classes: list[int],
    seed: int,
    path: tuple[int, ...],
    n: int,
    k_max: int,
    min_total: int,
) -> tuple[list[int], np.ndarray]:
    """The batch of counter (seed, *path): n distinct classes with up to k_max
    instances each, at least min_total instances in total, drawn by
    counter_draw under the key of (seed, *path, attempt) from attempt 0 until
    a draw reaches the total. The pool is the classes with instances, sorted.

    Returns the picked classes and the dataset rows of the batch, both in
    draw order (each class's rows follow the class's place in picked).
    The referee of episodic.sample_training_batch, one batch at a time.
    """
    members = {c: dataset.class_rows[c].tolist() for c in sorted(train_classes)
               if len(dataset.class_rows[c])}
    if len(members) < n:
        raise ConfigError(f"batch sampling: need {n} classes, have {len(members)}")
    takes = {c: min(k_max, len(rows)) for c, rows in members.items()}
    for attempt in range(RESAMPLE_LIMIT):
        picked, positions = counter_draw(counter_key(seed, *path, attempt), members, n, takes)
        if sum(takes[c] for c in picked) >= min_total:
            return picked, np.concatenate([dataset.class_rows[c][p]
                                           for c, p in zip(picked, positions)])
    raise SamplingError(
        f"batch sampling: {RESAMPLE_LIMIT} draws below {min_total} total instances"
    )


def validation_loss_per_batch(model, dataset: Dataset, val_classes, cfg, round_idx: int) -> float:
    """One validation round that embeds every batch on its own: draw a batch,
    embed its rows (and, for JE, project its classes' labels), take the
    method objective, and average over the batches that are not degenerate.
    This is the bit-exact referee of trainer._validation_loss, which embeds
    each validation row once and gathers the batches from those rows."""
    dml = make_dml(cfg.dml, cfg.histogram, cfg.multisim)
    total = 0.0
    counted = 0
    for batch in range(cfg.val_batches):
        picked, rows = sample_training_batch_sorted(
            dataset, val_classes, cfg.seed, (1, round_idx, batch),
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


def draw_episode_sorted(
    dataset: Dataset, eligible: list[int], key: int, cfg: episodic.EvalConfig
) -> tuple[list[int], list[np.ndarray]]:
    """Draw one episode under key from at least n eligible classes: its n
    classes and, per class, the drawn positions into class_rows, by
    counter_draw. FSG positions hold k supports, then the queries, disjoint
    instances of the same class; the cross-modal task supports each class
    with its label embedding, so every position is a query. Each class gets
    up to m queries. The referee of episodic.ClassPool.draw, one episode at
    a time.
    """
    members = {c: dataset.class_rows[c].tolist() for c in eligible}
    takes = {c: cfg.n_support + min(cfg.m, len(rows) - cfg.n_support)
             for c, rows in members.items()}
    picked, positions = counter_draw(key, members, cfg.n, takes)
    return picked, [np.array(p, dtype=np.int64) for p in positions]


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

    The package's evaluate before it voted a block of episodes at once, as
    the bit-exact referee of episodic.evaluate: one draw (draw_episode_sorted
    under the key of (seed, subset index, episode index)) and one κ-NN call
    per episode.
    """
    cross_modal = cfg.task == episodic.TASK_CMFSG
    report = episodic.EvalReport(cfg)
    k, n_support = cfg.k, cfg.n_support
    video: dict[int, np.ndarray] = {}
    labels: dict[int, np.ndarray] = {}
    pool, subsets = episodic.eval_subsets(model.config, dataset, split, cfg)
    for subset_idx, (name, members) in enumerate(subsets):
        eligible = pool.classes[members].tolist()
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
            key = counter_key(cfg.seed, subset_idx, episode_idx)
            picked, drawn = draw_episode_sorted(dataset, eligible, key, cfg)
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


@dataclass
class BlockAdamState:
    """Adam moment estimates for one ParamBlock; moments start at zero."""

    m_weights: np.ndarray
    v_weights: np.ndarray
    m_bias: np.ndarray
    v_bias: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_block(cls, block) -> "BlockAdamState":
        return cls(
            m_weights=np.zeros_like(block.weights),
            v_weights=np.zeros_like(block.weights),
            m_bias=np.zeros_like(block.bias),
            v_bias=np.zeros_like(block.bias),
        )


def adam_step_per_block(params, state: BlockAdamState, lr: float) -> None:
    """One Adam update with bias correction; zeroes the gradients afterwards.

    Mutates `params` and `state` in place; not safe for concurrent writers.
    """
    if not (np.all(np.isfinite(params.grad_weights)) and np.all(np.isfinite(params.grad_bias))):
        raise NumericError(f"adam_step: non-finite gradient in {params.name}")
    t = state.step_count + 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    for p, g, m, v in (
        (params.weights, params.grad_weights, state.m_weights, state.v_weights),
        (params.bias, params.grad_bias, state.m_bias, state.v_bias),
    ):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    state.step_count = t
    params.grad_weights.fill(0.0)
    params.grad_bias.fill(0.0)


def _l2_rows_plain(pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(pre, axis=1)
    return pre / norms[:, None], norms


def _l2_rows_backward_plain(unit, norms, grad_out) -> np.ndarray:
    inner = (unit * grad_out).sum(axis=1, keepdims=True)
    return (grad_out - unit * inner) / norms[:, None]


def video_encoder_plain(frame_w, frame_b, out_w, out_b, frames, grad_out):
    """The video encoder's forward and backward passes as the plain numpy
    expressions the package ran before it computed each frame-sized array in
    place: `inp @ W + b`, `np.mean`, `np.linalg.norm(axis=1)`, `np.repeat` and
    `g_act * (1.0 - act**2)`. Returns (unit rows, norms, [frame layer weight
    and bias gradients, output layer weight and bias gradients])."""
    frames = np.asarray(frames, dtype=np.float64)
    b, f, d_in = frames.shape
    flat = frames.reshape(b * f, d_in)
    act = np.tanh(flat @ frame_w + frame_b)
    pooled = act.reshape(b, f, frame_w.shape[1]).mean(axis=1)
    unit, norms = _l2_rows_plain(pooled @ out_w + out_b)
    g_pre = _l2_rows_backward_plain(unit, norms, grad_out)
    g_pooled = g_pre @ out_w.T
    g_act = np.repeat(g_pooled / f, f, axis=0)
    g_affine = g_act * (1.0 - act**2)
    grads = [np.zeros_like(a) for a in (frame_w, frame_b, out_w, out_b)]
    for g, add in zip(grads, (flat.T @ g_affine, g_affine.sum(axis=0),
                              pooled.T @ g_pre, g_pre.sum(axis=0))):
        g += add
    return unit, norms, grads


def label_projector_plain(weights, bias, labels, grad_out):
    """The label projector's forward and backward passes as plain numpy
    expressions: (unit rows, norms, [weight gradient, bias gradient])."""
    x = np.asarray(labels, dtype=np.float64)
    unit, norms = _l2_rows_plain(x @ weights + bias)
    g_pre = _l2_rows_backward_plain(unit, norms, grad_out)
    grads = [np.zeros_like(weights), np.zeros_like(bias)]
    grads[0] += x.T @ g_pre
    grads[1] += g_pre.sum(axis=0)
    return unit, norms, grads
