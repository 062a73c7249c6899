"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written the slow, obvious way:
explicit loops, no vectorization, no shared code with ``src/openset``
beyond the record types a referee returns.
A test that compares the package against one of these oracles is checking
two separately derived implementations against each other.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from openset.data import ActionLabel, ClassEntry, ClassTable, Dataset


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
