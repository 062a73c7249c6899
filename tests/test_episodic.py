"""Tests for episode sampling, κ-NN classification, and pooled evaluation."""

import hashlib
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from openset import cli, data, episodic, model, splits
from openset.errors import ConfigError, MethodError, SamplingError

import reference
from test_cli import SYNTH_FLAGS


def tiny_dataset(counts, frames=2, dim=4, label_dim=6, seed=0, noise=1.0):
    """Dataset with the given per-class instance counts.

    noise=0 makes every instance of a class identical (and distinct across
    classes), which turns content-equality into a perfect class signal.
    """
    rng = np.random.default_rng(seed)
    entries, class_ids, features, labels = {}, [], [], {}
    for cid, cnt in sorted(counts.items()):
        entries[cid] = data.ClassEntry(cid, cid, cid, f"v{cid:02d}", f"n{cid:02d}", cnt)
        base = rng.normal(size=(frames, dim))
        for _ in range(cnt):
            features.append(base + noise * rng.normal(size=(frames, dim)))
            class_ids.append(cid)
        vec = rng.normal(size=label_dim)
        labels[cid] = vec / np.linalg.norm(vec)
    return data.Dataset(
        classes=data.ClassTable(entries=entries),
        instance_ids=np.arange(len(class_ids)),
        class_ids=class_ids,
        features=np.array(features).reshape(len(class_ids), frames, dim),
        label_embeddings=labels,
    )


def episode_rows(ds, task, k, picked, drawn):
    """A drawn episode as dataset rows: (support, queries), each a list of
    (row, class). FSG takes the first k positions per class as supports;
    cross-modal supports are label embeddings, so it has no support rows."""
    n_support = k if task == "FSG" else 0
    support, queries = [], []
    for cid, idx in zip(picked, drawn):
        rows = ds.class_rows[cid][idx]
        support += [(int(r), cid) for r in rows[:n_support]]
        queries += [(int(r), cid) for r in rows[n_support:]]
    return support, queries


def draw(ds, classes, key, **protocol):
    """One episode over classes under the EvalConfig built from protocol,
    drawn under key (see reference.counter_key) from their pool (which keeps
    the eligible ones) and resolved into each picked class's positions into
    its class_rows, as evaluate draws and resolves it."""
    cfg = episodic.EvalConfig(**protocol)
    pool = episodic.ClassPool(ds, classes, cfg.m, cfg.n_support)
    [picked], positions = pool.draw(np.arange(len(pool.classes)), cfg.n,
                                    np.array([key], np.uint64))
    takes = pool.takes[picked]
    positions = positions - np.repeat(pool.starts[picked], takes)
    return pool.classes[picked].tolist(), np.split(positions, np.cumsum(takes)[:-1])


def batches(ds, classes, seed, n, k_max, min_total, count):
    """The first count batches of seed's training stream, drawn by
    sample_training_batch over a pool of classes capped at k_max, as (picked
    classes, dataset rows) per batch."""
    pool = episodic.ClassPool(ds, classes, k_max)
    return [(pool.classes[picked].tolist(), pool.rows[positions])
            for picked, positions in episodic.sample_training_batch(
                pool, n, min_total, seed, 0, np.arange(count))]


def make_split(cids, category=None):
    """SplitResult with everything in test; category maps are optional."""
    return splits.SplitResult(
        subset=dict.fromkeys(cids, "test"),
        category=dict(category or {}),
    )


class HashEmbedModel:
    """Stub encoder: the embedding is a unit vector seeded by the raw
    feature bytes, so identical features embed identically and otherwise
    embeddings are independent of class."""

    method = "VE"

    def __init__(self, embed_dim=6, input_dim=4):
        self.embed_dim = embed_dim
        # evaluate checks the dataset's input dim against the model's
        self.config = model.ModelConfig(self.method, input_dim=input_dim)

    def embed_video_batch(self, frames):
        frames = np.asarray(frames, dtype=np.float64)
        out = np.empty((frames.shape[0], self.embed_dim))
        for i, stack in enumerate(frames):
            digest = hashlib.blake2b(stack.tobytes(), digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            v = rng.normal(size=self.embed_dim)
            out[i] = v / np.linalg.norm(v)
        return out, None


class CountingModel:
    """Wraps a model and counts how often each instance (keyed by its
    feature bytes) and each label vector passes through an embedding call."""

    def __init__(self, net):
        self.net = net
        self.config, self.method = net.config, net.method
        self.video = Counter()
        self.labels = Counter()

    def embed_video_batch(self, frames):
        self.video.update(stack.tobytes() for stack in np.asarray(frames))
        return self.net.embed_video_batch(frames)

    def embed_label_batch(self, vectors):
        self.labels.update(v.tobytes() for v in np.asarray(vectors))
        return self.net.embed_label_batch(vectors)


# episode counts around evaluate's block: one episode, a block short by one,
# a full block, one over, and two blocks and one more
BLOCK = episodic._VOTE_BLOCK
BLOCK_EDGES = pytest.mark.parametrize(
    "episodes", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1],
    ids=["1", "block-1", "block", "block+1", "2block+1"])

# the batch shape of the default TrainConfig
BATCH_SHAPE = dict(n=12, k_max=8, min_total=36)


class TestTrainingBatch:
    def test_full_batch_shape(self):
        ds = tiny_dataset({c: 10 for c in range(15)})
        [(picked, rows)] = batches(ds, list(range(15)), 0, **BATCH_SHAPE, count=1)
        assert len(picked) == 12
        assert all(count == 8 for count in Counter(ds.class_ids[rows]).values())
        # rows come in draw order: each picked class's rows, in turn
        assert ds.class_ids[rows].tolist() == np.repeat(picked, 8).tolist()

    def test_short_classes_capped(self):
        ds = tiny_dataset({c: 3 for c in range(12)})
        [(picked, rows)] = batches(ds, list(range(12)), 1, **BATCH_SHAPE, count=1)
        # 12 classes x 3 instances reaches the floor exactly
        assert len(rows) == 36

    def test_instances_unique_and_from_their_class(self):
        ds = tiny_dataset({c: 10 for c in range(15)})
        [(picked, rows)] = batches(ds, list(range(15)), 2, **BATCH_SHAPE, count=1)
        seen = set()
        assert set(ds.class_ids[rows]) <= set(picked)
        for row in rows:
            assert ds.class_ids[row] in picked
            assert ds.instance_ids[row] not in seen
            seen.add(ds.instance_ids[row])

    def test_undersized_total_exhausts_retries(self):
        ds = tiny_dataset({c: 2 for c in range(12)})
        with pytest.raises(SamplingError, match="100 draws"):
            batches(ds, list(range(12)), 3, **BATCH_SHAPE, count=1)

    def test_too_few_classes_rejected(self):
        ds = tiny_dataset({c: 10 for c in range(5)})
        with pytest.raises(ConfigError):
            batches(ds, list(range(5)), 4, **BATCH_SHAPE, count=1)

    @staticmethod
    def assert_equals_referee(ds, classes, seed, count, **shape):
        """One block of count batches against the scalar referee's batches of
        the same counters, one at a time: the batches, or the same error."""

        def drawn(draw):
            try:
                return draw()
            except SamplingError as exc:
                return str(exc)

        got = drawn(lambda: batches(ds, classes, seed, **shape, count=count))
        want = drawn(lambda: [reference.sample_training_batch_sorted(ds, classes, seed, (0, b),
                                                                     **shape)
                              for b in range(count)])
        if isinstance(want, str):
            assert got == want
        else:
            assert [picked for picked, _ in got] == [picked for picked, _ in want]
            for (_, rows), (_, want_rows) in zip(got, want):
                assert rows.dtype == want_rows.dtype
                assert rows.tolist() == want_rows.tolist()

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("trial", range(6))
    def test_block_equals_scalar_referee(self, trial, count):
        # classes of 1-40 instances, k_max 1-10, any reachable floor
        gen = np.random.default_rng([40, trial])
        sizes = gen.integers(1, 41, size=int(gen.integers(3, 30)))
        ds = tiny_dataset(dict(enumerate(sizes.tolist())))
        n = int(gen.integers(1, len(sizes) + 1))
        k_max = int(gen.integers(1, 11))
        reachable = int(np.sort(np.minimum(k_max, sizes))[-n:].sum())
        min_total = int(gen.integers(1, reachable + 1))
        self.assert_equals_referee(ds, list(range(len(sizes))), 41 + trial, count,
                                   n=n, k_max=k_max, min_total=min_total)

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 200])
    def test_resampled_block_equals_scalar_referee(self, count):
        # 3 of 12 classes hold 40 instances and the rest 1, so a batch of 4
        # reaches 10 only with 2 of the big three: about 1 draw in 4
        sizes = {c: 40 if c % 4 == 0 else 1 for c in range(12)}
        ds = tiny_dataset(sizes)
        shape = dict(n=4, k_max=5, min_total=10)
        # the first draw falls short, so the first batch is drawn again
        [(_, first)] = batches(ds, list(sizes), 1, **dict(shape, min_total=1), count=1)
        assert len(first) < 10
        self.assert_equals_referee(ds, list(sizes), 1, count, **shape)

    @pytest.mark.parametrize("size", [2, 1])
    @pytest.mark.parametrize("count", [1, 64])
    def test_exhausted_block_equals_scalar_referee(self, count, size):
        # 12 classes of 2 cap a batch at 24 rows, and 12 classes of 1 at 12
        ds = tiny_dataset({c: size for c in range(13)})
        self.assert_equals_referee(ds, list(range(12)), 3, count, **BATCH_SHAPE)

    def test_pool_leaves_out_classes_without_rows(self):
        # classes 0-11 dropped from the columns (the table still lists them)
        # give no draw, so the pool holds class 12 alone
        ds = tiny_dataset({c: 2 for c in range(13)})
        rows = ds.class_rows[12]
        ds = data.Dataset(ds.classes, ds.instance_ids[rows], ds.class_ids[rows],
                          ds.features[rows], ds.label_embeddings)
        pool = episodic.ClassPool(ds, range(13), 8)
        assert pool.classes.tolist() == [12] and pool.rows.tolist() == [0, 1]
        assert pool.labels.tobytes() == ds.label_embeddings[12].tobytes()
        with pytest.raises(ConfigError, match="need 12 classes, have 1"):
            episodic.sample_training_batch(pool, 12, 36, 3, 0, np.arange(1))


class TestEpisodeSampling:
    def test_fsg_invariants_over_many_draws(self):
        counts = {0: 3, 1: 4, 2: 6, 3: 8, 4: 5, 5: 3}
        ds = tiny_dataset(counts)
        pool = set(counts)
        for trial in range(500):
            key = reference.counter_key(9, trial)
            picked, drawn = draw(ds, pool, key, task="FSG", n=3, k=2, m=4)
            support, queries = episode_rows(ds, "FSG", 2, picked, drawn)
            assert len(picked) == 3
            assert len(set(picked)) == 3
            assert set(picked) <= pool
            support_ids = {ds.instance_ids[r] for r, _ in support}
            query_ids = {ds.instance_ids[r] for r, _ in queries}
            assert not (support_ids & query_ids)
            for cid in picked:
                k_c = sum(1 for _, c in support if c == cid)
                q_c = sum(1 for _, c in queries if c == cid)
                assert k_c == 2
                assert q_c == min(4, counts[cid] - 2)
            for row, cid in support + queries:
                assert ds.class_ids[row] == cid

    def test_fsg_minimal_class_gets_one_query(self):
        ds = tiny_dataset({0: 3})
        picked, drawn = draw(ds, {0}, reference.counter_key(5), task="FSG", n=1, k=2, m=10)
        _, queries = episode_rows(ds, "FSG", 2, picked, drawn)
        assert len(queries) == 1

    def test_fsg_eligibility_excludes_exact_k(self):
        # a class with exactly k instances cannot field a query
        ds = tiny_dataset({0: 2, 1: 5, 2: 5, 3: 5})
        cfg = episodic.EvalConfig(task="FSG", n=3, k=2, m=4, episodes=6)
        pool = episodic.ClassPool(ds, {0, 1, 2, 3}, cfg.m, cfg.n_support)
        assert pool.classes.tolist() == [1, 2, 3]
        # so HoV, whose classes 0-2 leave two eligible, is skipped with a warning
        split = make_split(range(4), {0: "HoV", 1: "HoV", 2: "HoV", 3: "HoN"})
        report = episodic.evaluate(HashEmbedModel(), ds, split, cfg)
        assert report.subsets["All"].episodes == 6
        assert report.subsets["HoV"].skipped and report.subsets["HoN"].skipped
        assert "subset HoV: 2 eligible classes < n=3; skipped" in report.warnings

    @pytest.mark.parametrize("task,k,method", [("FSG", 2, "VE"), ("CM-FSG", 1, "WE")])
    def test_eval_subsets_members_follow_the_eligibility_rule(self, task, k, method):
        # the data of test_fsg_eligibility_excludes_exact_k: a member has the
        # supports plus at least one query
        ds = tiny_dataset({0: 2, 1: 5, 2: 5, 3: 5})
        split = make_split(range(4), {0: "HoV", 1: "HoV", 2: "HoV", 3: "HoN"})
        cfg = episodic.EvalConfig(task=task, n=1, k=k, m=4, episodes=6)
        model_cfg = model.ModelConfig(method=method, input_dim=4, hidden_dim=5,
                                      embed_dim=6, label_dim=6)
        pool, subsets = episodic.eval_subsets(model_cfg, ds, split, cfg)
        assert [name for name, _ in subsets] == ["All", "HoV", "HoN"]
        for (name, members), classes in zip(subsets, [range(4), range(3), [3]]):
            want = [c for c in classes if len(ds.class_rows[c]) >= cfg.n_support + 1]
            assert pool.classes[members].tolist() == want, name

    def test_cmfsg_supports_are_label_embeddings(self):
        counts = {0: 3, 1: 4, 2: 6}
        ds = tiny_dataset(counts)
        picked, drawn = draw(ds, set(counts), reference.counter_key(7), task="CM-FSG",
                             n=3, k=1, m=5)
        support, queries = episode_rows(ds, "CM-FSG", 1, picked, drawn)
        # one label per class supports it, so no instance is drawn as a support
        assert len(picked) == 3 and not support
        for cid in picked:
            q_c = sum(1 for _, c in queries if c == cid)
            # every instance is a fair query in the cross-modal task
            assert q_c == min(5, counts[cid])

    def test_cmfsg_rejects_k_not_one(self):
        with pytest.raises(MethodError, match="k must be 1"):
            episodic.EvalConfig(task="CM-FSG", n=2, k=2, m=3)

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="ZSG"):
            episodic.EvalConfig(task="ZSG", n=1, k=1, m=1)

    @pytest.mark.parametrize("field", ["n", "k", "m", "episodes"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ConfigError, match="positive"):
            episodic.EvalConfig(**{field: 0})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            episodic.EvalConfig(seed=-1)

    def test_episodes_past_2_to_the_32_rejected(self):
        # no run comes near 2^32 episodes of a subset, so more is a typo
        assert episodic.EvalConfig(episodes=2**32).episodes == 2**32
        with pytest.raises(ConfigError, match=r"^eval: episodes 4294967297 > 2\^32"):
            episodic.EvalConfig(episodes=2**32 + 1)

    @pytest.mark.parametrize("task,k", [("FSG", 1), ("FSG", 2), ("CM-FSG", 1)])
    def test_draw_equals_scalar_referee(self, task, k):
        counts = {c: 3 + 5 * c for c in range(8)}
        ds = tiny_dataset(counts)
        cfg = episodic.EvalConfig(task, n=4, k=k, m=7)
        eligible = [c for c in sorted(counts) if counts[c] >= cfg.n_support + 1]
        for trial in range(200):
            key = reference.counter_key(3, trial)
            picked, drawn = draw(ds, set(counts), key, task=task, n=4, k=k, m=7)
            want_picked, want_drawn = reference.draw_episode_sorted(ds, eligible, key, cfg)
            assert picked == want_picked
            assert [d.tolist() for d in drawn] == [d.tolist() for d in want_drawn]

    def test_deterministic_per_seed(self):
        ds = tiny_dataset({c: 6 for c in range(6)})
        key = reference.counter_key(1, 2)
        a = draw(ds, set(range(6)), key, task="FSG", n=3, k=2, m=3)
        b = draw(ds, set(range(6)), key, task="FSG", n=3, k=2, m=3)
        assert a[0] == b[0]
        assert episode_rows(ds, "FSG", 2, *a) == episode_rows(ds, "FSG", 2, *b)


def chi_square_bound(df):
    """The 0.999 quantile of chi-square with df degrees of freedom, by the
    Wilson-Hilferty cube-root normal approximation (z = 3.09)."""
    return df * (1 - 2 / (9 * df) + 3.09 * np.sqrt(2 / (9 * df))) ** 3


def chi_square(observed, expected):
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    return float(((observed - expected) ** 2 / expected).sum())


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1)


class TestCounterDraws:
    """Every draw is keyed by its counter: the keys and draws meet the scalar
    referee, and the draws are uniform, distinct within a draw, and the same
    under any block size."""

    def test_keys_equal_scalar_referee(self):
        paths = [(), (0,), (3, 7), (0, 2**32, 1), (1, 5, 2**64 - 1, 99)]
        for seed in SEEDS + (12345678901234567890123456789,):
            for path in paths:
                got = episodic._key(seed, *path)
                assert got.dtype == np.uint64 and got.shape == (1,)
                assert got.tolist() == [reference.counter_key(seed, *path)], (seed, path)
            # an array index keys a row per entry, as its ints one at a time
            got = episodic._key(seed, 2, np.arange(70), 1).tolist()
            assert got == [reference.counter_key(seed, 2, e, 1) for e in range(70)]

    def test_seeds_of_any_size_give_distinct_streams(self):
        # seed 2^64 + 1 has the low word of seed 1, and must not alias it
        assert episodic._key(1).tolist() != episodic._key(2**64 + 1).tolist()
        ds = tiny_dataset({c: 10 for c in range(12)})
        pool = episodic.ClassPool(ds, range(12), 5, 1)
        episodes, trains = [], []
        for seed in SEEDS:
            picked, positions = pool.draw(np.arange(12), 4, episodic._key(seed, 0, np.arange(20)))
            episodes.append((picked.tolist(), positions.tolist()))
            trains.append([(p.tolist(), q.tolist()) for p, q in episodic.sample_training_batch(
                pool, 4, 10, seed, 0, np.arange(20))])
        for streams in (episodes, trains):
            assert all(a != b for i, a in enumerate(streams) for b in streams[i + 1:])

    def test_class_picks_are_uniform(self):
        # 12 classes, 4 per draw: every class, and every class in first
        # place, as often as any other
        ds = tiny_dataset({c: 2 + c for c in range(12)})
        pool = episodic.ClassPool(ds, range(12), 3)
        picked, _ = pool.draw(np.arange(12), 4, episodic._key(60, 0, np.arange(6000)))
        for counts, total in ((np.bincount(picked.ravel(), minlength=12), 24000),
                              (np.bincount(picked[:, 0], minlength=12), 6000)):
            stat = chi_square(counts, np.full(12, total / 12))
            assert stat < chi_square_bound(11), stat

    # every class picked in every draw; a class of s rows taking t of them
    # takes each row with chance t / s, and each row expects 10 or more picks
    @pytest.mark.parametrize("take,big,draws", [(1, 60, 3000), (5, 60, 3000),
                                                (250, 10_001, 400)])
    def test_row_picks_are_uniform(self, take, big, draws):
        sizes = {0: 3, 1: 7, 2: 25, 3: big}
        ds = tiny_dataset(sizes, frames=1, dim=2, label_dim=2, seed=61)
        pool = episodic.ClassPool(ds, sizes, take)
        _, positions = pool.draw(np.arange(4), 4, episodic._key(62, take, np.arange(draws)))
        counts = np.bincount(positions, minlength=len(pool.rows))
        expected = np.repeat(draws * pool.takes / pool.sizes, pool.sizes)
        random = np.repeat(pool.takes < pool.sizes, pool.sizes)
        assert (counts[~random] == draws).all()
        df = int((pool.sizes - 1)[pool.takes < pool.sizes].sum())
        stat = chi_square(counts[random], expected[random])
        assert stat < chi_square_bound(df), (stat, df)

    def test_no_repeats_within_a_draw(self):
        meta = np.random.default_rng(63)
        for trial in range(40):
            sizes = meta.integers(1, 40, size=int(meta.integers(2, 20)))
            ds = tiny_dataset(dict(enumerate(sizes.tolist())), seed=trial)
            k, m = int(meta.integers(0, 3)), int(meta.integers(1, 30))
            pool = episodic.ClassPool(ds, range(len(sizes)), m, k)
            if not len(pool.classes):
                continue
            members = np.flatnonzero(meta.random(len(pool.classes)) < 0.7)
            if not len(members):
                continue
            n = int(meta.integers(1, len(members) + 1))
            picked, positions = pool.draw(members, n, episodic._key(64, trial, np.arange(50)))
            takes = pool.takes[picked]
            for row, parts in zip(picked, np.split(positions, np.cumsum(takes.sum(axis=1))[:-1])):
                assert len(set(row.tolist())) == n and set(row.tolist()) <= set(members.tolist())
                assert len(set(parts.tolist())) == len(parts)
                for c, part in zip(row, np.split(parts, np.cumsum(pool.takes[row])[:-1])):
                    assert ((pool.starts[c] <= part) & (part < pool.starts[c] + pool.sizes[c])).all()

    def test_rank_ties_go_to_the_lower_slot(self, monkeypatch):
        # words cut to their top 4 bits leave 16 ranks, so most classes and
        # rows tie with another, on the package's side and the referee's
        real_stream, real_splitmix = episodic._stream, reference.splitmix64
        monkeypatch.setattr(episodic, "_stream",
                            lambda keys, slots: real_stream(keys, slots) & np.uint64(0xF << 60))
        monkeypatch.setattr(reference, "splitmix64",
                            lambda state, slot: real_splitmix(state, slot) & 0xF << 60)
        counts = {c: 1 + 9 * c for c in range(24)}
        ds = tiny_dataset(counts)
        cfg = episodic.EvalConfig("FSG", n=6, k=2, m=40)
        eligible = [c for c in sorted(counts) if counts[c] > cfg.n_support]
        for trial in range(50):
            key = reference.counter_key(70, trial)
            picked, drawn = draw(ds, set(counts), key, task="FSG", n=6, k=2, m=40)
            want_picked, want_drawn = reference.draw_episode_sorted(ds, eligible, key, cfg)
            assert picked == want_picked
            assert [d.tolist() for d in drawn] == [d.tolist() for d in want_drawn]

    @pytest.mark.parametrize("size", [1, 7, 64, 200])
    def test_same_draws_under_any_block_size(self, size):
        ds = tiny_dataset({c: 1 + 4 * c for c in range(12)}, seed=65)
        pool = episodic.ClassPool(ds, range(12), 5, 1)
        members = np.arange(1, len(pool.classes), 2)
        keys = episodic._key(66, 1, np.arange(200))
        picked, positions = pool.draw(members, 3, keys)
        parts = [pool.draw(members, 3, keys[i:i + size]) for i in range(0, 200, size)]
        assert np.concatenate([p for p, _ in parts]).tolist() == picked.tolist()
        assert np.concatenate([q for _, q in parts]).tolist() == positions.tolist()
        # training batches, redrawn while short, are the same one by one
        sizes = {c: 40 if c % 4 == 0 else 1 for c in range(12)}
        pool = episodic.ClassPool(tiny_dataset(sizes), sizes, 5)
        whole = episodic.sample_training_batch(pool, 4, 10, 67, 0, np.arange(200))
        blocks = [batch for i in range(0, 200, size) for batch in episodic.sample_training_batch(
            pool, 4, 10, 67, 0, np.arange(i, min(i + size, 200)))]
        assert [(p.tolist(), q.tolist()) for p, q in blocks] == [
            (p.tolist(), q.tolist()) for p, q in whole]

    @pytest.mark.parametrize("block", [1, 7])
    def test_evaluate_is_the_same_under_any_block_size(self, monkeypatch, block):
        counts = {c: 6 + 7 * c for c in range(9)}
        ds = tiny_dataset(counts, noise=0.5, seed=68)
        split = make_split(counts, {c: ("HoV" if c < 5 else "HoN") for c in counts})
        cfg = episodic.EvalConfig("FSG", n=4, k=2, m=20, episodes=70, seed=69)
        want = episodic.evaluate(HashEmbedModel(), ds, split, cfg)
        monkeypatch.setattr(episodic, "_VOTE_BLOCK", block)
        assert episodic.evaluate(HashEmbedModel(), ds, split, cfg).subsets == want.subsets

    def test_import_leaves_numpy_random_unloaded(self, tmp_path):
        # no command draws through numpy's generators: neither a bare import
        # (report, --help) nor an eval of a checkpoint loads numpy.random
        src = str(pathlib.Path(episodic.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import openset.cli, sys; assert 'numpy.random' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)
        data_dir, split_dir = str(tmp_path / "data"), str(tmp_path / "splits")
        assert cli.main(["synth", "--out", data_dir] + SYNTH_FLAGS) == 0
        assert cli.main(["split", "--class-table", os.path.join(data_dir, "class_table.csv"),
                         "--out", split_dir, "--p-verbs", "2", "--p-nouns", "2",
                         "--seeds", "0"]) == 0
        inputs = ["--data", data_dir, "--split", os.path.join(split_dir, "split_0.csv")]
        assert cli.main(["train"] + inputs + ["--out", str(tmp_path / "train"), "--method", "JE",
                                              "--max-batches", "0"]) == 0
        argv = ["eval", "--checkpoint", str(tmp_path / "train" / "checkpoint.osm")] + inputs + [
            "--out", str(tmp_path / "eval"), "--task", "CM-FSG", "--episodes", "70"]
        code = ("import sys; from openset import cli; "
                f"assert cli.main({argv!r}) == 0; assert 'numpy.random' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)
        assert (tmp_path / "eval" / "eval.csv").exists()


class TestKnn:
    def test_kappa_one_exact_match(self):
        support = np.array([[1.0, 0.0], [0.0, 1.0]])
        sims = np.atleast_2d([0.9, 0.1]) @ support.T
        assert episodic.knn_classify(sims, np.array([3, 4]), 1)[0] == 3

    def test_majority_beats_best_single(self):
        # closest neighbor is class A, but two B votes win at kappa 3
        support = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]])
        classes = np.array([1, 2, 2])
        query = np.array([1.0, 0.0])
        assert episodic.knn_classify(np.atleast_2d(query) @ support.T, classes, 3)[0] == 2

    def test_vote_tie_broken_by_summed_similarity(self):
        support = np.array([[1.0, 0.0], [0.8, 0.6]])
        classes = np.array([5, 4])
        query = np.array([1.0, 0.0])
        # one vote each; class 5 has similarity 1.0 vs 0.8
        assert episodic.knn_classify(np.atleast_2d(query) @ support.T, classes, 2)[0] == 5

    def test_full_tie_broken_by_smaller_class_id(self):
        support = np.array([[1.0, 0.0], [1.0, 0.0]])
        classes = np.array([7, 3])
        query = np.array([1.0, 0.0])
        assert episodic.knn_classify(np.atleast_2d(query) @ support.T, classes, 2)[0] == 3

    def test_neighbor_tie_at_cutoff_prefers_smaller_class(self):
        support = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, -0.6]])
        classes = np.array([1, 9, 2])
        query = np.array([1.0, 0.0])
        # items 1 and 2 tie at similarity 0.8 for the second slot; class 2
        # enters, then loses the vote tie to class 1 on summed similarity
        assert episodic.knn_classify(np.atleast_2d(query) @ support.T, classes, 2)[0] == 1

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n_sup = int(rng.integers(3, 13))
            raw = rng.normal(size=(n_sup, 5))
            support = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            classes = rng.integers(0, 4, size=n_sup)
            q = rng.normal(size=5)
            q /= np.linalg.norm(q)
            for kappa in (1, 3, n_sup):
                got = episodic.knn_classify(np.atleast_2d(q) @ support.T, classes, kappa)[0]
                want = reference.knn_oracle(support, classes, q, kappa)
                assert got == want

    def test_matches_oracle_under_ties(self):
        # draw embeddings from a tiny pool so exact similarity ties happen
        rng = np.random.default_rng(11)
        pool = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [0.8, 0.6]])
        for _ in range(300):
            idx = rng.integers(0, 4, size=6)
            support = pool[idx]
            classes = rng.integers(0, 3, size=6)
            q = pool[rng.integers(0, 4)]
            for kappa in (2, 4):
                got = episodic.knn_classify(np.atleast_2d(q) @ support.T, classes, kappa)[0]
                want = reference.knn_oracle(support, classes, q, kappa)
                assert got == want

    def test_support_order_irrelevant(self):
        rng = np.random.default_rng(12)
        support = rng.normal(size=(8, 4))
        support /= np.linalg.norm(support, axis=1, keepdims=True)
        classes = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        base = episodic.knn_classify(np.atleast_2d(q) @ support.T, classes, 3)[0]
        for _ in range(20):
            perm = rng.permutation(8)
            sims = np.atleast_2d(q) @ support[perm].T
            assert episodic.knn_classify(sims, classes[perm], 3)[0] == base

    def test_empty_support_rejected(self):
        with pytest.raises(ConfigError):
            episodic.knn_classify(np.atleast_2d(np.zeros(3)) @ np.zeros((0, 3)).T, np.array([]), 1)

    def test_kappa_out_of_range_rejected(self):
        support = np.array([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            episodic.knn_classify(np.atleast_2d([1.0, 0.0]) @ support.T, np.array([0]), 2)

    def test_block_matches_oracle_row_by_row(self):
        rng = np.random.default_rng(13)
        pool = rng.normal(size=(4, 5))
        for trial in range(200):
            n_sup = int(rng.integers(1, 11))
            n_query = int(rng.integers(1, 9))
            classes = rng.integers(0, 4, size=n_sup)
            if trial % 2:  # tie-heavy: supports and queries reuse a tiny vector pool
                support = pool[rng.integers(0, 4, size=n_sup)]
                queries = pool[rng.integers(0, 4, size=n_query)]
            else:
                support = rng.normal(size=(n_sup, 5))
                queries = rng.normal(size=(n_query, 5))
            for kappa in range(1, n_sup + 1):
                got = episodic.knn_classify(queries @ support.T, classes, kappa)
                assert got.dtype == np.int64 and got.shape == (n_query,)
                want = [reference.knn_oracle(support, classes, q, kappa) for q in queries]
                assert got.tolist() == want

    def test_one_row_block_gives_one_int64_prediction(self):
        support = np.array([[1.0, 0.0], [0.0, 1.0]])
        pred = episodic.knn_classify(np.atleast_2d([0.2, 0.9]) @ support.T, np.array([3, 4]), 1)
        assert pred.dtype == np.int64 and pred.tolist() == [4]

    def test_vote_sums_add_in_rank_order(self):
        # three votes each; class 1 sums (0.7 + 0.2) + 0.1 = 0.9999999999999999
        # in rank order, against 1.0 for class 2 (any other order gives class
        # 1 a sum of 1.0, a full tie that class 1 would win)
        sims = np.array([[0.7, 0.5, 0.4, 0.2, 0.1, 0.1]])
        assert episodic.knn_classify(sims, np.array([1, 2, 2, 1, 1, 2]), 6).tolist() == [2]

    def test_row_wise_classes_match_oracle_row_by_row(self):
        # every row of the block holds its own episode: its own supports,
        # classes and query, with the oracle's similarities
        rng = np.random.default_rng(19)
        pool = rng.normal(size=(4, 5))
        for trial in range(300):
            n_sup = int(rng.integers(1, 11))
            n_query = int(rng.integers(1, 9))
            classes = rng.integers(0, 4, size=(n_query, n_sup))
            if trial % 3 == 0:  # tie-heavy: supports and queries reuse a tiny vector pool
                support = pool[rng.integers(0, 4, size=(n_query, n_sup))]
                queries = pool[rng.integers(0, 4, size=n_query)]
            else:
                support = rng.normal(size=(n_query, n_sup, 5))
                queries = rng.normal(size=(n_query, 5))
            sims = np.array([[float(np.dot(s, q)) for s in sup]
                             for sup, q in zip(support, queries)])
            for kappa in range(1, n_sup + 1):
                got = episodic.knn_classify(sims, classes, kappa)
                assert got.dtype == np.int64 and got.shape == (n_query,)
                want = [reference.knn_oracle(sup, cls, q, kappa)
                        for sup, cls, q in zip(support, classes, queries)]
                assert got.tolist() == want, (trial, kappa)


class TestEvaluate:
    def test_content_equality_scores_perfectly(self):
        counts = {c: 25 for c in range(8)}
        ds = tiny_dataset(counts, noise=0.0)
        split = make_split(range(8), {c: "HoV" for c in range(8)})
        report = episodic.evaluate(HashEmbedModel(), ds, split, episodic.EvalConfig(
            "FSG", n=5, k=1, m=20, episodes=50, seed=0))
        assert report.subsets["All"].accuracy == 1.0

    def test_class_blind_embeddings_score_at_chance(self):
        counts = {c: 25 for c in range(8)}
        ds = tiny_dataset(counts, noise=1.0)
        # leave HoV and HoN too small to run, so only All accumulates
        category = {c: ("HoV" if c < 4 else "HoN") for c in range(8)}
        split = make_split(range(8), category)
        report = episodic.evaluate(HashEmbedModel(), ds, split, episodic.EvalConfig(
            "FSG", n=5, k=1, m=20, episodes=300, seed=1))
        acc = report.subsets["All"].accuracy
        assert abs(acc - 0.2) < 0.03
        assert report.subsets["HoV"].skipped
        assert report.subsets["HoN"].skipped
        assert len(report.warnings) == 2

    def test_subsets_use_only_their_categories(self):
        counts = {c: 6 for c in range(10)}
        ds = tiny_dataset(counts)
        category = {c: ("HoV" if c < 5 else "HoN") for c in range(10)}
        split = make_split(range(10), category)
        cfg = model.ModelConfig(method="VE", input_dim=4, hidden_dim=5,
                                embed_dim=6, label_dim=6)
        net = model.init_model(cfg, seed=1)
        report = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "FSG", n=5, k=1, m=3, episodes=20, seed=2))
        # every subset ran: All over 10 classes, HoV/HoN over their 5
        for name in ("All", "HoV", "HoN"):
            assert not report.subsets[name].skipped
            assert report.subsets[name].episodes == 20

    def test_pooled_accuracy_identity(self):
        counts = {c: 8 for c in range(6)}
        ds = tiny_dataset(counts)
        split = make_split(range(6), {c: "HoV" for c in range(6)})
        cfg = model.ModelConfig(method="VE", input_dim=4, hidden_dim=5,
                                embed_dim=6, label_dim=6)
        net = model.init_model(cfg, seed=3)
        report = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "FSG", n=4, k=2, m=3, episodes=25, seed=4))
        res = report.subsets["All"]
        # recompute episode by episode under the same counters' keys
        correct = []
        queries = []
        for episode_idx in range(25):
            key = reference.counter_key(4, 0, episode_idx)
            picked, drawn = draw(ds, set(range(6)), key, task="FSG", n=4, k=2, m=3)
            support, ep_queries = episode_rows(ds, "FSG", 2, picked, drawn)
            sup = np.stack([ds.features[r] for r, _ in support])
            sup_emb, _ = net.embed_video_batch(sup)
            sup_ids = np.array([cid for _, cid in support])
            c = 0
            for row, true_cid in ep_queries:
                q = net.embed_video_batch(ds.features[row][None])[0][0]
                sims = np.atleast_2d(q) @ sup_emb.T
                c += int(episodic.knn_classify(sims, sup_ids, 2)[0] == true_cid)
            correct.append(c)
            queries.append(len(ep_queries))
        assert res.queries == sum(queries)
        assert res.correct == sum(correct)
        assert res.accuracy == reference.pooled_accuracy(correct, queries)

    def test_deterministic(self):
        counts = {c: 8 for c in range(6)}
        ds = tiny_dataset(counts)
        split = make_split(range(6), {c: "HoN" for c in range(6)})
        cfg = model.ModelConfig(method="VE", input_dim=4, hidden_dim=5,
                                embed_dim=6, label_dim=6)
        net = model.init_model(cfg, seed=5)
        a = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "FSG", n=3, k=1, m=4, episodes=15, seed=6))
        b = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "FSG", n=3, k=1, m=4, episodes=15, seed=6))
        for name in a.subsets:
            assert a.subsets[name] == b.subsets[name]

    def test_cmfsg_with_ve_rejected(self):
        ds = tiny_dataset({c: 5 for c in range(5)})
        split = make_split(range(5))
        cfg = model.ModelConfig(method="VE", input_dim=4, hidden_dim=5,
                                embed_dim=6, label_dim=6)
        net = model.init_model(cfg, seed=7)
        with pytest.raises(MethodError):
            episodic.evaluate(net, ds, split, episodic.EvalConfig(
                "CM-FSG", n=3, k=1, m=4, episodes=5, seed=8))

    def test_ve_runs_without_label_embeddings(self):
        ds = tiny_dataset({c: 5 for c in range(5)})
        ds = data.Dataset(ds.classes, ds.instance_ids, ds.class_ids, ds.features, {})
        split = make_split(range(5), {c: "HoV" for c in range(5)})
        net = model.init_model(model.ModelConfig(method="VE", input_dim=4, hidden_dim=5,
                                                 embed_dim=6, label_dim=6), seed=7)
        report = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "FSG", n=3, k=1, m=4, episodes=5, seed=8))
        assert report.subsets["All"].episodes == 5 and report.subsets["HoV"].episodes == 5

    def test_split_class_missing_from_table_rejected(self):
        ds = tiny_dataset({c: 5 for c in range(5)})
        with pytest.raises(ConfigError, match="^class 999 is not in the class table$"):
            episodic.evaluate(HashEmbedModel(), ds, make_split([0, 1, 2, 3, 4, 999]),
                              episodic.EvalConfig("FSG", n=3, k=1, m=4, episodes=5))

    def test_cmfsg_we_and_je_run(self):
        ds = tiny_dataset({c: 5 for c in range(5)}, dim=4, label_dim=6)
        split = make_split(range(5), {c: "HoV" for c in range(5)})
        for method, embed_dim in (("WE", 6), ("JE", 3)):
            cfg = model.ModelConfig(method=method, input_dim=4, hidden_dim=5,
                                    embed_dim=embed_dim, label_dim=6)
            net = model.init_model(cfg, seed=9)
            report = episodic.evaluate(net, ds, split, episodic.EvalConfig(
                "CM-FSG", n=3, k=1, m=4, episodes=5, seed=10))
            assert report.subsets["All"].episodes == 5


class TestEmbedOnce:
    COUNTS = {c: 6 + c % 3 for c in range(10)}
    CATEGORY = {c: ("HoV" if c < 5 else "HoN") for c in range(10)}

    def net(self, method, embed_dim=6, seed=14):
        cfg = model.ModelConfig(method=method, input_dim=4, hidden_dim=5,
                                embed_dim=embed_dim, label_dim=6)
        return model.init_model(cfg, seed=seed)

    @pytest.mark.parametrize("task,method,embed_dim", [
        ("FSG", "VE", 6), ("FSG", "WE", 6), ("FSG", "JE", 3),
        ("CM-FSG", "WE", 6), ("CM-FSG", "JE", 3),
    ])
    def test_each_test_instance_embedded_once(self, task, method, embed_dim):
        ds = tiny_dataset(self.COUNTS)
        counting = CountingModel(self.net(method, embed_dim))
        split = make_split(range(10), self.CATEGORY)
        report = episodic.evaluate(counting, ds, split, episodic.EvalConfig(
            task, n=3, k=1, m=4, episodes=30, seed=15))
        assert all(report.subsets[name].episodes == 30 for name in ("All", "HoV", "HoN"))
        assert counting.video == Counter(stack.tobytes() for stack in ds.features)
        # only JE's cross-modal supports pass through the label projector;
        # FSG supports are videos, and WE's are the raw labels
        if (task, method) == ("CM-FSG", "JE"):
            assert counting.labels == Counter(
                ds.label_embeddings[c].tobytes() for c in self.COUNTS)
        else:
            assert not counting.labels

    @pytest.mark.parametrize("method,embed_dim", [("WE", 6), ("JE", 3)])
    def test_cmfsg_matches_query_by_query_referee(self, method, embed_dim):
        ds = tiny_dataset(self.COUNTS, noise=0.5, seed=16)
        split = make_split(range(10), self.CATEGORY)
        net = self.net(method, embed_dim, seed=17)
        report = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "CM-FSG", n=3, k=1, m=4, episodes=40, seed=18))
        subsets = {"All": set(range(10)), "HoV": set(range(5)), "HoN": set(range(5, 10))}
        for subset_idx, name in enumerate(("All", "HoV", "HoN")):
            correct = queries = 0
            for episode_idx in range(40):
                key = reference.counter_key(18, subset_idx, episode_idx)
                picked, drawn = draw(ds, subsets[name], key, task="CM-FSG", n=3, k=1, m=4)
                _, ep_queries = episode_rows(ds, "CM-FSG", 1, picked, drawn)
                labels = np.stack([ds.label_embeddings[cid] for cid in picked])
                if method == "JE":
                    labels = net.embed_label_batch(labels)[0]
                sup_ids = np.array(picked)
                for row, true_cid in ep_queries:
                    q = net.embed_video_batch(ds.features[row][None])[0][0]
                    sims = np.atleast_2d(q) @ labels.T
                    correct += int(episodic.knn_classify(sims, sup_ids, 1)[0] == true_cid)
                    queries += 1
            res = report.subsets[name]
            assert (res.episodes, res.queries, res.correct) == (40, queries, correct)


class TestBlockVote:
    COUNTS = {c: 5 + c % 4 for c in range(12)}
    CATEGORY = {c: ("HoV" if c < 6 else "HoN") for c in range(12)}
    CASES = [("FSG", method, embed_dim, k)
             for method, embed_dim in (("VE", 6), ("WE", 6), ("JE", 3)) for k in (1, 2, 3)]
    CASES += [("CM-FSG", "WE", 6, 1), ("CM-FSG", "JE", 3, 1)]

    def dataset(self, kind):
        if kind == "noisy":
            return tiny_dataset(self.COUNTS, noise=0.5, seed=20)
        if kind == "exact":
            return tiny_dataset(self.COUNTS, noise=0.0, seed=20)
        # shared: classes c, c + 3, c + 6 and c + 9 (c < 3) cycle through class
        # c's instances, so equal embeddings meet across classes and tie
        ds = tiny_dataset(self.COUNTS, noise=0.5, seed=20)
        for cid in self.COUNTS:
            source = ds.features[ds.class_rows[cid % 3]]
            rows = ds.class_rows[cid]
            ds.features[rows] = source[np.arange(len(rows)) % len(source)]
        return ds

    def assert_equals_referee(self, ds, category, task, method, embed_dim, **protocol):
        split = make_split(self.COUNTS, category)
        cfg = model.ModelConfig(method=method, input_dim=4, hidden_dim=5,
                                embed_dim=embed_dim, label_dim=6)
        net = model.init_model(cfg, seed=21)
        protocol = episodic.EvalConfig(task, n=4, seed=22, **protocol)
        got = episodic.evaluate(net, ds, split, protocol)
        want = reference.evaluate_per_episode(net, ds, split, protocol)
        assert got.subsets == want.subsets
        assert got.warnings == want.warnings

    # two full blocks and a last one of 22
    @pytest.mark.parametrize("kind", ["noisy", "exact", "shared"])
    @pytest.mark.parametrize("task,method,embed_dim,k", CASES)
    def test_equals_per_episode_referee(self, kind, task, method, embed_dim, k):
        self.assert_equals_referee(self.dataset(kind), self.CATEGORY, task, method, embed_dim,
                                   k=k, m=5, episodes=2 * BLOCK + 22)

    # m past every class's size (5 to 8) takes each class's every non-support
    # instance, so the episodes of one block hold different query counts;
    # HoV with exactly n = 4 classes draws all of them in every episode
    @pytest.mark.parametrize("m,hov_classes", [(20, 6), (5, 4)])
    @pytest.mark.parametrize("task,method,embed_dim,k", CASES)
    def test_uneven_queries_and_exactly_n_classes_equal_referee(
        self, m, hov_classes, task, method, embed_dim, k
    ):
        category = {c: ("HoV" if c < hov_classes else "HoN") for c in self.COUNTS}
        self.assert_equals_referee(self.dataset("noisy"), category, task, method, embed_dim,
                                   k=k, m=m, episodes=70)

    # at embed dim 32 a product's bits depend on its shape, so each episode
    # must take its own (queries, n·k) product, not a slice of a wider one
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("task,method", [
        ("FSG", "VE"), ("FSG", "JE"), ("CM-FSG", "WE"), ("CM-FSG", "JE"),
    ])
    def test_each_episode_takes_its_own_similarity_product(self, monkeypatch, task, method, m):
        got, want = [], []
        real_knn, real_referee = episodic.knn_classify, reference.knn_classify_one_block

        def spy(sims, support_classes, kappa):
            got.append(sims)
            return real_knn(sims, support_classes, kappa)

        def referee(support, support_classes, queries, kappa):
            want.append(queries @ support.T)
            return real_referee(support, support_classes, queries, kappa)

        monkeypatch.setattr(episodic, "knn_classify", spy)
        monkeypatch.setattr(reference, "knn_classify_one_block", referee)
        ds = tiny_dataset(self.COUNTS, label_dim=32, noise=0.5, seed=20)
        cfg = model.ModelConfig(method=method, input_dim=4, hidden_dim=5,
                                embed_dim=32, label_dim=32)
        net = model.init_model(cfg, seed=21)
        split = make_split(self.COUNTS, self.CATEGORY)
        protocol = episodic.EvalConfig(task, n=4, m=m, episodes=70, seed=22)
        episodic.evaluate(net, ds, split, protocol)
        reference.evaluate_per_episode(net, ds, split, protocol)
        assert len(want) == 3 * 70
        assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()

    @BLOCK_EDGES
    def test_votes_once_per_block_of_episodes(self, monkeypatch, episodes):
        calls = []
        real = episodic.knn_classify

        def spy(sims, support_classes, kappa):
            calls.append(len(sims))
            return real(sims, support_classes, kappa)

        monkeypatch.setattr(episodic, "knn_classify", spy)
        ds = self.dataset("noisy")
        report = episodic.evaluate(HashEmbedModel(), ds, make_split(self.COUNTS, self.CATEGORY),
                                   episodic.EvalConfig("FSG", n=4, k=2, m=5, episodes=episodes))
        per_subset = -(-episodes // BLOCK)
        assert len(calls) <= 3 * per_subset
        assert sum(calls) == sum(res.queries for res in report.subsets.values())


class TestDrawBlockEdges:
    """evaluate draws each block of episodes at once; episode counts around
    the block size, unequal classes and every m regime must still give the
    per-episode referee's results."""

    COUNTS = {c: 6 + 7 * c for c in range(9)}  # 6 to 62 instances
    CATEGORY = {c: ("HoV" if c < 5 else "HoN") for c in range(9)}

    def assert_equals_referee(self, ds, category, task, k, m, episodes):
        method, embed_dim = ("VE", 6) if task == "FSG" else ("JE", 3)
        cfg = model.ModelConfig(method=method, input_dim=ds.input_dim, hidden_dim=5,
                                embed_dim=embed_dim, label_dim=ds.label_dim)
        net = model.init_model(cfg, seed=40)
        split = make_split(category, category)
        protocol = episodic.EvalConfig(task, n=4, k=k, m=m, episodes=episodes, seed=41)
        got = episodic.evaluate(net, ds, split, protocol)
        want = reference.evaluate_per_episode(net, ds, split, protocol)
        assert got.subsets == want.subsets
        assert got.warnings == want.warnings

    @BLOCK_EDGES
    @pytest.mark.parametrize("m", [1, 20, 50])
    @pytest.mark.parametrize("task,k", [("FSG", 1), ("FSG", 5), ("CM-FSG", 1)])
    def test_equals_per_episode_referee(self, task, k, m, episodes):
        ds = tiny_dataset(self.COUNTS, noise=0.5, seed=42)
        self.assert_equals_referee(ds, self.CATEGORY, task, k, m, episodes)

    @pytest.mark.parametrize("task", ["FSG", "CM-FSG"])
    def test_large_class_equals_referee(self, task):
        # n = 4 of 4 classes picks the 10,001-instance class in every
        # episode, which takes m = 250 queries (plus k) of its rows
        ds = tiny_dataset({0: 10_001, 1: 30, 2: 40, 3: 50}, frames=1, dim=2, label_dim=2,
                          noise=0.5, seed=43)
        self.assert_equals_referee(ds, {c: "HoV" for c in range(4)}, task, 1, 250, 3)


class TestEvalReportFile:
    def test_rows_and_header(self, tmp_path):
        ds = tiny_dataset({c: 8 for c in range(6)})
        split = make_split(range(6), {c: "HoV" for c in range(6)})
        cfg = model.ModelConfig(method="VE", input_dim=4, hidden_dim=5,
                                embed_dim=6, label_dim=6)
        net = model.init_model(cfg, seed=11)
        report = episodic.evaluate(net, ds, split, episodic.EvalConfig(
            "FSG", n=3, k=2, m=3, episodes=10, seed=12))
        path = tmp_path / "eval.csv"
        episodic.write_eval_report(str(path), report)
        lines = path.read_text().splitlines()
        assert lines[0] == "task,subset,n,k,m,episodes,queries,correct,accuracy,seed"
        # HoN never ran: it appears as a comment, not a row
        assert any(line.startswith("#") and "HoN" in line for line in lines)
        rows = [l for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 2
        all_row = rows[0].split(",")
        assert all_row[0] == "FSG" and all_row[1] == "All"
        res = report.subsets["All"]
        assert all_row[5:9] == [
            str(res.episodes), str(res.queries), str(res.correct), repr(res.accuracy)
        ]
        # accuracy string must round-trip to the exact float
        assert float(all_row[8]) == res.accuracy
