"""Tests for episode sampling, κ-NN classification, and pooled evaluation."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from openset import data, episodic, model, splits
from openset.errors import ConfigError, MethodError, SamplingError

import reference


def tiny_dataset(counts, frames=2, dim=4, label_dim=6, seed=0, noise=1.0):
    """Dataset with the given per-class instance counts.

    noise=0 makes every instance of a class identical (and distinct across
    classes), which turns content-equality into a perfect class signal.
    """
    rng = np.random.default_rng(seed)
    entries, class_ids, features, labels = {}, [], [], {}
    for cid, cnt in sorted(counts.items()):
        entries[cid] = data.ClassEntry(
            cid, data.ActionLabel(cid, cid, f"v{cid:02d}", f"n{cid:02d}"), cnt
        )
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


def draw(ds, classes, rng, **protocol):
    """One episode over classes under the EvalConfig built from protocol,
    drawn from their eligible classes as evaluate draws it."""
    cfg = episodic.EvalConfig(**protocol)
    return episodic.draw_episode(
        ds, episodic.eligible_episode_classes(ds, classes, cfg), rng, cfg)


def make_split(cids, category=None):
    """SplitResult with everything in test; category maps are optional."""
    return splits.SplitResult(
        train=set(),
        validation=set(),
        test=set(cids),
        held_out_verbs_val=set(),
        held_out_verbs_test=set(),
        held_out_nouns_val=set(),
        held_out_nouns_test=set(),
        category=dict(category or {}),
    )


class HashEmbedModel:
    """Stub encoder: the embedding is a unit vector seeded by the raw
    feature bytes, so identical features embed identically and otherwise
    embeddings are independent of class."""

    method = "VE"

    def __init__(self, embed_dim=6):
        self.embed_dim = embed_dim

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
        self.method = net.method
        self.video = Counter()
        self.labels = Counter()

    def embed_video_batch(self, frames):
        self.video.update(stack.tobytes() for stack in np.asarray(frames))
        return self.net.embed_video_batch(frames)

    def embed_label_batch(self, vectors):
        self.labels.update(v.tobytes() for v in np.asarray(vectors))
        return self.net.embed_label_batch(vectors)


# the batch shape of the default TrainConfig
BATCH_SHAPE = dict(n=12, k_max=8, min_total=36)


class TestTrainingBatch:
    def test_full_batch_shape(self):
        ds = tiny_dataset({c: 10 for c in range(15)})
        rng = np.random.default_rng(0)
        picked, rows = episodic.sample_training_batch(ds, list(range(15)), rng, **BATCH_SHAPE)
        assert len(picked) == 12
        assert all(count == 8 for count in Counter(ds.class_ids[rows]).values())
        # rows come in draw order: each picked class's rows, in turn
        assert ds.class_ids[rows].tolist() == np.repeat(picked, 8).tolist()

    def test_short_classes_capped(self):
        ds = tiny_dataset({c: 3 for c in range(12)})
        rng = np.random.default_rng(1)
        picked, rows = episodic.sample_training_batch(ds, list(range(12)), rng, **BATCH_SHAPE)
        # 12 classes x 3 instances reaches the floor exactly
        assert len(rows) == 36

    def test_instances_unique_and_from_their_class(self):
        ds = tiny_dataset({c: 10 for c in range(15)})
        rng = np.random.default_rng(2)
        picked, rows = episodic.sample_training_batch(ds, list(range(15)), rng, **BATCH_SHAPE)
        seen = set()
        assert set(ds.class_ids[rows]) <= set(picked)
        for row in rows:
            assert ds.class_ids[row] in picked
            assert ds.instance_ids[row] not in seen
            seen.add(ds.instance_ids[row])

    def test_undersized_total_exhausts_retries(self):
        ds = tiny_dataset({c: 2 for c in range(12)})
        rng = np.random.default_rng(3)
        with pytest.raises(SamplingError, match="100 draws"):
            episodic.sample_training_batch(ds, list(range(12)), rng, **BATCH_SHAPE)

    def test_too_few_classes_rejected(self):
        ds = tiny_dataset({c: 10 for c in range(5)})
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigError):
            episodic.sample_training_batch(ds, list(range(5)), rng, **BATCH_SHAPE)


class TestEpisodeSampling:
    def test_fsg_invariants_over_many_draws(self):
        counts = {0: 3, 1: 4, 2: 6, 3: 8, 4: 5, 5: 3}
        ds = tiny_dataset(counts)
        pool = set(counts)
        for trial in range(500):
            rng = np.random.default_rng([9, trial])
            picked, drawn = draw(ds, pool, rng, task="FSG", n=3, k=2, m=4)
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
        rng = np.random.default_rng(5)
        picked, drawn = draw(ds, {0}, rng, task="FSG", n=1, k=2, m=10)
        _, queries = episode_rows(ds, "FSG", 2, picked, drawn)
        assert len(queries) == 1

    def test_fsg_eligibility_excludes_exact_k(self):
        # a class with exactly k instances cannot field a query
        ds = tiny_dataset({0: 2, 1: 5, 2: 5, 3: 5})
        cfg = episodic.EvalConfig(task="FSG", n=3, k=2, m=4, episodes=6)
        assert episodic.eligible_episode_classes(ds, {0, 1, 2, 3}, cfg) == [1, 2, 3]
        # so HoV, whose classes 0-2 leave two eligible, is skipped with a warning
        split = make_split(range(4), {0: "HoV", 1: "HoV", 2: "HoV", 3: "HoN"})
        report = episodic.evaluate(HashEmbedModel(), ds, split, cfg)
        assert report.subsets["All"].episodes == 6
        assert report.subsets["HoV"].skipped and report.subsets["HoN"].skipped
        assert "subset HoV: 2 eligible classes < n=3; skipped" in report.warnings

    def test_cmfsg_supports_are_label_embeddings(self):
        counts = {0: 3, 1: 4, 2: 6}
        ds = tiny_dataset(counts)
        rng = np.random.default_rng(7)
        picked, drawn = draw(ds, set(counts), rng, task="CM-FSG", n=3, k=1, m=5)
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

    def test_deterministic_per_seed(self):
        ds = tiny_dataset({c: 6 for c in range(6)})
        a = draw(ds, set(range(6)), np.random.default_rng([1, 2]), task="FSG", n=3, k=2, m=3)
        b = draw(ds, set(range(6)), np.random.default_rng([1, 2]), task="FSG", n=3, k=2, m=3)
        assert a[0] == b[0]
        assert episode_rows(ds, "FSG", 2, *a) == episode_rows(ds, "FSG", 2, *b)


class TestKnn:
    def test_kappa_one_exact_match(self):
        support = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert episodic.knn_classify(support, np.array([3, 4]), np.array([0.9, 0.1]), 1) == 3

    def test_majority_beats_best_single(self):
        # closest neighbor is class A, but two B votes win at kappa 3
        support = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]])
        classes = np.array([1, 2, 2])
        query = np.array([1.0, 0.0])
        assert episodic.knn_classify(support, classes, query, 3) == 2

    def test_vote_tie_broken_by_summed_similarity(self):
        support = np.array([[1.0, 0.0], [0.8, 0.6]])
        classes = np.array([5, 4])
        query = np.array([1.0, 0.0])
        # one vote each; class 5 has similarity 1.0 vs 0.8
        assert episodic.knn_classify(support, classes, query, 2) == 5

    def test_full_tie_broken_by_smaller_class_id(self):
        support = np.array([[1.0, 0.0], [1.0, 0.0]])
        classes = np.array([7, 3])
        query = np.array([1.0, 0.0])
        assert episodic.knn_classify(support, classes, query, 2) == 3

    def test_neighbor_tie_at_cutoff_prefers_smaller_class(self):
        support = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, -0.6]])
        classes = np.array([1, 9, 2])
        query = np.array([1.0, 0.0])
        # items 1 and 2 tie at similarity 0.8 for the second slot; class 2
        # enters, then loses the vote tie to class 1 on summed similarity
        assert episodic.knn_classify(support, classes, query, 2) == 1

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
                got = episodic.knn_classify(support, classes, q, kappa)
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
                got = episodic.knn_classify(support, classes, q, kappa)
                want = reference.knn_oracle(support, classes, q, kappa)
                assert got == want

    def test_support_order_irrelevant(self):
        rng = np.random.default_rng(12)
        support = rng.normal(size=(8, 4))
        support /= np.linalg.norm(support, axis=1, keepdims=True)
        classes = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        base = episodic.knn_classify(support, classes, q, 3)
        for _ in range(20):
            perm = rng.permutation(8)
            assert episodic.knn_classify(support[perm], classes[perm], q, 3) == base

    def test_empty_support_rejected(self):
        with pytest.raises(ConfigError):
            episodic.knn_classify(np.zeros((0, 3)), np.array([]), np.zeros(3), 1)

    def test_kappa_out_of_range_rejected(self):
        support = np.array([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            episodic.knn_classify(support, np.array([0]), np.array([1.0, 0.0]), 2)

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
                got = episodic.knn_classify(support, classes, queries, kappa)
                assert got.dtype == np.int64 and got.shape == (n_query,)
                want = [reference.knn_oracle(support, classes, q, kappa) for q in queries]
                assert got.tolist() == want

    def test_single_query_returns_python_int(self):
        support = np.array([[1.0, 0.0], [0.0, 1.0]])
        pred = episodic.knn_classify(support, np.array([3, 4]), np.array([0.2, 0.9]), 1)
        assert type(pred) is int and pred == 4


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
        # recompute episode by episode with the same derived generators
        correct = []
        queries = []
        for episode_idx in range(25):
            rng = np.random.default_rng([4, 0, episode_idx])
            picked, drawn = draw(ds, set(range(6)), rng, task="FSG", n=4, k=2, m=3)
            support, ep_queries = episode_rows(ds, "FSG", 2, picked, drawn)
            sup = np.stack([ds.features[r] for r, _ in support])
            sup_emb, _ = net.embed_video_batch(sup)
            sup_ids = np.array([cid for _, cid in support])
            c = 0
            for row, true_cid in ep_queries:
                q = net.embed_video_batch(ds.features[row][None])[0][0]
                c += int(episodic.knn_classify(sup_emb, sup_ids, q, 2) == true_cid)
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
                rng = np.random.default_rng([18, subset_idx, episode_idx])
                picked, drawn = draw(ds, subsets[name], rng, task="CM-FSG", n=3, k=1, m=4)
                _, ep_queries = episode_rows(ds, "CM-FSG", 1, picked, drawn)
                labels = np.stack([ds.label_embeddings[cid] for cid in picked])
                if method == "JE":
                    labels = net.embed_label_batch(labels)[0]
                sup_ids = np.array(picked)
                for row, true_cid in ep_queries:
                    q = net.embed_video_batch(ds.features[row][None])[0][0]
                    correct += int(episodic.knn_classify(labels, sup_ids, q, 1) == true_cid)
                    queries += 1
            res = report.subsets[name]
            assert (res.episodes, res.queries, res.correct) == (40, queries, correct)


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
