"""Acceptance gate: numbered checks, one printed verdict line each.

Checks 1-5 are property suites with pinned tolerances. Check 6 runs the
reference end-to-end pipeline at the committed seeds below (6a a copy with
more frame noise) and applies the pinned thresholds; check 7 reruns it and
compares bytes. Verdict lines
report honest measurements; thresholds are never tuned to fit a run.
"""

import dataclasses
import math
import os
import pathlib
import time

import numpy as np
import pytest

from openset import cli, data, episodic, losses, model, splits
import reference
from test_episodic import HashEmbedModel, draw, episode_rows, make_split, tiny_dataset

FD_TOL = 1e-4             # check 1: max relative error, central differences
FD_TIME_BUDGET = 10.0     # check 1: seconds
ORACLE_TOL = 1e-10        # check 2: loss vs slow oracle, invariances
EXACT_TOL = 1e-12         # check 3: closed forms
AFFINE_TOL = 1e-10        # check 3: weighted-loss affinity
STUB_TOL = 0.03           # check 5: chance-level stub, binomial slack
MIN_GAIN_POINTS = 20.0    # check 6a: trained minus untrained, accuracy points
MAX_TRADEOFF_POINTS = 5.0  # check 6c: |joint - video-only| on few-shot
# check 6a: frame noise of its headroom pipeline, the first value on the
# ladder 1, 2, 4 whose untrained few-shot accuracy leaves room for a gain of
# 2 x MIN_GAIN_POINTS; the reference pipeline's 0.1 leaves none
HEADROOM_SIGMA_FRAME = "2.0"

# reference pipeline seeds, committed with the thresholds above
SYNTH_SEED = 0
SPLIT_SEED = 3
TRAIN_SEED = 0
EVAL_SEED = 0

MODELS = (("ve", "VE", "0"), ("we0", "WE", "0"), ("we10", "WE", "10"), ("je", "JE", "0"))


def verdict(check_id: str, label: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {check_id} {label}: {state}{suffix}")
    return ok


def unit_rows(rng, n, d):
    raw = rng.normal(size=(n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def rel_errs(analytic, fd):
    return np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))


def loss_fd_err(fn, emb, ids, h=1e-5):
    """Max relative error of fn's gradient against central differences."""
    _, grads = fn(emb, ids)
    worst = 0.0
    for idx in np.ndindex(emb.shape):
        shifted = emb.copy()
        shifted[idx] += h
        hi, _ = fn(shifted, ids)
        shifted[idx] -= 2 * h
        lo, _ = fn(shifted, ids)
        worst = max(worst, float(rel_errs(grads[idx], (hi - lo) / (2 * h))))
    return worst


def mse_fd_err(video, targets, h=1e-5):
    _, grads = losses.alignment_mse(video, targets)
    worst = 0.0
    for idx in np.ndindex(video.shape):
        shifted = video.copy()
        shifted[idx] += h
        hi, _ = losses.alignment_mse(shifted, targets)
        shifted[idx] -= 2 * h
        lo, _ = losses.alignment_mse(shifted, targets)
        worst = max(worst, float(rel_errs(grads[idx], (hi - lo) / (2 * h))))
    return worst


def encoder_fd_err(rng, path, h=1e-5):
    """FD check of one encoder's parameter gradients on a random batch."""
    cfg = model.ModelConfig(method="JE", input_dim=8, hidden_dim=6, embed_dim=8, label_dim=8)
    net = model.init_model(cfg, seed=int(rng.integers(2**31)))
    g = rng.normal(size=(12, 8))
    if path == "video":
        x = rng.normal(size=(12, 2, 8))

        def value():
            emb, _ = net.embed_video_batch(x)
            return float(np.sum(emb * g))

        _, cache = net.embed_video_batch(x)
        net.zero_grad()
        net.backward_video_batch(cache, g)
    else:
        raw = unit_rows(rng, 12, 8)

        def value():
            emb, _ = net.embed_label_batch(raw)
            return float(np.sum(emb * g))

        _, cache = net.embed_label_batch(raw)
        net.zero_grad()
        net.backward_label_batch(cache, g)
    worst = 0.0
    for blk in net.blocks():
        for arr, grad in ((blk.weights, blk.grad_weights), (blk.bias, blk.grad_bias)):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                hi = value()
                arr[idx] = orig - h
                lo = value()
                arr[idx] = orig
                worst = max(worst, float(rel_errs(grad[idx], (hi - lo) / (2 * h))))
    return worst


def test_1_gradient_suite():
    started = time.perf_counter()
    worst = 0.0
    ids = np.repeat(np.arange(4), 3)
    for rep in range(10):
        rng = np.random.default_rng([101, rep])
        emb = unit_rows(rng, 12, 8)
        worst = max(worst, loss_fd_err(losses.histogram_loss, emb, ids))
        worst = max(worst, loss_fd_err(losses.multisim_loss, emb, ids))
        worst = max(worst, mse_fd_err(emb, unit_rows(rng, 12, 8)))
        worst = max(worst, encoder_fd_err(rng, "video"))
        worst = max(worst, encoder_fd_err(rng, "label"))
    elapsed = time.perf_counter() - started
    ok = worst < FD_TOL and elapsed < FD_TIME_BUDGET
    assert verdict("1", "finite-difference gradients", ok,
                   f"max rel err {worst:.2e}, {elapsed:.1f}s"), (worst, elapsed)


def test_2_loss_oracles():
    worst = 0.0
    for rep in range(50):
        rng = np.random.default_rng([202, rep])
        sizes = rng.integers(1, 5, size=int(rng.integers(2, 6)))
        sizes[0] = max(2, sizes[0])  # guarantee a positive pair
        ids = np.repeat(np.arange(len(sizes)), sizes)
        emb = unit_rows(rng, len(ids), 6)
        h_val, _ = losses.histogram_loss(emb, ids)
        worst = max(worst, abs(h_val - reference.histogram_loss_naive(emb, ids)))
        m_val, _ = losses.multisim_loss(emb, ids)
        worst = max(worst, abs(m_val - reference.multisim_loss_naive(
            emb, ids, **dataclasses.asdict(losses.MultiSimConfig()))))

        perm = rng.permutation(len(ids))
        rot, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        for variant in ((emb[perm], ids[perm]), (emb @ rot, ids)):
            worst = max(worst, abs(losses.histogram_loss(*variant)[0] - h_val))
            worst = max(worst, abs(losses.multisim_loss(*variant)[0] - m_val))
    ok = worst <= ORACLE_TOL
    assert verdict("2", "loss oracles and invariances", ok, f"max dev {worst:.2e}"), worst


def test_3_closed_forms():
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    ids = np.array([0, 0, 1, 1])
    separated = np.stack([e1, e1, e2, e2])
    inverted = np.stack([e1, -e1, e2, -e2])
    dev = abs(losses.histogram_loss(separated, ids)[0] - 0.0)
    dev = max(dev, abs(losses.histogram_loss(inverted, ids)[0] - 1.0))

    pair = np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    two_item, _ = losses.multisim_loss(
        pair, np.array([0, 1]), losses.MultiSimConfig(alpha=2.0, beta=2.0, base=0.5)
    )
    dev = max(dev, abs(two_item - math.log(2) / 2))

    rng = np.random.default_rng(303)
    video = unit_rows(rng, 8, 5)
    targets = unit_rows(rng, 8, 5)
    ids8 = np.repeat(np.arange(2), 4)
    dml = losses.make_dml("multisim")

    def weighted(lam):
        return losses.we_loss(video, ids8, targets, lam, dml)[0]

    base = weighted(0.0)
    affine_dev = abs((weighted(10.0) - base) - 20.0 * (weighted(0.5) - base))
    ok = dev <= EXACT_TOL and affine_dev <= AFFINE_TOL
    assert verdict("3", "closed-form loss values", ok,
                   f"dev {dev:.2e}, affinity dev {affine_dev:.2e}"), (dev, affine_dev)


def _items_of(result, subset_name, granularity, table):
    cids = {"train": result.train, "val": result.validation, "test": result.test}[subset_name]
    if granularity == "class":
        return set(cids)
    if granularity == "verb":
        return {table[cid].verb_id for cid in cids}
    return {table[cid].noun_id for cid in cids}


def test_4_split_suite():
    rng = np.random.default_rng(404)
    cells = [(v, n) for v in range(20) for n in range(20)]
    keep = sorted(rng.choice(len(cells), size=120, replace=False).tolist())
    entries = {
        cid: data.ClassEntry(
            cid,
            data.ActionLabel(cells[j][0], cells[j][1], f"v{cells[j][0]:02d}", f"n{cells[j][1]:02d}"),
            int(rng.integers(3, 9)),
        )
        for cid, j in enumerate(keep)
    }
    table = data.ClassTable(entries)
    verb_counts, noun_counts = splits.context_counts(table)
    base_spec = splits.SplitSpec(p_verbs=3, p_nouns=3)
    all_classes = set(table.class_ids())

    for seed in range(100):
        spec = dataclasses.replace(base_spec, seed=seed)
        result = splits.generate_split(table, spec)
        again = splits.generate_split(table, spec)
        assert (result.train, result.validation, result.test, result.category) == (
            again.train, again.validation, again.test, again.category)

        assert result.train | result.validation | result.test == all_classes
        assert not result.train & result.validation
        assert not result.train & result.test
        assert not result.validation & result.test

        held_verbs = result.held_out_verbs_val | result.held_out_verbs_test
        held_nouns = result.held_out_nouns_val | result.held_out_nouns_test
        assert len(held_verbs) == 3 and len(held_nouns) == 3
        for verb in held_verbs:
            assert spec.v_lower <= verb_counts[verb] <= spec.v_upper
        for noun in held_nouns:
            assert spec.n_lower <= noun_counts[noun] <= spec.n_upper

        saw = set()
        for cid in all_classes:
            label = table[cid]
            verb_held = label.verb_id in held_verbs
            noun_held = label.noun_id in held_nouns
            if cid in result.train:
                assert not verb_held and not noun_held and cid not in result.category
            else:
                want = "HoVN" if verb_held and noun_held else ("HoV" if verb_held else "HoN")
                assert result.category[cid] == want
                saw.add(want)
        assert {"HoV", "HoN"} <= saw

    three = [splits.generate_split(table, dataclasses.replace(base_spec, seed=s))
             for s in (0, 1, 2)]
    stats = splits.overlap_stats(three, table)
    subset_names = ("train", "val", "test")
    for subset in subset_names:
        for gran in ("class", "verb", "noun"):
            sets = [_items_of(r, subset, gran, table) for r in three]
            assert stats.across[(subset, gran)] == reference.venn_oracle(sets)
    for result, per_gran in zip(three, stats.within):
        for gran in ("class", "verb", "noun"):
            sets = [_items_of(result, s, gran, table) for s in subset_names]
            want = {
                tuple(subset_names[i] for i in key): count
                for key, count in reference.venn_oracle(sets).items()
            }
            assert per_gran[gran] == want
    assert verdict("4", "split generation properties", True, "100 seeds")


def test_5_episodic_suite():
    ds = tiny_dataset({cid: 4 + cid % 4 for cid in range(12)}, seed=1)
    pool = set(range(12))
    for i in range(1000):
        rng = np.random.default_rng([505, i])
        picked, drawn = draw(ds, pool, rng, task=episodic.TASK_FSG, n=5, k=2, m=3)
        support, queries = episode_rows(ds, episodic.TASK_FSG, 2, picked, drawn)
        assert len(set(picked)) == 5 and set(picked) <= pool
        support_ids = {ds.instance_ids[r] for r, _ in support}
        query_ids = {ds.instance_ids[r] for r, _ in queries}
        assert not support_ids & query_ids
        for cid in picked:
            total = len(ds.class_rows[cid])
            assert sum(1 for _, c in support if c == cid) == 2
            assert sum(1 for _, c in queries if c == cid) == min(3, total - 2)

    vocab = unit_rows(np.random.default_rng(506), 4, 5)
    for i in range(1000):
        rng = np.random.default_rng([507, i])
        n_sup = int(rng.integers(3, 10))
        classes = rng.integers(0, 4, size=n_sup)
        if i % 3 == 0:  # tie-heavy: supports reuse a tiny vector pool
            emb = vocab[rng.integers(0, 4, size=n_sup)]
            query = vocab[int(rng.integers(0, 4))]
        else:
            emb = unit_rows(rng, n_sup, 5)
            query = unit_rows(rng, 1, 5)[0]
        kappa = int(rng.integers(1, n_sup + 1))
        assert episodic.knn_classify(emb, classes, query, kappa) == reference.knn_oracle(
            emb, classes, query, kappa)

    exact = tiny_dataset({cid: 6 for cid in range(8)}, noise=0.0, seed=2)
    report = episodic.evaluate(
        HashEmbedModel(), exact, make_split(range(8)),
        episodic.EvalConfig(episodic.TASK_FSG, n=5, k=1, m=4, episodes=60, seed=8))
    res = report.subsets["All"]
    assert res.accuracy == res.correct / res.queries
    per_episode = []
    for i in range(60):
        rng = np.random.default_rng([8, 0, i])
        picked, drawn = draw(exact, set(range(8)), rng, task="FSG", n=5, k=1, m=4)
        support, queries = episode_rows(exact, episodic.TASK_FSG, 1, picked, drawn)
        stub = HashEmbedModel()
        sup_emb, _ = stub.embed_video_batch(
            np.stack([exact.features[r] for r, _ in support]))
        sup_cls = np.array([c for _, c in support])
        hits = 0
        for row, cid in queries:
            q_emb, _ = stub.embed_video_batch(exact.features[row][None])
            hits += int(episodic.knn_classify(sup_emb, sup_cls, q_emb[0], 1) == cid)
        per_episode.append((hits, len(queries)))
    assert res.correct == sum(h for h, _ in per_episode)
    assert res.accuracy == reference.pooled_accuracy(
        [h for h, _ in per_episode], [q for _, q in per_episode])

    noisy = tiny_dataset({cid: 8 for cid in range(10)}, noise=1.0, seed=3)
    chance = episodic.evaluate(
        HashEmbedModel(), noisy, make_split(range(10)),
        episodic.EvalConfig(episodic.TASK_FSG, n=5, k=1, m=4, episodes=500, seed=9))
    acc = chance.subsets["All"].accuracy
    ok = abs(acc - 0.2) <= STUB_TOL
    assert verdict("5", "episodic evaluation properties", ok,
                   f"stub accuracy {acc:.4f}"), acc


# --- end-to-end reference pipeline ---


def read_subset_accuracies(path):
    out = {}
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith("#"):
            continue
        parts = line.split(",")
        out[parts[1]] = float(parts[8])
    return out


def run_reference_pipeline(root, sigma_frame="0.1", cross_modal=True):
    data_dir = os.path.join(root, "data")
    assert cli.main([
        "synth", "--out", data_dir,
        "--n-verbs", "10", "--n-nouns", "10", "--class-density", "0.7",
        "--instances-lo", "30", "--instances-hi", "30",
        "--d-latent", "8", "--input-dim", "64", "--frames", "4",
        "--label-dim", "32", "--sigma-frame", sigma_frame, "--sigma-instance", "0.1",
        "--seed", str(SYNTH_SEED),
    ]) == 0
    assert cli.main([
        "split", "--class-table", os.path.join(data_dir, "class_table.csv"),
        "--out", os.path.join(root, "splits"),
        "--p-verbs", "4", "--p-nouns", "4",
        "--p-verbs-test", "0.5", "--p-nouns-test", "0.5",
        "--seeds", str(SPLIT_SEED),
    ]) == 0
    split_csv = os.path.join(root, "splits", f"split_{SPLIT_SEED}.csv")

    for name, method, lam in MODELS:
        for tag, batches in ((name, "2000"), (name + "_raw", "0")):
            assert cli.main([
                "train", "--data", data_dir, "--split", split_csv,
                "--out", os.path.join(root, "train_" + tag),
                "--method", method, "--lambda-we", lam,
                "--max-batches", batches, "--seed", str(TRAIN_SEED),
            ]) == 0

    fsg, cm = {}, {}
    def run_eval(tag, task, store):
        out = os.path.join(root, f"eval_{'fsg' if task == 'FSG' else 'cm'}_{tag}")
        assert cli.main([
            "eval", "--checkpoint", os.path.join(root, "train_" + tag, "checkpoint.osm"),
            "--data", data_dir, "--split", split_csv, "--out", out,
            "--task", task, "--episodes", "500",
            "--n", "5", "--k", "1", "--m", "20", "--seed", str(EVAL_SEED),
        ]) == 0
        store[tag] = read_subset_accuracies(os.path.join(out, "eval.csv"))

    for name, _, _ in MODELS:
        run_eval(name, "FSG", fsg)
        run_eval(name + "_raw", "FSG", fsg)
    if cross_modal:
        for tag in ("we0", "we10", "je", "we0_raw", "je_raw"):
            run_eval(tag, "CM-FSG", cm)
    return {"root": root, "fsg": fsg, "cm": cm}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_reference_pipeline(str(tmp_path_factory.mktemp("reference")))


@pytest.fixture(scope="module")
def headroom_pipeline(tmp_path_factory):
    # 6a reads only the few-shot evals, so the cross-modal ones are skipped
    return run_reference_pipeline(str(tmp_path_factory.mktemp("headroom")),
                                  sigma_frame=HEADROOM_SIGMA_FRAME, cross_modal=False)


def test_6a_training_gain(headroom_pipeline):
    # At the reference noise level raw content alone separates every class,
    # so untrained encoders already score 1.0 few-shot and no gain can show.
    # 6a runs on the same pipeline with more frame noise instead, and first
    # checks that the untrained encoders leave room for the gain it demands.
    fsg = headroom_pipeline["fsg"]
    raw = {name: fsg[name + "_raw"]["All"] for name, _, _ in MODELS}
    ceiling = 1.0 - 2.0 * MIN_GAIN_POINTS / 100.0
    assert max(raw.values()) <= ceiling, (
        f"6a data saturated at sigma_frame {HEADROOM_SIGMA_FRAME}: untrained few-shot "
        f"accuracy {raw} exceeds {ceiling:.2f}, leaving no room for a "
        f"{MIN_GAIN_POINTS:.0f}-point gain")
    gains = {name: 100.0 * (fsg[name]["All"] - raw[name]) for name in raw}
    ok = min(gains.values()) >= MIN_GAIN_POINTS
    detail = f"sigma_frame {HEADROOM_SIGMA_FRAME}; " + ", ".join(
        f"{k} {raw[k]:.4f} -> {fsg[k]['All']:.4f} {v:+.2f}" for k, v in gains.items())
    assert verdict("6a", "trained beats untrained few-shot by >= 20 points", ok, detail), gains


def test_6b_joint_beats_direct_alignment(pipeline):
    # The generator's label map is exactly linear, which favours direct
    # regression onto the frozen label space over a learned joint space.
    je = pipeline["cm"]["je"]["All"]
    we0 = pipeline["cm"]["we0"]["All"]
    ok = je >= we0
    assert verdict("6b", "joint space beats direct alignment cross-modally", ok,
                   f"joint {je:.4f} vs direct {we0:.4f}"), (je, we0)


def test_6c_few_shot_tradeoff(pipeline):
    je = pipeline["fsg"]["je"]["All"]
    ve = pipeline["fsg"]["ve"]["All"]
    gap = 100.0 * abs(je - ve)
    ok = gap <= MAX_TRADEOFF_POINTS
    assert verdict("6c", "joint space costs <= 5 few-shot points", ok,
                   f"gap {gap:.2f} points"), gap


def test_6d_subsets_reported(pipeline):
    missing = []
    for store in (pipeline["fsg"], pipeline["cm"]):
        for tag, accs in store.items():
            for subset in ("All", "HoV", "HoN"):
                if subset not in accs:
                    missing.append((tag, subset))
    ok = not missing
    assert verdict("6d", "held-verb/held-noun/all subsets reported", ok,
                   f"{len(pipeline['fsg']) + len(pipeline['cm'])} reports"), missing


def test_7_reproducibility(pipeline, tmp_path_factory):
    rerun = run_reference_pipeline(str(tmp_path_factory.mktemp("rerun")))

    def csv_bytes(root):
        found = {}
        for dirpath, _, files in os.walk(root):
            for fname in files:
                if fname.endswith(".csv"):
                    full = os.path.join(dirpath, fname)
                    with open(full, "rb") as fh:
                        found[os.path.relpath(full, root)] = fh.read()
        return found

    first = csv_bytes(pipeline["root"])
    second = csv_bytes(rerun["root"])
    ok = set(first) == set(second) and all(first[k] == second[k] for k in first)
    assert verdict("7", "identical seeds give bit-identical tables", ok,
                   f"{len(first)} files"), sorted(set(first) ^ set(second))
