"""Tests for disjoint-class split generation and overlap reporting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset import data, splits
from openset.errors import ConfigError, EligibilityError, ParseError

import reference


def make_table(pairs, count=5):
    """Build a class table from (class_id, verb_id, noun_id) triples."""
    entries = {
        cid: data.ClassEntry(cid, v, n, f"v{v:02d}", f"n{n:02d}", count)
        for cid, v, n in pairs
    }
    return data.ClassTable(entries)


def held_out(pairs, spec):
    """The referee's held-out item sets for the split that spec draws from
    pairs: verbs_val, verbs_test, nouns_val, nouns_test."""
    want = reference.split_reference(pairs, **dataclasses.asdict(spec))
    return tuple(want[f"held_out_{side}"] for side in (
        "verbs_val", "verbs_test", "nouns_val", "nouns_test"))


def random_pairs(n_verbs, n_nouns, density, seed):
    rng = np.random.default_rng(seed)
    cells = [(v, n) for v in range(n_verbs) for n in range(n_nouns)]
    k = round(density * len(cells))
    idx = sorted(rng.choice(len(cells), size=k, replace=False))
    return [(i, *cells[j]) for i, j in enumerate(idx)]


class TestContextCounts:
    def test_full_grid(self):
        pairs = [(i, i // 3, i % 3) for i in range(9)]
        verbs, nouns = splits.context_counts(make_table(pairs))
        assert verbs == {0: 3, 1: 3, 2: 3}
        assert nouns == {0: 3, 1: 3, 2: 3}

    def test_sparse_hand_case(self):
        pairs = [(0, 0, 0), (1, 1, 0), (2, 1, 1)]
        verbs, nouns = splits.context_counts(make_table(pairs))
        assert verbs == {0: 1, 1: 2}
        assert nouns == {0: 2, 1: 1}

    def test_matches_brute_force(self):
        pairs = random_pairs(8, 8, 0.4, seed=1)
        verbs, nouns = splits.context_counts(make_table(pairs))
        for v in verbs:
            assert verbs[v] == len({n for _, vv, n in pairs if vv == v})
        for n in nouns:
            assert nouns[n] == len({v for _, v, nn in pairs if nn == n})

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            splits.context_counts(data.ClassTable(entries={}))


class TestEligibleItems:
    def test_bounds_inclusive(self):
        counts = {0: 1, 1: 2, 2: 3}
        assert splits.eligible_items(counts, 2, 3) == {1, 2}
        assert splits.eligible_items(counts, 1, 1) == {0}
        assert splits.eligible_items(counts, 4, 9) == set()


class TestGenerateSplit:
    def test_no_holdout_is_all_train(self):
        pairs = random_pairs(5, 5, 0.6, seed=2)
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec())
        assert r.classes("train") == set(table.class_ids())
        assert r.classes("val") == set() and r.classes("test") == set()
        assert r.category == {}
        verbs_val, _, _, nouns_test = held_out(pairs, splits.SplitSpec())
        assert verbs_val == set() and nouns_test == set()

    def test_single_verb_to_test_full_grid(self):
        pairs = [(4 * v + n, v, n) for v in range(4) for n in range(4)]
        table = make_table(pairs)
        spec = splits.SplitSpec(p_verbs=1, p_verbs_test=1.0, seed=7)
        r = splits.generate_split(table, spec)
        held = next(iter(held_out(pairs, spec)[1]))
        assert r.classes("test") == {4 * held + n for n in range(4)}
        assert r.classes("val") == set()
        assert len(r.classes("train")) == 12
        assert all(cat == splits.CATEGORY_HOV for cat in r.category.values())

    def test_test_takes_precedence_and_category_uses_union(self):
        # verb 0 is the only verb with 3 contexts, noun 0 the only noun with 3;
        # pin eligibility so exactly those are drawn, verb to test, noun to val
        pairs = [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 1, 0), (4, 1, 1),
                 (5, 2, 0), (6, 2, 2)]
        table = make_table(pairs)
        spec = splits.SplitSpec(
            v_lower=3, v_upper=3, n_lower=3, n_upper=3,
            p_verbs=1, p_verbs_test=1.0, p_nouns=1, p_nouns_test=0.0, seed=0,
        )
        r = splits.generate_split(table, spec)
        _, verbs_test, nouns_val, _ = held_out(pairs, spec)
        assert verbs_test == {0}
        assert nouns_val == {0}
        # class 0 has a test-held verb and a val-held noun: test wins,
        # category still reflects both sides
        assert 0 in r.classes("test")
        assert r.category[0] == splits.CATEGORY_HOVN
        assert r.category[1] == splits.CATEGORY_HOV
        assert r.category[2] == splits.CATEGORY_HOV
        assert r.category[3] == splits.CATEGORY_HON
        assert r.category[5] == splits.CATEGORY_HON
        assert r.classes("val") == {3, 5}
        assert r.classes("train") == {4, 6}

    def test_ceil_rounding_of_test_share(self):
        pairs = [(4 * v + n, v, n) for v in range(5) for n in range(4)]
        table = make_table(pairs)
        spec = splits.SplitSpec(p_verbs=3, p_verbs_test=0.5, seed=1)
        r = splits.generate_split(table, spec)
        verbs_val, verbs_test, _, _ = held_out(pairs, spec)
        assert len(verbs_test) == 2
        assert len(verbs_val) == 1
        assert len(r.classes("test")) == 8 and len(r.classes("val")) == 4

    def test_matches_reference_procedure(self):
        pairs = random_pairs(10, 10, 0.5, seed=4)
        table = make_table(pairs)
        for seed in range(5):
            spec = splits.SplitSpec(
                n_lower=2, p_verbs=3, p_nouns=2,
                p_verbs_test=0.5, p_nouns_test=0.5, seed=seed,
            )
            got = splits.generate_split(table, spec)
            want = reference.split_reference(
                pairs,
                v_lower=spec.v_lower, v_upper=spec.v_upper,
                n_lower=spec.n_lower, n_upper=spec.n_upper,
                p_verbs=spec.p_verbs, p_nouns=spec.p_nouns,
                p_verbs_test=spec.p_verbs_test, p_nouns_test=spec.p_nouns_test,
                seed=spec.seed,
            )
            assert got.classes("train") == want["train"]
            assert got.classes("val") == want["validation"]
            assert got.classes("test") == want["test"]
            assert got.category == want["category"]

    def test_deterministic(self):
        pairs = random_pairs(8, 8, 0.5, seed=5)
        table = make_table(pairs)
        spec = splits.SplitSpec(p_verbs=2, p_nouns=2, seed=3)
        a = splits.generate_split(table, spec)
        b = splits.generate_split(table, spec)
        assert a.subset == b.subset
        assert a.category == b.category

    def test_eligibility_deficit_reported(self):
        pairs = [(0, 0, 0), (1, 1, 0)]
        table = make_table(pairs)
        with pytest.raises(EligibilityError, match="need 5"):
            splits.generate_split(table, splits.SplitSpec(p_verbs=5))

    def test_invariants_over_many_seeds(self):
        pairs = random_pairs(20, 20, 0.3, seed=6)
        table = make_table(pairs)
        all_ids = set(table.class_ids())
        for seed in range(100):
            spec = splits.SplitSpec(p_verbs=4, p_nouns=4, seed=seed)
            r = splits.generate_split(table, spec)
            verbs_val, verbs_test, nouns_val, nouns_test = held_out(pairs, spec)
            train, val, test = (r.classes(name) for name in ("train", "val", "test"))
            # partition
            assert train | val | test == all_ids
            assert not (train & val)
            assert not (train & test)
            assert not (val & test)
            # categories cover exactly the non-train classes
            assert set(r.category) == val | test
            held_v = verbs_val | verbs_test
            held_n = nouns_val | nouns_test
            # no held item ever appears in a training class
            for cid in train:
                assert table[cid].verb_id not in held_v
                assert table[cid].noun_id not in held_n
            # category names tell exactly which sides are held
            for cid, cat in r.category.items():
                v_held = table[cid].verb_id in held_v
                n_held = table[cid].noun_id in held_n
                want = {
                    (True, False): splits.CATEGORY_HOV,
                    (False, True): splits.CATEGORY_HON,
                    (True, True): splits.CATEGORY_HOVN,
                }[(v_held, n_held)]
                assert cat == want
            # test membership is exactly "touches a test-held item"
            for cid in val | test:
                touches_test = (
                    table[cid].verb_id in verbs_test
                    or table[cid].noun_id in nouns_test
                )
                assert (cid in test) == touches_test


class TestImbalance:
    def test_balanced_full_grid(self):
        pairs = [(4 * v + n, v, n) for v in range(4) for n in range(4)]
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec(
            p_verbs=2, p_nouns=2, seed=0,
        ))
        assert splits.imbalance_ratio(r) == 1.0

    def test_empty_side_is_inf(self):
        pairs = [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 1, 0), (4, 1, 1),
                 (5, 2, 0), (6, 2, 2)]
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec(
            v_lower=3, v_upper=3, n_lower=3, n_upper=3,
            p_verbs=1, p_verbs_test=1.0, p_nouns=1, p_nouns_test=0.0, seed=0,
        ))
        assert splits.imbalance_ratio(r) == float("inf")


class TestVennRegions:
    def test_two_set_hand_case(self):
        regions = splits.venn_regions([{1, 2}, {2, 3}])
        assert regions == {(0,): 1, (1,): 1, (0, 1): 1}

    def test_disjoint_sets(self):
        regions = splits.venn_regions([{1}, {2}, {3}])
        assert regions[(0,)] == 1 and regions[(1,)] == 1 and regions[(2,)] == 1
        assert all(v == 0 for k, v in regions.items() if len(k) > 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sets = [
                set(rng.choice(30, size=rng.integers(0, 15), replace=False).tolist())
                for _ in range(int(rng.integers(1, 5)))
            ]
            assert splits.venn_regions(sets) == reference.venn_oracle(sets)

    def test_counts_cover_union(self):
        sets = [{1, 2, 3}, {3, 4}, {4, 5, 1}]
        regions = splits.venn_regions(sets)
        assert sum(regions.values()) == len(set().union(*sets))


class TestOverlapStats:
    def test_identical_splits_all_mass_in_full_overlap(self):
        pairs = random_pairs(8, 8, 0.5, seed=8)
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec(p_verbs=2, p_nouns=2, seed=1))
        stats = splits.overlap_stats([r, r], table)
        regions = stats.across[("test", "class")]
        assert regions[(0, 1)] == len(r.classes("test"))
        assert regions[(0,)] == 0 and regions[(1,)] == 0

    def test_across_matches_oracle(self):
        pairs = random_pairs(10, 10, 0.5, seed=9)
        table = make_table(pairs)
        results = [
            splits.generate_split(table, splits.SplitSpec(p_verbs=3, p_nouns=3, seed=s))
            for s in range(3)
        ]
        stats = splits.overlap_stats(results, table)
        for subset_name in ("train", "val", "test"):
            class_sets = [r.classes(subset_name) for r in results]
            assert stats.across[(subset_name, "class")] == reference.venn_oracle(class_sets)
            verb_sets = [
                {table[cid].verb_id for cid in classes} for classes in class_sets
            ]
            assert stats.across[(subset_name, "verb")] == reference.venn_oracle(verb_sets)

    def test_within_classes_disjoint_but_items_shared(self):
        pairs = random_pairs(10, 10, 0.6, seed=10)
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec(p_verbs=2, p_nouns=2, seed=2))
        stats = splits.overlap_stats([r], table)
        class_regions = stats.within[0]["class"]
        # subsets partition the classes: no multi-subset region has mass
        for key, count in class_regions.items():
            if len(key) > 1:
                assert count == 0
        assert class_regions[("train",)] == len(r.classes("train"))
        # verbs are shared across subsets through different classes
        verb_regions = stats.within[0]["verb"]
        shared = sum(count for key, count in verb_regions.items() if len(key) > 1)
        assert shared > 0

    def test_csv_written(self, tmp_path):
        pairs = random_pairs(6, 6, 0.6, seed=11)
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec(p_verbs=2, p_nouns=2, seed=0))
        stats = splits.overlap_stats([r, r], table)
        path = tmp_path / "overlap.csv"
        splits.write_overlap_stats(str(path), stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "scope,subset,split,granularity,region,count"
        assert any(line.startswith("across,test,-,class,0+1,") for line in lines)
        assert any(line.startswith("within,-,0,verb,") for line in lines)


class TestSplitSerialization:
    def test_round_trip(self, tmp_path):
        pairs = random_pairs(9, 9, 0.5, seed=12)
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec(p_verbs=3, p_nouns=3, seed=4))
        path = str(tmp_path / "split.csv")
        splits.write_split(path, r)
        back = splits.read_split(path, table)
        assert back.subset == r.subset
        assert back.category == r.category
        for seed in range(20):
            r = splits.generate_split(table, splits.SplitSpec(p_verbs=3, p_nouns=3, seed=seed))
            splits.write_split(path, r)
            assert splits.read_split(path, table) == r

    def test_header_and_train_marker(self, tmp_path):
        pairs = [(0, 0, 0), (1, 1, 1)]
        table = make_table(pairs)
        r = splits.generate_split(table, splits.SplitSpec())
        path = tmp_path / "split.csv"
        splits.write_split(str(path), r)
        lines = path.read_text().splitlines()
        assert lines[0] == "class_id,subset,category"
        assert lines[1] == "0,train,-"

    def test_text_matches_reference_rendering(self, tmp_path):
        # the referee's sets rendered as the file: sorted ids, '-' for train
        pairs = random_pairs(10, 10, 0.5, seed=13)
        table = make_table(pairs)
        path = tmp_path / "split.csv"
        for seed in range(20):
            spec = splits.SplitSpec(n_lower=2, p_verbs=3, p_nouns=2, seed=seed)
            want = reference.split_reference(pairs, **dataclasses.asdict(spec))
            rows = {
                cid: f"{cid},{name},{'-' if name == 'train' else want['category'][cid]}\n"
                for name, key in (("train", "train"), ("val", "validation"), ("test", "test"))
                for cid in want[key]
            }
            text = "class_id,subset,category\n" + "".join(rows[cid] for cid in sorted(rows))
            splits.write_split(str(path), splits.generate_split(table, spec))
            assert path.read_bytes() == text.encode()

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.integers(0, 10**9),
        st.sampled_from([("train", "-")] + [
            (name, cat) for name in ("val", "test") for cat in ("HoV", "HoN", "HoVN")
        ]),
        max_size=30,
    ))
    def test_rewrite_reproduces_any_valid_file(self, tmp_path_factory, rows):
        table = make_table([(cid, cid, cid) for cid in rows])
        text = "class_id,subset,category\n" + "".join(
            f"{cid},{name},{cat}\n" for cid, (name, cat) in sorted(rows.items()))
        path = tmp_path_factory.mktemp("split") / "split.csv"
        path.write_text(text)
        splits.write_split(str(path), splits.read_split(str(path), table))
        assert path.read_bytes() == text.encode()

    def test_unknown_subset_rejected(self, tmp_path):
        table = make_table([(0, 0, 0)])
        path = tmp_path / "split.csv"
        path.write_text("class_id,subset,category\n0,bogus,-\n")
        with pytest.raises(ParseError, match="bogus"):
            splits.read_split(str(path), table)

    def test_train_with_category_rejected(self, tmp_path):
        table = make_table([(0, 0, 0)])
        path = tmp_path / "split.csv"
        path.write_text("class_id,subset,category\n0,train,HoV\n")
        with pytest.raises(ParseError):
            splits.read_split(str(path), table)

    def test_unknown_class_rejected(self, tmp_path):
        table = make_table([(0, 0, 0)])
        path = tmp_path / "split.csv"
        path.write_text("class_id,subset,category\n5,train,-\n")
        with pytest.raises(ParseError, match="5"):
            splits.read_split(str(path), table)

    def test_duplicate_class_rejected(self, tmp_path):
        table = make_table([(0, 0, 0)])
        path = tmp_path / "split.csv"
        path.write_text("class_id,subset,category\n0,train,-\n0,train,-\n")
        with pytest.raises(ParseError, match="duplicate"):
            splits.read_split(str(path), table)

    def test_invalid_utf8_rejected(self, tmp_path):
        table = make_table([(0, 0, 0)])
        path = tmp_path / "split.csv"
        path.write_bytes(b"class_id,subset,category\n0,tr\xfein,-\n")
        with pytest.raises(ParseError, match="UTF-8"):
            splits.read_split(str(path), table)
