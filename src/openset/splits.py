"""Disjoint-class split generation for open-set evaluation.

Verbs and nouns are held out at the item level: a class lands in test or
validation when its verb or noun is held out, so train/validation/test class
sets are disjoint by construction, yet individual verbs and nouns may still
be shared with training through other class contexts. Non-train classes are
categorized by which side is held out: HoV (verb), HoN (noun), HoVN (both).
A drawn split holds the split CSV's two columns, each class's subset and
each non-train class's category: all that a run reads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import ClassTable, read_rows, write_lines
from .errors import ConfigError, EligibilityError, ParseError, check_fields

CATEGORY_HOV = "HoV"
CATEGORY_HON = "HoN"
CATEGORY_HOVN = "HoVN"

_SUBSET_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of one split draw.

    Context-count cutoffs bound which verbs/nouns are eligible for holding
    out; p_verbs/p_nouns are how many to hold out; the *_test fractions say
    what share of the held-out items goes to test (rest to validation).
    """

    v_lower: int = 0
    v_upper: int = 10**9
    n_lower: int = 0
    n_upper: int = 10**9
    p_verbs: int = 0
    p_nouns: int = 0
    p_verbs_test: float = 0.5
    p_nouns_test: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.v_lower > self.v_upper or self.n_lower > self.n_upper:
            raise ConfigError("split: lower cutoff exceeds upper cutoff")
        if self.p_verbs < 0 or self.p_nouns < 0:
            raise ConfigError("split: held-out counts must be nonnegative")
        if not (0.0 <= self.p_verbs_test <= 1.0 and 0.0 <= self.p_nouns_test <= 1.0):
            raise ConfigError("split: test fractions must be in [0, 1]")


@dataclass
class SplitResult:
    """One split as its CSV holds it, a field per column.

    subset maps every class to train, val or test; category maps every
    non-train class to HoV, HoN, or HoVN, judged against the union of
    validation- and test-held items (a held-out verb or noun never appears
    in any training class).
    """

    subset: dict[int, str]
    category: dict[int, str]

    def classes(self, name: str) -> set[int]:
        """The classes of subset name (train, val or test)."""
        return {cid for cid, subset in self.subset.items() if subset == name}


def context_counts(table: ClassTable) -> tuple[dict[int, int], dict[int, int]]:
    """Count distinct partners: nouns per verb and verbs per noun."""
    if len(table) == 0:
        raise ConfigError("context_counts: empty class table")
    verb_partners: dict[int, set[int]] = {}
    noun_partners: dict[int, set[int]] = {}
    for cid in table.class_ids():
        lab = table[cid]
        verb_partners.setdefault(lab.verb_id, set()).add(lab.noun_id)
        noun_partners.setdefault(lab.noun_id, set()).add(lab.verb_id)
    return (
        {v: len(s) for v, s in verb_partners.items()},
        {n: len(s) for n, s in noun_partners.items()},
    )


def eligible_items(counts: dict[int, int], lower: int, upper: int) -> set[int]:
    """Ids whose context count lies in [lower, upper]."""
    return {item for item, c in counts.items() if lower <= c <= upper}


def _sample_held_out(
    eligible: set[int], count: int, test_fraction: float, rng: np.random.Generator, kind: str
) -> tuple[set[int], set[int]]:
    """Draw `count` items without replacement; the first ceil(count * frac)
    of the draw go to test, the rest to validation."""
    if len(eligible) < count:
        raise EligibilityError(
            f"split: need {count} eligible {kind}, only {len(eligible)} available"
        )
    if count == 0:
        return set(), set()
    pool = sorted(eligible)
    picked = [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]
    n_test = math.ceil(count * test_fraction)
    return set(picked[:n_test]), set(picked[n_test:])


def generate_split(table: ClassTable, spec: SplitSpec) -> SplitResult:
    """Draw one split: sample held-out verbs/nouns from the eligible pools,
    then assign classes test-first so a class with a test-held item never
    reaches validation or train. Deterministic in spec.seed."""
    verb_counts, noun_counts = context_counts(table)
    eligible_verbs = eligible_items(verb_counts, spec.v_lower, spec.v_upper)
    eligible_nouns = eligible_items(noun_counts, spec.n_lower, spec.n_upper)

    rng = np.random.default_rng(spec.seed)
    verbs_test, verbs_val = _sample_held_out(
        eligible_verbs, spec.p_verbs, spec.p_verbs_test, rng, "verbs"
    )
    nouns_test, nouns_val = _sample_held_out(
        eligible_nouns, spec.p_nouns, spec.p_nouns_test, rng, "nouns"
    )

    held_verbs = verbs_test | verbs_val
    held_nouns = nouns_test | nouns_val

    subset: dict[int, str] = {}
    category: dict[int, str] = {}
    for cid in table.class_ids():
        lab = table[cid]
        verb_held = lab.verb_id in held_verbs
        noun_held = lab.noun_id in held_nouns
        if lab.verb_id in verbs_test or lab.noun_id in nouns_test:
            subset[cid] = "test"
        elif verb_held or noun_held:
            subset[cid] = "val"
        else:
            subset[cid] = "train"
            continue
        if verb_held and noun_held:
            category[cid] = CATEGORY_HOVN
        elif verb_held:
            category[cid] = CATEGORY_HOV
        else:
            category[cid] = CATEGORY_HON

    return SplitResult(subset, category)


def imbalance_ratio(result: SplitResult) -> float:
    """Max/min ratio over the four held-out class counts (HoV validation,
    HoV test, HoN validation, HoN test); inf when any subset is empty.
    Reported so callers can reject lopsided draws; never filtered here."""
    pairs = Counter((result.subset[cid], cat) for cid, cat in result.category.items())
    counts = [
        pairs[name, cat] for cat in (CATEGORY_HOV, CATEGORY_HON) for name in ("val", "test")
    ]
    if min(counts) == 0:
        return float("inf")
    return max(counts) / min(counts)


# --- overlap statistics ---


def _items_of(classes: set[int], granularity: str, table: ClassTable) -> set:
    if granularity == "class":
        return classes
    if granularity == "verb":
        return {table[cid].verb_id for cid in classes}
    if granularity == "noun":
        return {table[cid].noun_id for cid in classes}
    raise ConfigError(f"unknown granularity {granularity!r}")


def venn_regions(sets: list[set]) -> dict[tuple[int, ...], int]:
    """Exclusive region sizes of an n-set Venn decomposition.

    Keys are sorted index tuples; value = number of items belonging to
    exactly those sets. Empty regions are included (count 0).
    """
    n = len(sets)
    universe = set().union(*sets) if sets else set()
    regions = {}
    for mask in range(1, 2**n):
        members = tuple(i for i in range(n) if mask & (1 << i))
        regions[members] = 0
    for item in universe:
        members = tuple(i for i in range(n) if item in sets[i])
        regions[members] += 1
    return regions


@dataclass
class OverlapStats:
    """Exclusive Venn-region counts.

    across: (subset name, granularity) -> regions over the splits, keyed by
    split-index tuples. within: one entry per split, granularity -> regions
    over (train, val, test), keyed by subset-name tuples.
    """

    across: dict[tuple[str, str], dict[tuple[int, ...], int]]
    within: list[dict[str, dict[tuple[str, ...], int]]]


def overlap_stats(results: list[SplitResult], table: ClassTable) -> OverlapStats:
    """Overlap between splits and between subsets of each split, at class,
    verb, and noun granularity."""
    if not results:
        raise ConfigError("overlap_stats: need at least one split")
    members = [{name: r.classes(name) for name in _SUBSET_NAMES} for r in results]
    across = {}
    for subset_name in _SUBSET_NAMES:
        for gran in ("class", "verb", "noun"):
            sets = [_items_of(m[subset_name], gran, table) for m in members]
            across[(subset_name, gran)] = venn_regions(sets)
    within = []
    for m in members:
        per_gran = {}
        for gran in ("class", "verb", "noun"):
            sets = [_items_of(m[s], gran, table) for s in _SUBSET_NAMES]
            regions = venn_regions(sets)
            per_gran[gran] = {
                tuple(_SUBSET_NAMES[i] for i in key): count for key, count in regions.items()
            }
        within.append(per_gran)
    return OverlapStats(across=across, within=within)


# --- serialization ---

_SPLIT_HEADER = "class_id,subset,category"
_VALID_SUBSETS = set(_SUBSET_NAMES)
_VALID_CATEGORIES = {"-", CATEGORY_HOV, CATEGORY_HON, CATEGORY_HOVN}


def write_split(path: str, result: SplitResult) -> None:
    """One CSV row per class: class_id,subset,category ('-' for train)."""
    lines = [_SPLIT_HEADER]
    for cid in sorted(result.subset):
        category = result.category.get(cid, "-")
        lines.append(f"{cid},{result.subset[cid]},{category}")
    write_lines(path, lines)


def read_split(path: str, table: ClassTable) -> SplitResult:
    """Rebuild a SplitResult from its CSV; read_split(write_split(r)) == r."""
    subset: dict[int, str] = {}
    category: dict[int, str] = {}
    for lineno, parts in read_rows(path, _SPLIT_HEADER):
        try:
            cid = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer class_id") from exc
        name, cat = parts[1], parts[2]
        if name not in _VALID_SUBSETS:
            raise ParseError(f"{path}:{lineno}: unknown subset {name!r}")
        if cat not in _VALID_CATEGORIES:
            raise ParseError(f"{path}:{lineno}: unknown category {cat!r}")
        if cid not in table:
            raise ParseError(f"{path}:{lineno}: class {cid} not in class table")
        if cid in subset:
            raise ParseError(f"{path}:{lineno}: duplicate class_id {cid}")
        if name == "train" and cat != "-":
            raise ParseError(f"{path}:{lineno}: train class with category {cat!r}")
        if name != "train" and cat == "-":
            raise ParseError(f"{path}:{lineno}: non-train class without category")
        subset[cid] = name
        if cat != "-":
            category[cid] = cat

    return SplitResult(subset, category)


_OVERLAP_HEADER = "scope,subset,split,granularity,region,count"


def write_overlap_stats(path: str, stats: OverlapStats) -> None:
    """Flat CSV of the exclusive Venn regions; region members joined by '+'."""
    lines = [_OVERLAP_HEADER]
    for (subset_name, gran), regions in sorted(stats.across.items()):
        for key in sorted(regions):
            region = "+".join(str(i) for i in key)
            lines.append(f"across,{subset_name},-,{gran},{region},{regions[key]}")
    for idx, per_gran in enumerate(stats.within):
        for gran in ("class", "verb", "noun"):
            regions = per_gran[gran]
            for key in sorted(regions):
                region = "+".join(key)
                lines.append(f"within,-,{idx},{gran},{region},{regions[key]}")
    write_lines(path, lines)
