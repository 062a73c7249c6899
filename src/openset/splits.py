"""Disjoint-class split generation for open-set evaluation.

Verbs and nouns are held out at the item level: a class lands in test or
validation when its verb or noun is held out, so train/validation/test class
sets are disjoint by construction, yet individual verbs and nouns may still
be shared with training through other class contexts. Non-train classes are
categorized by which side is held out: HoV (verb), HoN (noun), HoVN (both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ClassTable, read_text
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
    """Class partition plus the held-out item sets that induced it.

    category maps every non-train class to HoV, HoN, or HoVN, judged against
    the union of validation- and test-held items (a held-out verb or noun
    never appears in any training class).
    """

    train: set[int]
    validation: set[int]
    test: set[int]
    held_out_verbs_val: set[int]
    held_out_verbs_test: set[int]
    held_out_nouns_val: set[int]
    held_out_nouns_test: set[int]
    category: dict[int, str]

    def subset_of(self, class_id: int) -> str:
        if class_id in self.train:
            return "train"
        if class_id in self.validation:
            return "val"
        if class_id in self.test:
            return "test"
        raise ConfigError(f"class {class_id} not in any subset")

    def classes_in_category(self, subset: set[int], category: str) -> set[int]:
        return {cid for cid in subset if self.category.get(cid) == category}


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

    train: set[int] = set()
    validation: set[int] = set()
    test: set[int] = set()
    category: dict[int, str] = {}
    for cid in table.class_ids():
        lab = table[cid]
        verb_held = lab.verb_id in held_verbs
        noun_held = lab.noun_id in held_nouns
        if lab.verb_id in verbs_test or lab.noun_id in nouns_test:
            test.add(cid)
        elif verb_held or noun_held:
            validation.add(cid)
        else:
            train.add(cid)
            continue
        if verb_held and noun_held:
            category[cid] = CATEGORY_HOVN
        elif verb_held:
            category[cid] = CATEGORY_HOV
        else:
            category[cid] = CATEGORY_HON

    return SplitResult(
        train=train,
        validation=validation,
        test=test,
        held_out_verbs_val=verbs_val,
        held_out_verbs_test=verbs_test,
        held_out_nouns_val=nouns_val,
        held_out_nouns_test=nouns_test,
        category=category,
    )


def imbalance_ratio(result: SplitResult) -> float:
    """Max/min ratio over the four held-out class counts (HoV validation,
    HoV test, HoN validation, HoN test); inf when any subset is empty.
    Reported so callers can reject lopsided draws; never filtered here."""
    counts = [
        len(result.classes_in_category(result.validation, CATEGORY_HOV)),
        len(result.classes_in_category(result.test, CATEGORY_HOV)),
        len(result.classes_in_category(result.validation, CATEGORY_HON)),
        len(result.classes_in_category(result.test, CATEGORY_HON)),
    ]
    if min(counts) == 0:
        return float("inf")
    return max(counts) / min(counts)


# --- overlap statistics ---


def _items_of(result: SplitResult, subset_name: str, granularity: str, table: ClassTable) -> set:
    classes = {"train": result.train, "val": result.validation, "test": result.test}[subset_name]
    if granularity == "class":
        return set(classes)
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
    across = {}
    for subset_name in _SUBSET_NAMES:
        for gran in ("class", "verb", "noun"):
            sets = [_items_of(r, subset_name, gran, table) for r in results]
            across[(subset_name, gran)] = venn_regions(sets)
    within = []
    for r in results:
        per_gran = {}
        for gran in ("class", "verb", "noun"):
            sets = [_items_of(r, s, gran, table) for s in _SUBSET_NAMES]
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
    all_ids = sorted(result.train | result.validation | result.test)
    for cid in all_ids:
        subset = result.subset_of(cid)
        category = result.category.get(cid, "-")
        lines.append(f"{cid},{subset},{category}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_split(path: str, table: ClassTable) -> SplitResult:
    """Rebuild a SplitResult from its CSV. Held-out item sets are
    reconstructed from the categories: a verb is held out when some HoV or
    HoVN class carries it, placed in the val or test side its classes appear
    in (both, if mixed). Evaluation needs only subsets and categories, so
    this reconstruction is sufficient for round trips through the CLI."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != _SPLIT_HEADER:
        raise ParseError(f"{path}: expected header {_SPLIT_HEADER!r}")
    train: set[int] = set()
    validation: set[int] = set()
    test: set[int] = set()
    category: dict[int, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            cid = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer class_id") from exc
        subset, cat = parts[1], parts[2]
        if subset not in _VALID_SUBSETS:
            raise ParseError(f"{path}:{lineno}: unknown subset {subset!r}")
        if cat not in _VALID_CATEGORIES:
            raise ParseError(f"{path}:{lineno}: unknown category {cat!r}")
        if cid not in table:
            raise ParseError(f"{path}:{lineno}: class {cid} not in class table")
        if cid in train or cid in validation or cid in test:
            raise ParseError(f"{path}:{lineno}: duplicate class_id {cid}")
        if subset == "train":
            if cat != "-":
                raise ParseError(f"{path}:{lineno}: train class with category {cat!r}")
            train.add(cid)
        else:
            if cat == "-":
                raise ParseError(f"{path}:{lineno}: non-train class without category")
            (validation if subset == "val" else test).add(cid)
            category[cid] = cat

    verbs_val: set[int] = set()
    verbs_test: set[int] = set()
    nouns_val: set[int] = set()
    nouns_test: set[int] = set()
    for cid, cat in category.items():
        lab = table[cid]
        into_test = cid in test
        if cat in (CATEGORY_HOV, CATEGORY_HOVN):
            (verbs_test if into_test else verbs_val).add(lab.verb_id)
        if cat in (CATEGORY_HON, CATEGORY_HOVN):
            (nouns_test if into_test else nouns_val).add(lab.noun_id)

    return SplitResult(
        train=train,
        validation=validation,
        test=test,
        held_out_verbs_val=verbs_val,
        held_out_verbs_test=verbs_test,
        held_out_nouns_val=nouns_val,
        held_out_nouns_test=nouns_test,
        category=category,
    )


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
