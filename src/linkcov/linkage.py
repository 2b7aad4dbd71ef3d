"""Blocked deterministic linkage, link counting and error accounting.

The pipeline blocks candidate pairs on (surname soundex, birth year),
applies the baseline criterion (date components within one), links with
one of two simple rules, optionally dedupes to a one-to-one link set,
and scores everything against the simulation truth deck (unit ids).
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .popsim import PATTERNS, Record
from .soundex import soundex

__all__ = [
    "RULE_BASELINE_ONLY",
    "RULE_BASELINE_AND_ANY_EXACT",
    "LinkageRuleSpec",
    "RecordPanel",
    "CandidatePairs",
    "LinkSet",
    "CountVector",
    "ConfusionMatrix",
    "ClericalEstimates",
    "sample_records",
    "block_pairs",
    "baseline",
    "agreement",
    "link_rule1",
    "baseline_pairs",
    "counts",
    "dedupe_rule2",
    "confusion",
    "clerical_sample",
    "dump_linkset",
    "dump_counts",
    "load_counts",
]

RULE_BASELINE_ONLY = "baseline_only"
RULE_BASELINE_AND_ANY_EXACT = "baseline_and_any_exact"


@dataclass(frozen=True)
class LinkageRuleSpec:
    """First-rule variant; the decision is a pure pair function."""

    variant: str = RULE_BASELINE_ONLY

    def __post_init__(self):
        if self.variant not in (RULE_BASELINE_ONLY, RULE_BASELINE_AND_ANY_EXACT):
            raise ValueError(f"unknown rule variant {self.variant!r}")


@dataclass
class RecordPanel:
    """Columnar view of one sample's records."""

    unit_id: np.ndarray
    surname: np.ndarray
    code: np.ndarray
    day: np.ndarray
    month: np.ndarray
    year: np.ndarray

    @property
    def size(self):
        return self.unit_id.size


def sample_records(pop, flags):
    """Extract the S_B panel (second register) and S_A panel (first)."""
    bsel = np.flatnonzero(flags.in_b)
    asel = np.flatnonzero(flags.in_a)
    panel_b = RecordPanel(
        unit_id=bsel + 1,
        surname=pop.surname_labels[pop.sidx_b[bsel]],
        code=pop.surname_codes[pop.sidx_b[bsel]],
        day=pop.day_b[bsel].astype(np.int32),
        month=pop.month_b[bsel].astype(np.int32),
        year=pop.year_b[bsel],
    )
    panel_a = RecordPanel(
        unit_id=asel + 1,
        surname=pop.surname_labels[pop.sidx_a[asel]],
        code=pop.surname_codes[pop.sidx_a[asel]],
        day=pop.day_a[asel].astype(np.int32),
        month=pop.month_a[asel].astype(np.int32),
        year=pop.year_a[asel],
    )
    return panel_b, panel_a


@dataclass
class CandidatePairs:
    """Cross pairs within (soundex, year) blocks, as panel positions."""

    b_pos: np.ndarray
    a_pos: np.ndarray

    @property
    def size(self):
        return self.b_pos.size


def block_pairs(panel_b, panel_a):
    """Emit every pair agreeing on surname soundex and birth year."""
    key_b = np.char.add(np.char.add(panel_b.code, "|"), panel_b.year.astype("U8"))
    key_a = np.char.add(np.char.add(panel_a.code, "|"), panel_a.year.astype("U8"))
    uniq, inv = np.unique(np.concatenate([key_b, key_a]), return_inverse=True)
    inv_b = inv[: key_b.size]
    inv_a = inv[key_b.size:]

    order_a = np.argsort(inv_a, kind="stable")
    sorted_gids = inv_a[order_a]
    starts = np.searchsorted(sorted_gids, np.arange(uniq.size))
    sizes = np.diff(np.append(starts, sorted_gids.size))

    per_b = sizes[inv_b]
    total = int(per_b.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return CandidatePairs(empty, empty.copy())
    b_pos = np.repeat(np.arange(panel_b.size, dtype=np.int64), per_b)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(per_b) - per_b, per_b
    )
    a_pos = order_a[np.repeat(starts[inv_b], per_b) + offsets]
    return CandidatePairs(b_pos, a_pos.astype(np.int64))


def baseline(rec_b: Record, rec_a: Record) -> bool:
    """Same soundex and birth year, day and month each within one."""
    return (
        soundex(rec_b.surname) == soundex(rec_a.surname)
        and rec_b.year == rec_a.year
        and abs(rec_b.day - rec_a.day) <= 1
        and abs(rec_b.month - rec_a.month) <= 1
    )


def agreement(rec_b: Record, rec_a: Record):
    """Exact-agreement indicators (surname, day, month)."""
    return (
        int(rec_b.surname == rec_a.surname),
        int(rec_b.day == rec_a.day),
        int(rec_b.month == rec_a.month),
    )


def _baseline_mask(panel_b, panel_a, pairs):
    day_ok = np.abs(panel_b.day[pairs.b_pos] - panel_a.day[pairs.a_pos]) <= 1
    month_ok = np.abs(panel_b.month[pairs.b_pos] - panel_a.month[pairs.a_pos]) <= 1
    return day_ok & month_ok


def _pattern_codes(panel_b, panel_a, b_pos, a_pos):
    g1 = panel_b.surname[b_pos] == panel_a.surname[a_pos]
    g2 = panel_b.day[b_pos] == panel_a.day[a_pos]
    g3 = panel_b.month[b_pos] == panel_a.month[a_pos]
    return (g1.astype(np.int8) << 2) | (g2.astype(np.int8) << 1) | g3.astype(np.int8)


@dataclass
class LinkSet:
    """Links as parallel arrays of panel positions, unit ids, patterns."""

    b_pos: np.ndarray
    a_pos: np.ndarray
    b_unit: np.ndarray
    a_unit: np.ndarray
    pattern_code: np.ndarray

    @property
    def size(self):
        return self.b_pos.size

    def pairs(self):
        """Set view over (b_unit, a_unit), for small examples."""
        return set(zip(self.b_unit.tolist(), self.a_unit.tolist()))


def link_rule1(panel_b, panel_a, pairs, spec=LinkageRuleSpec()):
    """Apply the first linkage rule to blocked candidate pairs."""
    keep = _baseline_mask(panel_b, panel_a, pairs)
    b_pos = pairs.b_pos[keep]
    a_pos = pairs.a_pos[keep]
    codes = _pattern_codes(panel_b, panel_a, b_pos, a_pos)
    if spec.variant == RULE_BASELINE_AND_ANY_EXACT:
        nz = codes != 0
        b_pos, a_pos, codes = b_pos[nz], a_pos[nz], codes[nz]
    return LinkSet(
        b_pos=b_pos, a_pos=a_pos,
        b_unit=panel_b.unit_id[b_pos], a_unit=panel_a.unit_id[a_pos],
        pattern_code=codes,
    )


def baseline_pairs(panel_b, panel_a, pairs):
    """All baseline-satisfying pairs with their agreement patterns."""
    keep = _baseline_mask(panel_b, panel_a, pairs)
    b_pos = pairs.b_pos[keep]
    a_pos = pairs.a_pos[keep]
    codes = _pattern_codes(panel_b, panel_a, b_pos, a_pos)
    return LinkSet(
        b_pos=b_pos, a_pos=a_pos,
        b_unit=panel_b.unit_id[b_pos], a_unit=panel_a.unit_id[a_pos],
        pattern_code=codes,
    )


@dataclass
class CountVector:
    """Per-S_B-record link counts, total and by agreement pattern.

    pattern_counts has one column per PATTERNS entry (the all-zero
    pattern included, so the columns partition n_total whenever the
    rule links every baseline pair).
    """

    n_total: np.ndarray
    pattern_counts: np.ndarray

    @property
    def size(self):
        return self.n_total.size


def counts(links, size_b):
    """Count links per S_B record, overall and per pattern."""
    n_total = np.bincount(links.b_pos, minlength=size_b).astype(np.int64)
    mat = np.zeros((size_b, len(PATTERNS)), dtype=np.int64)
    np.add.at(mat, (links.b_pos, links.pattern_code), 1)
    return CountVector(n_total=n_total, pattern_counts=mat)


def dedupe_rule2(links):
    """Keep only links whose endpoints each carry a single link.

    Degrees are computed once on the input set, so the rule deletes
    every link touching a multi-linked record rather than thinning.
    """
    if links.size == 0:
        return links
    deg_b = np.bincount(links.b_pos)
    deg_a = np.bincount(links.a_pos)
    keep = (deg_b[links.b_pos] == 1) & (deg_a[links.a_pos] == 1)
    return LinkSet(
        b_pos=links.b_pos[keep], a_pos=links.a_pos[keep],
        b_unit=links.b_unit[keep], a_unit=links.a_unit[keep],
        pattern_code=links.pattern_code[keep],
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    """Link/match cross-tabulation over the S_B x S_A universe."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def recall(self) -> Optional[float]:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @property
    def precision(self) -> Optional[float]:
        d = self.tp + self.fp
        return self.tp / d if d else None

    @property
    def fpr(self) -> Optional[float]:
        d = self.fp + self.tn
        return self.fp / d if d else None


def confusion(links, n_matched_pairs, size_b, size_a):
    """Score a link set against the truth deck.

    n_matched_pairs is |S_A intersect S_B|: every co-sampled unit
    contributes exactly one matched pair.  False negatives count
    matched pairs not linked, wherever they fall relative to the
    blocking; true negatives complete the full S_B x S_A universe.
    """
    tp = int(np.count_nonzero(links.b_unit == links.a_unit))
    fp = int(links.size - tp)
    fn = int(n_matched_pairs - tp)
    tn = int(size_b) * int(size_a) - tp - fp - fn
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class ClericalEstimates:
    """Linkage accuracy estimated from a reviewed pair sample."""

    recall_hat: Optional[float]
    precision_hat: Optional[float]
    sample_size: int


def clerical_sample(base_pairs, links2, m, rng):
    """Emulate clerical review on a simple random sample of baseline pairs.

    Sampled pairs are judged with the truth deck; the one-to-one rule's
    link indicator gives the estimated recall (among sampled matched
    pairs) and precision (among sampled linked pairs).  False negatives
    outside the baseline set are ignored by construction.
    """
    n_pairs = base_pairs.size
    if m <= 0:
        raise ValueError("clerical sample size must be positive")
    if m > n_pairs:
        raise ValueError(f"clerical sample size {m} exceeds {n_pairs} pairs")
    chosen = rng.choice(n_pairs, size=m, replace=False)

    width = int(base_pairs.a_pos.max()) + 1 if n_pairs else 1
    key = base_pairs.b_pos.astype(np.int64) * width + base_pairs.a_pos
    key2 = links2.b_pos.astype(np.int64) * width + links2.a_pos
    linked = np.isin(key[chosen], key2)

    matched = base_pairs.b_unit[chosen] == base_pairs.a_unit[chosen]
    n_matched = int(matched.sum())
    n_linked = int(linked.sum())
    recall_hat = float((matched & linked).sum() / n_matched) if n_matched else None
    precision_hat = float((linked & matched).sum() / n_linked) if n_linked else None
    return ClericalEstimates(recall_hat, precision_hat, m)


def dump_linkset(links, dest):
    """Write links as (b_unit_id, a_unit_id, g1, g2, g3) rows."""
    own = not hasattr(dest, "write")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("b_unit_id", "a_unit_id", "g1", "g2", "g3"))
        order = np.lexsort((links.a_unit, links.b_unit))
        gammas = np.asarray(PATTERNS)[links.pattern_code[order]]
        writer.writerows(zip(links.b_unit[order].tolist(),
                             links.a_unit[order].tolist(),
                             *gammas.T.tolist()))
    finally:
        if own:
            fh.close()


_COUNTS_HEADER = ("b_unit_id", "n_total") + tuple(
    "n_" + "".join(map(str, p)) for p in PATTERNS[1:])


def dump_counts(cv, b_unit_ids, dest):
    """Write per-record counts: total plus the seven nonzero patterns."""
    own = not hasattr(dest, "write")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COUNTS_HEADER)
        writer.writerows(zip(np.asarray(b_unit_ids).tolist(),
                             cv.n_total.tolist(),
                             *cv.pattern_counts[:, 1:].T.tolist()))
    finally:
        if own:
            fh.close()


def load_counts(source):
    """Read a `dump_counts` file back.

    source is a path or an open text file.  Returns (b_unit_ids,
    n_total, patterns) as int64 arrays: patterns has one column per
    nonzero agreement pattern, PATTERNS[1:] order, as the file holds
    them.  A file whose header is not the `dump_counts` one raises
    ValueError.
    """
    own = not hasattr(source, "read")
    fh = open(source, "r", encoding="utf-8", newline="") if own else source
    try:
        header = next(csv.reader([fh.readline()]), None)
        if header is None or tuple(header) != _COUNTS_HEADER:
            raise ValueError("unexpected counts header")
        mat = np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2)
    finally:
        if own:
            fh.close()
    return mat[:, 0], mat[:, 1], mat[:, 2:]
