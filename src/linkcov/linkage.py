"""Blocked deterministic linkage, link counting and error accounting.

The pipeline blocks candidate pairs on (surname soundex, birth year),
applies the baseline criterion (date components within one), links with
one of two simple rules, optionally dedupes to a one-to-one link set,
and scores everything against the simulation truth deck (unit ids).
"""

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ._csvio import int_text, read_rows, write_columns, write_rows
from .popsim import PATTERNS

__all__ = [
    "RULE_BASELINE_ONLY",
    "RULE_BASELINE_AND_ANY_EXACT",
    "RULE_VARIANTS",
    "RecordPanel",
    "CandidatePairs",
    "LinkSet",
    "CountVector",
    "ConfusionMatrix",
    "ClericalEstimates",
    "sample_records",
    "block_pairs",
    "baseline_pairs",
    "link_rule1",
    "counts",
    "dedupe_rule2",
    "confusion",
    "clerical_sample",
    "LinksetRows",
    "linkset_rows",
    "dump_linkset",
    "load_linkset",
    "dump_counts",
    "load_counts",
]

RULE_BASELINE_ONLY = "baseline_only"
RULE_BASELINE_AND_ANY_EXACT = "baseline_and_any_exact"
RULE_VARIANTS = (RULE_BASELINE_ONLY, RULE_BASELINE_AND_ANY_EXACT)


@dataclass
class RecordPanel:
    """Columnar view of one sample's records.

    surname is each record's int32 index into its population's label
    table, and code the int32 rank of that label's soundex code among
    the table's distinct codes.  The two panels of one population share
    the table, so equal ids mean equal surnames, or equal codes.
    """

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
    code_ids = np.unique(pop.surname_codes,
                         return_inverse=True)[1].astype(np.int32)

    def panel(sel, sidx, day, month, year):
        sel = np.flatnonzero(sel)
        surname = sidx[sel]
        return RecordPanel(
            unit_id=sel + 1, surname=surname, code=code_ids[surname],
            day=day[sel].astype(np.int32), month=month[sel].astype(np.int32),
            year=year[sel],
        )

    return (panel(flags.in_b, pop.sidx_b, pop.day_b, pop.month_b, pop.year_b),
            panel(flags.in_a, pop.sidx_a, pop.day_a, pop.month_a, pop.year_a))


@dataclass
class CandidatePairs:
    """Cross pairs within (soundex, year) blocks, as panel positions."""

    b_pos: np.ndarray
    a_pos: np.ndarray

    @property
    def size(self):
        return self.b_pos.size


def _block_ids(panel_b, panel_a):
    """Dense (soundex, year) block number of every record, b then a.

    The block key is the record's code id times the year span plus the
    year's offset from the earliest year; np.unique numbers the keys.
    """
    key = np.concatenate([panel_b.code, panel_a.code]).astype(np.int64)
    if key.size == 0:
        return key
    years = np.concatenate([panel_b.year, panel_a.year]).astype(np.int64)
    years -= years.min()
    span = int(years.max()) + 1
    if (int(key.max()) + 1) * span > 1 << 63:
        raise ValueError("block keys of these codes and years overflow int64")
    key *= span
    key += years
    return np.unique(key, return_inverse=True)[1]


def block_pairs(panel_b, panel_a):
    """Emit every pair agreeing on surname soundex and birth year.

    Pairs come in b order, and for one b record in a order.  The a
    records are ordered by block, then position, with one sort of a key
    that has no ties; a b record's pairs are a run of that order.  At
    most three pair-length arrays are alive at once.
    """
    ids = _block_ids(panel_b, panel_a)
    id_b, id_a = ids[:panel_b.size], ids[panel_b.size:]
    order_a = np.argsort(id_a * id_a.size + np.arange(id_a.size))
    sizes = np.bincount(id_a, minlength=ids.max(initial=-1) + 1)
    starts = np.cumsum(sizes) - sizes

    per_b = sizes[id_b]
    total = int(per_b.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return CandidatePairs(empty, empty.copy())
    b_pos = np.repeat(np.arange(panel_b.size, dtype=np.int64), per_b)
    # pair t of b record i has order position starts[id_b[i]] + t - first[i]
    first = np.cumsum(per_b) - per_b
    a_pos = np.repeat(starts[id_b] - first, per_b)
    a_pos += np.arange(total)
    return CandidatePairs(b_pos, order_a[a_pos])


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
    """Links as parallel arrays of panel positions, unit ids, patterns.

    A link set read from a file carries no panel positions: b_pos and
    a_pos are None, and counts and dedupe_rule2 cannot take it.
    """

    b_pos: Optional[np.ndarray]
    a_pos: Optional[np.ndarray]
    b_unit: np.ndarray
    a_unit: np.ndarray
    pattern_code: np.ndarray

    @property
    def size(self):
        return self.b_unit.size


def baseline_pairs(panel_b, panel_a, pairs):
    """The blocked candidate pairs that meet the baseline criterion (day
    and month each within one), in pairs order, with their agreement
    patterns.  Both linkage rules keep a subset of these."""
    keep = _baseline_mask(panel_b, panel_a, pairs)
    b_pos = pairs.b_pos[keep]
    a_pos = pairs.a_pos[keep]
    return LinkSet(
        b_pos=b_pos, a_pos=a_pos,
        b_unit=panel_b.unit_id[b_pos], a_unit=panel_a.unit_id[a_pos],
        pattern_code=_pattern_codes(panel_b, panel_a, b_pos, a_pos),
    )


def _subset(links, keep):
    """The links selected by a boolean mask, in their order."""
    return LinkSet(*(getattr(links, f.name)[keep] for f in fields(LinkSet)))


def link_rule1(base, variant=RULE_BASELINE_ONLY):
    """Apply the first linkage rule, variant one of RULE_VARIANTS, to the
    baseline_pairs link set; any other name is refused.

    baseline_and_any_exact keeps the pairs agreeing exactly on at least
    one field, in their order; baseline_only links every baseline pair
    and returns base itself, not a copy.
    """
    if variant not in RULE_VARIANTS:
        raise ValueError(f"unknown rule variant {variant!r}")
    if variant == RULE_BASELINE_AND_ANY_EXACT:
        return _subset(base, base.pattern_code != 0)
    return base


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
    return _subset(links, keep)


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

    # pairs are keyed on unit ids, which a link set read from a file has
    key, key2 = _pair_keys(base_pairs, links2)
    linked = _member(key[chosen], np.sort(key2))

    matched = base_pairs.b_unit[chosen] == base_pairs.a_unit[chosen]
    n_matched = int(matched.sum())
    n_linked = int(linked.sum())
    recall_hat = float((matched & linked).sum() / n_matched) if n_matched else None
    precision_hat = float((linked & matched).sum() / n_linked) if n_linked else None
    return ClericalEstimates(recall_hat, precision_hat)


def _member(keys, sorted_keys):
    """np.isin(keys, sorted_keys) for a sorted second argument, by binary
    search rather than by np.isin's sort of both arrays together."""
    at = np.searchsorted(sorted_keys, keys)
    inside = at < sorted_keys.size
    found = np.zeros(keys.size, dtype=bool)
    found[inside] = sorted_keys[at[inside]] == keys[inside]
    return found


def _pair_keys(*linksets):
    """One int64 per (b_unit, a_unit) pair of each link set, on one
    scale for all of them, increasing in (b_unit, a_unit) order."""
    a_unit = np.concatenate([links.a_unit for links in linksets])
    lo = int(a_unit.min(initial=0))
    width = int(a_unit.max(initial=0)) - lo + 1
    return [links.b_unit.astype(np.int64) * width + (links.a_unit - lo)
            for links in linksets]


_LINKSET_HEADER = ("b_unit_id", "a_unit_id", "g1", "g2", "g3")
_LINKSET_DTYPE = np.dtype([(name, np.int64) for name in _LINKSET_HEADER])
# "g1,g2,g3" of each pattern code
_PATTERN_TEXT = np.array([",".join(map(str, p)) for p in PATTERNS],
                         dtype=object)


@dataclass(frozen=True)
class LinksetRows:
    """A link set in file order, with the text of each of its rows."""

    links: LinkSet
    text: np.ndarray

    def lookup(self, links):
        """The row numbers of links, which must each be one of these
        links with the same pattern, in file order."""
        ours, theirs = _pair_keys(self.links, links)
        rows = np.searchsorted(ours, theirs)
        codes = self.links.pattern_code
        if ((rows == ours.size).any() or (ours[rows] != theirs).any()
                or (codes[rows] != links.pattern_code).any()):
            raise ValueError("links not in the formatted link set")
        return np.sort(rows)


def linkset_rows(links):
    """The rows dump_linkset writes for links, formatted once, so that
    a subset's rows can be looked up rather than formatted again."""
    order = np.lexsort((links.a_unit, links.b_unit))
    ordered = LinkSet(None, None, links.b_unit[order], links.a_unit[order],
                      links.pattern_code[order])
    # the pattern column's text fills the three gamma fields; unit ids
    # are spelled as int_text spells a wide range, one str per value
    text = [f"{b},{a},{g}" for b, a, g in zip(
        ordered.b_unit.tolist(), ordered.a_unit.tolist(),
        _PATTERN_TEXT[ordered.pattern_code].tolist())]
    return LinksetRows(ordered, np.array(text, dtype=object))


def dump_linkset(links, dest, rows=None):
    """Write links as (b_unit_id, a_unit_id, g1, g2, g3) rows.

    rows, the linkset_rows of a link set holding every link of links,
    gives the rows' text; by default it is formatted here.
    """
    if rows is None:
        text = linkset_rows(links).text
    else:
        text = rows.text[rows.lookup(links)]
    write_rows(dest, _LINKSET_HEADER, text.tolist())


def load_linkset(source):
    """Read a `dump_linkset` file back, in file order.

    source is a path or an open text file.  The links carry unit ids and
    patterns, not panel positions (b_pos and a_pos are None).  A header
    other than the `dump_linkset` one, or an agreement field other than
    0 or 1, raises ValueError.
    """
    rows = read_rows(source, _LINKSET_HEADER, _LINKSET_DTYPE, "link set")
    mat = rows.view(np.int64).reshape(rows.size, len(_LINKSET_HEADER))
    gamma = mat[:, 2:]
    if ((gamma != 0) & (gamma != 1)).any():
        raise ValueError("link set agreement fields must be 0 or 1")
    code = (gamma[:, 0] << 2) | (gamma[:, 1] << 1) | gamma[:, 2]
    return LinkSet(None, None, mat[:, 0].copy(), mat[:, 1].copy(),
                   code.astype(np.int8))


_COUNTS_HEADER = ("b_unit_id", "n_total") + tuple(
    "n_" + "".join(map(str, p)) for p in PATTERNS[1:])
_COUNTS_DTYPE = np.dtype([(name, np.int64) for name in _COUNTS_HEADER])


def dump_counts(cv, b_unit_ids, dest):
    """Write per-record counts: total plus the seven nonzero patterns."""
    write_columns(dest, _COUNTS_HEADER, [
        int_text(b_unit_ids), int_text(cv.n_total),
        *map(int_text, cv.pattern_counts[:, 1:].T),
    ])


def load_counts(source):
    """Read a `dump_counts` file back.

    source is a path or an open text file.  Returns (b_unit_ids,
    n_total, patterns) as int64 arrays: patterns has one column per
    nonzero agreement pattern, PATTERNS[1:] order, as the file holds
    them, and shape (0, 7) for a file with no rows.  A file whose
    header is not the `dump_counts` one raises ValueError.
    """
    rows = read_rows(source, _COUNTS_HEADER, _COUNTS_DTYPE, "counts")
    mat = rows.view(np.int64).reshape(rows.size, len(_COUNTS_HEADER))
    return mat[:, 0], mat[:, 1], mat[:, 2:]
