"""Surname and birth-year frequency tables.

Two sources are supported: ingestion of census-style CSV files (surname
counts, population estimates by age) and a deterministic synthetic
generator used when no census files are available.

The synthetic surname table is calibrated, at a chosen reference
population size, so that blocked linkage of two 90% Bernoulli samples
produces roughly 0.045 false-positive links per record and a one-to-one
dedupe keeps roughly 94.4% of the matched links.  Both quantities are
driven entirely by the concentration of the soundex-code and birth-year
distributions, so the calibration solves for the mass and multiplicity
of a handful of "common" surname families against a long tail of rare
ones.
"""

import csv
import io
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import brentq

from .soundex import soundex

__all__ = [
    "FrequencyTable",
    "SoundexIndex",
    "load_frequency_table",
    "build_soundex_index",
    "synthetic_age_table",
    "synthetic_surname_table",
]

# Operating point targets used by the synthetic-table calibration, at the
# table's reference population size with 90% sampling on both sides.
TARGET_FP_PER_RECORD = 0.0454
TARGET_MATCH_SURVIVAL = 0.944
SAMPLING_RATE = 0.9

# P(|day difference| <= 1) and P(|month difference| <= 1) for independent
# uniform draws on 1..30 and 1..12.
DAY_WINDOW = (28 * 3 + 2 * 2) / 30.0 ** 2
MONTH_WINDOW = (10 * 3 + 2 * 2) / 12.0 ** 2
DATE_WINDOW = DAY_WINDOW * MONTH_WINDOW


@dataclass(frozen=True)
class FrequencyTable:
    """Discrete distribution over string or integer labels."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if len(self.labels) != probs.size:
            raise ValueError("labels and probabilities differ in length")
        if probs.size == 0:
            raise ValueError("empty frequency table")
        if np.any(probs <= 0):
            raise ValueError("all probabilities must be strictly positive")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        object.__setattr__(self, "probs", _renormalized(probs))

    @classmethod
    def from_counts(cls, labels, counts):
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("zero total count")
        return cls(tuple(labels), counts / total)

    @property
    def entries(self):
        return list(zip(self.labels, self.probs))

    @property
    def size(self):
        return len(self.labels)

    @cached_property
    def soundex_index(self):
        """The table grouped by soundex code; see build_soundex_index."""
        return SoundexIndex(self)


def _renormalized(probs):
    """probs, divided by their sum unless that is within 1e-12 of one."""
    total = probs.sum()
    return probs / total if abs(total - 1.0) > 1e-12 else probs


def _read_only(a):
    a.flags.writeable = False
    return a


class SoundexIndex(Mapping):
    """A surname table grouped by soundex code, as read-only arrays.

    Classes are numbered in the order of their first label in the table.

    - ``codes``: the U4 soundex code of each label, in table order;
    - ``label_class``: the class of each label;
    - ``members``, ``starts``: label indices grouped by class, in table
      order within a class; class c holds
      ``members[starts[c]:starts[c + 1]]``;
    - ``within``: the probability of each member within its class,
      aligned with ``members``; the arithmetic is that of
      ``FrequencyTable.from_counts`` on the members' probabilities.

    ``labels`` and ``probs`` are the table's own.  As a mapping, the
    index takes a code to the FrequencyTable of its class.
    """

    def __init__(self, table):
        self.labels = table.labels
        self.probs = table.probs
        codes = np.array([soundex(label) for label in table.labels],
                         dtype="U4")
        uniq, first, inv = np.unique(codes, return_index=True,
                                     return_inverse=True)
        class_of_code = np.empty(uniq.size, dtype=np.int32)
        class_of_code[np.argsort(first)] = np.arange(uniq.size)
        label_class = class_of_code[inv]
        members = np.argsort(label_class, kind="stable").astype(np.int32)
        starts = np.zeros(uniq.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(label_class), out=starts[1:])
        within = np.empty(members.size)
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
            counts = table.probs[members[lo:hi]]
            within[lo:hi] = _renormalized(counts / counts.sum())
        self.codes = _read_only(codes)
        self.label_class = _read_only(label_class)
        self.members = _read_only(members)
        self.starts = _read_only(starts)
        self.within = _read_only(within)
        self._class_of = dict(zip(uniq.tolist(), class_of_code.tolist()))

    def __getitem__(self, code):
        c = self._class_of[code]
        lo, hi = self.starts[c], self.starts[c + 1]
        return FrequencyTable(
            tuple(self.labels[m] for m in self.members[lo:hi].tolist()),
            self.within[lo:hi])

    def __iter__(self):
        return iter(self.codes[self.members[self.starts[:-1]]].tolist())

    def __len__(self):
        return self.starts.size - 1


def _open_text(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    return open(source, "r", encoding="utf-8", newline="")


def load_frequency_table(source, kind, column_map=None, delimiter=",",
                         reference_year=2010):
    """Ingest a census-style CSV into a FrequencyTable.

    kind="surname": expects label/count columns (default ``name`` and
    ``count``); the "ALL OTHER NAMES" row is dropped before
    normalization.  kind="age": expects ``AGE`` and ``POPESTIMATE2010``
    columns, sums the counts per age over all strata rows and converts
    ages to birth years as reference_year - age.

    column_map remaps {"label": ..., "count": ...} to actual column
    names.  Failures name the offending row.
    """
    if kind not in ("surname", "age"):
        raise ValueError(f"unknown table kind {kind!r}")
    defaults = {"surname": {"label": "name", "count": "count"},
                "age": {"label": "AGE", "count": "POPESTIMATE2010"}}[kind]
    colmap = dict(defaults)
    if column_map:
        colmap.update(column_map)

    fh = _open_text(source)
    try:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty input: no header row") from None
        lookup = {name.strip().lower(): i for i, name in enumerate(header)}
        try:
            label_col = lookup[colmap["label"].strip().lower()]
            count_col = lookup[colmap["count"].strip().lower()]
        except KeyError as exc:
            raise ValueError(f"missing column {exc.args[0]!r} in header") from None

        totals = {}
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                raw_label = row[label_col].strip()
                count = float(row[count_col])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"row {rownum}: cannot parse ({exc})") from None
            if kind == "surname":
                label = raw_label.upper()
                if label == "ALL OTHER NAMES":
                    continue
            else:
                try:
                    label = reference_year - int(raw_label)
                except ValueError:
                    raise ValueError(
                        f"row {rownum}: age {raw_label!r} is not an integer"
                    ) from None
            totals[label] = totals.get(label, 0.0) + count
    finally:
        fh.close()

    totals = {k: v for k, v in totals.items() if v > 0}
    if not totals:
        raise ValueError("empty table after exclusion")
    labels = sorted(totals)
    return FrequencyTable.from_counts(labels, [totals[k] for k in labels])


def build_soundex_index(table):
    """Group a surname table by soundex code.

    Returns the table's SoundexIndex: a mapping from each code to the
    FrequencyTable of the surnames sharing it (probabilities
    renormalized within the class), backed by read-only arrays.  It is
    built on the first call and kept with the table, so later calls on
    the same table return the same object.
    """
    return table.soundex_index


@lru_cache(maxsize=None)
def synthetic_age_table(reference_year=2010):
    """Mildly declining age pyramid over ages 0..85, as birth years."""
    ages = np.arange(86)
    weights = np.where(ages < 50, 1.0, 1.0 - 0.025 * (ages - 49))
    weights = np.maximum(weights, 0.08)
    years = tuple(int(reference_year - a) for a in ages)
    return FrequencyTable.from_counts(years, weights)


# Name material: a family is (first letter, three soundex digits); its
# member names interleave vowels so every consonant contributes its digit.
# Shares within a family are concentrated on one dominant spelling, as in
# census data where one common form carries most of a code's mass; the
# implied within-code exact-agreement rate for unmatched pairs is ~0.62.
_FIRST_LETTERS = "BCDFGJKLMNPRSTVZXQ"
_DIGIT_CONSONANTS = {1: "BFPV", 2: "CGKS", 3: "DT", 4: "L", 5: "MN", 6: "R"}
_VARIANT_VOWELS = (
    ("A", "A", "O"), ("E", "I", "A"), ("O", "U", "E"),
    ("I", "O", "U"), ("U", "E", "I"), ("A", "I", "E"),
)
_VARIANT_SHARES = (0.78, 0.08, 0.05, 0.04, 0.03, 0.02)


def _family_names(family_index):
    """Distinct surnames sharing one soundex code."""
    letter = _FIRST_LETTERS[family_index % len(_FIRST_LETTERS)]
    rest = family_index // len(_FIRST_LETTERS)
    digits = (rest % 6 + 1, rest // 6 % 6 + 1, rest // 36 % 6 + 1)
    names = []
    for v, vowels in enumerate(_VARIANT_VOWELS):
        parts = [letter]
        for vowel, digit in zip(vowels, digits):
            options = _DIGIT_CONSONANTS[digit]
            parts.append(vowel)
            parts.append(options[v % len(options)])
        names.append("".join(parts))
    return names


class _OperatingPoint:
    """The operating point of code-probability vectors, in reused arrays.

    A record in soundex/year class (c, y) accrues false positives at
    Poisson rate lam(c,y) = rate * (N-1) * P(c) * P(y) * date window,
    on each side of the linkage; a matched link survives the strict
    one-to-one dedupe when neither side has extra links.

    Each method fills the class masses of its vector into one array and
    works in a second, both sized once for up to max_codes codes, so
    that an evaluation allocates nothing.
    """

    def __init__(self, year_probs, n_population, max_codes):
        self.year_probs = year_probs
        self.rate = SAMPLING_RATE * (n_population - 1) * DATE_WINDOW
        self._mass = np.empty(max_codes * year_probs.size)
        self._work = np.empty_like(self._mass)

    def _mass_and_lam(self, code_probs):
        shape = (code_probs.size, self.year_probs.size)
        size = shape[0] * shape[1]
        mass = self._mass[:size].reshape(shape)
        lam = self._work[:size].reshape(shape)
        np.outer(code_probs, self.year_probs, out=mass)
        np.multiply(self.rate, mass, out=lam)
        return mass, lam

    def fp_per_record(self, code_probs):
        """Expected false-positive links per record."""
        mass, lam = self._mass_and_lam(code_probs)
        return float(np.multiply(mass, lam, out=lam).sum())

    def survival(self, code_probs):
        """Share of matched links that survive the one-to-one dedupe."""
        mass, work = self._mass_and_lam(code_probs)
        np.multiply(-2.0, work, out=work)
        np.exp(work, out=work)
        return float(np.multiply(mass, work, out=work).sum())


def _operating_point(code_probs, year_probs, n_population):
    """Expected FP links per record and matched-link survival rate."""
    code_probs = np.asarray(code_probs)
    op = _OperatingPoint(year_probs, n_population, code_probs.size)
    return op.fp_per_record(code_probs), op.survival(code_probs)


# The calibration tries each count of hot families, and brackets the hot
# mass by these ends.
_HOT_COUNTS = range(1, 13)
_HOT_MASS_BRACKET = (1e-4, 0.6)
# The calibration-limit hint names a reference size to this precision.
_SIZE_STEP = 10000


class _Calibration:
    """Survival gaps of hot-plus-cold code tables at one reference size.

    Each distinct (n_hot, hot_mass) is evaluated once and remembered, so
    brentq's first two evaluations reuse the bracket check's.
    """

    def __init__(self, reference_size, n_cold):
        self.n_cold = n_cold
        self.cold_raw = (np.arange(1, n_cold + 1) + 10.0) ** -0.3
        self.op = _OperatingPoint(synthetic_age_table().probs,
                                  reference_size, _HOT_COUNTS[-1] + n_cold)
        self._gaps = {}

    def assemble(self, n_hot, hot_mass):
        code_probs = np.empty(n_hot + self.n_cold)
        code_probs[:n_hot] = hot_mass / n_hot
        code_probs[n_hot:] = ((1.0 - hot_mass) * self.cold_raw
                              / self.cold_raw.sum())
        return code_probs

    def survival_gap(self, hot_mass, n_hot):
        key = (n_hot, hot_mass)
        if key not in self._gaps:
            surv = self.op.survival(self.assemble(n_hot, hot_mass))
            self._gaps[key] = surv - TARGET_MATCH_SURVIVAL
        return self._gaps[key]

    def bracketed(self, n_hot):
        """Whether the survival target lies between the bracket ends."""
        lo, hi = _HOT_MASS_BRACKET
        return not (self.survival_gap(lo, n_hot) < 0
                    or self.survival_gap(hi, n_hot) > 0)


def _largest_calibrated_size(reference_size, n_cold):
    """The largest multiple of _SIZE_STEP below reference_size whose
    table calibrates, or None; bisects on the bracket checks alone."""
    def calibrates(k):
        cal = _Calibration(k * _SIZE_STEP, n_cold)
        return any(cal.bracketed(n_hot) for n_hot in _HOT_COUNTS)

    lo, hi = 0, -(-reference_size // _SIZE_STEP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if calibrates(mid):
            lo = mid
        else:
            hi = mid
    return lo * _SIZE_STEP if lo else None


@lru_cache(maxsize=None)
def synthetic_surname_table(reference_size=50000, n_cold=3600):
    """Deterministic census-like surname distribution.

    The table holds a few "hot" families (common names) plus n_cold
    rare families with a gentle power-law decay.  The hot mass and
    family count are solved so the linkage operating point at the
    reference population size matches the calibration targets.
    """
    # The calibrated probabilities are pinned bit for bit, because the
    # population digests in tests/test_population_golden.py and
    # perfbench/reference.json depend on them.  So every evaluation runs
    # the same products in the same order and sums the whole C-contiguous
    # class-mass array with one .sum(), which fixes numpy's pairwise
    # summation order; only the arrays are reused.
    cal = _Calibration(reference_size, n_cold)
    best = None
    for n_hot in _HOT_COUNTS:
        if not cal.bracketed(n_hot):
            continue
        hot_mass = brentq(cal.survival_gap, *_HOT_MASS_BRACKET,
                          args=(n_hot,), xtol=1e-12)
        fp_rate = cal.op.fp_per_record(cal.assemble(n_hot, hot_mass))
        err = abs(fp_rate - TARGET_FP_PER_RECORD)
        if best is None or err < best[0]:
            best = (err, n_hot, hot_mass)
    # brentq wraps survival_gap in a closure that refers to itself, which
    # would keep the evaluation arrays (5 MB) until the next garbage
    # collection; drop them now.
    cal.op = None
    if best is None:
        message = (f"cannot calibrate synthetic table at size "
                   f"{reference_size} with n_cold={n_cold}")
        largest = _largest_calibrated_size(reference_size, n_cold)
        if largest is not None:
            message += (f"; the largest reference size that calibrates, "
                        f"in steps of {_SIZE_STEP}, is {largest}: set the "
                        f"table_reference_size config key to at most that "
                        f"to borrow its table")
        raise RuntimeError(message)
    _, n_hot, hot_mass = best

    family_probs = cal.assemble(n_hot, hot_mass)
    labels = []
    probs = []
    for f, fam_prob in enumerate(family_probs):
        for name, share in zip(_family_names(f), _VARIANT_SHARES):
            labels.append(name)
            probs.append(fam_prob * share)
    return FrequencyTable(tuple(labels), np.asarray(probs))
