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


def _operating_point(code_probs, year_probs, n_population):
    """Expected FP links per record and matched-link survival rate.

    A record in soundex/year class (c, y) accrues false positives at
    Poisson rate lam(c,y) = rate * (N-1) * P(c) * P(y) * date window,
    on each side of the linkage; a matched link survives the strict
    one-to-one dedupe when neither side has extra links.
    """
    class_mass = np.outer(code_probs, year_probs)
    lam = SAMPLING_RATE * (n_population - 1) * DATE_WINDOW * class_mass
    fp_per_record = float((class_mass * lam).sum())
    survival = float((class_mass * np.exp(-2.0 * lam)).sum())
    return fp_per_record, survival


@lru_cache(maxsize=None)
def synthetic_surname_table(reference_size=50000, n_cold=3600):
    """Deterministic census-like surname distribution.

    The table holds a few "hot" families (common names) plus n_cold
    rare families with a gentle power-law decay.  The hot mass and
    family count are solved so the linkage operating point at the
    reference population size matches the calibration targets.
    """
    year_probs = synthetic_age_table().probs
    cold_raw = (np.arange(1, n_cold + 1) + 10.0) ** -0.3

    def assemble(n_hot, hot_mass):
        code_probs = np.empty(n_hot + n_cold)
        code_probs[:n_hot] = hot_mass / n_hot
        code_probs[n_hot:] = (1.0 - hot_mass) * cold_raw / cold_raw.sum()
        return code_probs

    def survival_gap(hot_mass, n_hot):
        probs = assemble(n_hot, hot_mass)
        _, surv = _operating_point(probs, year_probs, reference_size)
        return surv - TARGET_MATCH_SURVIVAL

    best = None
    for n_hot in range(1, 13):
        lo, hi = 1e-4, 0.6
        if survival_gap(lo, n_hot) < 0 or survival_gap(hi, n_hot) > 0:
            continue
        hot_mass = brentq(survival_gap, lo, hi, args=(n_hot,), xtol=1e-12)
        probs = assemble(n_hot, hot_mass)
        fp_rate, _ = _operating_point(probs, year_probs, reference_size)
        err = abs(fp_rate - TARGET_FP_PER_RECORD)
        if best is None or err < best[0]:
            best = (err, n_hot, hot_mass)
    if best is None:
        raise RuntimeError(
            f"cannot calibrate synthetic table at size {reference_size}"
        )
    _, n_hot, hot_mass = best

    family_probs = assemble(n_hot, hot_mass)
    labels = []
    probs = []
    for f, fam_prob in enumerate(family_probs):
        for name, share in zip(_family_names(f), _VARIANT_SHARES):
            labels.append(name)
            probs.append(fam_prob * share)
    return FrequencyTable(tuple(labels), np.asarray(probs))
