"""Synthetic two-register populations with log-linear record perturbation.

Each unit gets a first record (surname, birth day/month/year drawn from
the configured tables) and a second record derived from it by drawing an
agreement pattern gamma in {0,1}^3 from a log-linear distribution and
perturbing the disagreeing fields: surname redrawn within its soundex
class, day/month shifted by one.  The construction keeps the second
record inside the blocking neighborhood of the first (same soundex and
birth year, date components within one), so a baseline-criterion linkage
has no false negatives.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .frequencies import FrequencyTable, build_soundex_index
from .soundex import soundex

__all__ = [
    "PATTERNS",
    "Record",
    "PerturbationParams",
    "Population",
    "SampleFlags",
    "pattern_distribution",
    "draw_pattern",
    "perturb_record",
    "generate_population",
    "draw_samples",
    "dump_population",
    "load_population",
]

# All agreement patterns (gamma_1, gamma_2, gamma_3) in lexicographic
# order; index of a pattern equals 4*g1 + 2*g2 + g3.
PATTERNS = tuple(
    (g1, g2, g3) for g1 in (0, 1) for g2 in (0, 1) for g3 in (0, 1)
)
PATTERN_INDEX = {p: i for i, p in enumerate(PATTERNS)}

# Surname labels are stored as fixed-width strings of this many characters.
LABEL_WIDTH = 16


@dataclass(frozen=True)
class Record:
    """One register entry: surname plus birth date components."""

    surname: str
    day: int
    month: int
    year: int

    def __post_init__(self):
        if not 1 <= self.day <= 31:
            raise ValueError(f"day {self.day} outside 1..31")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month {self.month} outside 1..12")


@dataclass(frozen=True)
class PerturbationParams:
    """Log-linear coefficients of the agreement-pattern distribution.

    u_main holds the three main effects, u_pair the (1,2), (1,3), (2,3)
    interactions and u_triple the third-order term.
    """

    u_main: tuple = (1.0, 1.0, 1.0)
    u_pair: tuple = (0.0, 0.0, 0.0)
    u_triple: float = 0.0

    def __post_init__(self):
        vals = (*self.u_main, *self.u_pair, self.u_triple)
        if len(self.u_main) != 3 or len(self.u_pair) != 3:
            raise ValueError("u_main and u_pair each need three entries")
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("perturbation parameters must be finite")


@dataclass
class Population:
    """Columnar store of N units with their two records.

    surname_labels is the shared name universe; sidx_* index into it.
    """

    surname_labels: np.ndarray
    surname_codes: np.ndarray
    sidx_a: np.ndarray
    day_a: np.ndarray
    month_a: np.ndarray
    year_a: np.ndarray
    sidx_b: np.ndarray
    day_b: np.ndarray
    month_b: np.ndarray
    year_b: np.ndarray
    singleton_fallbacks: int = 0

    @property
    def n(self):
        return self.sidx_a.size

    @property
    def unit_ids(self):
        return np.arange(1, self.n + 1)

    def record_a(self, i):
        return Record(str(self.surname_labels[self.sidx_a[i]]),
                      int(self.day_a[i]), int(self.month_a[i]),
                      int(self.year_a[i]))

    def record_b(self, i):
        return Record(str(self.surname_labels[self.sidx_b[i]]),
                      int(self.day_b[i]), int(self.month_b[i]),
                      int(self.year_b[i]))


@dataclass
class SampleFlags:
    """Bernoulli inclusion indicators for the two samples."""

    in_a: np.ndarray
    in_b: np.ndarray
    pi_a: float
    pi_b: float

    def __post_init__(self):
        if self.in_a.shape != self.in_b.shape:
            raise ValueError("flag arrays differ in length")
        if not (0 < self.pi_a <= 1 and 0 < self.pi_b <= 1):
            raise ValueError("inclusion probabilities must lie in (0, 1]")


def pattern_distribution(params):
    """Probabilities of the eight agreement patterns, PATTERNS order."""
    u1, u2, u3 = params.u_main
    u12, u13, u23 = params.u_pair
    logw = np.array([
        g1 * u1 + g2 * u2 + g3 * u3
        + g1 * g2 * u12 + g1 * g3 * u13 + g2 * g3 * u23
        + g1 * g2 * g3 * params.u_triple
        for g1, g2, g3 in PATTERNS
    ])
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def draw_pattern(params, rng):
    """Draw one agreement pattern."""
    return PATTERNS[rng.choice(8, p=pattern_distribution(params))]


def _draw_patterns(params, rng, n):
    return rng.choice(8, size=n, p=pattern_distribution(params))


def _shift_by_one(values, keep, lo, hi, rng):
    """Move each non-kept entry up or down by one, respecting bounds."""
    signs = rng.integers(0, 2, size=values.size) * 2 - 1
    signs = np.where(values == lo, 1, signs)
    signs = np.where(values == hi, -1, signs)
    out = values.copy()
    move = ~keep
    out[move] = values[move] + signs[move]
    return out


def _redraw_alternatives(table, soundex_index):
    """Per-name redraw distributions within each soundex class."""
    label_to_idx = {lab: i for i, lab in enumerate(table.labels)}
    alternatives = {}
    for sub in soundex_index.values():
        idxs = np.array([label_to_idx[l] for l in sub.labels])
        if idxs.size == 1:
            alternatives[int(idxs[0])] = None
            continue
        for j in range(idxs.size):
            others = np.delete(idxs, j)
            oprobs = np.delete(sub.probs, j)
            alternatives[int(idxs[j])] = (others, oprobs / oprobs.sum())
    return alternatives


def perturb_record(rec, gamma, soundex_index, rng, day_max=30):
    """Produce the second-register record for one unit.

    gamma components: 1 keeps the field, 0 perturbs it.  The birth year
    never changes.  Surnames are redrawn among other census names with
    the same soundex code, proportionally to their frequencies; a
    surname with no alternative in its class keeps gamma_1 = 1.
    """
    g1, g2, g3 = gamma
    surname = rec.surname
    if g1 == 0:
        code = soundex(surname)
        sub = soundex_index[code]
        if sub.size > 1:
            others = [(l, p) for l, p in sub.entries if l != surname]
            labels = [l for l, _ in others]
            probs = np.array([p for _, p in others])
            surname = labels[rng.choice(len(labels), p=probs / probs.sum())]
    day = rec.day
    if g2 == 0:
        if day == 1:
            day = 2
        elif day == day_max:
            day = day_max - 1
        else:
            day += int(rng.integers(0, 2)) * 2 - 1
    month = rec.month
    if g3 == 0:
        if month == 1:
            month = 2
        elif month == 12:
            month = 11
        else:
            month += int(rng.integers(0, 2)) * 2 - 1
    return Record(surname, day, month, rec.year)


def generate_population(n, surnames, years, params, soundex_index, rng):
    """Generate N units with both registers.

    The draw order is fixed (surnames, years, months, days, patterns,
    day shifts, month shifts, surname redraws grouped by name index), so
    identical generator states give bitwise-identical populations.
    A surname label longer than LABEL_WIDTH characters raises ValueError.
    """
    if n < 1:
        raise ValueError("population size must be at least 1")
    labels = _labels(surnames.labels)
    sidx_a = rng.choice(surnames.size, size=n, p=surnames.probs).astype(np.int32)
    year_labels = np.asarray([int(y) for y in years.labels])
    year_a = year_labels[rng.choice(years.size, size=n, p=years.probs)]
    month_a = rng.integers(1, 13, size=n).astype(np.int16)
    day_a = rng.integers(1, 31, size=n).astype(np.int16)

    pidx = _draw_patterns(params, rng, n)
    g1 = (pidx >> 2) & 1
    g2 = (pidx >> 1) & 1
    g3 = pidx & 1

    day_b = _shift_by_one(day_a, g2 == 1, 1, 30, rng)
    month_b = _shift_by_one(month_a, g3 == 1, 1, 12, rng)

    alternatives = _redraw_alternatives(surnames, soundex_index)
    sidx_b = sidx_a.copy()
    fallbacks = 0
    redraw_mask = g1 == 0
    affected = np.flatnonzero(redraw_mask)
    for name_idx in np.unique(sidx_a[affected]):
        slots = affected[sidx_a[affected] == name_idx]
        alt = alternatives[int(name_idx)]
        if alt is None:
            fallbacks += slots.size
            continue
        others, oprobs = alt
        sidx_b[slots] = others[rng.choice(others.size, size=slots.size, p=oprobs)]

    codes = np.asarray([soundex(l) for l in surnames.labels], dtype="U4")
    return Population(
        surname_labels=labels, surname_codes=codes,
        sidx_a=sidx_a, day_a=day_a, month_a=month_a,
        year_a=year_a.astype(np.int32),
        sidx_b=sidx_b, day_b=day_b, month_b=month_b,
        year_b=year_a.astype(np.int32).copy(),
        singleton_fallbacks=fallbacks,
    )


def draw_samples(pop, pi_a, pi_b, rng):
    """Independent Bernoulli samples from the two registers."""
    if not (0 < pi_a <= 1 and 0 < pi_b <= 1):
        raise ValueError("inclusion probabilities must lie in (0, 1]")
    in_a = rng.random(pop.n) < pi_a
    in_b = rng.random(pop.n) < pi_b
    return SampleFlags(in_a=in_a, in_b=in_b, pi_a=pi_a, pi_b=pi_b)


_DUMP_COLUMNS = ("unit_id", "surname_a", "day_a", "month_a", "year_a",
                 "surname_b", "day_b", "month_b", "year_b", "in_a", "in_b")

# Row layout of the dump body.  Surnames are read one character wider
# than a label may be, so that an overlong one is caught, not truncated.
_DUMP_DTYPE = np.dtype([
    ("unit_id", np.int64), ("surname_a", f"U{LABEL_WIDTH + 1}"),
    ("day_a", np.int16), ("month_a", np.int16), ("year_a", np.int32),
    ("surname_b", f"U{LABEL_WIDTH + 1}"),
    ("day_b", np.int16), ("month_b", np.int16), ("year_b", np.int32),
    ("in_a", np.int8), ("in_b", np.int8),
])


def _labels(names):
    """Surname labels as a fixed-width array; overlong ones are refused."""
    names = np.asarray(names, dtype=str)
    long = names[np.char.str_len(names) > LABEL_WIDTH]
    if long.size:
        raise ValueError(f"surname {str(long[0])!r} is longer than "
                         f"{LABEL_WIDTH} characters")
    return names.astype(f"U{LABEL_WIDTH}")


def dump_population(pop, flags, dest):
    """Write the population and sample flags as delimited text."""
    own = not hasattr(dest, "write")
    fh = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_DUMP_COLUMNS)
        writer.writerows(zip(
            range(1, pop.n + 1),
            pop.surname_labels[pop.sidx_a].tolist(), pop.day_a.tolist(),
            pop.month_a.tolist(), pop.year_a.tolist(),
            pop.surname_labels[pop.sidx_b].tolist(), pop.day_b.tolist(),
            pop.month_b.tolist(), pop.year_b.tolist(),
            flags.in_a.astype(np.int8).tolist(),
            flags.in_b.astype(np.int8).tolist(),
        ))
    finally:
        if own:
            fh.close()


def load_population(source, pi_a=None, pi_b=None):
    """Read a population dump; defaults pi to the empirical rates.

    An unexpected header, or a surname longer than LABEL_WIDTH
    characters, raises ValueError.
    """
    own = not hasattr(source, "read")
    fh = open(source, "r", encoding="utf-8", newline="") if own else source
    try:
        header = next(csv.reader([fh.readline()]), None)
        if header is None or tuple(header) != _DUMP_COLUMNS:
            raise ValueError("unexpected population dump header")
        body = np.loadtxt(fh, dtype=_DUMP_DTYPE, delimiter=",",
                          quotechar='"', comments=None, ndmin=1)
    finally:
        if own:
            fh.close()

    labels, sidx = np.unique(
        np.concatenate([body["surname_a"], body["surname_b"]]),
        return_inverse=True)
    labels = _labels(labels)
    sidx = sidx.astype(np.int32)
    in_a = body["in_a"] == 1
    in_b = body["in_b"] == 1
    pop = Population(
        surname_labels=labels,
        surname_codes=np.asarray([soundex(l) for l in labels.tolist()],
                                 dtype="U4"),
        sidx_a=sidx[:body.size], sidx_b=sidx[body.size:],
        **{c: body[c].copy() for c in ("day_a", "month_a", "year_a",
                                       "day_b", "month_b", "year_b")},
    )
    flags = SampleFlags(
        in_a=in_a, in_b=in_b,
        pi_a=float(in_a.mean()) if pi_a is None else pi_a,
        pi_b=float(in_b.mean()) if pi_b is None else pi_b,
    )
    return pop, flags
