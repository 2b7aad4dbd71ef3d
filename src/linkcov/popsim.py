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

from dataclasses import dataclass

import numpy as np

from ._csvio import int_text, quoted_text, read_rows, write_columns
from .soundex import soundex_array

__all__ = [
    "PATTERNS",
    "PerturbationParams",
    "Population",
    "SampleFlags",
    "pattern_distribution",
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

# Surname labels are stored as fixed-width strings of this many characters.
LABEL_WIDTH = 16


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


def _check_index(index, table):
    """Refuse a soundex index that was built from another table."""
    if index.labels != table.labels:
        raise ValueError("soundex index was built from a surname table "
                         "with other labels")
    if not np.array_equal(index.probs, table.probs):
        raise ValueError("soundex index was built from a surname table "
                         "with other probabilities")


def _redraw_cdfs(index, names):
    """The redraw cdf of each of the given names (distinct label
    indices), as rng.choice builds it from the other names of its class:
    p = oprobs / oprobs.sum(), then p.cumsum() divided by its last entry.

    Returns one flat array of the cdfs, the label index of each entry,
    and each name's segment start and width (its class size minus one;
    a name alone in its class has an empty segment).  The cdfs are built
    one class size at a time, for these names only.
    """
    classes = index.label_class[names]
    width = np.diff(index.starts)[classes] - 1
    start = np.zeros(names.size, dtype=np.int64)
    cdf = np.empty(int(width.sum()))
    cand = np.empty(cdf.size, dtype=np.int32)
    base = 0
    for k, i, pos in index.blocks(classes):
        if k == 1:
            continue
        others = pos[index.members[pos] != names[i, None]].reshape(-1, k - 1)
        oprobs = index.within[others]
        rows = (oprobs / oprobs.sum(axis=1, keepdims=True)).cumsum(axis=1)
        rows /= rows[:, -1:]
        end = base + rows.size
        cdf[base:end] = rows.ravel()
        cand[base:end] = index.members[others].ravel()
        start[i] = base + (k - 1) * np.arange(i.size)
        base = end
    return cdf, cand, start, width


def _redraw_surnames(sidx_a, affected, index, rng):
    """sidx_a with each affected unit's surname redrawn from the other
    names of its soundex class, and the count of affected units kept
    because their class holds one name.

    The units are taken in (name, unit) order and draw one uniform each,
    which a binary search places (side="right") in their name's cdf:
    the draws of one rng.choice per name, in ascending name index.
    """
    units = affected[np.argsort(sidx_a[affected], kind="stable")]
    names, counts = np.unique(sidx_a[units], return_counts=True)
    cdf, cand, start, width = _redraw_cdfs(index, names)
    name_of = np.repeat(np.arange(names.size), counts)
    redraw = width[name_of] > 0
    units, name_of = units[redraw], name_of[redraw]
    u = rng.random(units.size)
    lo = start[name_of]
    hi = lo + width[name_of]
    # a finished search (lo == hi) may point one past the end of cdf;
    # its read is clamped and its outcome ignored
    last = max(cdf.size - 1, 0)
    for _ in range(int(width.max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        up = cdf[np.minimum(mid, last)] <= u
        lo = np.where(up & (lo < hi), mid + 1, lo)
        hi = np.where(up, hi, mid)
    sidx_b = sidx_a.copy()
    sidx_b[units] = cand[lo]
    return sidx_b, int(counts[width == 0].sum())


def generate_population(n, surnames, years, params, soundex_index, rng):
    """Generate N units with both registers.

    The draw order is fixed (surnames, years, months, days, patterns,
    day shifts, month shifts, surname redraws), so identical generator
    states give bitwise-identical populations.  The surname redraws
    consume the stream as one rng.choice per affected name would, in
    ascending name index, each over that name's affected units in
    ascending unit order, from the other names of its soundex class
    with their within-class probabilities renormalized.  A shifted
    day or month moves up from 1 and down from 30 or 12; a surname alone
    in its soundex class is kept and counted in singleton_fallbacks.
    soundex_index must be build_soundex_index(surnames).  A mismatched
    index, or a surname label longer than LABEL_WIDTH characters, raises
    ValueError.
    """
    if n < 1:
        raise ValueError("population size must be at least 1")
    _check_index(soundex_index, surnames)
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

    sidx_b, fallbacks = _redraw_surnames(
        sidx_a, np.flatnonzero(g1 == 0), soundex_index, rng)

    return Population(
        surname_labels=labels, surname_codes=soundex_index.codes,
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
    # each surname in use is quoted once
    k = pop.surname_labels.size
    used = np.flatnonzero(np.bincount(
        np.concatenate([pop.sidx_a, pop.sidx_b]), minlength=k))
    surname = np.empty(k, dtype=object)
    surname[used] = quoted_text(pop.surname_labels[used].tolist())
    write_columns(dest, _DUMP_COLUMNS, [
        int_text(pop.unit_ids),
        surname[pop.sidx_a].tolist(), int_text(pop.day_a),
        int_text(pop.month_a), int_text(pop.year_a),
        surname[pop.sidx_b].tolist(), int_text(pop.day_b),
        int_text(pop.month_b), int_text(pop.year_b),
        int_text(flags.in_a), int_text(flags.in_b),
    ])


def _factorize(*columns):
    """The sorted distinct labels of surname columns, and the index of
    each entry among them (int32, the columns one after the other).

    A dict finds the distinct labels, and only they are sorted.  The
    index array is made before the per-entry Python strings and the
    label array after they are freed: a lasting object allocated among
    them would keep their memory from going back to the system.
    """
    sidx = np.empty(sum(c.size for c in columns), dtype=np.int32)
    names = [name for c in columns for name in c.tolist()]
    distinct = sorted(dict.fromkeys(names))
    rank = dict(zip(distinct, range(len(distinct))))
    sidx[:] = np.fromiter(map(rank.__getitem__, names), dtype=np.int32,
                          count=sidx.size)
    del names, rank
    return _labels(distinct), sidx


def load_population(source, pi_a=None, pi_b=None):
    """Read a population dump; defaults pi to the empirical rates.

    Raises ValueError for an unexpected header, a dump with no rows, a
    unit_id column other than 1..n in file order, an in_a or in_b value
    other than 0 or 1, or a surname longer than LABEL_WIDTH characters;
    a bad row is named by its number, counting from 1 after the header.
    """
    body = read_rows(source, _DUMP_COLUMNS, _DUMP_DTYPE, "population dump")
    n = body.size
    if n == 0:
        raise ValueError("population dump has no rows")
    ids = body["unit_id"]
    bad = np.flatnonzero(ids != np.arange(1, n + 1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"population dump row {i + 1}: unit_id "
                         f"{int(ids[i])}, expected {i + 1}")
    for side in ("in_a", "in_b"):
        bad = np.flatnonzero((body[side] != 0) & (body[side] != 1))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"population dump row {i + 1}: {side} "
                             f"{int(body[side][i])}, expected 0 or 1")

    labels, sidx = _factorize(body["surname_a"], body["surname_b"])
    in_a = body["in_a"] == 1
    in_b = body["in_b"] == 1
    pop = Population(
        surname_labels=labels, surname_codes=soundex_array(labels),
        sidx_a=sidx[:n], sidx_b=sidx[n:],
        **{c: body[c].copy() for c in ("day_a", "month_a", "year_a",
                                       "day_b", "month_b", "year_b")},
    )
    flags = SampleFlags(
        in_a=in_a, in_b=in_b,
        pi_a=float(in_a.mean()) if pi_a is None else pi_a,
        pi_b=float(in_b.mean()) if pi_b is None else pi_b,
    )
    return pop, flags
