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
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .soundex import soundex_array

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

# The year that census ages count back from, and that of the synthetic
# age table.
REFERENCE_YEAR = 2010

# P(|day difference| <= 1) and P(|month difference| <= 1) for independent
# uniform draws on 1..30 and 1..12.
DAY_WINDOW = (28 * 3 + 2 * 2) / 30.0 ** 2
MONTH_WINDOW = (10 * 3 + 2 * 2) / 12.0 ** 2
DATE_WINDOW = DAY_WINDOW * MONTH_WINDOW


# Surname labels are stored as fixed-width strings of this many characters.
LABEL_WIDTH = 16


@dataclass(frozen=True)
class FrequencyTable:
    """Discrete distribution over string or integer labels.

    Constants derived from the table are built on first use and kept
    with it: the soundex index, the draw table of ``draw`` and the
    fixed-width label array.  ``draw`` transcribes ``Generator.choice``
    by the guide-table method (Chen & Asau 1974; see _GuideTable), so
    that a population depends on the generator's stream and not on
    numpy keeping choice's algorithm; the population digests of
    tests/test_population_golden.py and perfbench/reference.json pin
    its bits.
    """

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
        _refuse_control_characters(self.labels)
        object.__setattr__(self, "probs", _renormalized(probs))

    @classmethod
    def from_counts(cls, labels, counts):
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("zero total count")
        return cls(tuple(labels), counts / total)

    @property
    def size(self):
        return len(self.labels)

    @cached_property
    def soundex_index(self):
        """The table grouped by soundex code; see build_soundex_index."""
        return SoundexIndex(self)

    @cached_property
    def fixed_width_labels(self):
        """The labels as a read-only array of LABEL_WIDTH-character
        strings; a longer label raises ValueError."""
        return _read_only(_fixed_width(self.labels))

    @cached_property
    def _guide(self):
        return _GuideTable(self.probs)

    def draw(self, rng, n):
        """n label indices, as rng.choice(self.size, size=n,
        p=self.probs) draws them: the same int64 indices from the same
        n uniforms, so rng is left in the same state."""
        return self._guide.draw(rng, n)


def _fixed_width(names):
    """Surname labels as a LABEL_WIDTH-character string array; an
    overlong one is refused."""
    names = np.asarray(names, dtype=str)
    long = names[np.char.str_len(names) > LABEL_WIDTH]
    if long.size:
        raise ValueError(f"surname {str(long[0])!r} is longer than "
                         f"{LABEL_WIDTH} characters")
    return names.astype(f"U{LABEL_WIDTH}")


# rng.choice refuses probabilities whose sum is further than this from 1
_SUM_ATOL = math.sqrt(np.finfo(float).eps)
# The fewest buckets of a guide table, and the most passes of its
# search: at 100k draws a pass takes about 0.2 ms, searchsorted on the
# 21,612-label synthetic surname table 12 ms.
_MIN_BUCKETS = 1024
_MAX_PASSES = 32


class _GuideTable:
    """Draws of ``Generator.choice(k, size=n, p=probs)``, bit for bit,
    by the guide-table inverse-cdf method (Chen & Asau 1974, *AIIE
    Transactions*; Devroye 1986, *Non-Uniform Random Variate
    Generation*, section III.2.4).

    The cdf is choice's own: ``probs.cumsum()`` divided by its last
    entry.  A draw takes the same ``rng.random(n)`` uniforms as choice
    and must end where ``cdf.searchsorted(u, side="right")`` does, but
    without its binary search.  The unit interval is cut into B
    buckets, B a power of two of at least k (so ``u * B`` is exact), and
    ``lo[j]``, the count of cdf entries at or below ``j / B``, is where
    the search for any u of bucket j starts.  Each pass of
    ``idx += cdf[idx] <= u`` moves every draw at most one entry on, and
    no draw passes its answer, so ``passes``, the widest
    ``lo[j + 1] - lo[j]`` (with k - 1 after the last bucket), is enough
    for every u.  A table whose tail packs more than _MAX_PASSES entries
    into one bucket, such as a long power law, is searched by
    searchsorted itself, as choice does.

    Probabilities are checked as choice checks them: NaN, a negative
    entry or a sum further than sqrt(eps) from 1 is refused with
    choice's message.  The sum is taken with math.fsum, where choice
    uses a Kahan sum; the two differ only for sums within a few eps of
    the tolerance.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if np.isnan(probs.sum()):
            raise ValueError("probabilities contain NaN")
        if (probs < 0).any():
            raise ValueError("probabilities are not non-negative")
        if abs(math.fsum(probs) - 1.0) > _SUM_ATOL:
            raise ValueError("probabilities do not sum to 1")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        k = probs.size
        self.buckets = 1 << max(k - 1, _MIN_BUCKETS - 1).bit_length()
        self.lo = cdf.searchsorted(np.arange(self.buckets) / self.buckets,
                                   side="right")
        # no u < 1 gets past the last entry, which is 1
        ends = np.append(self.lo[1:], k - 1)
        self.passes = int((ends - self.lo).max())
        self.cdf = cdf

    def draw(self, rng, n):
        u = rng.random(n)
        if self.passes > _MAX_PASSES:
            return self.cdf.searchsorted(u, side="right")
        idx = self.lo[(u * self.buckets).astype(np.intp)]
        for _ in range(self.passes):
            idx += self.cdf[idx] <= u
        return idx


# C0 control characters; csv leaves a lone CR unquoted, so a surname
# holding one could not be read back from a population dump
_CONTROL = re.compile(r"[\x00-\x1f]")


def _refuse_control_characters(labels):
    text = [label for label in labels if isinstance(label, str)]
    if _CONTROL.search("".join(text)):
        bad = next(label for label in text if _CONTROL.search(label))
        raise ValueError(f"label {bad!r} holds a control character")


def _renormalized(probs):
    """probs, divided by their sum unless that is within 1e-12 of one;
    each row on its own when probs is 2-D."""
    total = probs.sum(axis=-1, keepdims=True)
    return np.where(abs(total - 1.0) > 1e-12, probs / total, probs)


def _read_only(a):
    a.flags.writeable = False
    return a


# The most label positions that SoundexIndex.blocks puts in one block.
_BLOCK_ENTRIES = 1 << 16


class SoundexIndex:
    """A surname table grouped by soundex code, as read-only arrays.

    Classes are numbered in the order of their first label in the table.

    - ``codes``: the U4 soundex code of each label, in table order;
    - ``code_ids``: the int32 rank of each label's code among the
      table's distinct codes;
    - ``label_class``: the class of each label;
    - ``members``, ``starts``: label indices grouped by class, in table
      order within a class; class c holds
      ``members[starts[c]:starts[c + 1]]``;
    - ``within``: the probability of each member within its class,
      aligned with ``members``; the arithmetic is that of
      ``FrequencyTable.from_counts`` on the members' probabilities.

    ``labels`` and ``probs`` are the table's own.  Class c's code is
    ``codes[members[starts[c]]]``.  ``within`` is computed, and
    generate_population builds its redraw cdfs, one class size at a
    time over the classes of that size (see ``blocks``).
    """

    def __init__(self, table):
        self.labels = table.labels
        self.probs = table.probs
        codes = soundex_array(table.labels)
        uniq, first, inv = np.unique(codes, return_index=True,
                                     return_inverse=True)
        class_of_code = np.empty(uniq.size, dtype=np.int32)
        class_of_code[np.argsort(first)] = np.arange(uniq.size)
        label_class = class_of_code[inv]
        members = np.argsort(label_class, kind="stable").astype(np.int32)
        starts = np.zeros(uniq.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(label_class), out=starts[1:])
        self.starts = _read_only(starts)
        within = np.empty(members.size)
        for _, _, pos in self.blocks(np.arange(uniq.size)):
            counts = table.probs[members[pos]]
            within[pos] = _renormalized(
                counts / counts.sum(axis=1, keepdims=True))
        self.codes = _read_only(codes)
        self.code_ids = _read_only(inv.astype(np.int32))
        self.label_class = _read_only(label_class)
        self.members = _read_only(members)
        self.within = _read_only(within)

    def blocks(self, classes):
        """Yield (k, i, pos) blocks of the given classes, by ascending
        size k: i indexes classes of size k, ascending, and row r of the
        (i.size, k) array pos holds the positions in members and within
        of class classes[i[r]].  A block holds at most _BLOCK_ENTRIES
        positions, or one row.

        A row sum of a block along axis 1 adds the row as numpy adds the
        row alone, so per-class arithmetic keeps its bits.
        """
        sizes = self.starts[classes + 1] - self.starts[classes]
        order = np.argsort(sizes, kind="stable")
        ks, first = np.unique(sizes[order], return_index=True)
        for k, same in zip(ks.tolist(), np.split(order, first[1:])):
            step = max(_BLOCK_ENTRIES // k, 1)
            for i in np.split(same, range(step, same.size, step)):
                yield k, i, self.starts[classes[i]][:, None] + np.arange(k)


def _open_text(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data)
    return open(source, "r", encoding="utf-8", newline="")


# The label and count columns of each kind of census file.
_CENSUS_COLUMNS = {"surname": ("name", "count"),
                   "age": ("AGE", "POPESTIMATE2010")}


def load_frequency_table(source, kind):
    """Ingest a comma-separated census file into a FrequencyTable.

    kind="surname": expects ``name`` and ``count`` columns; the "ALL
    OTHER NAMES" row is dropped before normalization.  kind="age":
    expects ``AGE`` and ``POPESTIMATE2010`` columns, sums the counts per
    age over all strata rows and converts ages to birth years as
    REFERENCE_YEAR - age.  Column names match without regard to case or
    surrounding spaces.  Failures name the offending row.
    """
    if kind not in _CENSUS_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")

    fh = _open_text(source)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty input: no header row") from None
        lookup = {name.strip().lower(): i for i, name in enumerate(header)}
        try:
            label_col, count_col = (lookup[name.lower()]
                                    for name in _CENSUS_COLUMNS[kind])
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
                    label = REFERENCE_YEAR - int(raw_label)
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

    Returns the table's SoundexIndex: read-only arrays that list the
    surnames of each code's class, with their probabilities
    renormalized within the class.  It is built on the first call and
    kept with the table, so later calls on the same table return the
    same object.
    """
    return table.soundex_index


@lru_cache(maxsize=None)
def synthetic_age_table():
    """Mildly declining age pyramid over ages 0..85, as birth years
    counted back from REFERENCE_YEAR."""
    ages = np.arange(86)
    weights = np.where(ages < 50, 1.0, 1.0 - 0.025 * (ages - 49))
    weights = np.maximum(weights, 0.08)
    years = tuple(int(REFERENCE_YEAR - a) for a in ages)
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


def _name_tails():
    """The surnames of a family after its first letter, one per variant,
    for each of the 216 digit triples: family f takes the letter
    f % 18 and the triple (rest % 6 + 1, rest // 6 % 6 + 1,
    rest // 36 % 6 + 1) of rest = f // 18, which repeats with
    rest % 216."""
    tails = []
    for triple in range(216):
        digits = (triple % 6 + 1, triple // 6 % 6 + 1, triple // 36 % 6 + 1)
        tails.append(tuple(
            "".join(vowel + _DIGIT_CONSONANTS[digit][
                v % len(_DIGIT_CONSONANTS[digit])]
                for vowel, digit in zip(vowels, digits))
            for v, vowels in enumerate(_VARIANT_VOWELS)))
    return tails


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

    def _class_mass(self, code_probs):
        """The class masses of code_probs, and the work array shaped
        alike."""
        shape = (code_probs.size, self.year_probs.size)
        size = shape[0] * shape[1]
        mass = self._mass[:size].reshape(shape)
        np.outer(code_probs, self.year_probs, out=mass)
        return mass, self._work[:size].reshape(shape)

    def fp_per_record(self, code_probs):
        """Expected false-positive links per record."""
        mass, lam = self._class_mass(code_probs)
        np.multiply(self.rate, mass, out=lam)
        return float(np.multiply(mass, lam, out=lam).sum())

    def survival(self, code_probs):
        """Share of matched links that survive the one-to-one dedupe."""
        # -2 (rate mass) and (-2 rate) mass round alike: scaling by -2
        # is exact
        mass, work = self._class_mass(code_probs)
        np.multiply(-2.0 * self.rate, mass, out=work)
        np.exp(work, out=work)
        return float(np.multiply(mass, work, out=work).sum())


# The relative tolerance and iteration cap of scipy.optimize.brentq.
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _brentq(f, a, b, args=(), xtol=2e-12):
    """A root of f(x, *args) in [a, b] by Brent's method.

    A transcription of scipy.optimize.brentq (its C routine, with
    rtol = 4 eps and 100 iterations): the same operations in the same
    order, so it returns the same float, while the calibration need not
    import scipy.optimize.  Raises ValueError when f is nan or has the
    same sign at both ends, RuntimeError when it does not converge.
    """
    def call(x):
        fx = f(x, *args)
        if fx != fx:
            raise ValueError(f"the function value at x={x} is nan")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"brentq failed to converge after {_BRENT_MAXITER} iterations")


# The calibration tries each count of hot families beside the _N_COLD
# rare ones, and brackets the hot mass by these ends.
_N_COLD = 3600
_HOT_COUNTS = range(1, 13)
_HOT_MASS_BRACKET = (1e-4, 0.6)
# The calibration-limit hint names a reference size to this precision.
_SIZE_STEP = 10000


class _Calibration:
    """Survival gaps of hot-plus-cold code tables at one reference size.

    Each distinct (n_hot, hot_mass) is evaluated once and remembered, so
    _brentq's first two evaluations reuse the bracket check's.
    """

    def __init__(self, reference_size):
        self.cold_raw = (np.arange(1, _N_COLD + 1) + 10.0) ** -0.3
        self.op = _OperatingPoint(synthetic_age_table().probs,
                                  reference_size, _HOT_COUNTS[-1] + _N_COLD)
        self._gaps = {}

    def assemble(self, n_hot, hot_mass):
        code_probs = np.empty(n_hot + _N_COLD)
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


def _largest_calibrated_size(reference_size):
    """The largest multiple of _SIZE_STEP below reference_size whose
    table calibrates, or None; bisects on the bracket checks alone."""
    def calibrates(k):
        cal = _Calibration(k * _SIZE_STEP)
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
def synthetic_surname_table(reference_size=50000):
    """Deterministic census-like surname distribution.

    The table holds a few "hot" families (common names) plus _N_COLD
    (3,600) rare families with a gentle power-law decay.  The hot mass
    and family count are solved so the linkage operating point at the
    reference population size matches the calibration targets.
    """
    # The calibrated probabilities are pinned bit for bit, because the
    # population digests in tests/test_population_golden.py and
    # perfbench/reference.json depend on them.  So every evaluation runs
    # the same products in the same order and sums the whole C-contiguous
    # class-mass array with one .sum(), which fixes numpy's pairwise
    # summation order; only the arrays are reused.
    cal = _Calibration(reference_size)
    best = None
    for n_hot in _HOT_COUNTS:
        if not cal.bracketed(n_hot):
            continue
        hot_mass = _brentq(cal.survival_gap, *_HOT_MASS_BRACKET,
                           args=(n_hot,), xtol=1e-12)
        fp_rate = cal.op.fp_per_record(cal.assemble(n_hot, hot_mass))
        err = abs(fp_rate - TARGET_FP_PER_RECORD)
        if best is None or err < best[0]:
            best = (err, n_hot, hot_mass)
    if best is None:
        message = (f"cannot calibrate synthetic table at size "
                   f"{reference_size} with n_cold={_N_COLD}")
        largest = _largest_calibrated_size(reference_size)
        if largest is not None:
            message += (f"; the largest reference size that calibrates, "
                        f"in steps of {_SIZE_STEP}, is {largest}: set the "
                        f"table_reference_size config key to at most that "
                        f"to borrow its table")
        raise RuntimeError(message)
    _, n_hot, hot_mass = best

    family_probs = cal.assemble(n_hot, hot_mass)
    n_letters = len(_FIRST_LETTERS)
    tails = _name_tails()
    labels = tuple(_FIRST_LETTERS[f % n_letters] + tail
                   for f in range(family_probs.size)
                   for tail in tails[f // n_letters % 216])
    probs = np.multiply.outer(family_probs, _VARIANT_SHARES).ravel()
    return FrequencyTable(labels, probs)
