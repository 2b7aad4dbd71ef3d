"""The CSV artifact writers against frozen copies of their csv.writer form.

``oracle_dump_population``, ``oracle_dump_linkset`` and
``oracle_dump_counts`` are verbatim copies of the writers that passed one
``csv.writer.writerows`` call over ``.tolist()`` columns, kept here as
test-only oracles.  Over generated populations, link sets and count
vectors, the package's writers must produce the oracle's text exactly,
and the two readers must give back what was written.

The surname alphabet holds the characters that make csv quote a field
(comma, double quote, LF), a lone CR (which csv's QUOTE_MINIMAL leaves
unquoted under a "\\n" line terminator), spaces at either end, "#"
(a comment character for np.loadtxt by default), and non-ASCII letters,
some of whose upper case is ASCII ("ß" gives "SS").  Labels run up to
LABEL_WIDTH characters.  An unquoted CR cannot be read back by
np.loadtxt, so the round-trip tests leave CR out.
"""

import csv
import io

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from linkcov import linkage as lk
from linkcov.popsim import (LABEL_WIDTH, PATTERNS, Population, SampleFlags,
                            dump_population, load_population)
from linkcov.soundex import soundex


# ------------------------------------------------- the writers, frozen

_DUMP_COLUMNS = ("unit_id", "surname_a", "day_a", "month_a", "year_a",
                 "surname_b", "day_b", "month_b", "year_b", "in_a", "in_b")


def oracle_dump_population(pop, flags, dest):
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


def oracle_dump_linkset(links, dest):
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


def oracle_dump_counts(cv, b_unit_ids, dest):
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


# ------------------------------------------------------------ strategies

AWKWARD = ',"\n #\'éßØıﬁ'
LETTERS = "ABSTHWaeyz"


def _labels(alphabet):
    text = st.text(alphabet=alphabet, min_size=1, max_size=LABEL_WIDTH)
    full = st.text(alphabet=alphabet, min_size=LABEL_WIDTH,
                   max_size=LABEL_WIDTH)
    # the reader codes every label; a label with no letter has no code
    return st.one_of(text, full).filter(
        lambda s: any("A" <= c <= "Z" for c in s.upper()))


LABELS = _labels(LETTERS + AWKWARD + "\r")
READABLE_LABELS = _labels(LETTERS + AWKWARD)

_INT16 = np.iinfo(np.int16)
_INT32 = np.iinfo(np.int32)


@st.composite
def populations(draw, labels=LABELS, min_units=0):
    """A population over a few distinct labels, with its sample flags."""
    names = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(min_units, 30))

    def column(lo, hi, dtype):
        return draw(arrays(dtype, n, elements=st.integers(lo, hi)))

    # dates stay in their calendar ranges in one draw of three, and
    # otherwise fill the whole column type
    wide = draw(st.booleans())
    day = (_INT16.min, _INT16.max) if wide else (1, 31)
    month = (_INT16.min, _INT16.max) if wide else (1, 12)
    year = (_INT32.min, _INT32.max) if wide else (1900, 2010)
    pop = Population(
        surname_labels=np.asarray(names, dtype=f"U{LABEL_WIDTH}"),
        surname_codes=np.asarray([soundex(l) for l in names], dtype="U4"),
        sidx_a=column(0, len(names) - 1, np.int32),
        day_a=column(*day, np.int16), month_a=column(*month, np.int16),
        year_a=column(*year, np.int32),
        sidx_b=column(0, len(names) - 1, np.int32),
        day_b=column(*day, np.int16), month_b=column(*month, np.int16),
        year_b=column(*year, np.int32),
    )
    flags = SampleFlags(in_a=column(0, 1, bool), in_b=column(0, 1, bool))
    return pop, flags


# unit ids of a register, up to past the int32 range
UNIT_IDS = st.integers(1, 2 ** 40)


@st.composite
def link_sets(draw):
    n = draw(st.integers(0, 40))
    # ids from a handful of values, so that (b, a) ties occur
    ids = st.one_of(st.integers(1, 4), UNIT_IDS)
    b_unit = draw(arrays(np.int64, n, elements=ids))
    a_unit = draw(arrays(np.int64, n, elements=ids))
    pos = np.arange(n, dtype=np.int64)
    return lk.LinkSet(b_pos=pos, a_pos=pos.copy(), b_unit=b_unit,
                      a_unit=a_unit,
                      pattern_code=draw(arrays(np.int8, n,
                                               elements=st.integers(0, 7))))


@st.composite
def count_vectors(draw, min_records=0):
    n = draw(st.integers(min_records, 40))
    top = draw(st.sampled_from([1, 3, 50, 2 ** 40]))
    pattern_counts = draw(arrays(np.int64, (n, 8),
                                 elements=st.integers(0, top)))
    ids = draw(arrays(np.int64, n, elements=UNIT_IDS, unique=True))
    cv = lk.CountVector(n_total=pattern_counts.sum(axis=1),
                        pattern_counts=pattern_counts)
    return cv, np.sort(ids)


def fixed_world(names, n):
    """A population of n units cycling through the given labels."""
    k = np.arange(n)
    pop = Population(
        surname_labels=np.asarray(names, dtype=f"U{LABEL_WIDTH}"),
        surname_codes=np.asarray([soundex(l) for l in names], dtype="U4"),
        sidx_a=(k % len(names)).astype(np.int32),
        day_a=(k % 31 + 1).astype(np.int16),
        month_a=(k % 12 + 1).astype(np.int16),
        year_a=(k + 1980).astype(np.int32),
        sidx_b=((k + 1) % len(names)).astype(np.int32),
        day_b=(k % 30 + 1).astype(np.int16),
        month_b=(k % 11 + 1).astype(np.int16),
        year_b=(k + 1980).astype(np.int32),
    )
    flags = SampleFlags(in_a=k % 2 == 0, in_b=k % 3 != 1)
    return pop, flags


def fixed_links(n):
    """n links, unsorted, with every pattern."""
    k = np.arange(n, dtype=np.int64)
    return lk.LinkSet(b_pos=k, a_pos=k.copy(), b_unit=(n - k) * 7,
                      a_unit=k % 3 + 1, pattern_code=(k % 8).astype(np.int8))


def fixed_counts(n):
    """Counts of n records."""
    k = np.arange(n, dtype=np.int64)
    pattern_counts = (k[:, None] + np.arange(8)) % 5
    return (lk.CountVector(n_total=pattern_counts.sum(axis=1),
                           pattern_counts=pattern_counts), k * 2 + 1)


def _text(writer, *args):
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


# ---------------------------------------------------------- the writers

class TestWritersMatchOracle:
    @settings(max_examples=100, deadline=None)
    @given(populations())
    @example(fixed_world(("SMITH",), 0))
    @example(fixed_world(('O"NEIL, JR', "ß"), 1))
    def test_population(self, world):
        pop, flags = world
        assert (_text(dump_population, pop, flags)
                == _text(oracle_dump_population, pop, flags))

    @settings(max_examples=100, deadline=None)
    @given(link_sets())
    @example(fixed_links(0))
    @example(fixed_links(1))
    def test_linkset(self, links):
        assert (_text(lk.dump_linkset, links)
                == _text(oracle_dump_linkset, links))

    @settings(max_examples=100, deadline=None)
    @given(count_vectors())
    @example(fixed_counts(0))
    @example(fixed_counts(1))
    def test_counts(self, counted):
        cv, ids = counted
        assert (_text(lk.dump_counts, cv, ids)
                == _text(oracle_dump_counts, cv, ids))

    def test_paths_match_file_objects(self, tmp_path):
        pop, flags = fixed_world(("SMITH", "Ørsted\n", " LEE,"), 5)
        links = fixed_links(5)
        cv, ids = fixed_counts(5)
        for name, writer, oracle, args in (
                ("population.csv", dump_population, oracle_dump_population,
                 (pop, flags)),
                ("links.csv", lk.dump_linkset, oracle_dump_linkset, (links,)),
                ("counts.csv", lk.dump_counts, oracle_dump_counts, (cv, ids))):
            writer(*args, tmp_path / name)
            assert ((tmp_path / name).read_bytes()
                    == _text(oracle, *args).encode("utf-8"))


# ---------------------------------------------------------- the readers

class TestReadersRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(populations(labels=READABLE_LABELS, min_units=1))
    def test_population(self, world):
        pop, flags = world
        buf = io.StringIO(_text(dump_population, pop, flags))
        # given rates: a sample of no units has no empirical rate
        pop2, flags2 = load_population(buf)
        assert pop2.n == pop.n
        for side in ("sidx_a", "sidx_b"):
            assert (pop2.surname_labels[getattr(pop2, side)].tolist()
                    == pop.surname_labels[getattr(pop, side)].tolist())
        assert pop2.surname_labels.tolist() == sorted(
            set(pop.surname_labels[np.concatenate([pop.sidx_a,
                                                   pop.sidx_b])].tolist()))
        assert pop2.surname_codes.tolist() == [
            soundex(l) for l in pop2.surname_labels.tolist()]
        for name in ("day_a", "month_a", "year_a", "day_b", "month_b",
                     "year_b"):
            got, want = getattr(pop2, name), getattr(pop, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(flags2.in_a, flags.in_a)
        np.testing.assert_array_equal(flags2.in_b, flags.in_b)

    @settings(max_examples=100, deadline=None)
    @given(count_vectors(min_records=1))
    def test_counts(self, counted):
        cv, ids = counted
        got = lk.load_counts(io.StringIO(_text(lk.dump_counts, cv, ids)))
        want = (ids, cv.n_total, cv.pattern_counts[:, 1:])
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)
