"""The categorical draws of generate_population against Generator.choice.

FrequencyTable.draw and popsim's pattern draw transcribe
rng.choice(k, size=n, p=probs) by the guide-table method.  Each must
give choice's int64 indices bit for bit and leave the generator where
choice leaves it, on every table the simulation draws from and on
tables built to stress the search: a one-label table, and power laws
that pack many cdf entries into one bucket.
"""

import numpy as np
import pytest

from linkcov import frequencies
from linkcov.frequencies import (FrequencyTable, _GuideTable,
                                 synthetic_age_table, synthetic_surname_table)
from linkcov.popsim import PerturbationParams, pattern_distribution

from test_redraw_oracle import Uniforms


def power_law(k, exponent):
    w = np.arange(1, k + 1) ** -exponent
    return w / w.sum()


# name -> probabilities, built on first use
TABLES = {
    "surnames-20k": lambda: synthetic_surname_table(20000).probs,
    "surnames-100k": lambda: synthetic_surname_table(100000).probs,
    "ages": lambda: synthetic_age_table().probs,
    "patterns": lambda: pattern_distribution(PerturbationParams()),
    "patterns-skewed": lambda: pattern_distribution(
        PerturbationParams((4.0, 0.5, 2.0), (1.0, -1.0, 0.5), -0.5)),
    "one-label": lambda: np.array([1.0]),
    # up to 18 cdf entries in one bucket: the passes at their most
    "power-law-1e5": lambda: power_law(10 ** 5, 1.1),
    # hundreds in one bucket: searchsorted finishes the draw
    "power-law-1e5-steep": lambda: power_law(10 ** 5, 1.5),
}


def choice_cdf(probs):
    """The cdf that rng.choice builds."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


@pytest.mark.parametrize("n", [0, 1, 100000])
@pytest.mark.parametrize("name", TABLES)
def test_draws_are_those_of_choice(name, n):
    probs = TABLES[name]()
    for seed in range(2):
        ours = np.random.default_rng([seed, n])
        theirs = np.random.default_rng([seed, n])
        got = _GuideTable(probs).draw(ours, n)
        want = theirs.choice(probs.size, size=n, p=probs)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        assert ours.random(4).tobytes() == theirs.random(4).tobytes()


def test_stress_tables_reach_both_searches():
    assert 16 < _GuideTable(TABLES["power-law-1e5"]()).passes \
        <= frequencies._MAX_PASSES
    assert _GuideTable(TABLES["power-law-1e5-steep"]()).passes \
        > frequencies._MAX_PASSES
    assert _GuideTable(TABLES["surnames-100k"]()).passes \
        <= frequencies._MAX_PASSES


@pytest.mark.parametrize("name", TABLES)
def test_uniforms_on_cdf_entries_and_bucket_edges(name):
    """Uniforms equal to a cdf entry or a bucket edge go past it, as
    searchsorted with side="right" does; so do their neighbours one
    float below."""
    probs = TABLES[name]()
    guide = _GuideTable(probs)
    cdf = choice_cdf(probs)
    edges = np.arange(guide.buckets) / guide.buckets
    u = np.concatenate([cdf[cdf < 1.0], edges])
    u = np.concatenate([u, np.nextafter(u[u > 0], 0.0)])
    got = guide.draw(Uniforms(u), u.size)
    assert got.tolist() == cdf.searchsorted(u, side="right").tolist()


def test_the_table_draw_is_choice():
    table = synthetic_surname_table(20000)
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    got = table.draw(ours, 5000)
    assert got.tobytes() == theirs.choice(table.size, size=5000,
                                          p=table.probs).tobytes()
    assert ours.random() == theirs.random()


def test_table_constants_are_built_at_the_first_draw_and_kept():
    base = synthetic_surname_table(20000)
    table = FrequencyTable(base.labels, base.probs)
    assert "_guide" not in vars(table)
    table.draw(np.random.default_rng(0), 10)
    guide = table._guide
    table.draw(np.random.default_rng(0), 10)
    assert table._guide is guide
    assert table.fixed_width_labels is table.fixed_width_labels
    assert not table.fixed_width_labels.flags.writeable


def test_kept_draw_tables_are_small():
    guide = synthetic_surname_table(100000)._guide
    assert guide.lo.nbytes + guide.cdf.nbytes < 0.5e6


BAD = {
    "nan": [0.5, np.nan, 0.5],
    "negative": [0.6, -0.1, 0.5],
    "sum-high": [0.5, 0.5 + 1e-7],
    "sum-low": [0.5, 0.5 - 1e-7],
}


@pytest.mark.parametrize("name", BAD)
def test_refuses_what_choice_refuses(name):
    probs = np.array(BAD[name])
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(0).choice(probs.size, size=3, p=probs)
    with pytest.raises(ValueError) as ours:
        _GuideTable(probs)
    # numpy 2 capitalizes the messages and adds a pointer to its notes
    assert str(theirs.value).lower().startswith(str(ours.value).lower())


def test_accepts_a_sum_within_the_tolerance():
    probs = np.array([0.5, 0.5 + 1e-9])
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    got = _GuideTable(probs).draw(ours, 1000)
    assert got.tobytes() == theirs.choice(2, size=1000, p=probs).tobytes()
