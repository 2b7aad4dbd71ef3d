"""Golden digests of a seeded scenario-1 world and of its blocking.

The surname table is the 20k synthetic table plus eight names whose
soundex codes no other name shares (so their units fall back to keeping
the surname) and twelve names sharing code A536, whose redraw
probabilities are summed over more than eight terms.  The digests move
when the draw order, a redraw distribution or the singleton fallback
changes.  A last-bit change in a sum rarely moves a draw, so the
bitwise arithmetic is checked on its own: that of the within-class
probabilities in test_frequencies.py, and that of the redraw cdfs, with
the redraw itself against the per-name rng.choice loop, in
test_redraw_oracle.py.
"""

import hashlib

import numpy as np
import pytest

from linkcov import linkage as lk
from linkcov.frequencies import (FrequencyTable, build_soundex_index,
                                 synthetic_age_table, synthetic_surname_table)
from linkcov.popsim import PerturbationParams, draw_samples, generate_population

SINGLETONS = ("ABE", "EDDY", "IRA", "OTT", "UHL", "YU", "WU", "HO")
BIG_CLASS = ("ANDERSON", "ANDERSEN", "ANDERSSON", "ANDRESEN", "ANDRESS",
             "ANTERO", "ANDRE", "ANDREW", "ANDREWS", "ANDROS", "ANTRIM",
             "AMADOR")

GOLDEN_SHA256 = {
    "sidx_b":
        "5d75ddf86f8e8c32f43d8981d036a7a25b309e4d1f62ca7648afac976cd5e20f",
    "day_b":
        "81531bed2f8b47fd043e8ac75b36e9bfb36694dee1ae963d253a107a294ba668",
    "month_b":
        "51afe5e6a648165bce89f91fab410759875681091b5ca70bce43f696c78249bb",
    "singleton_fallbacks":
        "abf522fe6bf57cfddc9f8f2a033943411e4f187e3c3402889ca54630a2a9043a",
    "block_pairs":
        "55596907bae40993b911cadb6d7576d4d7c2ccfff34905ee41d4a5cc090aec52",
}


def golden_table():
    base = synthetic_surname_table(20000)
    big = 0.05 * np.arange(1, len(BIG_CLASS) + 1) / 78.0
    single = np.full(len(SINGLETONS), 0.01 / len(SINGLETONS))
    return FrequencyTable(base.labels + BIG_CLASS + SINGLETONS,
                          np.concatenate([0.94 * base.probs, big, single]))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def world():
    surnames = golden_table()
    ss = np.random.SeedSequence([20259, 11])
    pop_rng, sample_rng = map(np.random.default_rng, ss.spawn(2))
    pop = generate_population(20000, surnames, synthetic_age_table(),
                              PerturbationParams((1.0,) * 3), pop_rng)
    flags = draw_samples(pop, 0.9, 0.9, sample_rng)
    panel_b, panel_a = lk.sample_records(pop, flags)
    return surnames, pop, lk.block_pairs(panel_b, panel_a)


def test_table_has_the_classes_that_show_summation_order():
    idx = build_soundex_index(golden_table())
    sizes = dict(zip(idx.codes[idx.members[idx.starts[:-1]]].tolist(),
                     np.diff(idx.starts).tolist()))
    assert sizes["A536"] == len(BIG_CLASS) > 8
    assert sum(size == 1 for size in sizes.values()) == len(SINGLETONS)


def test_population_digests(world):
    _, pop, _ = world
    assert pop.singleton_fallbacks > 0
    got = {
        "sidx_b": digest(pop.sidx_b),
        "day_b": digest(pop.day_b),
        "month_b": digest(pop.month_b),
        "singleton_fallbacks": digest(np.int64(pop.singleton_fallbacks)),
    }
    assert got == {k: GOLDEN_SHA256[k] for k in got}


def test_big_class_redrawn(world):
    surnames, pop, _ = world
    big = [surnames.labels.index(name) for name in BIG_CLASS]
    moved = np.isin(pop.sidx_a, big) & (pop.sidx_a != pop.sidx_b)
    assert moved.sum() > 100
    assert np.isin(pop.sidx_b[moved], big).all()


def test_block_pairs_digest(world):
    _, _, pairs = world
    assert pairs.size > 0
    assert digest(pairs.b_pos, pairs.a_pos) == GOLDEN_SHA256["block_pairs"]
