"""The surname redraw of generate_population against a frozen copy of
the per-name rng.choice loop that it replaced.

The loop drew each affected name's units with one rng.choice, in
ascending name index.  The vectorized redraw must give the same sidx_b
and singleton_fallbacks and leave the generator in the same state.  A
last-bit change in a cdf rarely moves a draw, so the redraw cdfs are
also checked bit for bit against rng.choice's own arithmetic.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from linkcov import frequencies, popsim
from linkcov.frequencies import (FrequencyTable, SoundexIndex,
                                 build_soundex_index, synthetic_age_table)
from linkcov.popsim import PerturbationParams, generate_population


def per_name_redraw(sidx_a, affected, index, rng):
    """The redraw loop as it was, one rng.choice per affected name."""
    sidx_b = sidx_a.copy()
    fallbacks = 0
    order = np.argsort(sidx_a[affected], kind="stable")
    names, first = np.unique(sidx_a[affected[order]], return_index=True)
    for name_idx, slots in zip(names.tolist(),
                               np.split(affected[order], first[1:])):
        c = index.label_class[name_idx]
        lo, hi = index.starts[c], index.starts[c + 1]
        if hi - lo == 1:
            fallbacks += slots.size
            continue
        keep = index.members[lo:hi] != name_idx
        others = index.members[lo:hi][keep]
        oprobs = index.within[lo:hi][keep]
        sidx_b[slots] = others[rng.choice(others.size, size=slots.size,
                                          p=oprobs / oprobs.sum())]
    return sidx_b, fallbacks


CLASS_SIZES = {"B": 1, "C": 2, "D": 6, "F": 9, "G": 12, "J": 40, "K": 2000}
BIG = "K"


def class_names(letter, k):
    """k distinct names whose soundex code is letter + "000": letters
    that code to no digit follow the first one."""
    tails = itertools.chain.from_iterable(
        itertools.product("AEIOUYHW", repeat=r) for r in range(5))
    return [letter + "".join(t) for t in itertools.islice(tails, k)]


@pytest.fixture(scope="module")
def table():
    """One class of each size in CLASS_SIZES, equal mass per class, the
    labels shuffled so that no class is contiguous in table order.  The
    big class's probabilities fall off as a power law."""
    rng = np.random.default_rng(5)
    labels, probs = [], []
    for letter, k in CLASS_SIZES.items():
        labels += class_names(letter, k)
        w = (np.arange(1, k + 1) ** -1.5 if letter == BIG
             else rng.random(k) + 0.05)
        probs.append(w / w.sum())
    perm = rng.permutation(len(labels))
    return FrequencyTable(tuple(labels[i] for i in perm),
                          np.concatenate(probs)[perm])


def both(table, n, seed, params=PerturbationParams((0.0, 1.0, 1.0))):
    """(population, next draws) from generate_population, and the same
    with the frozen loop in place of the redraw."""
    out = []
    for redraw in (popsim._redraw_surnames, per_name_redraw):
        rng = np.random.default_rng([seed, n])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(popsim, "_redraw_surnames", redraw)
            pop = generate_population(n, table, synthetic_age_table(),
                                      params, build_soundex_index(table),
                                      rng)
        out.append((pop, rng.random(4)))
    return out


def assert_same(new, old):
    (pop, draws), (ref, ref_draws) = new, old
    assert pop.sidx_b.dtype == ref.sidx_b.dtype
    assert np.array_equal(pop.sidx_b, ref.sidx_b)
    assert pop.singleton_fallbacks == ref.singleton_fallbacks
    assert draws.tobytes() == ref_draws.tobytes()


def test_table_has_the_class_sizes(table):
    idx = build_soundex_index(table)
    assert sorted(np.diff(idx.starts).tolist()) == sorted(
        CLASS_SIZES.values())


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2000, 30000])
def test_matches_per_name_loop(table, n, seed):
    new, old = both(table, n, seed)
    assert_same(new, old)
    pop = new[0]
    assert pop.singleton_fallbacks > 0
    big = np.char.startswith(pop.surname_labels[pop.sidx_a], BIG)
    assert (big & (pop.sidx_b != pop.sidx_a)).sum() > 100


@pytest.mark.parametrize("seed", range(3))
def test_matches_with_small_blocks(table, seed, monkeypatch):
    # one row per block for every class of two names or more
    monkeypatch.setattr(frequencies, "_BLOCK_ENTRIES", 2)
    assert_same(*both(table, 5000, seed))


def test_small_blocks_keep_within_bits(table, monkeypatch):
    monkeypatch.setattr(frequencies, "_BLOCK_ENTRIES", 2)
    small = SoundexIndex(table)
    assert small.within.tobytes() == build_soundex_index(table).within.tobytes()


def test_no_affected_unit(table):
    new, old = both(table, 3000, 0, PerturbationParams((60.0, 1.0, 1.0)))
    assert_same(new, old)
    pop = new[0]
    assert np.array_equal(pop.sidx_b, pop.sidx_a)
    assert pop.singleton_fallbacks == 0


def test_every_affected_unit_alone_in_its_class():
    table = FrequencyTable(tuple("BCDFGJ"), np.full(6, 1 / 6))
    new, old = both(table, 3000, 0)
    assert_same(new, old)
    pop = new[0]
    assert np.array_equal(pop.sidx_b, pop.sidx_a)
    assert 0 < pop.singleton_fallbacks < pop.n


@pytest.mark.parametrize("seed", range(20))
def test_one_unit(table, seed):
    assert_same(*both(table, 1, seed))


def test_cdfs_are_those_of_rng_choice_bit_for_bit(table):
    """Each name's segment is rng.choice's cdf for p = oprobs /
    oprobs.sum(), over the other names of its class in class order."""
    idx = build_soundex_index(table)
    big = np.char.startswith(np.asarray(table.labels), BIG)
    names = np.flatnonzero(~big | (np.arange(table.size) % 7 == 0))
    cdf, cand, start, width = popsim._redraw_cdfs(idx, names)
    assert width.max() > 8
    assert width.min() == 0
    for name, lo, w in zip(names.tolist(), start.tolist(), width.tolist()):
        if w == 0:
            continue
        c = idx.label_class[name]
        members = idx.members[idx.starts[c]:idx.starts[c + 1]]
        keep = members != name
        oprobs = idx.within[idx.starts[c]:idx.starts[c + 1]][keep]
        ref = (oprobs / oprobs.sum()).cumsum()
        ref /= ref[-1]
        assert cdf[lo:lo + w].tobytes() == ref.tobytes()
        assert cand[lo:lo + w].tolist() == members[keep].tolist()


class Uniforms:
    """A stand-in generator whose one random() call returns given
    values."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == self.values.size
        return self.values


def test_search_is_side_right_on_ties(table):
    """Uniforms equal to cdf entries go past them, as searchsorted with
    side="right" does, which is what rng.choice calls."""
    idx = build_soundex_index(table)
    sizes = np.diff(idx.starts)[idx.label_class]
    names = np.flatnonzero((sizes > 1) & (sizes < 2000))
    sidx_a = np.repeat(names, 3).astype(np.int32)
    u, want = [], []
    for name in names.tolist():
        c = idx.label_class[name]
        members = idx.members[idx.starts[c]:idx.starts[c + 1]]
        keep = members != name
        oprobs = idx.within[idx.starts[c]:idx.starts[c + 1]][keep]
        cdf = (oprobs / oprobs.sum()).cumsum()
        cdf /= cdf[-1]
        for j in (0, cdf.size // 2, max(cdf.size - 2, 0)):
            u.append(cdf[j] if cdf[j] < 1.0 else 0.0)
            want.append(members[keep][np.searchsorted(cdf, u[-1], "right")])
    sidx_b, _ = popsim._redraw_surnames(sidx_a, np.arange(sidx_a.size), idx,
                                        Uniforms(np.array(u)))
    assert sidx_b.tolist() == want


def test_memory_does_not_scale_with_units_times_class_size(table):
    """20,000 units of the 2,000-name class: a units x class array of
    floats would take 320 MB.  The cdfs of the 714 names in use take
    17 MB, and the peak must stay under a tenth of 320 MB."""
    idx = build_soundex_index(table)
    big = np.flatnonzero(np.char.startswith(np.asarray(table.labels), BIG))
    p = table.probs[big]
    rng = np.random.default_rng(3)
    sidx_a = big[rng.choice(big.size, size=20000, p=p / p.sum())]
    sidx_a = sidx_a.astype(np.int32)
    affected = np.arange(sidx_a.size)
    tracemalloc.start()
    try:
        sidx_b, fallbacks = popsim._redraw_surnames(sidx_a, affected, idx,
                                                    rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fallbacks == 0 and np.all(sidx_b != sidx_a)
    assert peak < 32e6
