"""`clerical_sample` against a frozen copy of its panel-position form.

``oracle_clerical_sample`` is a copy of the version that keyed pairs on
panel positions.  The package's version keys them on unit ids, so it
also takes link sets read from files.  Within one replication
positions and unit ids map one to one, and over such generated link sets
both must draw the same sample and give the same estimates.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linkcov import linkage as lk


def oracle_clerical_sample(base_pairs, links2, m, rng):
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

    width = int(base_pairs.a_pos.max()) + 1 if n_pairs else 1
    key = base_pairs.b_pos.astype(np.int64) * width + base_pairs.a_pos
    key2 = links2.b_pos.astype(np.int64) * width + links2.a_pos
    linked = np.isin(key[chosen], key2)

    matched = base_pairs.b_unit[chosen] == base_pairs.a_unit[chosen]
    n_matched = int(matched.sum())
    n_linked = int(linked.sum())
    recall_hat = float((matched & linked).sum() / n_matched) if n_matched else None
    precision_hat = float((linked & matched).sum() / n_linked) if n_linked else None
    return lk.ClericalEstimates(recall_hat, precision_hat)


@st.composite
def replications(draw):
    """Baseline pairs and rule-2 links over two panels, whose records
    carry distinct unit ids, some shared between the panels so that
    some pairs are matches."""
    n_b = draw(st.integers(1, 12))
    n_a = draw(st.integers(1, 12))
    units = st.integers(-5, 60)
    b_unit = np.array(draw(st.lists(units, min_size=n_b, max_size=n_b,
                                    unique=True)), dtype=np.int64)
    a_unit = np.array(draw(st.lists(units, min_size=n_a, max_size=n_a,
                                    unique=True)), dtype=np.int64)
    # shares make the matches: these A records take B records' ids
    for i, j in draw(st.lists(st.tuples(st.integers(0, n_a - 1),
                                        st.integers(0, n_b - 1)),
                              max_size=n_a)):
        if b_unit[j] not in a_unit:
            a_unit[i] = b_unit[j]

    grid = st.tuples(st.integers(0, n_b - 1), st.integers(0, n_a - 1))
    base = draw(st.lists(grid, min_size=1, max_size=40, unique=True))
    a_top = max(a for _, a in base)
    # rule 2 keeps some baseline pairs and, for a stronger check, may
    # hold others inside the span the position keys cover
    kept = [p for p, keep in zip(base, draw(st.lists(
        st.booleans(), min_size=len(base), max_size=len(base)))) if keep]
    extra = draw(st.lists(st.tuples(st.integers(0, n_b - 1),
                                    st.integers(0, a_top)),
                          max_size=5, unique=True))
    links2 = list(dict.fromkeys(kept + extra))

    def linkset(pairs):
        b_pos = np.array([b for b, _ in pairs], dtype=np.int64)
        a_pos = np.array([a for _, a in pairs], dtype=np.int64)
        return lk.LinkSet(b_pos=b_pos, a_pos=a_pos, b_unit=b_unit[b_pos],
                          a_unit=a_unit[a_pos],
                          pattern_code=np.zeros(len(pairs), dtype=np.int8))

    m = draw(st.integers(1, len(base)))
    return linkset(base), linkset(links2), m, draw(st.integers(0, 2**32))


def _pairs(b_unit, a_unit, pos):
    """Pairs whose records sit at the same position in both panels."""
    pos = np.array(pos)
    return lk.LinkSet(b_pos=pos, a_pos=pos.copy(), b_unit=np.array(b_unit),
                      a_unit=np.array(a_unit),
                      pattern_code=np.zeros(pos.size, dtype=np.int8))


# negative unit ids: keyed as b_unit * 4 + a_unit, the matched pair
# (-1, -1) would take the key of the linked pair (-2, 3)
NEGATIVE_IDS = (_pairs([-1, -2], [-1, 3], [0, 1]), _pairs([-2], [3], [1]),
                2, 0)


@settings(max_examples=300, deadline=None)
@given(replications())
@example(NEGATIVE_IDS)
def test_unit_keys_give_the_position_keys_result(case):
    base, links2, m, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = lk.clerical_sample(base, links2, m, rng)
    assert got == oracle_clerical_sample(base, links2, m, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(replications())
def test_positions_are_not_needed(case):
    base, links2, m, seed = case

    def unit_only(links):
        return lk.LinkSet(None, None, links.b_unit, links.a_unit,
                          links.pattern_code)

    got = lk.clerical_sample(unit_only(base), unit_only(links2), m,
                             np.random.default_rng(seed))
    assert got == lk.clerical_sample(base, links2, m,
                                     np.random.default_rng(seed))


@pytest.mark.parametrize("ends_linked, recall, precision", [
    (True, 1.0, 4 / 6), (False, 0.5, 0.5)], ids=["linked", "outside"])
def test_shuffled_links_and_keys_at_both_ends(ends_linked, recall,
                                              precision):
    # every pair of a 4 x 4 grid is sampled, with unit ids equal to the
    # positions, so the diagonal pairs match; rule 2's links come in
    # shuffled order, and the smallest and the largest key of the grid,
    # (0, 0) and (3, 3), are linked, or lie below and above every link
    def linkset(pairs):
        pos = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return lk.LinkSet(b_pos=pos[:, 0], a_pos=pos[:, 1],
                          b_unit=pos[:, 0].copy(), a_unit=pos[:, 1].copy(),
                          pattern_code=np.zeros(len(pos), dtype=np.int8))

    base = linkset([(b, a) for b in range(4) for a in range(4)])
    kept = [(1, 1), (2, 2), (1, 2), (2, 1)] + [(0, 0), (3, 3)] * ends_linked
    links2 = linkset([kept[i] for i in
                      np.random.default_rng(8).permutation(len(kept))])
    got = lk.clerical_sample(base, links2, 16, np.random.default_rng(0))
    assert got == lk.ClericalEstimates(recall, precision)
    assert got == oracle_clerical_sample(base, links2, 16,
                                         np.random.default_rng(0))
