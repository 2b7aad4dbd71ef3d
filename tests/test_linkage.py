import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linkcov import linkage as lk
from linkcov.experiment import ScenarioConfig, replication_rngs, simulate
from linkcov.frequencies import synthetic_age_table, synthetic_surname_table
from linkcov.popsim import PATTERNS, PerturbationParams, draw_samples, generate_population
from linkcov.soundex import soundex


# one id per string, shared by every panel the tests build, as the
# panels of one population share its label table
IDS = {}


def ids(strings):
    """The int32 ids of strings, numbered in order of first use."""
    return np.array([IDS.setdefault(s, len(IDS)) for s in strings],
                    dtype=np.int32)


def panel(rows):
    """rows: (unit_id, surname, day, month, year)"""
    return lk.RecordPanel(
        unit_id=np.array([r[0] for r in rows]),
        surname=ids(r[1] for r in rows),
        code=ids(soundex(r[1]) for r in rows),
        day=np.array([r[2] for r in rows], dtype=np.int32),
        month=np.array([r[3] for r in rows], dtype=np.int32),
        year=np.array([r[4] for r in rows], dtype=np.int32),
    )


def pair_set(links):
    """The (b_unit, a_unit) pairs of a link set."""
    return set(zip(links.b_unit.tolist(), links.a_unit.tolist()))


@pytest.fixture(scope="module")
def replication():
    surnames = synthetic_surname_table(20000)
    pop = generate_population(20000, surnames, synthetic_age_table(),
                              PerturbationParams((1.0,) * 3),
                              np.random.default_rng(77))
    flags = draw_samples(pop, 0.9, 0.9, np.random.default_rng(78))
    panel_b, panel_a = lk.sample_records(pop, flags)
    pairs = lk.block_pairs(panel_b, panel_a)
    links1 = lk.link_rule1(lk.baseline_pairs(panel_b, panel_a, pairs))
    n_matched = int((flags.in_a & flags.in_b).sum())
    return pop, flags, panel_b, panel_a, pairs, links1, n_matched


class TestBlocking:
    def test_block_product_counts(self):
        pb = panel([(1, "ABLE", 1, 1, 1980)] * 3 + [(4, "BAKER", 1, 1, 1970)])
        pa = panel([(1, "ABLE", 2, 1, 1980)] * 2 + [(4, "BAKER", 1, 1, 1970)])
        pairs = lk.block_pairs(pb, pa)
        assert pairs.size == 3 * 2 + 1 * 1

    def test_disjoint_codes_empty(self):
        pb = panel([(1, "ABLE", 1, 1, 1980)])
        pa = panel([(2, "ROBERT", 1, 1, 1980)])
        assert lk.block_pairs(pb, pa).size == 0

    def test_candidates_superset_of_links(self, replication):
        _, _, pb, pa, pairs, links1, _ = replication
        cand = set(zip(pairs.b_pos.tolist(), pairs.a_pos.tolist()))
        linked = set(zip(links1.b_pos.tolist(), links1.a_pos.tolist()))
        assert linked <= cand


class TestPanels:
    def test_ids_into_the_label_table(self, replication):
        pop, flags, pb, pa, _, _, _ = replication
        for p, in_side, sidx in ((pb, flags.in_b, pop.sidx_b),
                                 (pa, flags.in_a, pop.sidx_a)):
            assert not [f.name for f in fields(lk.RecordPanel)
                        if getattr(p, f.name).dtype.kind in "OSU"]
            np.testing.assert_array_equal(p.surname, sidx[in_side])
        # one code per label, and equal codes exactly for equal soundex
        surname = np.concatenate([pb.surname, pa.surname])
        code = np.concatenate([pb.code, pa.code])
        used, first, at = np.unique(surname, return_index=True,
                                    return_inverse=True)
        np.testing.assert_array_equal(code, code[first][at])
        sx = [soundex(name) for name in pop.surname_labels[used].tolist()]
        pairs = set(zip(sx, code[first].tolist()))
        assert len(pairs) == len(set(sx)) == len(set(code.tolist()))


# codes that differ in one character or in the order of their characters,
# and years at both ends of int32 beside two neighbouring ones
CODES = ("A536", "A535", "A563", "A356", "B536", "Z000", "A500")
YEARS = (1979, 1980, -2 ** 31, 2 ** 31 - 1)
BLOCK_RECORDS = st.lists(st.tuples(st.sampled_from(CODES),
                                   st.sampled_from(YEARS)), max_size=25)


def code_panel(records):
    """A panel from (code, year) records; the other fields are fixed."""
    n = len(records)
    return lk.RecordPanel(
        unit_id=np.arange(1, n + 1),
        surname=ids(["X"] * n),
        code=ids(c for c, _ in records),
        day=np.ones(n, dtype=np.int32), month=np.ones(n, dtype=np.int32),
        year=np.array([y for _, y in records], dtype=np.int32),
    )


class TestBlockPairsProperty:
    @settings(max_examples=300, deadline=None)
    @given(BLOCK_RECORDS, BLOCK_RECORDS)
    @example([], [])
    @example([("A536", 1980)], [])
    @example([], [("A536", 1980)])
    @example([("A536", 1980)] * 4, [("A536", 1980)] * 3)
    @example([("A536", -2 ** 31), ("A536", 2 ** 31 - 1)],
             [("A536", 2 ** 31 - 1), ("A536", -2 ** 31)])
    def test_matches_brute_force(self, recs_b, recs_a):
        pairs = lk.block_pairs(code_panel(recs_b), code_panel(recs_a))
        expected = [(i, j) for i, rb in enumerate(recs_b)
                    for j, ra in enumerate(recs_a) if rb == ra]
        assert list(zip(pairs.b_pos.tolist(), pairs.a_pos.tolist())) \
            == expected
        assert pairs.b_pos.dtype == pairs.a_pos.dtype == np.int64


class UniqueSpy:
    """np.unique, counting its calls."""

    def __init__(self):
        self.calls = 0
        self.unique = np.unique

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.unique(*args, **kwargs)


def unique_block_ids(panel_b, panel_a):
    """The block numbers as np.unique's inverse gives them."""
    code = np.concatenate([panel_b.code, panel_a.code]).astype(np.int64)
    year = np.concatenate([panel_b.year, panel_a.year]).astype(np.int64)
    key = code * (int(year.max()) - int(year.min()) + 1) + year - year.min()
    return np.unique(key, return_inverse=True)[1]


class TestBlockIds:
    @pytest.mark.parametrize("scenario", [1, 3, 5])
    @pytest.mark.parametrize("n", [20000, 100000])
    def test_dense_numbering_is_that_of_unique(self, scenario, n,
                                               monkeypatch):
        cfg = ScenarioConfig.from_scenario(scenario, n_population=n)
        pop, flags = simulate(cfg, *replication_rngs(cfg.master_seed, 0)[:2])
        pb, pa = lk.sample_records(pop, flags)
        want = unique_block_ids(pb, pa)
        spy = UniqueSpy()
        monkeypatch.setattr(np, "unique", spy)
        got = lk._block_ids(pb, pa)
        assert spy.calls == 0
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_extreme_years_are_sorted(self, monkeypatch):
        recs = [("A536", -2 ** 31), ("A536", 2 ** 31 - 1), ("Z000", 1980),
                ("A536", -2 ** 31)]
        pb, pa = code_panel(recs), code_panel(recs[::-1])
        want = unique_block_ids(pb, pa)
        spy = UniqueSpy()
        monkeypatch.setattr(np, "unique", spy)
        got = lk._block_ids(pb, pa)
        assert spy.calls == 1
        np.testing.assert_array_equal(got, want)


def linked(rows_b, rows_a, variant=lk.RULE_BASELINE_ONLY):
    """Baseline pairs and rule-1 links of two panels, as lists of
    (b_pos, a_pos, b_unit, a_unit, pattern) tuples."""
    pb, pa = panel(rows_b), panel(rows_a)
    base = lk.baseline_pairs(pb, pa, lk.block_pairs(pb, pa))
    links = lk.link_rule1(base, variant)
    return [list(zip(ls.b_pos.tolist(), ls.a_pos.tolist(), ls.b_unit.tolist(),
                     ls.a_unit.tolist(),
                     [PATTERNS[c] for c in ls.pattern_code.tolist()]))
            for ls in (base, links)]


def brute_force(rows_b, rows_a):
    """The baseline pairs by the definition, pair by pair, in b order
    and for one b record in a order."""
    out = []
    for i, (ub, sb, db, mb, yb) in enumerate(rows_b):
        for j, (ua, sa, da, ma, ya) in enumerate(rows_a):
            if (soundex(sb) == soundex(sa) and yb == ya
                    and abs(db - da) <= 1 and abs(mb - ma) <= 1):
                out.append((i, j, ub, ua,
                            (int(sb == sa), int(db == da), int(mb == ma))))
    return out


# ABLE, APPLE and ABEL share code A140, BAKER and BECKER B260
ROWS = st.lists(st.tuples(
    st.integers(1, 9),
    st.sampled_from(("ABLE", "APPLE", "ABEL", "BAKER", "BECKER", "ROBERT")),
    st.integers(1, 4), st.integers(1, 3), st.sampled_from((1980, 1981))),
    max_size=12)


class TestBaselineAndRule1:
    @settings(max_examples=300, deadline=None)
    @given(ROWS, ROWS)
    def test_matches_brute_force(self, rows_b, rows_a):
        expected = brute_force(rows_b, rows_a)
        base, links = linked(rows_b, rows_a)
        assert base == links == expected
        _, strict = linked(rows_b, rows_a, lk.RULE_BASELINE_AND_ANY_EXACT)
        assert strict == [p for p in expected if p[4] != (0, 0, 0)]

    def test_identical_records(self):
        r = (1, "ABLE", 10, 6, 1980)
        assert linked([r], [r])[0] == [(0, 0, 1, 1, (1, 1, 1))]

    def test_day_difference_two_rejected(self):
        a = (1, "ABLE", 10, 6, 1980)
        b = (1, "ABLE", 12, 6, 1980)
        assert linked([b], [a])[0] == []

    def test_year_mismatch_rejected(self):
        a = (1, "ABLE", 10, 6, 1980)
        b = (1, "ABLE", 10, 6, 1981)
        assert linked([b], [a])[0] == []

    def test_agreement_patterns(self):
        a = (1, "ABLE", 10, 6, 1980)
        base, _ = linked([(1, "ABLE", 11, 6, 1980),
                          (2, "APPLE", 11, 7, 1980)], [a])
        assert [p[4] for p in base] == [(1, 0, 1), (0, 0, 0)]


class TestRule1:
    def test_baseline_false_never_linked(self):
        pb = panel([(1, "ABLE", 1, 1, 1980)])
        pa = panel([(2, "ABLE", 4, 1, 1980)])   # same block, day gap 3
        pairs = lk.block_pairs(pb, pa)
        assert pairs.size == 1
        assert lk.link_rule1(lk.baseline_pairs(pb, pa, pairs)).size == 0

    def test_any_exact_excludes_zero_pattern(self, replication):
        _, _, pb, pa, pairs, _, _ = replication
        base = lk.baseline_pairs(pb, pa, pairs)
        strict = lk.link_rule1(base, lk.RULE_BASELINE_AND_ANY_EXACT)
        assert strict.size == base.size - int((base.pattern_code == 0).sum())
        assert (strict.pattern_code != 0).all()

    def test_unknown_variant_refused(self, replication):
        _, _, pb, pa, pairs, _, _ = replication
        base = lk.baseline_pairs(pb, pa, pairs)
        with pytest.raises(ValueError, match="unknown rule variant 'bogus'"):
            lk.link_rule1(base, "bogus")

    def test_shuffle_invariance(self, replication):
        # simple rule: decisions survive roster permutation
        _, _, pb, pa, pairs, links1, _ = replication
        rng = np.random.default_rng(5)
        perm = rng.permutation(pa.size)
        pa2 = lk.RecordPanel(**{f: getattr(pa, f)[perm] for f in
                                ("unit_id", "surname", "code", "day",
                                 "month", "year")})
        links2 = lk.link_rule1(
            lk.baseline_pairs(pb, pa2, lk.block_pairs(pb, pa2)))
        assert pair_set(links1) == pair_set(links2)


TOY_LINKS = lk.LinkSet(
    b_pos=np.array([0, 0, 1, 1]),
    a_pos=np.array([0, 1, 1, 3]),
    b_unit=np.array([2, 2, 3, 3]),
    a_unit=np.array([1, 2, 2, 4]),
    pattern_code=np.array([7, 7, 7, 7], dtype=np.int8),
)


def add_at_counts(links, size_b):
    """counts as np.add.at fills it, one link at a time."""
    n_total = np.zeros(size_b, dtype=np.int64)
    np.add.at(n_total, links.b_pos, 1)
    mat = np.zeros((size_b, len(PATTERNS)), dtype=np.int64)
    np.add.at(mat, (links.b_pos, links.pattern_code), 1)
    return n_total, mat


class TestCountsAndDedupe:
    def test_toy_counts(self):
        cv = lk.counts(TOY_LINKS, size_b=2)
        np.testing.assert_array_equal(cv.n_total, [2, 2])

    @pytest.mark.parametrize("which", ["rule1", "rule2", "none"])
    def test_matches_add_at(self, replication, which):
        _, _, pb, _, _, links1, _ = replication
        links = {"rule1": links1, "rule2": lk.dedupe_rule2(links1),
                 "none": lk._subset(links1, np.zeros(links1.size, bool))}
        links = links[which]
        # B records past the last linked one, and some within, have none
        size_b = pb.size + 5
        assert np.bincount(links.b_pos, minlength=size_b).min() == 0
        cv = lk.counts(links, size_b)
        n_total, mat = add_at_counts(links, size_b)
        for got, want in ((cv.n_total, n_total),
                          (cv.pattern_counts, mat)):
            assert got.dtype == np.int64 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_no_b_record(self):
        empty = lk._subset(TOY_LINKS, np.zeros(TOY_LINKS.size, bool))
        cv = lk.counts(empty, 0)
        assert cv.n_total.shape == (0,)
        assert cv.pattern_counts.shape == (0, len(PATTERNS))

    @pytest.mark.parametrize("stage", [lk.counts, lk.dedupe_rule2])
    def test_link_set_from_a_file_refused(self, stage):
        buf = io.StringIO()
        lk.dump_linkset(TOY_LINKS, buf)
        buf.seek(0)
        loaded = lk.load_linkset(buf)
        assert loaded.b_pos is None
        args = (loaded, 2) if stage is lk.counts else (loaded,)
        with pytest.raises(ValueError, match="carries no panel positions"):
            stage(*args)

    def test_no_links_zero(self):
        cv = lk.counts(lk.dedupe_rule2(TOY_LINKS), size_b=2)
        np.testing.assert_array_equal(cv.n_total, [0, 0])

    def test_partition_identity(self, replication):
        _, _, pb, _, _, links1, _ = replication
        cv = lk.counts(links1, pb.size)
        np.testing.assert_array_equal(cv.pattern_counts.sum(axis=1),
                                      cv.n_total)

    def test_toy_dedupe_empty(self):
        assert lk.dedupe_rule2(TOY_LINKS).size == 0

    def test_dedupe_idempotent_and_one_to_one(self, replication):
        _, _, _, _, _, links1, _ = replication
        once = lk.dedupe_rule2(links1)
        assert once.size > 0
        assert np.bincount(once.b_pos).max() == 1
        assert np.bincount(once.a_pos).max() == 1
        twice = lk.dedupe_rule2(once)
        assert pair_set(twice) == pair_set(once)

    def test_already_one_to_one_unchanged(self):
        ls = lk.LinkSet(
            b_pos=np.array([0, 1]), a_pos=np.array([1, 0]),
            b_unit=np.array([10, 11]), a_unit=np.array([11, 10]),
            pattern_code=np.array([7, 7], dtype=np.int8),
        )
        assert pair_set(lk.dedupe_rule2(ls)) == pair_set(ls)


class TestConfusion:
    def test_toy_matrix(self):
        # two S_B records vs five census records, four links, one TP
        cm = lk.confusion(TOY_LINKS, n_matched_pairs=2, size_b=2, size_a=5)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 3, 1, 5)
        assert cm.recall == pytest.approx(0.5)
        assert cm.precision == pytest.approx(0.25)
        assert cm.fpr == pytest.approx(0.375)

    def test_empty_links(self):
        empty = lk.dedupe_rule2(TOY_LINKS)
        cm = lk.confusion(empty, n_matched_pairs=0, size_b=2, size_a=5)
        assert cm.recall is None and cm.precision is None
        assert cm.fpr == 0.0

    def test_perfect_linkage(self):
        ls = lk.LinkSet(
            b_pos=np.arange(3), a_pos=np.arange(3),
            b_unit=np.arange(3), a_unit=np.arange(3),
            pattern_code=np.full(3, 7, dtype=np.int8),
        )
        cm = lk.confusion(ls, n_matched_pairs=3, size_b=3, size_a=3)
        assert cm.recall == 1.0 and cm.precision == 1.0 and cm.fpr == 0.0

    def test_identities(self, replication):
        _, _, pb, pa, _, links1, n_matched = replication
        cm = lk.confusion(links1, n_matched, pb.size, pa.size)
        assert cm.tp + cm.fn == n_matched
        assert cm.tp + cm.fp == links1.size
        assert cm.tp + cm.fp + cm.fn + cm.tn == pb.size * pa.size

    def test_scenario_construction_has_no_false_negatives(self, replication):
        _, _, pb, pa, _, links1, n_matched = replication
        cm1 = lk.confusion(links1, n_matched, pb.size, pa.size)
        assert cm1.recall == 1.0
        cm2 = lk.confusion(lk.dedupe_rule2(links1), n_matched, pb.size,
                           pa.size)
        assert cm2.precision >= cm1.precision
        assert cm2.recall <= cm1.recall


class TestClerical:
    def test_trivial_sample(self):
        ls = lk.LinkSet(
            b_pos=np.arange(4), a_pos=np.arange(4),
            b_unit=np.arange(4), a_unit=np.arange(4),
            pattern_code=np.full(4, 7, dtype=np.int8),
        )
        est = lk.clerical_sample(ls, ls, 4, np.random.default_rng(0))
        assert est.recall_hat == 1.0 and est.precision_hat == 1.0

    def test_sample_size_errors(self):
        with pytest.raises(ValueError):
            lk.clerical_sample(TOY_LINKS, TOY_LINKS, 0,
                               np.random.default_rng(0))
        with pytest.raises(ValueError):
            lk.clerical_sample(TOY_LINKS, TOY_LINKS, 99,
                               np.random.default_rng(0))

    def test_tracks_true_rates(self, replication):
        _, _, pb, pa, pairs, links1, n_matched = replication
        base = lk.baseline_pairs(pb, pa, pairs)
        links2 = lk.dedupe_rule2(links1)
        cm2 = lk.confusion(links2, n_matched, pb.size, pa.size)
        est = lk.clerical_sample(base, links2, 1000,
                                 np.random.default_rng(123))
        # hypergeometric 3-sigma around the true rule-2 recall
        n_m = 1000 * n_matched / base.size
        sd = np.sqrt(cm2.recall * (1 - cm2.recall) / n_m)
        assert abs(est.recall_hat - cm2.recall) < 3.5 * sd


class TestDumps:
    def test_linkset_format(self):
        buf = io.StringIO()
        lk.dump_linkset(TOY_LINKS, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "b_unit_id,a_unit_id,g1,g2,g3"
        assert len(lines) == 5

    def test_counts_format(self):
        cv = lk.counts(TOY_LINKS, size_b=2)
        buf = io.StringIO()
        lk.dump_counts(cv, np.array([2, 3]), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].startswith("b_unit_id,n_total,n_001")
        assert lines[1] == "2,2,0,0,0,0,0,0,2"
