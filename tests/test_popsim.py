import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkcov.frequencies import (FrequencyTable, build_soundex_index,
                                 synthetic_age_table, synthetic_surname_table)
from linkcov.popsim import (PATTERNS, PerturbationParams, draw_samples,
                            dump_population, generate_population,
                            load_population, pattern_distribution)
from linkcov.soundex import soundex

SCEN1 = PerturbationParams(u_main=(1.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def small_world():
    surnames = synthetic_surname_table(20000)
    return surnames, synthetic_age_table()


class TestPatternDistribution:
    def test_scenario1_values(self):
        # normalize exp(|gamma|) over the 8 patterns
        probs = pattern_distribution(SCEN1)
        e = np.e
        z = (1 + e) ** 3
        assert probs[PATTERNS.index((1, 1, 1))] == pytest.approx(e ** 3 / z,
                                                                 rel=1e-12)
        assert probs[PATTERNS.index((0, 0, 0))] == pytest.approx(1 / z,
                                                                 rel=1e-12)
        assert probs[PATTERNS.index((1, 1, 1))] == pytest.approx(0.3907,
                                                                 abs=2e-4)

    def test_all_zero_uniform(self):
        probs = pattern_distribution(PerturbationParams((0,) * 3))
        np.testing.assert_allclose(probs, 1 / 8, atol=1e-15)

    @given(st.lists(st.floats(-3, 3), min_size=7, max_size=7))
    def test_normalization(self, u):
        params = PerturbationParams(tuple(u[:3]), tuple(u[3:6]), u[6])
        assert pattern_distribution(params).sum() == pytest.approx(
            1.0, abs=1e-14)

    def test_scenario2_sums_to_one(self):
        probs = pattern_distribution(
            PerturbationParams((1,) * 3, (1,) * 3, 0.0))
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)


class TestDrawPattern:
    def test_empirical_frequencies(self):
        rng = np.random.default_rng(1)
        probs = pattern_distribution(SCEN1)
        draws = rng.choice(8, size=100000, p=probs)
        freq = np.bincount(draws, minlength=8) / draws.size
        sigma = np.sqrt(probs * (1 - probs) / draws.size)
        assert np.all(np.abs(freq - probs) < 3.5 * sigma + 1e-9)


def perturbed(surnames, ages, u_main, n=3000, seed=0):
    """A population whose patterns u_main forces: 1e6 keeps a field in
    every unit, -1e6 perturbs it in every unit."""
    return generate_population(n, surnames, ages, PerturbationParams(u_main),
                               np.random.default_rng(seed))


class TestPerturbation:
    def test_full_agreement_keeps_every_field(self, small_world):
        surnames, ages = small_world
        pop = perturbed(surnames, ages, (1e6,) * 3)
        for a, b in (("sidx_a", "sidx_b"), ("day_a", "day_b"),
                     ("month_a", "month_b"), ("year_a", "year_b")):
            np.testing.assert_array_equal(getattr(pop, a), getattr(pop, b))

    def test_day_boundary_forced(self, small_world):
        surnames, ages = small_world
        pop = perturbed(surnames, ages, (1e6, -1e6, 1e6))
        assert (np.abs(pop.day_b - pop.day_a.astype(int)) == 1).all()
        assert (pop.day_b[pop.day_a == 30] == 29).all()
        assert (pop.day_b[pop.day_a == 1] == 2).all()
        assert (pop.day_a == 30).any() and (pop.day_a == 1).any()
        np.testing.assert_array_equal(pop.month_a, pop.month_b)
        np.testing.assert_array_equal(pop.sidx_a, pop.sidx_b)

    def test_month_boundaries(self, small_world):
        surnames, ages = small_world
        pop = perturbed(surnames, ages, (1e6, 1e6, -1e6))
        assert (np.abs(pop.month_b - pop.month_a.astype(int)) == 1).all()
        assert (pop.month_b[pop.month_a == 12] == 11).all()
        assert (pop.month_b[pop.month_a == 1] == 2).all()
        assert (pop.month_a == 12).any() and (pop.month_a == 1).any()
        np.testing.assert_array_equal(pop.day_a, pop.day_b)

    def test_surname_redraw_keeps_code(self, small_world):
        base, ages = small_world
        # IRA and WU share their codes with no name of the base table
        surnames = FrequencyTable(base.labels + ("IRA", "WU"),
                                  np.concatenate([0.98 * base.probs,
                                                  [0.01, 0.01]]))
        pop = perturbed(surnames, ages, (-1e6, 1e6, 1e6))
        idx = build_soundex_index(surnames)
        alone = np.diff(idx.starts)[idx.label_class[pop.sidx_a]] == 1
        names_a = pop.surname_labels[pop.sidx_a]
        names_b = pop.surname_labels[pop.sidx_b]
        assert 0 < alone.sum() < pop.n
        assert (names_b[~alone] != names_a[~alone]).all()
        assert [soundex(l) for l in names_b] == [soundex(l) for l in names_a]
        assert (names_b[alone] == names_a[alone]).all()
        assert pop.singleton_fallbacks == alone.sum()
        np.testing.assert_array_equal(pop.year_a, pop.year_b)


class TestGeneratePopulation:
    def test_deterministic(self, small_world):
        surnames, ages = small_world
        a = generate_population(2000, surnames, ages, SCEN1,
                                np.random.default_rng(42))
        b = generate_population(2000, surnames, ages, SCEN1,
                                np.random.default_rng(42))
        for fld in ("sidx_a", "day_a", "month_a", "year_a", "sidx_b",
                    "day_b", "month_b", "year_b"):
            np.testing.assert_array_equal(getattr(a, fld), getattr(b, fld))

    def test_index_of_an_equal_table_accepted(self, small_world):
        surnames, ages = small_world
        twin = FrequencyTable(surnames.labels, surnames.probs.copy())
        a = generate_population(500, surnames, ages, SCEN1,
                                np.random.default_rng(5))
        b = generate_population(500, twin, ages, SCEN1,
                                np.random.default_rng(5))
        np.testing.assert_array_equal(a.sidx_b, b.sidx_b)

    def test_index_derived_from_the_table(self, small_world):
        # the same population and generator state whether or not the
        # table's soundex index was built before the call
        base, ages = small_world
        pops, states = [], []
        for prebuilt in (False, True):
            table = FrequencyTable(base.labels, base.probs.copy())
            if prebuilt:
                build_soundex_index(table)
            assert ("soundex_index" in vars(table)) == prebuilt
            rng = np.random.default_rng(8)
            pop = generate_population(2000, table, ages, SCEN1, rng)
            # the table keeps the index the population was built with
            assert pop.surname_codes is vars(table)["soundex_index"].codes
            pops.append(pop)
            states.append(rng.bit_generator.state)
        for fld in ("surname_labels", "surname_codes", "sidx_a", "day_a",
                    "month_a", "year_a", "sidx_b", "day_b", "month_b",
                    "year_b"):
            np.testing.assert_array_equal(getattr(pops[0], fld),
                                          getattr(pops[1], fld))
        assert pops[0].singleton_fallbacks == pops[1].singleton_fallbacks
        assert states[0] == states[1]

    def test_single_unit_degenerate_table(self):
        surnames = FrequencyTable(("ABLE", "APPLE"), np.array([0.999, 0.001]))
        ages = FrequencyTable((1980,), np.array([1.0]))
        pop = generate_population(1, surnames, ages, SCEN1,
                                  np.random.default_rng(0))
        assert pop.n == 1
        assert pop.year_a[0] == 1980
        assert 1 <= pop.day_a[0] <= 30 and 1 <= pop.month_a[0] <= 12

    def test_day_month_ranges_and_uniformity(self, small_world):
        surnames, ages = small_world
        pop = generate_population(60000, surnames, ages, SCEN1,
                                  np.random.default_rng(3))
        assert pop.day_a.min() >= 1 and pop.day_a.max() <= 30
        assert pop.month_a.min() >= 1 and pop.month_a.max() <= 12
        # chi-square against uniform on 1..30
        obs = np.bincount(pop.day_a, minlength=31)[1:]
        exp = pop.n / 30
        chi2 = ((obs - exp) ** 2 / exp).sum()
        assert chi2 < 30 + 4 * np.sqrt(2 * 29)   # ~4 sigma band

    def test_baseline_criterion_by_construction(self, small_world):
        surnames, ages = small_world
        pop = generate_population(5000, surnames, ages, SCEN1,
                                  np.random.default_rng(11))
        codes = pop.surname_codes
        assert (pop.year_a == pop.year_b).all()
        assert (np.abs(pop.day_a.astype(int) - pop.day_b) <= 1).all()
        assert (np.abs(pop.month_a.astype(int) - pop.month_b) <= 1).all()
        assert (codes[pop.sidx_a] == codes[pop.sidx_b]).all()

    def test_empirical_pattern_frequencies(self, small_world):
        surnames, ages = small_world
        params = PerturbationParams((1.0,) * 3, (1.0,) * 3, 0.25)
        pop = generate_population(100000, surnames, ages, params,
                                  np.random.default_rng(5))
        g1 = (pop.sidx_a == pop.sidx_b)
        g2 = (pop.day_a == pop.day_b)
        g3 = (pop.month_a == pop.month_b)
        code = (g1.astype(int) << 2) | (g2.astype(int) << 1) | g3.astype(int)
        freq = np.bincount(code, minlength=8) / pop.n
        probs = pattern_distribution(params)
        sigma = np.sqrt(probs * (1 - probs) / pop.n)
        assert np.all(np.abs(freq - probs) < 4 * sigma)


class TestDrawSamples:
    def test_full_inclusion(self, small_world):
        surnames, ages = small_world
        pop = generate_population(500, surnames, ages, SCEN1,
                                  np.random.default_rng(1))
        flags = draw_samples(pop, 1.0, 1.0, np.random.default_rng(2))
        assert flags.in_a.all() and flags.in_b.all()

    def test_binomial_bounds_and_independence(self, small_world):
        surnames, ages = small_world
        pop = generate_population(100000, surnames, ages, SCEN1,
                                  np.random.default_rng(1))
        flags = draw_samples(pop, 0.9, 0.9, np.random.default_rng(3))
        n = pop.n
        assert abs(flags.in_a.sum() - 0.9 * n) < 4 * np.sqrt(n * 0.09)
        both = (flags.in_a & flags.in_b).mean()
        sigma = np.sqrt(0.81 * 0.19 / n)
        assert abs(both - 0.81) < 4 * sigma

    def test_invalid_probabilities(self, small_world):
        surnames, ages = small_world
        pop = generate_population(10, surnames, ages, SCEN1,
                                  np.random.default_rng(1))
        with pytest.raises(ValueError):
            draw_samples(pop, 0.0, 0.9, np.random.default_rng(0))


class TestDump:
    def test_round_trip(self, small_world):
        surnames, ages = small_world
        pop = generate_population(300, surnames, ages, SCEN1,
                                  np.random.default_rng(9))
        flags = draw_samples(pop, 0.8, 0.9, np.random.default_rng(10))
        buf = io.StringIO()
        dump_population(pop, flags, buf)
        buf.seek(0)
        pop2, flags2 = load_population(buf)
        assert pop2.n == pop.n
        np.testing.assert_array_equal(pop.day_b, pop2.day_b)
        np.testing.assert_array_equal(flags.in_a, flags2.in_a)
        names = pop.surname_labels[pop.sidx_a]
        names2 = pop2.surname_labels[pop2.sidx_a]
        assert (names == names2).all()
