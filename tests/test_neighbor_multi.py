import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import poisson

from linkcov import neighbor_multi
from linkcov._optim import FitOptions
from linkcov.neighbor_multi import (LogLinear, MultiCountHistogram,
                                    MultiMixtureParams, RuleIndexSet,
                                    binary_rules, build_design,
                                    coverage_from_fit, fit_multi,
                                    init_appendix_c, loglinear_invert,
                                    loglinear_probs, marginal_histogram,
                                    marginal_params, marginal_rates,
                                    multi_comp_pmf, multi_mix_pmf,
                                    n_free_params_multi,
                                    sample_multi_counts, select_G_multi,
                                    single_class_p_hat)
from linkcov.neighbor_uni import mix_pmf
from test_neighbor_uni import assert_gradient_matches, captured_objective


def brute_pmf(t, p, lam):
    """Enumerate the TP cell explicitly and convolve with the Poissons."""
    t = np.asarray(t)
    m = len(p)
    total = (1.0 - np.sum(p)) * np.prod(poisson.pmf(t, lam))
    for g in range(m):
        shifted = t.copy()
        shifted[g] -= 1
        if shifted[g] < 0:
            continue
        total += p[g] * np.prod(poisson.pmf(shifted, lam))
    return total


class TestComponentPmf:
    P2 = np.array([0.3, 0.2])
    LAM2 = np.array([0.5, 1.0])

    def test_zero_vector(self):
        assert multi_comp_pmf([0, 0], self.P2, self.LAM2) == pytest.approx(
            0.5 * np.exp(-1.5), rel=1e-12)
        assert multi_comp_pmf([0, 0], self.P2, self.LAM2) == pytest.approx(
            0.111565, abs=1e-6)

    def test_single_count(self):
        assert multi_comp_pmf([1, 0], self.P2, self.LAM2) == pytest.approx(
            0.122721, abs=1e-6)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.integers(2, 5)
            p = rng.dirichlet(np.ones(m + 1))[:m]
            lam = rng.uniform(0.05, 2.0, m)
            t = rng.integers(0, 4, m)
            assert multi_comp_pmf(t, p, lam) == pytest.approx(
                brute_pmf(t, p, lam), rel=1e-11)

    def test_truncated_normalization(self):
        p = np.array([0.3, 0.2, 0.1])
        lam = np.array([0.5, 1.0, 2.0])
        grid = np.array([t for t in itertools.product(range(31), repeat=3)
                         if sum(t) <= 30])
        assert multi_comp_pmf(grid, p, lam).sum() == pytest.approx(
            1.0, abs=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            multi_comp_pmf([0, 0], [0.6, 0.6], [1.0, 1.0])
        with pytest.raises(ValueError):
            multi_comp_pmf([0, 0], [0.1, 0.1], [1.0, 0.0])


class TestMixturePmf:
    def test_single_class_reduces(self):
        rules = RuleIndexSet(H=(2,))
        p = np.array([[0.25, 0.3]])
        lam = np.array([[0.4, 0.9]])
        params = MultiMixtureParams(alpha=[1.0], p=p, lam=lam, rules=rules)
        t = np.array([[0, 1], [2, 0]])
        np.testing.assert_allclose(multi_mix_pmf(t, params),
                                   multi_comp_pmf(t, p[0], lam[0]))

    def test_marginal_matches_univariate(self):
        rules = RuleIndexSet(H=(2,))
        params = MultiMixtureParams(
            alpha=[0.4, 0.6],
            p=np.array([[0.2, 0.3], [0.5, 0.1]]),
            lam=np.array([[0.3, 0.8], [1.2, 0.2]]),
            rules=rules,
        )
        # sum out the other coordinate far past the mass
        grid = np.arange(60)
        for coord in (0, 1):
            uni = marginal_params(params, coord)
            for n in range(6):
                t = np.zeros((60, rules.size), dtype=int)
                t[:, coord] = n
                t[:, 1 - coord] = grid
                total = multi_mix_pmf(t, params).sum()
                assert total == pytest.approx(float(mix_pmf(n, uni)),
                                              abs=1e-10)

    def test_sampling_oracle(self):
        rules = RuleIndexSet(H=(2,))
        params = MultiMixtureParams(
            alpha=[0.7, 0.3],
            p=np.array([[0.4, 0.2], [0.4, 0.2]]),
            lam=np.array([[0.1, 0.3], [1.0, 0.8]]),
            rules=rules,
        )
        rng = np.random.default_rng(17)
        draws = sample_multi_counts(params, 200000, rng)
        for t in itertools.product(range(3), repeat=2):
            expected = multi_mix_pmf(np.array(t), params)
            if expected < 1e-3:
                continue
            emp = np.mean((draws == np.array(t)).all(axis=1))
            sd = np.sqrt(expected * (1 - expected) / draws.shape[0])
            assert abs(emp - expected) < 3.5 * sd


class TestDesign:
    def test_main_terms_layout(self):
        rules = binary_rules(3)
        d1 = build_design(rules, 1)
        row = d1.Z[rules.patterns.index((1, 0, 1))]
        np.testing.assert_array_equal(row, [1, 0, 1])

    def test_pairwise_layout(self):
        rules = binary_rules(3)
        d2 = build_design(rules, 2)
        assert d2.Z.shape == (7, 6)
        row = d2.Z[rules.patterns.index((1, 0, 1))]
        np.testing.assert_array_equal(row, [1, 0, 1, 0, 1, 0])
        assert d2.labels == ("u_1(1)", "u_2(1)", "u_3(1)", "u_12(11)",
                             "u_13(11)", "u_23(11)")

    def test_order_bounds(self):
        rules = binary_rules(3)
        with pytest.raises(ValueError):
            build_design(rules, 3)
        with pytest.raises(ValueError):
            build_design(rules, 0)

    def test_multilevel_dimension(self):
        rules = RuleIndexSet(H=(2, 1, 3))
        d2 = build_design(rules, 2)
        expect = (2 + 1 + 3) + (2 * 1 + 2 * 3 + 1 * 3)
        assert d2.Z.shape == (rules.size, expect)


class TestLogLinearProbs:
    def test_uniform_case(self):
        rules = binary_rules(3)
        design = build_design(rules, 2)
        p = loglinear_probs(0.9, np.zeros(6), design)
        np.testing.assert_allclose(p, 0.9 / 8, rtol=1e-14)

    def test_softmax_normalization(self):
        rules = binary_rules(3)
        design = build_design(rules, 2)
        rng = np.random.default_rng(4)
        u = rng.normal(size=6)
        p = loglinear_probs(0.9, u, design)
        r0 = 1.0 / (1.0 + np.exp(design.Z @ u).sum())
        assert p.sum() / 0.9 + r0 == pytest.approx(1.0, abs=1e-14)

    def test_interaction_ratio(self):
        # all coefficients one: p(111)/p(100) = exp(u2+u3+u12+u13+u23) = e^5
        rules = binary_rules(3)
        design = build_design(rules, 2)
        p = loglinear_probs(0.9, np.ones(6), design)
        i111 = rules.patterns.index((1, 1, 1))
        i100 = rules.patterns.index((1, 0, 0))
        assert p[i111] / p[i100] == pytest.approx(np.exp(5.0), rel=1e-12)


class TestInversion:
    def test_round_trip(self):
        rules = binary_rules(3)
        rng = np.random.default_rng(6)
        for d in (1, 2):
            design = build_design(rules, d)
            for _ in range(25):
                u = rng.normal(0, 1.5, design.Z.shape[1])
                phi = rng.uniform(0.3, 0.99)
                p = loglinear_probs(phi, u, design)
                inv = loglinear_invert(p, rules, d)
                assert inv.exact
                assert inv.phi == pytest.approx(phi, abs=1e-10)
                np.testing.assert_allclose(inv.u, u, atol=1e-10)

    def test_uniform_gives_zero(self):
        rules = binary_rules(3)
        inv = loglinear_invert(np.full(7, 0.9 / 8), rules, 2)
        np.testing.assert_allclose(inv.u, 0.0, atol=1e-12)
        assert inv.phi == pytest.approx(0.9, abs=1e-12)

    def test_inconsistent_input_reports_residual(self):
        rules = binary_rules(3)
        rng = np.random.default_rng(9)
        p = rng.uniform(0.01, 0.1, 7)
        inv = loglinear_invert(p, rules, 1)
        assert inv.residual > 1e-6
        assert not inv.exact

    def test_exactly_determined_at_second_order(self):
        # seven cells determine coverage plus six coefficients
        rules = binary_rules(3)
        design = build_design(rules, 2)
        assert design.Z.shape[1] + 1 == rules.size


_COUNT_MATRICES = st.tuples(
    st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**63 - 1),
).flatmap(lambda shape_hi: arrays(
    np.int64, shape_hi[:2],
    elements=st.one_of(st.integers(0, 2), st.integers(0, shape_hi[2]))))


class TestHistogramFromObservations:
    """Same keys, order and counts as np.unique(axis=0)."""

    @settings(max_examples=200, deadline=None)
    @given(_COUNT_MATRICES)
    @example(np.array([[3, 0, 1]]))
    @example(np.full((6, 4), 7))
    @example(np.array([[2], [0], [2], [1], [0]]))
    @example(np.array([[2**63 - 1, 0], [2**62, 5], [2**63 - 1, 0]]))
    def test_matches_unique(self, mat):
        keys, counts = np.unique(mat, axis=0, return_counts=True)
        hist = MultiCountHistogram.from_observations(mat)
        assert hist.keys.dtype == keys.dtype
        assert hist.counts.dtype == np.int64
        np.testing.assert_array_equal(hist.keys, keys)
        np.testing.assert_array_equal(hist.counts, counts)


class TestSingleClassP:
    def test_zero_boundary(self):
        rules = binary_rules(3)
        lam = np.full(7, 0.3)
        rng = np.random.default_rng(10)
        counts = rng.poisson(lam, size=(20000, 7))
        hist = MultiCountHistogram.from_observations(counts)
        p_hat = single_class_p_hat(hist, lam, tau=10)
        assert np.all(p_hat < 0.01)

    def test_recovery(self):
        rules = binary_rules(3)
        p = np.array([0.05, 0.1, 0.04, 0.2, 0.06, 0.15, 0.3])
        lam = np.full(7, 0.15)
        params = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam],
                                    rules=rules)
        draws = sample_multi_counts(params, 50000, np.random.default_rng(12))
        hist = MultiCountHistogram.from_observations(draws)
        p_hat = single_class_p_hat(hist, lam, tau=10)
        np.testing.assert_allclose(p_hat, p, atol=0.02)


class TestAppendixInit:
    def test_uniform_p_gives_zero_u(self):
        rules = binary_rules(3)
        # build a histogram whose plug-in p_hat is (near) uniform
        p = np.full(7, 0.1)
        lam = np.full(7, 0.2)
        params = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam],
                                    rules=rules)
        draws = sample_multi_counts(params, 200000,
                                    np.random.default_rng(14))
        hist = MultiCountHistogram.from_observations(draws)
        for mode in ("no_interactions", "with_interactions"):
            init = init_appendix_c(hist, lam, mode, tau=10)
            assert np.max(np.abs(init["u"])) < 0.25
            assert init["phi"] == pytest.approx(0.8, abs=0.05)

    def test_exact_formula_values(self):
        # moment formulas applied to exact cell probabilities
        rules = binary_rules(3)
        design = build_design(rules, 2)
        p = loglinear_probs(0.9, np.array([1.0, 1, 1, 0, 0, 0]), design)
        lam = np.full(7, 0.1)
        params = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam],
                                    rules=rules)
        draws = sample_multi_counts(params, 300000,
                                    np.random.default_rng(15))
        hist = MultiCountHistogram.from_observations(draws)
        init = init_appendix_c(hist, lam, "no_interactions", tau=10)
        # under a no-interaction truth the logit-average starts sit near
        # the generating main effects
        np.testing.assert_allclose(init["u"][:3], 1.0, atol=0.2)
        assert init["phi"] == pytest.approx(0.9, abs=0.03)


class TestFitMulti:
    def test_loglinear_recovery(self):
        rules = binary_rules(3)
        design = build_design(rules, 2)
        u = np.ones(6)
        p = loglinear_probs(0.9, u, design)
        lam = np.full(7, 0.05)
        truth = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam],
                                   rules=rules)
        draws = sample_multi_counts(truth, 50000, np.random.default_rng(99))
        hist = MultiCountHistogram.from_observations(draws)
        fit = fit_multi(hist, 1, constraint=LogLinear(2), tau=10)
        assert fit.params.phi == pytest.approx(0.9, abs=0.01)
        assert fit.loglik >= fit.init_loglik

    def test_shared_p_mode(self):
        rules = binary_rules(3)
        p = np.array([0.1, 0.05, 0.05, 0.2, 0.1, 0.15, 0.25])
        truth = MultiMixtureParams(
            alpha=[0.5, 0.5], p=[p, p],
            lam=[np.full(7, 0.05), np.full(7, 0.6)], rules=rules,
            constraint="shared_p",
        )
        draws = sample_multi_counts(truth, 30000, np.random.default_rng(31))
        hist = MultiCountHistogram.from_observations(draws)
        fit = fit_multi(hist, 2, constraint="shared_p", tau=10)
        assert np.allclose(fit.params.p[0], fit.params.p[1])

    def test_free_mode_runs(self):
        rules = binary_rules(3)
        p = np.full(7, 0.1)
        truth = MultiMixtureParams(alpha=[1.0], p=[p],
                                   lam=[np.full(7, 0.3)], rules=rules)
        draws = sample_multi_counts(truth, 10000, np.random.default_rng(32))
        hist = MultiCountHistogram.from_observations(draws)
        fit = fit_multi(hist, 1, constraint="free", tau=10)
        np.testing.assert_allclose(fit.params.p[0], p, atol=0.03)

    def test_tie_symmetric_mode(self):
        rules = binary_rules(3)
        design = build_design(rules, 2)
        p = loglinear_probs(0.9, np.ones(6), design)
        truth = MultiMixtureParams(alpha=[1.0], p=[p],
                                   lam=[np.full(7, 0.05)], rules=rules)
        draws = sample_multi_counts(truth, 40000, np.random.default_rng(33))
        hist = MultiCountHistogram.from_observations(draws)
        fit = fit_multi(hist, 1, constraint=LogLinear(2, tie_symmetric=True),
                        tau=10)
        u = fit.params.u
        assert np.allclose(u[:3], u[0]) and np.allclose(u[3:], u[3])
        assert fit.params.phi == pytest.approx(0.9, abs=0.02)


class TestGradient:
    @pytest.mark.parametrize("constraint", [
        "free", "shared_p", LogLinear(1), LogLinear(2),
        LogLinear(2, tie_symmetric=True)], ids=str)
    def test_matches_finite_differences(self, monkeypatch, constraint):
        rules = binary_rules(3)
        p = np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25])
        truth = MultiMixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.1), np.full(7, 0.7)], rules=rules,
            constraint="shared_p",
        )
        draws = sample_multi_counts(truth, 5000, np.random.default_rng(51))
        hist = MultiCountHistogram.from_observations(draws)
        tau = 4
        assert hist.keys.sum(axis=1).max() > tau    # tail cell active
        init = {"lambda": np.linspace(0.2, 0.5, 7), "p": p,
                "u": np.array([0.5, -0.3, 0.2, 0.1, -0.2, 0.3]),
                "phi": 0.8, "flagged": False}
        fun, x0, args = captured_objective(
            monkeypatch, neighbor_multi, fit_multi, hist, 2,
            constraint=constraint, tau=tau, opts=FitOptions(n_starts=1),
            init=init)
        assert_gradient_matches(fun, x0, args, seed=52)


class TestSelection:
    def test_parameter_counts(self):
        assert n_free_params_multi(2, 7, "shared_p") == 22
        assert n_free_params_multi(2, 7, "free") == 1 + 28
        assert n_free_params_multi(2, 7, LogLinear(2), du=6) == 1 + 7 + 14

    def test_single_class_selected(self):
        rules = binary_rules(3)
        p = np.full(7, 0.12)
        truth = MultiMixtureParams(alpha=[1.0], p=[p],
                                   lam=[np.full(7, 0.1)], rules=rules)
        hits = 0
        for seed in range(5):
            draws = sample_multi_counts(truth, 20000,
                                        np.random.default_rng(seed))
            hist = MultiCountHistogram.from_observations(draws)
            sel = select_G_multi(hist, 2, constraint="shared_p", tau=10)
            hits += sel.g_hat == 1
        assert hits >= 4

    def test_common_classes_across_rules(self):
        # one G and one partition serve all rules simultaneously
        rules = binary_rules(3)
        p = np.full(7, 0.1)
        truth = MultiMixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.05), np.full(7, 0.8)], rules=rules,
            constraint="shared_p",
        )
        draws = sample_multi_counts(truth, 30000, np.random.default_rng(41))
        hist = MultiCountHistogram.from_observations(draws)
        sel = select_G_multi(hist, 2, constraint="shared_p", tau=10)
        assert sel.fit.params.p.shape == (sel.g_hat, 7)
        assert sel.fit.params.lam.shape == (sel.g_hat, 7)


class TestSharedRates:
    def test_passed_rates_reproduce_the_selection_exactly(self):
        rules = binary_rules(3)
        design = build_design(rules, 2)
        p = loglinear_probs(0.9, np.array([1.0, 0.5, 0.8, 0.3, 0, 0.2]),
                            design)
        truth = MultiMixtureParams(
            alpha=[0.7, 0.3], p=[p, p],
            lam=[np.full(7, 0.03), np.full(7, 0.3)], rules=rules,
            constraint="shared_p",
        )
        draws = sample_multi_counts(truth, 20000, np.random.default_rng(61))
        hist = MultiCountHistogram.from_observations(draws)
        opts = FitOptions()
        rates = marginal_rates(hist, 10, opts)
        for d in (1, 2):
            shared = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10,
                                    opts=opts, lambda_bar=rates)
            own = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10,
                                 opts=opts)
            assert shared.g_hat == own.g_hat
            assert shared.fit.loglik == own.fit.loglik
            assert shared.fit.params.phi == own.fit.params.phi

    def test_rates_need_three_binary_groups(self):
        hist = MultiCountHistogram(keys=[[0, 1], [1, 0]], counts=[5, 3])
        with pytest.raises(ValueError, match="binary"):
            select_G_multi(hist, 1, rules=RuleIndexSet(H=(2,)),
                           lambda_bar=np.ones(2))


class TestCoverage:
    def test_requires_loglinear_mode(self):
        rules = binary_rules(3)
        params = MultiMixtureParams(alpha=[1.0], p=[np.full(7, 0.1)],
                                    lam=[np.full(7, 0.1)], rules=rules)
        with pytest.raises(ValueError):
            coverage_from_fit(params)

    def test_returns_phi(self):
        rules = binary_rules(3)
        params = MultiMixtureParams(
            alpha=[1.0], p=[np.full(7, 0.1)], lam=[np.full(7, 0.1)],
            rules=rules, constraint="loglinear", phi=0.87,
            u=np.zeros(6), u_labels=("a",) * 6,
        )
        assert coverage_from_fit(params) == pytest.approx(0.87)


class TestInvariants:
    def test_mutual_exclusivity_constraint(self):
        rules = binary_rules(3)
        with pytest.raises(ValueError):
            MultiMixtureParams(alpha=[1.0], p=[np.full(7, 0.2)],
                               lam=[np.full(7, 0.1)], rules=rules)

    def test_canonical_ordering_invariance(self):
        rules = RuleIndexSet(H=(2,))
        p = np.array([[0.1, 0.1], [0.1, 0.1]])
        lam_a = np.array([[0.5, 0.2], [0.1, 0.9]])
        a = MultiMixtureParams(alpha=[0.3, 0.7], p=p, lam=lam_a, rules=rules)
        b = MultiMixtureParams(alpha=[0.7, 0.3], p=p, lam=lam_a[::-1],
                               rules=rules)
        np.testing.assert_array_equal(a.lam, b.lam)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert tuple(a.lam[0]) < tuple(a.lam[1])

    def test_marginal_histogram(self):
        hist = MultiCountHistogram(keys=[[0, 1], [2, 1], [0, 3]],
                                   counts=[5, 2, 1])
        mh = marginal_histogram(hist, 0)
        assert mh.as_dict() == {0: 6, 2: 2}
