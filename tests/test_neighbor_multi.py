import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import poisson

from linkcov import neighbor_multi
from linkcov._optim import FitOptions
from linkcov.neighbor_multi import (PATTERNS, LogLinear, MultiCountHistogram,
                                    MultiMixtureParams, appendix_c_start,
                                    build_design, coverage_from_fit,
                                    fit_multi, init_appendix_c,
                                    loglinear_probs, marginal_histogram,
                                    multi_comp_pmf,
                                    multi_mix_pmf, sample_multi_counts,
                                    select_G_multi, single_class_p_hat)
from linkcov.neighbor_uni import UniMixtureParams, mix_pmf
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
        p = np.array([[0.25, 0.3]])
        lam = np.array([[0.4, 0.9]])
        params = MultiMixtureParams(alpha=[1.0], p=p, lam=lam)
        t = np.array([[0, 1], [2, 0]])
        np.testing.assert_allclose(multi_mix_pmf(t, params),
                                   multi_comp_pmf(t, p[0], lam[0]))

    def test_marginal_matches_univariate(self):
        params = MultiMixtureParams(
            alpha=[0.4, 0.6],
            p=np.array([[0.2, 0.3], [0.5, 0.1]]),
            lam=np.array([[0.3, 0.8], [1.2, 0.2]]),
        )
        # sum out the other coordinate far past the mass
        grid = np.arange(60)
        for coord in (0, 1):
            # one rule's marginal counts: the classes' p and rate there
            uni = UniMixtureParams(alpha=params.alpha,
                                   p=params.p[:, coord],
                                   lam=params.lam[:, coord])
            for n in range(6):
                t = np.zeros((60, 2), dtype=int)
                t[:, coord] = n
                t[:, 1 - coord] = grid
                total = multi_mix_pmf(t, params).sum()
                assert total == pytest.approx(float(mix_pmf(n, uni)),
                                              abs=1e-10)

    def test_sampling_oracle(self):
        params = MultiMixtureParams(
            alpha=[0.7, 0.3],
            p=np.array([[0.4, 0.2], [0.4, 0.2]]),
            lam=np.array([[0.1, 0.3], [1.0, 0.8]]),
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
        d1 = build_design(1)
        row = d1.Z[PATTERNS.index((1, 0, 1))]
        np.testing.assert_array_equal(row, [1, 0, 1])

    def test_pairwise_layout(self):
        d2 = build_design(2)
        assert d2.Z.shape == (7, 6)
        row = d2.Z[PATTERNS.index((1, 0, 1))]
        np.testing.assert_array_equal(row, [1, 0, 1, 0, 1, 0])
        assert d2.labels == ("u_1(1)", "u_2(1)", "u_3(1)", "u_12(11)",
                             "u_13(11)", "u_23(11)")

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            build_design(3)
        with pytest.raises(ValueError):
            build_design(0)

    @pytest.mark.parametrize("d", [0, 3, -1])
    def test_loglinear_order_refused(self, d):
        with pytest.raises(ValueError, match=f"d={d} must be 1 or 2"):
            LogLinear(d)


class TestLogLinearProbs:
    def test_uniform_case(self):
        design = build_design(2)
        p = loglinear_probs(0.9, np.zeros(6), design)
        np.testing.assert_allclose(p, 0.9 / 8, rtol=1e-14)

    def test_softmax_normalization(self):
        design = build_design(2)
        rng = np.random.default_rng(4)
        u = rng.normal(size=6)
        p = loglinear_probs(0.9, u, design)
        r0 = 1.0 / (1.0 + np.exp(design.Z @ u).sum())
        assert p.sum() / 0.9 + r0 == pytest.approx(1.0, abs=1e-14)

    def test_interaction_ratio(self):
        # all coefficients one: p(111)/p(100) = exp(u2+u3+u12+u13+u23) = e^5
        design = build_design(2)
        p = loglinear_probs(0.9, np.ones(6), design)
        i111 = PATTERNS.index((1, 1, 1))
        i100 = PATTERNS.index((1, 0, 0))
        assert p[i111] / p[i100] == pytest.approx(np.exp(5.0), rel=1e-12)


class TestInversion:
    """(phi, u) can be recovered from the cells they give."""

    def test_exactly_determined_at_second_order(self):
        # seven cells determine coverage plus six coefficients
        assert build_design(2).Z.shape[1] + 1 == len(PATTERNS)


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
        lam = np.full(7, 0.3)
        rng = np.random.default_rng(10)
        counts = rng.poisson(lam, size=(20000, 7))
        hist = MultiCountHistogram.from_observations(counts)
        p_hat = single_class_p_hat(hist, lam, tau=10)
        assert np.all(p_hat < 0.01)

    def test_recovery(self):
        p = np.array([0.05, 0.1, 0.04, 0.2, 0.06, 0.15, 0.3])
        lam = np.full(7, 0.15)
        params = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(params, 50000, np.random.default_rng(12))
        hist = MultiCountHistogram.from_observations(draws)
        p_hat = single_class_p_hat(hist, lam, tau=10)
        np.testing.assert_allclose(p_hat, p, atol=0.02)


class TestAppendixInit:
    def test_uniform_p_gives_zero_u(self):
        # build a histogram whose plug-in p_hat is (near) uniform
        p = np.full(7, 0.1)
        lam = np.full(7, 0.2)
        params = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(params, 200000,
                                    np.random.default_rng(14))
        hist = MultiCountHistogram.from_observations(draws)
        for d in (1, 2):
            init = init_appendix_c(
                (lam, single_class_p_hat(hist, lam, tau=10)), d)
            assert np.max(np.abs(init["u"])) < 0.25
            assert init["phi"] == pytest.approx(0.8, abs=0.05)

    def test_exact_formula_values(self):
        # moment formulas applied to exact cell probabilities
        design = build_design(2)
        p = loglinear_probs(0.9, np.array([1.0, 1, 1, 0, 0, 0]), design)
        lam = np.full(7, 0.1)
        params = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(params, 300000,
                                    np.random.default_rng(15))
        hist = MultiCountHistogram.from_observations(draws)
        init = init_appendix_c((lam, single_class_p_hat(hist, lam, tau=10)),
                               1)
        # under a no-interaction truth the logit-average starts sit near
        # the generating main effects
        np.testing.assert_allclose(init["u"][:3], 1.0, atol=0.2)
        assert init["phi"] == pytest.approx(0.9, abs=0.03)


class TestFitMulti:
    def test_loglinear_recovery(self):
        design = build_design(2)
        u = np.ones(6)
        p = loglinear_probs(0.9, u, design)
        lam = np.full(7, 0.05)
        truth = MultiMixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(truth, 50000, np.random.default_rng(99))
        hist = MultiCountHistogram.from_observations(draws)
        fit = fit_multi(hist, 1, constraint=LogLinear(2), tau=10)
        assert fit.params.phi == pytest.approx(0.9, abs=0.01)
        assert fit.loglik >= fit.init_loglik

    @pytest.mark.parametrize("d", [1, 2])
    def test_cells_follow_the_loglinear_model(self, d):
        hist, init = _two_class_hist()
        fit = fit_multi(hist, 2, constraint=LogLinear(d), tau=4,
                        opts=FitOptions(n_starts=1), init=init)
        params = fit.params
        design = build_design(d)
        assert params.u_labels == design.labels
        np.testing.assert_allclose(
            params.p, np.tile(loglinear_probs(params.phi, params.u, design),
                              (2, 1)), rtol=1e-12)
        assert coverage_from_fit(params) == params.phi

    @pytest.mark.parametrize("fit", [
        lambda hist, init, **kw: fit_multi(hist, 2, tau=4, init=init,
                                           opts=FitOptions(n_starts=1), **kw),
        lambda hist, init, **kw: select_G_multi(
            hist, 2, tau=4, opts=FitOptions(n_starts=1),
            start=(init["lambda"], init["p"]), **kw).fit],
        ids=["fit", "select"])
    def test_default_constraint_is_second_order(self, fit):
        hist, init = _two_class_hist()
        default = fit(hist, init)
        second = fit(hist, init, constraint=LogLinear(2))
        assert default.params.u_labels == build_design(2).labels
        assert default.loglik == second.loglik
        np.testing.assert_array_equal(default.params.u, second.params.u)


def _two_class_hist():
    """5000 count vectors of two classes with shared cells, whose sums
    exceed 4, and a start bundle for them."""
    p = np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25])
    truth = MultiMixtureParams(
        alpha=[0.6, 0.4], p=[p, p],
        lam=[np.full(7, 0.1), np.full(7, 0.7)],
    )
    draws = sample_multi_counts(truth, 5000, np.random.default_rng(51))
    init = {"lambda": np.linspace(0.2, 0.5, 7), "p": p,
            "u": np.array([0.5, -0.3, 0.2, 0.1, -0.2, 0.3]),
            "phi": 0.8}
    return MultiCountHistogram.from_observations(draws), init


class TestGradient:
    @pytest.mark.parametrize("constraint", [LogLinear(1), LogLinear(2)],
                             ids=str)
    @pytest.mark.parametrize("g", [2, 1, 3])
    def test_matches_finite_differences(self, monkeypatch, constraint, g):
        hist, init = _two_class_hist()
        tau = 4
        assert hist.keys.sum(axis=1).max() > tau    # tail cell active
        fun, x0, args = captured_objective(
            monkeypatch, neighbor_multi, fit_multi, hist, g,
            constraint=constraint, tau=tau, opts=FitOptions(n_starts=1),
            init=init)
        assert_gradient_matches(fun, x0, args, seed=50 + g)

    def test_plug_in_cells_match_finite_differences(self, monkeypatch):
        # the single-class cells' objective, with the rates plugged in
        hist, init = _two_class_hist()
        tau = 4
        assert hist.keys.sum(axis=1).max() > tau    # tail cell active
        fun, x0, args = captured_objective(
            monkeypatch, neighbor_multi, single_class_p_hat, hist,
            init["lambda"], tau=tau)
        assert_gradient_matches(fun, x0, args, seed=60)


class TestSelection:
    def test_parameter_counts(self):
        # G - 1 weights, phi, d_u coefficients and G x 7 rates
        hist, init = _two_class_hist()
        quick = FitOptions(n_starts=1, max_iter=5)
        for d, count in ((1, 1 + 4 + 14), (2, 1 + 7 + 14)):
            fit = fit_multi(hist, 2, constraint=LogLinear(d), tau=4,
                            opts=quick, init=init)
            assert fit.n_params == count

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_count_is_the_search_dimension(self, monkeypatch, g, d):
        # AIC charges exactly the coordinates that L-BFGS-B moves
        hist, init = _two_class_hist()
        _, x0, _ = captured_objective(
            monkeypatch, neighbor_multi, fit_multi, hist, g,
            constraint=LogLinear(d), tau=4, opts=FitOptions(n_starts=1),
            init=init)
        assert x0.size == (g - 1) + 1 + {1: 3, 2: 6}[d] + 7 * g

    def test_single_class_selected(self):
        p = np.full(7, 0.12)
        truth = MultiMixtureParams(alpha=[1.0], p=[p],
                                   lam=[np.full(7, 0.1)])
        hits = 0
        for seed in range(5):
            draws = sample_multi_counts(truth, 20000,
                                        np.random.default_rng(seed))
            hist = MultiCountHistogram.from_observations(draws)
            sel = select_G_multi(hist, 2, constraint=LogLinear(2), tau=10)
            hits += sel.g_hat == 1
        assert hits >= 4

    def test_common_classes_across_rules(self):
        # one G and one partition serve all rules simultaneously
        p = np.full(7, 0.1)
        truth = MultiMixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.05), np.full(7, 0.8)],
        )
        draws = sample_multi_counts(truth, 30000, np.random.default_rng(41))
        hist = MultiCountHistogram.from_observations(draws)
        sel = select_G_multi(hist, 2, constraint=LogLinear(2), tau=10)
        assert sel.fit.params.p.shape == (sel.g_hat, 7)
        assert sel.fit.params.lam.shape == (sel.g_hat, 7)


class TestSharedRates:
    def test_passed_rates_reproduce_the_selection_exactly(self):
        p = loglinear_probs(0.9, np.array([1.0, 0.5, 0.8, 0.3, 0, 0.2]),
                            build_design(2))
        truth = MultiMixtureParams(
            alpha=[0.7, 0.3], p=[p, p],
            lam=[np.full(7, 0.03), np.full(7, 0.3)],
        )
        draws = sample_multi_counts(truth, 20000, np.random.default_rng(61))
        hist = MultiCountHistogram.from_observations(draws)
        start = appendix_c_start(hist, 10)
        for d in (1, 2):
            shared = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10,
                                    start=start)
            own = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10)
            assert shared.g_hat == own.g_hat
            assert shared.fit.loglik == own.fit.loglik
            assert shared.fit.params.phi == own.fit.params.phi

    def test_passed_cells_reproduce_the_selection_exactly(self):
        p = loglinear_probs(0.85, np.array([0.8, 0.4, 1.0, 0.2, 0.1, 0]),
                            build_design(2))
        truth = MultiMixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.05), np.full(7, 0.4)],
        )
        draws = sample_multi_counts(truth, 20000, np.random.default_rng(62))
        hist = MultiCountHistogram.from_observations(draws)
        rates, cells = appendix_c_start(hist, 10)
        np.testing.assert_array_equal(
            cells, single_class_p_hat(hist, rates, tau=10))
        for d in (1, 2):
            shared = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10,
                                    start=(rates, cells))
            own = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10)
            assert shared.g_hat == own.g_hat
            assert shared.trace == own.trace
            assert shared.fit.params.phi == own.fit.params.phi

    @pytest.mark.parametrize("fit", [
        lambda hist: select_G_multi(hist, 1),
        lambda hist: select_G_multi(hist, 1, start=(np.ones(2),
                                                    np.full(2, 0.1))),
        lambda hist: fit_multi(hist, 1),
        lambda hist: appendix_c_start(hist)],
        ids=["select", "passed", "fit", "init"])
    def test_counts_need_three_binary_groups(self, monkeypatch, fit):
        def no_rates(*args, **kwargs):
            raise AssertionError("marginal rates fitted before the check")

        monkeypatch.setattr(neighbor_multi, "select_G", no_rates)
        hist = MultiCountHistogram(keys=[[0, 1], [1, 0]], counts=[5, 3])
        with pytest.raises(ValueError, match="three binary rule groups"):
            fit(hist)


class TestCoverage:
    def test_requires_loglinear_mode(self):
        params = MultiMixtureParams(alpha=[1.0], p=[np.full(7, 0.1)],
                                    lam=[np.full(7, 0.1)])
        with pytest.raises(ValueError):
            coverage_from_fit(params)

    def test_returns_phi(self):
        params = MultiMixtureParams(
            alpha=[1.0], p=[np.full(7, 0.1)], lam=[np.full(7, 0.1)],
            phi=0.87, u=np.zeros(6), u_labels=("a",) * 6,
        )
        assert coverage_from_fit(params) == pytest.approx(0.87)


class TestInvariants:
    def test_mutual_exclusivity_constraint(self):
        with pytest.raises(ValueError):
            MultiMixtureParams(alpha=[1.0], p=[np.full(7, 0.2)],
                               lam=[np.full(7, 0.1)])

    def test_phi_requires_shared_cells(self):
        p = np.full(7, 0.1)
        with pytest.raises(ValueError, match="shared p"):
            MultiMixtureParams(alpha=[0.5, 0.5], p=[p, 0.5 * p],
                               lam=[np.full(7, 0.1), np.full(7, 0.2)],
                               phi=0.9)

    def test_canonical_ordering_invariance(self):
        p = np.array([[0.1, 0.1], [0.1, 0.1]])
        lam_a = np.array([[0.5, 0.2], [0.1, 0.9]])
        a = MultiMixtureParams(alpha=[0.3, 0.7], p=p, lam=lam_a)
        b = MultiMixtureParams(alpha=[0.7, 0.3], p=p, lam=lam_a[::-1])
        np.testing.assert_array_equal(a.lam, b.lam)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert tuple(a.lam[0]) < tuple(a.lam[1])

    def test_marginal_histogram(self):
        hist = MultiCountHistogram(keys=[[0, 1], [2, 1], [0, 3]],
                                   counts=[5, 2, 1])
        mh = marginal_histogram(hist, 0)
        assert (mh.values.tolist(), mh.counts.tolist()) == ([0, 2], [6, 2])
