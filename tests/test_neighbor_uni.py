import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, approx_fprime

from linkcov import neighbor_uni
from linkcov._optim import FitOptions, stick_break, stick_break_inverse
from linkcov.neighbor_uni import (AccuracySummary, CountHistogram,
                                  UniMixtureParams, accuracy_from_fit,
                                  capped_loglik, comp_pmf, fit_document,
                                  fit_uni, mix_pmf, sample_counts, select_G)


class TestComponentPmf:
    def test_zero_count(self):
        assert comp_pmf(0, 0.9, 0.5) == pytest.approx(0.1 * np.exp(-0.5),
                                                      rel=1e-12)

    def test_one_count(self):
        # e^{-0.5} (0.9 + 0.1 * 0.5)
        assert comp_pmf(1, 0.9, 0.5) == pytest.approx(0.576204, abs=1e-6)

    def test_truncated_normalization(self):
        for lam in (0.1, 1.0, 5.0, 10.0):
            total = comp_pmf(np.arange(201), 0.7, lam).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            comp_pmf(1, 0.5, 0.0)


class TestMixturePmf:
    def test_single_class_reduces_to_component(self):
        params = UniMixtureParams(alpha=[1.0], p=[0.3], lam=[0.8])
        n = np.arange(10)
        np.testing.assert_allclose(mix_pmf(n, params), comp_pmf(n, 0.3, 0.8))

    def test_identical_components_degenerate(self):
        one = UniMixtureParams(alpha=[1.0], p=[0.4], lam=[0.6])
        two = UniMixtureParams(alpha=[0.5, 0.5], p=[0.4, 0.4], lam=[0.6, 0.6])
        n = np.arange(15)
        np.testing.assert_allclose(mix_pmf(n, two), mix_pmf(n, one),
                                   rtol=1e-14)

    def test_sampling_oracle(self):
        params = UniMixtureParams(alpha=[0.6, 0.4], p=[0.8, 0.8],
                                  lam=[0.2, 2.5])
        rng = np.random.default_rng(42)
        draws = sample_counts(params, 200000, rng)
        for n in range(8):
            expected = mix_pmf(n, params)
            if expected < 1e-3:
                continue
            emp = (draws == n).mean()
            sd = np.sqrt(expected * (1 - expected) / draws.size)
            assert abs(emp - expected) < 3.5 * sd

    @given(st.floats(0.01, 0.99), st.floats(0.05, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_normalization_property(self, p, lam):
        params = UniMixtureParams(alpha=[1.0], p=[p], lam=[lam])
        support = np.arange(int(np.ceil(lam)) * 20 + 50)
        assert mix_pmf(support, params).sum() == pytest.approx(1.0,
                                                               abs=1e-10)


class TestCappedLoglik:
    def test_hand_histogram(self):
        hist = CountHistogram(values=[0, 1], counts=[2, 1])
        params = UniMixtureParams(alpha=[1.0], p=[0.5], lam=[1.0])
        expect = 2 * np.log(0.5 * np.exp(-1)) + np.log(np.exp(-1))
        assert capped_loglik(hist, params, 10) == pytest.approx(expect,
                                                                rel=1e-12)

    def test_no_tail_equals_uncapped(self):
        hist = CountHistogram(values=[0, 1, 2], counts=[5, 3, 1])
        params = UniMixtureParams(alpha=[1.0], p=[0.6], lam=[0.4])
        full = float(hist.counts @ np.log(mix_pmf(hist.values, params)))
        assert capped_loglik(hist, params, 10) == pytest.approx(full)

    def test_tail_term(self):
        hist = CountHistogram(values=[0, 25], counts=[5, 2])
        params = UniMixtureParams(alpha=[1.0], p=[0.6], lam=[0.4])
        tail_mass = 1.0 - mix_pmf(np.arange(11), params).sum()
        expect = 5 * np.log(mix_pmf(0, params)) + 2 * np.log(tail_mass)
        assert capped_loglik(hist, params, 10) == pytest.approx(expect)


class TestFit:
    def test_parameter_recovery(self):
        truth = UniMixtureParams(alpha=[1.0], p=[0.9], lam=[0.3])
        draws = sample_counts(truth, 50000, np.random.default_rng(11))
        fit = fit_uni(CountHistogram.from_observations(draws), 1, tau=10)
        assert fit.params.p[0] == pytest.approx(0.9, abs=0.02)
        assert fit.params.lam[0] == pytest.approx(0.3, abs=0.02)

    def test_nested_model_no_overfit_gain(self):
        truth = UniMixtureParams(alpha=[1.0], p=[0.9], lam=[0.3])
        draws = sample_counts(truth, 50000, np.random.default_rng(12))
        hist = CountHistogram.from_observations(draws)
        f1 = fit_uni(hist, 1, tau=10)
        f2 = fit_uni(hist, 2, tau=10)
        assert f2.loglik >= f1.loglik - 1e-6
        assert f2.loglik - f1.loglik < 2.0

    def test_all_zero_histogram_boundary(self):
        hist = CountHistogram(values=[0], counts=[1000])
        fit = fit_uni(hist, 1, tau=10)
        assert fit.params.p[0] < 0.01
        assert fit.params.lam[0] < 0.01

    def test_ascent_over_initialization(self):
        truth = UniMixtureParams(alpha=[0.5, 0.5], p=[0.85, 0.85],
                                 lam=[0.1, 1.5])
        draws = sample_counts(truth, 20000, np.random.default_rng(13))
        hist = CountHistogram.from_observations(draws)
        fit = fit_uni(hist, 2, tau=10)
        assert fit.loglik >= fit.init_loglik


def captured_objective(monkeypatch, module, fit, *fit_args, block=False,
                       **fit_kwargs):
    """The objective and arguments that ``fit`` hands to L-BFGS-B, with
    its first start.

    The module's ``minimize`` is replaced by a stub that records its
    first call and returns the start points, so the fit runs no search.
    The fits hand over their starts as one (S, n) block and a block
    kernel; unless block is True, that kernel comes back as its one-row
    case, a point function, with the block's first row as the start.
    """
    seen = []

    def stub(fun, x0, args=(), **kwargs):
        seen.append((fun, x0, args))
        ends = [OptimizeResult(x=x, fun=f, success=True, nit=0, nfev=1)
                for x, f in zip(x0, fun(x0, *args)[0])]
        return OptimizeResult(nfev=len(ends), nit=0, starts=ends)

    monkeypatch.setattr(module, "minimize", stub)
    fit(*fit_args, **fit_kwargs)
    fun, x0, args = seen[0]
    if block:
        return fun, x0, args
    return one_row(fun), x0[0], args


def one_row(fun):
    """The point function x -> (value, gradient) of a block kernel."""
    def point(x, *args):
        values, grads = fun(x[None], *args)
        return values[0], grads[0]
    return point


def assert_gradient_matches(fun, x0, args, seed, n_points=4, atol=1e-7):
    """Analytic gradient vs central differences at jittered points.

    Central differences are the mean of a forward and a backward
    ``approx_fprime``; their own error stays below 1e-8 here.
    """
    rng = np.random.default_rng(seed)

    def value(z):
        return fun(z, *args)[0]

    for _ in range(n_points):
        x = x0 + 0.5 * rng.standard_normal(x0.size)
        _, grad = fun(x, *args)
        numeric = 0.5 * (approx_fprime(x, value, 1e-6)
                         + approx_fprime(x, value, -1e-6))
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=atol)


class TestGradient:
    @pytest.mark.parametrize("g", [1, 3])
    def test_matches_finite_differences(self, monkeypatch, g):
        truth = UniMixtureParams(alpha=[0.6, 0.4], p=[0.8, 0.9],
                                 lam=[0.3, 2.5])
        draws = sample_counts(truth, 5000, np.random.default_rng(5))
        hist = CountHistogram.from_observations(draws)
        tau = 3
        assert hist.values.max() > tau      # the tail cell is active
        fun, x0, args = captured_objective(
            monkeypatch, neighbor_uni, fit_uni, hist, g, tau=tau,
            opts=FitOptions(n_starts=1))
        assert_gradient_matches(fun, x0, args, seed=10 * g + 1)


class TestSelection:
    def test_two_separated_classes_recovered(self):
        truth = UniMixtureParams(alpha=[0.5, 0.5], p=[0.9, 0.9],
                                 lam=[0.2, 5.0])
        selections = {}
        for seed in range(21, 41):
            draws = sample_counts(truth, 50000, np.random.default_rng(seed))
            selections[seed] = select_G(
                CountHistogram.from_observations(draws), 3, tau=10)
        # a third class adds two parameters, so AIC picks it when twice
        # its log-lik gain exceeds 4; under two classes that gain is
        # about chi2_2, and P(chi2_2 > 4) ~ 0.14 per seed.  Seed 21 is
        # such a case: G = 3 gains 6.64 over a G = 2 fit at its optimum
        two = [sel for sel in selections.values() if sel.g_hat == 2]
        assert len(two) >= 15
        for sel in two:
            np.testing.assert_allclose(sel.fit.params.lam, [0.2, 5.0],
                                       atol=0.3)
        # per-record mean p + lambda is tightly identified even where the
        # Bernoulli/Poisson split within the heavy class is not
        params = selections[21].fit.params
        assert params.p_bar + params.lambda_bar == pytest.approx(3.55,
                                                                 abs=0.05)

    def test_single_class_selected(self):
        hits = 0
        for seed in range(10):
            truth = UniMixtureParams(alpha=[1.0], p=[0.9], lam=[0.5])
            draws = sample_counts(truth, 20000, np.random.default_rng(seed))
            sel = select_G(CountHistogram.from_observations(draws), 2, tau=10)
            hits += sel.g_hat == 1
        assert hits >= 9

    def test_parameter_count(self):
        # G - 1 weights, the shared p and G rates
        hist = CountHistogram([0, 1, 2, 3], [40, 30, 20, 10])
        quick = FitOptions(n_starts=1, max_iter=5)
        assert fit_uni(hist, 2, opts=quick).n_params == 4


class TestAccuracy:
    def test_weighted_means(self):
        params = UniMixtureParams(alpha=[0.5, 0.5], p=[0.8, 0.6],
                                  lam=[0.1, 0.3])
        acc = accuracy_from_fit(params)
        assert acc.p_bar == pytest.approx(0.7)
        assert acc.lambda_bar == pytest.approx(0.2)
        assert acc.precision_hat == pytest.approx(7 / 9)
        assert acc.coverage_lower_bound == pytest.approx(0.7)

    def test_known_recall_gives_coverage(self):
        params = UniMixtureParams(alpha=[1.0], p=[0.85], lam=[0.1])
        acc = accuracy_from_fit(params, known_recall=1.0)
        assert acc.coverage_hat == pytest.approx(0.85)

    def test_known_coverage_gives_recall(self):
        params = UniMixtureParams(alpha=[1.0], p=[0.81], lam=[0.1])
        acc = accuracy_from_fit(params, known_coverage=0.9)
        assert acc.recall_hat == pytest.approx(0.9)


class TestCanonicalOrder:
    def test_permutation_invariance(self):
        a = UniMixtureParams(alpha=[0.3, 0.7], p=[0.2, 0.9], lam=[1.5, 0.1])
        b = UniMixtureParams(alpha=[0.7, 0.3], p=[0.9, 0.2], lam=[0.1, 1.5])
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.lam, b.lam)
        assert a.lam[0] < a.lam[1]

    def test_stick_breaking_round_trip(self):
        rng = np.random.default_rng(3)
        for g in (2, 3, 5):
            w = rng.dirichlet(np.ones(g))
            x = stick_break_inverse(w)
            np.testing.assert_allclose(stick_break(x), w, atol=1e-10)


class TestDocument:
    def test_json_fields(self):
        import json

        truth = UniMixtureParams(alpha=[1.0], p=[0.9], lam=[0.3])
        draws = sample_counts(truth, 5000, np.random.default_rng(2))
        fit = fit_uni(CountHistogram.from_observations(draws), 1, tau=10)
        doc = json.loads(fit_document(fit, aic=12.5))
        assert doc["aic"] == 12.5
        assert len(doc["components"]) == 1
        assert doc["converged"] in (True, False)
