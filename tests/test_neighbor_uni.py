import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult, approx_fprime

from linkcov import _optim, neighbor_uni
from linkcov._optim import (CountHistogram, MixtureParams, comp_pmf, mix_pmf,
                            stick_break, stick_break_inverse)
from linkcov.neighbor_uni import (accuracy_from_fit, capped_loglik,
                                  fit_document, fit_uni, sample_counts,
                                  select_G)


def column(n):
    """The width-1 count vectors 0 .. n - 1, one per row."""
    return np.arange(n)[:, None]


class TestComponentPmf:
    def test_zero_count(self):
        assert comp_pmf([0], [0.9], [0.5]) == pytest.approx(
            0.1 * np.exp(-0.5), rel=1e-12)

    def test_one_count(self):
        # e^{-0.5} (0.9 + 0.1 * 0.5)
        assert comp_pmf([1], [0.9], [0.5]) == pytest.approx(0.576204,
                                                            abs=1e-6)

    def test_truncated_normalization(self):
        for lam in (0.1, 1.0, 5.0, 10.0):
            total = comp_pmf(column(201), [0.7], [lam]).sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            comp_pmf([1], [0.5], [0.0])


class TestMixturePmf:
    def test_single_class_reduces_to_component(self):
        params = MixtureParams(alpha=[1.0], p=[[0.3]], lam=[[0.8]])
        n = column(10)
        np.testing.assert_allclose(mix_pmf(n, params),
                                   comp_pmf(n, [0.3], [0.8]))

    def test_identical_components_degenerate(self):
        one = MixtureParams(alpha=[1.0], p=[[0.4]], lam=[[0.6]])
        two = MixtureParams(alpha=[0.5, 0.5], p=[[0.4], [0.4]],
                            lam=[[0.6], [0.6]])
        n = column(15)
        np.testing.assert_allclose(mix_pmf(n, two), mix_pmf(n, one),
                                   rtol=1e-14)

    def test_sampling_oracle(self):
        params = MixtureParams(alpha=[0.6, 0.4], p=[[0.8], [0.8]],
                               lam=[[0.2], [2.5]])
        rng = np.random.default_rng(42)
        draws = sample_counts(params, 200000, rng)
        for n in range(8):
            expected = mix_pmf([n], params)
            if expected < 1e-3:
                continue
            emp = (draws == n).mean()
            sd = np.sqrt(expected * (1 - expected) / draws.size)
            assert abs(emp - expected) < 3.5 * sd

    @given(st.floats(0.01, 0.99), st.floats(0.05, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_normalization_property(self, p, lam):
        params = MixtureParams(alpha=[1.0], p=[[p]], lam=[[lam]])
        support = column(int(np.ceil(lam)) * 20 + 50)
        assert mix_pmf(support, params).sum() == pytest.approx(1.0,
                                                               abs=1e-10)


class TestCappedLoglik:
    def test_hand_histogram(self):
        hist = CountHistogram(keys=[[0], [1]], counts=[2, 1])
        params = MixtureParams(alpha=[1.0], p=[[0.5]], lam=[[1.0]])
        expect = 2 * np.log(0.5 * np.exp(-1)) + np.log(np.exp(-1))
        assert capped_loglik(hist, params, 10) == pytest.approx(expect,
                                                                rel=1e-12)

    def test_no_tail_equals_uncapped(self):
        hist = CountHistogram(keys=[[0], [1], [2]], counts=[5, 3, 1])
        params = MixtureParams(alpha=[1.0], p=[[0.6]], lam=[[0.4]])
        full = float(hist.counts @ np.log(mix_pmf(hist.keys, params)))
        assert capped_loglik(hist, params, 10) == pytest.approx(full)

    def test_tail_term(self):
        hist = CountHistogram(keys=[[0], [25]], counts=[5, 2])
        params = MixtureParams(alpha=[1.0], p=[[0.6]], lam=[[0.4]])
        tail_mass = 1.0 - mix_pmf(column(11), params).sum()
        expect = 5 * np.log(mix_pmf([0], params)) + 2 * np.log(tail_mass)
        assert capped_loglik(hist, params, 10) == pytest.approx(expect)


WIDE = CountHistogram(keys=[[0, 1], [2, 0]], counts=[5, 2])
NARROW = CountHistogram(keys=[[0], [1]], counts=[5, 2])
PAIR = MixtureParams(alpha=[1.0], p=[[0.3, 0.3]], lam=[[0.4, 0.4]])
ONE = MixtureParams(alpha=[1.0], p=[[0.6]], lam=[[0.4]])


@pytest.mark.parametrize("call", [
    lambda: capped_loglik(WIDE, ONE, 10),
    lambda: capped_loglik(NARROW, PAIR, 10),
    lambda: fit_uni(WIDE, 1),
    lambda: neighbor_uni.fit_uni_many((NARROW, WIDE), (1, 1)),
    lambda: sample_counts(PAIR, 10, np.random.default_rng(0))],
    ids=["loglik_hist", "loglik_params", "fit", "fit_many", "sample"])
def test_refuses_more_cells_than_one(call):
    # the model counts one cell: its tail sums the pmf over the counts
    # at or below tau, its head gives one p, its sampler one Bernoulli
    with pytest.raises(ValueError, match="counts one cell"):
        call()


class TestFit:
    def test_parameter_recovery(self):
        truth = MixtureParams(alpha=[1.0], p=[[0.9]], lam=[[0.3]])
        draws = sample_counts(truth, 50000, np.random.default_rng(11))
        fit = fit_uni(CountHistogram.from_observations(draws), 1, tau=10)
        assert fit.params.p[0, 0] == pytest.approx(0.9, abs=0.02)
        assert fit.params.lam[0, 0] == pytest.approx(0.3, abs=0.02)

    def test_nested_model_no_overfit_gain(self):
        truth = MixtureParams(alpha=[1.0], p=[[0.9]], lam=[[0.3]])
        draws = sample_counts(truth, 50000, np.random.default_rng(12))
        hist = CountHistogram.from_observations(draws)
        f1 = fit_uni(hist, 1, tau=10)
        f2 = fit_uni(hist, 2, tau=10)
        assert f2.loglik >= f1.loglik - 1e-6
        assert f2.loglik - f1.loglik < 2.0

    def test_all_zero_histogram_boundary(self):
        hist = CountHistogram(keys=[[0]], counts=[1000])
        fit = fit_uni(hist, 1, tau=10)
        assert fit.params.p[0, 0] < 0.01
        assert fit.params.lam[0, 0] < 0.01

    def test_ascent_over_initialization(self):
        truth = MixtureParams(alpha=[0.5, 0.5], p=[[0.85], [0.85]],
                              lam=[[0.1], [1.5]])
        draws = sample_counts(truth, 20000, np.random.default_rng(13))
        hist = CountHistogram.from_observations(draws)
        fit = fit_uni(hist, 2, tau=10)
        assert fit.loglik >= fit.init_loglik


def captured_objective(monkeypatch, module, fit, *fit_args, block=False,
                       **fit_kwargs):
    """The objective that ``fit`` hands to L-BFGS-B, with its first
    start.

    The module's ``minimize`` is replaced by a stub that records its
    first call and returns the start points, so the fit runs no search.
    The fits hand over a tuple of (S, n) blocks of starts, one per model,
    and a kernel on a tuple of blocks; unless block is True, that kernel
    comes back as its one-row case on the first block, a point function,
    with that block's first row as the start.
    """
    seen = []

    def stub(fun, x0s, **kwargs):
        seen.append((fun, x0s))
        rows = [x for b in x0s for x in b]
        ends = [OptimizeResult(x=x, fun=f, success=True, nit=0, nfev=1)
                for x, f in zip(rows, fun(x0s)[0])]
        return OptimizeResult(nfev=len(ends), nit=0, starts=ends)

    monkeypatch.setattr(module, "minimize", stub)
    fit(*fit_args, **fit_kwargs)
    fun, x0s = seen[0]
    if block:
        return fun, x0s
    return one_row(fun), x0s[0][0]


def record_searches(monkeypatch, module):
    """(shapes, fits): the block shapes of each call of module's
    ``minimize`` and the FitResults of each call of the engine's
    ``fit_starts``, filled in as the module's fits run."""
    shapes, fits = [], []
    minimize, fit_starts = module.minimize, _optim.fit_starts

    def recording(fun, x0s, *args, **kwargs):
        shapes.append([b.shape for b in x0s])
        return minimize(fun, x0s, *args, **kwargs)

    def keeping(*args, **kwargs):
        fits.append(fit_starts(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(module, "minimize", recording)
    monkeypatch.setattr(_optim, "fit_starts", keeping)
    return shapes, fits


def one_row(fun, block=0, n_blocks=1):
    """The point function x -> (value, gradient) of block of a kernel on
    n_blocks blocks of one width, the others left empty."""
    def point(x):
        blocks = [np.empty((0, x.size))] * n_blocks
        blocks[block] = x[None]
        values, grads = fun(tuple(blocks))
        return values[0], grads[block][0]
    return point


def histograms_of_one_total(n, seed=14, size=400, top=8.0):
    """n histograms of size draws each by sample_counts, from truths whose
    heavy class's rate rises from 0.1 to top: the light ones lack counts
    that the heavy ones reach, and some heavy one skips a count below its
    own maximum."""
    rng = np.random.default_rng(seed)
    hists = []
    for lam in np.geomspace(0.1, top, n):
        truth = MixtureParams(alpha=[0.9, 0.1], p=[[0.8], [0.8]],
                              lam=[[lam / 4], [lam]])
        hists.append(CountHistogram.from_observations(
            sample_counts(truth, size, rng)))
    return hists


def fit_bytes(fit):
    """Every field of a univariate FitResult, its floats and arrays as
    bytes."""
    p = fit.params
    return (fit.loglik.hex(), fit.init_loglik.hex(), fit.converged,
            fit.n_iter, fit.tau, fit.n_params, p.alpha.tobytes(),
            p.p.tobytes(), p.lam.tobytes())


def assert_gaps_and_tails(hists, tau, tails=True):
    """Some histogram lacks a count at most tau below its own maximum (a
    gap in the middle of the keys it shares), and some but not all have
    counts above tau (none when tails is False)."""
    assert any(set(range(min(h.keys.max(), tau + 1))) - set(h.keys[:, 0])
               for h in hists)
    above = [bool((h.keys > tau).any()) for h in hists]
    assert (any(above) and not all(above)) if tails else not any(above)


def assert_gradient_matches(fun, x0, seed, n_points=4, atol=1e-7):
    """Analytic gradient vs central differences at jittered points.

    Central differences are the mean of a forward and a backward
    ``approx_fprime``; their own error stays below 1e-8 here.
    """
    rng = np.random.default_rng(seed)

    def value(z):
        return fun(z)[0]

    for _ in range(n_points):
        x = x0 + 0.5 * rng.standard_normal(x0.size)
        _, grad = fun(x)
        numeric = 0.5 * (approx_fprime(x, value, 1e-6)
                         + approx_fprime(x, value, -1e-6))
        np.testing.assert_allclose(grad, numeric, rtol=0, atol=atol)


class TestGradient:
    @pytest.mark.parametrize("g", [1, 3])
    def test_matches_finite_differences(self, monkeypatch, g):
        truth = MixtureParams(alpha=[0.6, 0.4], p=[[0.8], [0.9]],
                              lam=[[0.3], [2.5]])
        draws = sample_counts(truth, 5000, np.random.default_rng(5))
        hist = CountHistogram.from_observations(draws)
        tau = 3
        assert hist.keys.max() > tau        # the tail cell is active
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fun, x0 = captured_objective(
            monkeypatch, neighbor_uni, fit_uni, hist, g, tau=tau)
        assert_gradient_matches(fun, x0, seed=10 * g + 1)

    @pytest.mark.parametrize("g", [1, 3])
    def test_histogram_blocks_match_finite_differences(self, monkeypatch,
                                                       g):
        # one kernel on several histograms, one count row per block: each
        # block's gradient is its own histogram's
        hists = histograms_of_one_total(4)
        tau = 5
        assert_gaps_and_tails(hists, tau)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fun, starts = captured_objective(
            monkeypatch, neighbor_uni, neighbor_uni.fit_uni_many, hists,
            (g,) * len(hists), tau, block=True)
        for b, block in enumerate(starts):
            assert_gradient_matches(one_row(fun, b, len(hists)), block[0],
                                    seed=10 * g + 1)

    @pytest.mark.xfail(strict=True, reason="the tail mass, taken as 1 minus "
                       "the mass below the cap, cancels near 1e-14")
    def test_gradient_where_the_tail_mass_cancels(self, monkeypatch):
        # at this UN G=1 point (p = 0.7327, lam = 0.00446, tau = 5) the
        # tail mass keeps about two digits, and the analytic gradient
        # misses central differences by 0.034; see ROADMAP item 2
        hists = histograms_of_one_total(4)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fun, _ = captured_objective(monkeypatch, neighbor_uni,
                                    neighbor_uni.fit_uni_many, hists,
                                    (1,) * len(hists), 5,
                                    block=True)
        point = one_row(fun, 2, len(hists))
        x = np.array([1.00851939, -0.96991115])

        def value(z):
            return point(z)[0]

        numeric = 0.5 * (approx_fprime(x, value, 1e-6)
                         + approx_fprime(x, value, -1e-6))
        np.testing.assert_allclose(point(x)[1], numeric, rtol=0, atol=1e-7)


class TestSelection:
    def test_two_separated_classes_recovered(self):
        truth = MixtureParams(alpha=[0.5, 0.5], p=[[0.9], [0.9]],
                              lam=[[0.2], [5.0]])
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
            np.testing.assert_allclose(sel.fit.params.lam[:, 0], [0.2, 5.0],
                                       atol=0.3)
        # per-record mean p + lambda is tightly identified even where the
        # Bernoulli/Poisson split within the heavy class is not
        params = selections[21].fit.params
        assert params.p_bar + params.lambda_bar == pytest.approx(3.55,
                                                                 abs=0.05)

    def test_single_class_selected(self):
        hits = 0
        for seed in range(10):
            truth = MixtureParams(alpha=[1.0], p=[[0.9]], lam=[[0.5]])
            draws = sample_counts(truth, 20000, np.random.default_rng(seed))
            sel = select_G(CountHistogram.from_observations(draws), 2, tau=10)
            hits += sel.g_hat == 1
        assert hits >= 9

    def test_parameter_count(self, monkeypatch):
        # G - 1 weights, the shared p and G rates
        hist = CountHistogram([[0], [1], [2], [3]], [40, 30, 20, 10])
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        monkeypatch.setattr(_optim, "MAX_ITER", 5)
        assert fit_uni(hist, 2).n_params == 4


class TestAccuracy:
    def test_weighted_means(self):
        params = MixtureParams(alpha=[0.5, 0.5], p=[[0.8], [0.6]],
                               lam=[[0.1], [0.3]])
        acc = accuracy_from_fit(params)
        assert acc.p_bar == pytest.approx(0.7)
        assert acc.lambda_bar == pytest.approx(0.2)
        assert acc.precision_hat == pytest.approx(7 / 9)

    def test_known_recall_gives_coverage(self):
        params = MixtureParams(alpha=[1.0], p=[[0.85]], lam=[[0.1]])
        acc = accuracy_from_fit(params, known_recall=1.0)
        assert acc.coverage_hat == pytest.approx(0.85)

    def test_known_coverage_gives_recall(self):
        params = MixtureParams(alpha=[1.0], p=[[0.81]], lam=[[0.1]])
        acc = accuracy_from_fit(params, known_coverage=0.9)
        assert acc.recall_hat == pytest.approx(0.9)


class TestCanonicalOrder:
    def test_stick_breaking_round_trip(self):
        rng = np.random.default_rng(3)
        for g in (2, 3, 5):
            w = rng.dirichlet(np.ones(g))
            x = stick_break_inverse(w)
            np.testing.assert_allclose(stick_break(x), w, atol=1e-10)


class TestDocument:
    def test_json_fields(self):
        import json

        truth = MixtureParams(alpha=[1.0], p=[[0.9]], lam=[[0.3]])
        draws = sample_counts(truth, 5000, np.random.default_rng(2))
        fit = fit_uni(CountHistogram.from_observations(draws), 1, tau=10)
        doc = json.loads(fit_document(fit, aic=12.5))
        assert doc["aic"] == 12.5
        assert len(doc["components"]) == 1
        assert doc["converged"] in (True, False)
