import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import poisson

from linkcov import (_optim, experiment, linkage, neighbor_multi,
                     neighbor_uni)
from linkcov.neighbor_multi import (PATTERNS, LogLinear, appendix_c_start,
                                    coverage_from_fit, fit_multi,
                                    init_appendix_c, loglinear_probs,
                                    marginal_histogram, sample_multi_counts,
                                    select_G_multi, single_class_p_hat)
from linkcov._optim import (NU, CountHistogram, MixtureParams, comp_pmf,
                            mix_pmf)
from linkcov.neighbor_uni import fit_uni, select_G
from test_neighbor_uni import (assert_gradient_matches, captured_objective,
                               fit_bytes, record_searches)


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
        assert comp_pmf([0, 0], self.P2, self.LAM2) == pytest.approx(
            0.5 * np.exp(-1.5), rel=1e-12)
        assert comp_pmf([0, 0], self.P2, self.LAM2) == pytest.approx(
            0.111565, abs=1e-6)

    def test_single_count(self):
        assert comp_pmf([1, 0], self.P2, self.LAM2) == pytest.approx(
            0.122721, abs=1e-6)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.integers(2, 5)
            p = rng.dirichlet(np.ones(m + 1))[:m]
            lam = rng.uniform(0.05, 2.0, m)
            t = rng.integers(0, 4, m)
            assert comp_pmf(t, p, lam) == pytest.approx(
                brute_pmf(t, p, lam), rel=1e-11)

    def test_truncated_normalization(self):
        p = np.array([0.3, 0.2, 0.1])
        lam = np.array([0.5, 1.0, 2.0])
        grid = np.array([t for t in itertools.product(range(31), repeat=3)
                         if sum(t) <= 30])
        assert comp_pmf(grid, p, lam).sum() == pytest.approx(
            1.0, abs=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            comp_pmf([0, 0], [0.6, 0.6], [1.0, 1.0])
        with pytest.raises(ValueError):
            comp_pmf([0, 0], [0.1, 0.1], [1.0, 0.0])


class TestMixturePmf:
    def test_single_class_reduces(self):
        p = np.array([[0.25, 0.3]])
        lam = np.array([[0.4, 0.9]])
        params = MixtureParams(alpha=[1.0], p=p, lam=lam)
        t = np.array([[0, 1], [2, 0]])
        np.testing.assert_allclose(mix_pmf(t, params),
                                   comp_pmf(t, p[0], lam[0]))

    def test_marginal_matches_univariate(self):
        params = MixtureParams(
            alpha=[0.4, 0.6],
            p=np.array([[0.2, 0.3], [0.5, 0.1]]),
            lam=np.array([[0.3, 0.8], [1.2, 0.2]]),
        )
        # sum out the other coordinate far past the mass
        grid = np.arange(60)
        for coord in (0, 1):
            # one rule's marginal counts: the classes' p and rate there
            uni = MixtureParams(alpha=params.alpha, p=params.p[:, [coord]],
                                lam=params.lam[:, [coord]])
            for n in range(6):
                t = np.zeros((60, 2), dtype=int)
                t[:, coord] = n
                t[:, 1 - coord] = grid
                total = mix_pmf(t, params).sum()
                assert total == pytest.approx(mix_pmf([n], uni),
                                              abs=1e-10)

    def test_sampling_oracle(self):
        params = MixtureParams(
            alpha=[0.7, 0.3],
            p=np.array([[0.4, 0.2], [0.4, 0.2]]),
            lam=np.array([[0.1, 0.3], [1.0, 0.8]]),
        )
        rng = np.random.default_rng(17)
        draws = sample_multi_counts(params, 200000, rng)
        for t in itertools.product(range(3), repeat=2):
            expected = mix_pmf(np.array(t), params)
            if expected < 1e-3:
                continue
            emp = np.mean((draws == np.array(t)).all(axis=1))
            sd = np.sqrt(expected * (1 - expected) / draws.shape[0])
            assert abs(emp - expected) < 3.5 * sd

    def test_sampling_cells_summing_just_above_one(self):
        # the params take cells summing up to 1 + 1e-12; these sum to
        # 1.0000000000000002, so the zero cell's mass 1 - |p| is -2.2e-16
        p = [0.5538403709549613, 0.015514074952687095, 0.16294643151817853,
             0.1250804300531725, 0.021035803801562728, 0.11843885831256824,
             0.0031440304068696794]
        params = MixtureParams(alpha=[1.0], p=[p],
                               lam=[np.full(7, 0.1)])
        draws = sample_multi_counts(params, 1000, np.random.default_rng(3))
        assert draws.shape == (1000, 7)
        # no draw falls in the zero cell: each holds its true positive
        assert (draws.sum(axis=1) >= 1).all()


class TestDesign:
    def test_main_terms_layout(self):
        row = LogLinear(1).Z[PATTERNS.index((1, 0, 1))]
        np.testing.assert_array_equal(row, [1, 0, 1])

    def test_pairwise_layout(self):
        d2 = LogLinear(2)
        assert d2.Z.shape == (7, 6)
        row = d2.Z[PATTERNS.index((1, 0, 1))]
        np.testing.assert_array_equal(row, [1, 0, 1, 0, 1, 0])
        assert d2.labels == ("u_1(1)", "u_2(1)", "u_3(1)", "u_12(11)",
                             "u_13(11)", "u_23(11)")

    @pytest.mark.parametrize("d", [0, 3, -1])
    def test_loglinear_order_refused(self, d):
        with pytest.raises(ValueError, match=f"d={d} must be 1 or 2"):
            LogLinear(d)

    def test_the_order_alone_is_compared(self):
        # the design is derived from d and takes no part in equality,
        # hash or repr, so an order serves as a dict key
        assert LogLinear(1) == LogLinear(1) != LogLinear(2)
        assert hash(LogLinear(2)) == hash(LogLinear(2))
        assert repr(LogLinear(1)) == "LogLinear(d=1)"
        assert LogLinear() == LogLinear(2)
        by_order = {LogLinear(1): "d1", LogLinear(2): "d2"}
        assert by_order[LogLinear(1)] == "d1"
        assert by_order[LogLinear(2)] == "d2"


class TestLogLinearProbs:
    def test_uniform_case(self):
        p = loglinear_probs(0.9, np.zeros(6), LogLinear(2))
        np.testing.assert_allclose(p, 0.9 / 8, rtol=1e-14)

    def test_softmax_normalization(self):
        constraint = LogLinear(2)
        rng = np.random.default_rng(4)
        u = rng.normal(size=6)
        p = loglinear_probs(0.9, u, constraint)
        r0 = 1.0 / (1.0 + np.exp(constraint.Z @ u).sum())
        assert p.sum() / 0.9 + r0 == pytest.approx(1.0, abs=1e-14)

    def test_interaction_ratio(self):
        # all coefficients one: p(111)/p(100) = exp(u2+u3+u12+u13+u23) = e^5
        p = loglinear_probs(0.9, np.ones(6), LogLinear(2))
        i111 = PATTERNS.index((1, 1, 1))
        i100 = PATTERNS.index((1, 0, 0))
        assert p[i111] / p[i100] == pytest.approx(np.exp(5.0), rel=1e-12)

    @pytest.mark.parametrize("phi", [0.0, -0.1, 1.5, np.nan])
    def test_coverage_outside_the_unit_interval_refused(self, phi):
        with pytest.raises(ValueError, match="coverage must lie in"):
            loglinear_probs(phi, np.zeros(6), LogLinear(2))

    def test_fitted_cells_at_zero_coverage(self):
        # below logit phi = -745 expit gives 0.0, which a search may
        # reach: the params there hold zero cells, not a refusal
        x = np.concatenate([[-800.0], np.ones(6), np.zeros(7)])
        params = _optim.unpack(x, 1, LogLinear(2))
        assert params.phi == 0.0
        np.testing.assert_array_equal(params.p, 0.0)


class TestInversion:
    """(phi, u) can be recovered from the cells they give."""

    def test_exactly_determined_at_second_order(self):
        # seven cells determine coverage plus six coefficients
        assert LogLinear(2).Z.shape[1] + 1 == len(PATTERNS)


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
        hist = CountHistogram.from_observations(mat)
        assert hist.keys.dtype == keys.dtype
        assert hist.counts.dtype == np.int64
        np.testing.assert_array_equal(hist.keys, keys)
        np.testing.assert_array_equal(hist.counts, counts)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(8, 60), st.integers(1, 4)),
                  elements=st.integers(0, 2)),
           st.integers(0, 4), st.integers(2**20, 2**63 - 1))
    def test_counting_and_sorting_paths(self, small, at, wide):
        # small counts are counted by mixed-radix code; one wide column
        # among them makes the codes too many, and the rows are sorted
        column = np.where(small[:, 0] == 1, wide, 0)
        column[0] = wide
        widened = np.insert(small, min(at, small.shape[1]), column, axis=1)
        for mat, counted in ((small, True), (widened, False)):
            keys, counts = np.unique(mat, axis=0, return_counts=True)
            with mock.patch.object(np, "bincount",
                                   wraps=np.bincount) as bincount:
                hist = CountHistogram.from_observations(mat)
            assert bincount.called == counted
            assert hist.keys.dtype == keys.dtype
            assert hist.counts.dtype == np.int64
            np.testing.assert_array_equal(hist.keys, keys)
            np.testing.assert_array_equal(hist.counts, counts)


class TestSingleClassP:
    def test_zero_boundary(self):
        lam = np.full(7, 0.3)
        rng = np.random.default_rng(10)
        counts = rng.poisson(lam, size=(20000, 7))
        hist = CountHistogram.from_observations(counts)
        p_hat = single_class_p_hat(hist, lam, tau=10)
        assert np.all(p_hat < 0.01)

    def test_recovery(self):
        p = np.array([0.05, 0.1, 0.04, 0.2, 0.06, 0.15, 0.3])
        lam = np.full(7, 0.15)
        params = MixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(params, 50000, np.random.default_rng(12))
        hist = CountHistogram.from_observations(draws)
        p_hat = single_class_p_hat(hist, lam, tau=10)
        np.testing.assert_allclose(p_hat, p, atol=0.02)

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_refuses_rates_not_finite_and_positive(self, bad):
        # a search from such rates used to stop at once on a NaN value
        # and return its start's cells
        hist = CountHistogram.from_observations(
            np.random.default_rng(13).poisson(0.3, size=(500, 7)))
        rates = np.full(7, 0.3)
        rates[2] = bad
        with pytest.raises(ValueError, match="rates must be finite and "
                                             "positive"):
            single_class_p_hat(hist, rates)

    @pytest.mark.parametrize("n_rates", [6, 8])
    def test_refuses_rates_not_one_per_cell(self, n_rates):
        hist = CountHistogram.from_observations(
            np.random.default_rng(13).poisson(0.3, size=(500, 7)))
        with pytest.raises(ValueError, match="one rate per histogram cell"):
            single_class_p_hat(hist, np.full(n_rates, 0.3))


class TestAppendixInit:
    def test_uniform_p_gives_zero_u(self):
        # build a histogram whose plug-in p_hat is (near) uniform
        p = np.full(7, 0.1)
        lam = np.full(7, 0.2)
        params = MixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(params, 200000,
                                    np.random.default_rng(14))
        hist = CountHistogram.from_observations(draws)
        for d in (1, 2):
            init = init_appendix_c(
                (lam, single_class_p_hat(hist, lam, tau=10)), LogLinear(d))
            assert np.max(np.abs(init["u"])) < 0.25
            assert init["phi"] == pytest.approx(0.8, abs=0.05)

    def test_exact_formula_values(self):
        # moment formulas applied to exact cell probabilities
        p = loglinear_probs(0.9, np.array([1.0, 1, 1, 0, 0, 0]),
                            LogLinear(2))
        lam = np.full(7, 0.1)
        params = MixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(params, 300000,
                                    np.random.default_rng(15))
        hist = CountHistogram.from_observations(draws)
        init = init_appendix_c((lam, single_class_p_hat(hist, lam, tau=10)),
                               LogLinear(1))
        # under a no-interaction truth the logit-average starts sit near
        # the generating main effects
        np.testing.assert_allclose(init["u"][:3], 1.0, atol=0.2)
        assert init["phi"] == pytest.approx(0.9, abs=0.03)


class TestFitMulti:
    def test_loglinear_recovery(self):
        p = loglinear_probs(0.9, np.ones(6), LogLinear(2))
        lam = np.full(7, 0.05)
        truth = MixtureParams(alpha=[1.0], p=[p], lam=[lam])
        draws = sample_multi_counts(truth, 50000, np.random.default_rng(99))
        hist = CountHistogram.from_observations(draws)
        fit = fit_multi(hist, 1, constraint=LogLinear(2), tau=10)
        assert fit.params.phi == pytest.approx(0.9, abs=0.01)
        assert fit.loglik >= fit.init_loglik

    @pytest.mark.parametrize("d", [1, 2])
    def test_cells_follow_the_loglinear_model(self, monkeypatch, d):
        hist, init = _two_class_hist()
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fit = fit_multi(hist, 2, constraint=LogLinear(d), tau=4, init=init)
        params = fit.params
        constraint = LogLinear(d)
        assert params.u_labels == constraint.labels
        # one spelling of the cells: the fitted ones are loglinear_probs'
        # to the bit
        np.testing.assert_array_equal(
            params.p, np.tile(loglinear_probs(params.phi, params.u,
                                              constraint), (2, 1)))
        assert coverage_from_fit(params) == params.phi

    @pytest.mark.parametrize("fit", [
        lambda hist, init, **kw: fit_multi(hist, 2, tau=4, init=init, **kw),
        lambda hist, init, **kw: select_from(
            (init["lambda"], TWO_CLASS_P), hist, 2, tau=4, **kw).fit],
        ids=["fit", "select"])
    def test_default_constraint_is_second_order(self, monkeypatch, fit):
        hist, init = _two_class_hist()
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        default = fit(hist, init)
        second = fit(hist, init, constraint=LogLinear(2))
        assert default.params.u_labels == LogLinear(2).labels
        assert default.loglik == second.loglik
        np.testing.assert_array_equal(default.params.u, second.params.u)


def select_from(start, hist, g_max, **kwargs):
    """select_G_multi fitting from start, a (rates, cells) pair, in place
    of the appendix_c_start it computes."""
    with mock.patch.object(neighbor_multi, "appendix_c_start",
                           lambda hist, tau: start):
        return select_G_multi(hist, g_max, **kwargs)


# the true-positive cells that _two_class_hist's classes share
TWO_CLASS_P = np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25])


def _two_class_hist():
    """5000 count vectors of two classes with shared cells, whose sums
    exceed 4, and a start bundle for them."""
    p = TWO_CLASS_P
    truth = MixtureParams(
        alpha=[0.6, 0.4], p=[p, p],
        lam=[np.full(7, 0.1), np.full(7, 0.7)],
    )
    draws = sample_multi_counts(truth, 5000, np.random.default_rng(51))
    init = {"lambda": np.linspace(0.2, 0.5, 7),
            "u": np.array([0.5, -0.3, 0.2, 0.1, -0.2, 0.3]),
            "phi": 0.8}
    return CountHistogram.from_observations(draws), init


class TestGradient:
    @pytest.mark.parametrize("constraint", [LogLinear(1), LogLinear(2)],
                             ids=str)
    @pytest.mark.parametrize("g", [2, 1, 3])
    def test_matches_finite_differences(self, monkeypatch, constraint, g):
        hist, init = _two_class_hist()
        tau = 4
        assert hist.keys.sum(axis=1).max() > tau    # tail cell active
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fun, x0 = captured_objective(
            monkeypatch, neighbor_multi, fit_multi, hist, g,
            constraint=constraint, tau=tau, init=init)
        assert_gradient_matches(fun, x0, seed=50 + g)

    def test_plug_in_cells_match_finite_differences(self, monkeypatch):
        # the single-class cells' objective, with the rates plugged in,
        # which single_class_p_hat hands to the module's minimize
        hist, init = _two_class_hist()
        tau = 4
        assert hist.keys.sum(axis=1).max() > tau    # tail cell active
        fun, x0 = captured_objective(monkeypatch, neighbor_multi,
                                     single_class_p_hat, hist,
                                     init["lambda"], tau=tau)
        assert_gradient_matches(fun, x0, seed=60)


class TestSelection:
    def test_parameter_counts(self, monkeypatch):
        # G - 1 weights, phi, d_u coefficients and G x 7 rates
        hist, init = _two_class_hist()
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        monkeypatch.setattr(_optim, "MAX_ITER", 5)
        for d, count in ((1, 1 + 4 + 14), (2, 1 + 7 + 14)):
            fit = fit_multi(hist, 2, constraint=LogLinear(d), tau=4,
                            init=init)
            assert fit.n_params == count

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_count_is_the_search_dimension(self, monkeypatch, g, d):
        # AIC charges exactly the coordinates that L-BFGS-B moves
        hist, init = _two_class_hist()
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        _, x0 = captured_objective(
            monkeypatch, neighbor_multi, fit_multi, hist, g,
            constraint=LogLinear(d), tau=4, init=init)
        assert x0.size == (g - 1) + 1 + {1: 3, 2: 6}[d] + 7 * g

    def test_single_class_selected(self):
        p = np.full(7, 0.12)
        truth = MixtureParams(alpha=[1.0], p=[p],
                              lam=[np.full(7, 0.1)])
        hits = 0
        for seed in range(5):
            draws = sample_multi_counts(truth, 20000,
                                        np.random.default_rng(seed))
            hist = CountHistogram.from_observations(draws)
            sel = select_G_multi(hist, 2, constraint=LogLinear(2), tau=10)
            hits += sel.g_hat == 1
        assert hits >= 4

    def test_common_classes_across_rules(self):
        # one G and one partition serve all rules simultaneously
        p = np.full(7, 0.1)
        truth = MixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.05), np.full(7, 0.8)],
        )
        draws = sample_multi_counts(truth, 30000, np.random.default_rng(41))
        hist = CountHistogram.from_observations(draws)
        sel = select_G_multi(hist, 2, constraint=LogLinear(2), tau=10)
        assert sel.fit.params.p.shape == (sel.g_hat, 7)
        assert sel.fit.params.lam.shape == (sel.g_hat, 7)


def _fit_fields(fit):
    """Every field of an MN FitResult, arrays as bytes."""
    p = fit.params
    return ([np.asarray(getattr(p, name)).tobytes()
             for name in ("alpha", "p", "lam", "phi", "u")], p.u_labels,
            fit.loglik, fit.init_loglik, fit.converged, fit.n_iter,
            fit.n_params, fit.tau)


class TestJointSelection:
    """Every class count's fits, and both orders' when both are asked
    for, run as one lockstep search, against the single-order selections
    and the fits of fit_multi."""

    @pytest.fixture(scope="class")
    def scenario3_hist(self):
        cfg = experiment.ScenarioConfig.from_scenario(
            3, n_population=20000, master_seed=11)
        pop_rng, sample_rng, _ = experiment.replication_rngs(
            cfg.master_seed, 0)
        linked = experiment.link(*experiment.simulate(cfg, pop_rng,
                                                      sample_rng),
                                 cfg.rule_variant)
        cv = linkage.counts(linked.links1, linked.panel_b.size)
        return CountHistogram.from_observations(cv.pattern_counts[:, 1:])

    @pytest.mark.parametrize("n_starts", [5, 1])
    def test_equals_the_single_order_selections(self, monkeypatch,
                                                scenario3_hist, n_starts):
        hist = scenario3_hist
        start = appendix_c_start(hist, 10)
        monkeypatch.setattr(_optim, "N_STARTS", n_starts)
        orders = (LogLinear(1), LogLinear(2))
        shapes, _ = record_searches(monkeypatch, neighbor_multi)
        joint = select_from(start, hist, 3, constraint=orders, tau=10)
        # one search, on one block of n_starts rows per (G, order)
        assert shapes == [[(n_starts, (g - 1) + 1 + d_u + 7 * g)
                           for g in (1, 2, 3) for d_u in (3, 6)]]
        assert len(joint) == len(orders)
        for constraint, sel in zip(orders, joint):
            own = select_from(start, hist, 3, constraint=constraint, tau=10)
            assert sel.g_hat == own.g_hat
            assert sel.trace == own.trace
            assert _fit_fields(sel.fit) == _fit_fields(own.fit)

    @pytest.mark.parametrize("constraint", [
        LogLinear(1), LogLinear(2), (LogLinear(1), LogLinear(2))],
        ids=["d1", "d2", "both"])
    def test_every_fit_is_its_own(self, monkeypatch, scenario3_hist,
                                  constraint):
        # one search fits G = 1..3 of one order or of both, and each fit
        # ends as fit_multi at its G and order, field for field
        hist = scenario3_hist
        start = appendix_c_start(hist, 10)
        orders = constraint if isinstance(constraint, tuple) else (
            constraint,)
        shapes, fits = record_searches(monkeypatch, neighbor_multi)
        select_from(start, hist, 3, constraint=constraint, tau=10)
        assert len(shapes) == 1 and len(fits) == 1
        (fits,) = fits
        monkeypatch.undo()
        assert [_fit_fields(fit) for fit in fits] == [
            _fit_fields(fit_multi(hist, g, constraint=c, tau=10,
                                  init=init_appendix_c(start, c)))
            for g in (1, 2, 3) for c in orders]

    def test_start_fits_the_marginals_in_one_search(self, monkeypatch,
                                                    scenario3_hist):
        # appendix_c_start fits the seven marginals at G = 1 and 2 in one
        # lockstep search, one block per marginal and class count; each
        # fit ends as the marginal's own fit_uni, and each rate is its own
        # selection's
        hist = scenario3_hist
        shapes, fits = record_searches(monkeypatch, neighbor_uni)
        rates, _ = appendix_c_start(hist, 10)
        monkeypatch.undo()
        assert shapes == [[(_optim.N_STARTS, 2)] * 7
                          + [(_optim.N_STARTS, 4)] * 7]
        (fits,) = fits
        for coord, rate in enumerate(rates):
            marginal = marginal_histogram(hist, coord)
            assert [fit_bytes(fit) for fit in fits[coord::7]] == [
                fit_bytes(fit_uni(marginal, g)) for g in (1, 2)]
            assert rate == max(select_G(marginal, 2).fit.params.lambda_bar,
                               NU)


class TestSharedRates:
    def test_passed_rates_reproduce_the_selection_exactly(self):
        p = loglinear_probs(0.9, np.array([1.0, 0.5, 0.8, 0.3, 0, 0.2]),
                            LogLinear(2))
        truth = MixtureParams(
            alpha=[0.7, 0.3], p=[p, p],
            lam=[np.full(7, 0.03), np.full(7, 0.3)],
        )
        draws = sample_multi_counts(truth, 20000, np.random.default_rng(61))
        hist = CountHistogram.from_observations(draws)
        start = appendix_c_start(hist, 10)
        for d in (1, 2):
            shared = select_from(start, hist, 3, constraint=LogLinear(d),
                                 tau=10)
            own = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10)
            assert shared.g_hat == own.g_hat
            assert shared.fit.loglik == own.fit.loglik
            assert shared.fit.params.phi == own.fit.params.phi

    def test_passed_cells_reproduce_the_selection_exactly(self):
        p = loglinear_probs(0.85, np.array([0.8, 0.4, 1.0, 0.2, 0.1, 0]),
                            LogLinear(2))
        truth = MixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.05), np.full(7, 0.4)],
        )
        draws = sample_multi_counts(truth, 20000, np.random.default_rng(62))
        hist = CountHistogram.from_observations(draws)
        rates, cells = appendix_c_start(hist, 10)
        np.testing.assert_array_equal(
            cells, single_class_p_hat(hist, rates, tau=10))
        for d in (1, 2):
            shared = select_from((rates, cells), hist, 3,
                                 constraint=LogLinear(d), tau=10)
            own = select_G_multi(hist, 3, constraint=LogLinear(d), tau=10)
            assert shared.g_hat == own.g_hat
            assert shared.trace == own.trace
            assert shared.fit.params.phi == own.fit.params.phi

    @pytest.mark.parametrize("fit", [
        lambda hist: select_G_multi(hist, 1),
        lambda hist: select_from((np.ones(2), np.full(2, 0.1)), hist, 1),
        lambda hist: fit_multi(hist, 1),
        lambda hist: appendix_c_start(hist)],
        ids=["select", "passed", "fit", "init"])
    def test_counts_need_three_binary_groups(self, monkeypatch, fit):
        def no_rates(*args, **kwargs):
            raise AssertionError("marginal rates fitted before the check")

        monkeypatch.setattr(neighbor_multi, "fit_uni_many", no_rates)
        hist = CountHistogram(keys=[[0, 1], [1, 0]], counts=[5, 3])
        with pytest.raises(ValueError, match="three binary rule groups"):
            fit(hist)


class TestCoverage:
    def test_requires_loglinear_mode(self):
        params = MixtureParams(alpha=[1.0], p=[np.full(7, 0.1)],
                               lam=[np.full(7, 0.1)])
        with pytest.raises(ValueError):
            coverage_from_fit(params)

    def test_returns_phi(self):
        params = MixtureParams(
            alpha=[1.0], p=[np.full(7, 0.1)], lam=[np.full(7, 0.1)],
            phi=0.87, u=np.zeros(6), u_labels=("a",) * 6,
        )
        assert coverage_from_fit(params) == pytest.approx(0.87)


class TestInvariants:
    def test_phi_requires_shared_cells(self):
        p = np.full(7, 0.1)
        with pytest.raises(ValueError, match="shared p"):
            MixtureParams(alpha=[0.5, 0.5], p=[p, 0.5 * p],
                          lam=[np.full(7, 0.1), np.full(7, 0.2)],
                          phi=0.9)

    def test_marginal_histogram(self):
        hist = CountHistogram(keys=[[0, 1], [2, 1], [0, 3]],
                              counts=[5, 2, 1])
        mh = marginal_histogram(hist, 0)
        assert (mh.keys.tolist(), mh.counts.tolist()) == ([[0], [2]], [6, 2])
