"""What the univariate and multivariate count-mixture fits share: the
histogram and parameter types, at widths 1 and 7, and the samplers'
draws from them, the JSON documents of their results, the bits of the
stick-breaking map and of both heads' parameter unpacking, the
parameter count that AIC charges, the class counts, constraints and
count caps they accept, the choice of the best start, when the L-BFGS-B
loop evaluates a point again, and the kernel's count matrix, one row
per block over the union of the histograms' keys, with which one search
fits many histograms, its one head kind and the block widths it takes.

The documents are pinned for hand-built results, so the pins do not
depend on the optimizer or on the platform's floating-point libraries.
"""

import hashlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from linkcov import _optim, neighbor_multi, neighbor_uni
from linkcov._optim import (NU, CountHistogram, FitResult, MixtureParams,
                            _new_point, check_class_count, comp_pmf,
                            _key_union, count_objective, fit_starts,
                            minimize, stick_break, stick_break_vjp, unpack)
from linkcov.neighbor_multi import (LogLinear, appendix_c_start, fit_multi,
                                    multi_fit_document, sample_multi_counts,
                                    select_G_multi, single_class_p_hat)
from linkcov.neighbor_uni import (fit_document, fit_uni, fit_uni_many,
                                  sample_counts, select_G)
from test_minimize_oracle import point_block
from test_neighbor_uni import (assert_gaps_and_tails, fit_bytes,
                               histograms_of_one_total, record_searches)

P7 = [0.125, 0.0625, 0.03125, 0.25, 0.015625, 0.0078125, 0.375]

UNI_DOC = """\
{
  "aic": 2477.0,
  "components": [
    {
      "alpha": 0.25,
      "lambda": 0.0625,
      "p": 0.875
    },
    {
      "alpha": 0.75,
      "lambda": 0.5,
      "p": 0.875
    }
  ],
  "converged": true,
  "init_loglik": -1300.1234567890124,
  "loglik": -1234.5,
  "model": "count-mixture-univariate",
  "n_iter": 17,
  "shared_p": true,
  "tau": 10
}"""

LOGLINEAR_DOC = """\
{
  "aic": 4157.5,
  "components": [
    {
      "alpha": 0.5,
      "lambda": [
        0.25,
        0.25,
        0.25,
        0.25,
        0.25,
        0.25,
        0.25
      ],
      "p": [
        0.125,
        0.0625,
        0.03125,
        0.25,
        0.015625,
        0.0078125,
        0.375
      ]
    },
    {
      "alpha": 0.5,
      "lambda": [
        0.5,
        0.5,
        0.5,
        0.5,
        0.5,
        0.5,
        0.5
      ],
      "p": [
        0.125,
        0.0625,
        0.03125,
        0.25,
        0.015625,
        0.0078125,
        0.375
      ]
    }
  ],
  "constraint": "loglinear",
  "converged": false,
  "coverage": 0.875,
  "init_loglik": -2100.5,
  "loglik": -2048.75,
  "model": "count-mixture-multivariate",
  "n_iter": 1000,
  "rule_levels": [
    1,
    1,
    1
  ],
  "tau": 10,
  "u": {
    "u_1(1)": 0.5,
    "u_12(11)": 0.0,
    "u_13(11)": 0.25,
    "u_2(1)": -1.0,
    "u_23(11)": -0.75,
    "u_3(1)": 1.5
  }
}"""

class TestDocuments:
    def test_univariate(self):
        fit = FitResult(
            params=MixtureParams(alpha=[0.75, 0.25], p=[[0.875], [0.875]],
                                 lam=[[0.5], [0.0625]]),
            loglik=-1234.5, init_loglik=-1300.1234567890123, converged=True,
            n_iter=17, tau=10, n_params=4)
        assert fit_document(fit, aic=2477.0) == UNI_DOC

    def test_multivariate_loglinear_with_aic(self):
        params = MixtureParams(
            alpha=[0.5, 0.5], p=[P7, P7], lam=[[0.5] * 7, [0.25] * 7],
            phi=0.875, u=np.array([0.5, -1.0, 1.5, 0.0, 0.25, -0.75]),
            u_labels=LogLinear(2).labels)
        fit = FitResult(params=params, loglik=-2048.75, init_loglik=-2100.5,
                        converged=False, n_iter=1000, tau=10, n_params=22)
        assert multi_fit_document(fit, aic=4157.5) == LOGLINEAR_DOC

    def test_multivariate_refuses_params_without_phi(self):
        # every fit is log-linear; hand-built cells without a coverage
        # would be written under the constant "constraint": "loglinear"
        params = MixtureParams(
            alpha=[1.0], p=[P7], lam=[[0.5, 0.25, 0.125, 1.0, 2.0, 0.0625,
                                       4.0]])
        fit = FitResult(params=params, loglik=-512.0, init_loglik=-640.125,
                        converged=True, n_iter=3, tau=6, n_params=14)
        with pytest.raises(ValueError, match="phi"):
            multi_fit_document(fit)


# the univariate model's width and the multivariate model's
WIDTHS = pytest.mark.parametrize("width", [1, 7])


class TestCountHistogram:
    @pytest.mark.parametrize("keys, order", [
        ([[2], [0], [1]], [1, 2, 0]),
        ([[1, 0, 0, 0, 0, 0, 2], [0, 5, 0, 0, 0, 0, 0],
          [1, 0, 0, 0, 0, 0, 1]], [1, 2, 0])], ids=["1", "7"])
    def test_keys_sort_lexicographically(self, keys, order):
        hist = CountHistogram(keys, [5, 6, 7])
        np.testing.assert_array_equal(hist.keys, np.array(keys)[order])
        np.testing.assert_array_equal(hist.counts, np.array([5, 6, 7])[order])

    @WIDTHS
    def test_refuses_duplicate_keys(self, width):
        keys = [np.arange(width), np.ones(width, np.int64), np.arange(width)]
        with pytest.raises(ValueError, match="keys must be unique"):
            CountHistogram(keys, [2, 3, 4])

    @WIDTHS
    def test_from_observations_refuses_a_vector(self, width):
        # a flat vector used to become one key as long as the vector
        obs = np.arange(3 * width).reshape(3, width)
        assert CountHistogram.from_observations(obs).keys.shape == (3, width)
        with pytest.raises(ValueError, match=r"an \(n, m\) matrix"):
            CountHistogram.from_observations(obs.ravel())

    @WIDTHS
    def test_refuses_malformed_contents(self, width):
        keys = np.arange(2 * width).reshape(2, width)
        for bad_keys, bad_counts in ((keys.ravel(), [5, 3]), (keys, [5]),
                                     (keys, [5, 0]), (-keys, [5, 3]),
                                     (keys[:, :0], [5, 3])):
            with pytest.raises(ValueError, match="histogram needs"):
                CountHistogram(bad_keys, bad_counts)

    @pytest.mark.parametrize("keys, counts", [
        ([[1.5], [2.9]], [2, 1]), ([[1], [2]], [2.7, 1]),
        ([[np.nan], [2]], [2, 1]), ([[1], [np.inf]], [2, 1]),
        ([[1], [2]], [np.nan, 1]), ([[1], [2]], [2, 1e20]),
        ([[0, 1.25], [1, 0]], [2, 1])],
        ids=["fraction_key", "fraction_count", "nan_key", "inf_key",
             "nan_count", "count_past_int64", "wide_fraction_key"])
    def test_refuses_non_integers(self, keys, counts):
        # truncating them would count vectors that were not seen
        with pytest.raises(ValueError, match="finite integers"):
            CountHistogram(keys, counts)

    def test_takes_integral_floats(self):
        hist = CountHistogram([[2.0], [1.0]], [1.0, 3.0])
        assert hist.keys.dtype == hist.counts.dtype == np.int64
        np.testing.assert_array_equal(hist.keys, [[1], [2]])
        np.testing.assert_array_equal(hist.counts, [3, 1])

    @pytest.mark.parametrize("obs", [[[0.5]], [[1], [np.nan]],
                                     [[0, np.inf], [1, 2]]],
                             ids=["fraction", "nan", "inf"])
    def test_from_observations_refuses_non_integers(self, obs):
        with pytest.raises(ValueError, match="finite integers"):
            CountHistogram.from_observations(obs)


class TestMixtureParams:
    @WIDTHS
    def test_canonical_class_order(self, width):
        # classes sort by rate row, compared lexicographically, then by p
        # row, then by weight: class 1's rate row is the lowest only in
        # its last cell, and classes 2 and 3 tie on both rows
        alpha = np.array([0.4, 0.1, 0.3, 0.2])
        p = np.repeat([[0.1], [0.1], [0.05], [0.05]], width, axis=1) / width
        lam = np.full((4, width), 0.5)
        lam[1, -1] = 0.2
        order = [1, 3, 2, 0]
        for perm in map(list, itertools.permutations(range(4))):
            params = MixtureParams(alpha[perm], p[perm], lam[perm])
            np.testing.assert_array_equal(params.alpha, alpha[order])
            np.testing.assert_array_equal(params.p, p[order])
            np.testing.assert_array_equal(params.lam, lam[order])

    @WIDTHS
    @pytest.mark.parametrize("field, value, match", [
        ("alpha", [0.6, 0.3], "mixing weights"),
        ("alpha", [1.2, -0.2], "mixing weights"),
        # at most one true positive: the cells of a class sum to <= 1
        ("p", 1.2, "true-positive cells"),
        ("p", -0.1, "true-positive cells"),
        ("lam", 0.0, "rates must be positive"),
        ("lam", "one cell more", "G x cells"),
        # NaN meets no bound, and the infinities lie outside them
        ("alpha", [np.nan, 0.4], "mixing weights"),
        ("alpha", [np.inf, 0.4], "mixing weights"),
        ("p", np.nan, "true-positive cells"),
        ("p", np.inf, "true-positive cells"),
        ("p", -np.inf, "true-positive cells"),
        ("lam", np.nan, "rates must be positive and finite"),
        ("lam", np.inf, "rates must be positive and finite")],
        ids=["weights_sum", "negative_weight", "cells_above_one",
             "negative_cell", "zero_rate", "cells_differ", "nan_weight",
             "infinite_weight", "nan_cell", "infinite_cell",
             "minus_infinite_cell", "nan_rate", "infinite_rate"])
    def test_refuses(self, width, field, value, match):
        args = {"alpha": [0.6, 0.4], "p": np.full((2, width), 0.1 / width),
                "lam": np.full((2, width), 0.5)}
        if field == "alpha":
            args["alpha"] = value
        elif value == "one cell more":
            args["lam"] = np.full((2, width + 1), 0.5)
        else:
            args[field] = np.full((2, width), value / width)
        with pytest.raises(ValueError, match=match):
            MixtureParams(**args)

    @WIDTHS
    def test_p_bar_and_lambda_bar(self, width):
        # alpha . |p| and alpha . |lam|: the share of records with a true
        # link and the mean number of false links per record
        params = MixtureParams(
            [0.5, 0.5], np.repeat([[0.8], [0.6]], width, axis=1) / width,
            np.repeat([[0.1], [0.3]], width, axis=1) / width)
        assert params.p_bar == pytest.approx(0.7, rel=1e-12)
        assert params.lambda_bar == pytest.approx(0.2, rel=1e-12)


class TestSamplers:
    """Their draws are the seeded data of many tests (the histograms of
    histograms_of_one_total, the oracles' fixtures), pinned here by the
    SHA-256 of 1,000 draws each, whose classes are given out of
    canonical order."""

    @pytest.mark.parametrize("sample, truth, digest", [
        (sample_counts,
         MixtureParams([0.3, 0.7], [[0.9], [0.8]], [[2.5], [0.3]]),
         "33c639717f24e58e2cdcdba1299b14a1df39a84236b58da2e262e593e7020ba0"),
        (sample_multi_counts,
         MixtureParams([0.4, 0.6], [P7, P7], [[0.7] * 7, [0.1] * 7]),
         "0c41eb94db71d51e393157fc6504a486e4b6788f5d4b7ef58dd52ff21b70ba29")],
        ids=["univariate", "multivariate"])
    def test_draws(self, sample, truth, digest):
        draws = sample(truth, 1000, np.random.default_rng(0))
        assert draws.shape == (1000, truth.p.shape[1])
        assert draws.dtype == np.int64
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


class TestStickBreaking:
    def test_bits(self):
        # stick_break, stick_break_vjp and the univariate unpacking that
        # calls them, pinned by the SHA-256 of their results over seeded
        # points, 0 to 4 logits at scales up to saturation
        rng = np.random.default_rng(2403)
        digest = hashlib.sha256()
        for n in range(5):
            for scale in (1.0, 3.0, 30.0, 800.0):
                for _ in range(20):
                    x = scale * rng.standard_normal(n)
                    grad = rng.standard_normal(n + 1)
                    for floor in (0.0, NU):
                        digest.update(stick_break(x, floor=floor).tobytes())
                    digest.update(stick_break_vjp(x, grad).tobytes())
        for g in (1, 2, 3, 4):
            for scale in (1.0, 3.0, 30.0):
                for _ in range(20):
                    params = unpack(scale * rng.standard_normal(2 * g), g,
                                    None)
                    for arr in (params.alpha, params.p, params.lam):
                        digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "35663a1d50d079aad535c083373cbd62e5df0b6bfba5251cfe860017f0a42763")

    def test_loglinear_bits(self):
        # the log-linear unpacking, pinned as test_bits pins the
        # univariate one, at both orders; the last point of each (G,
        # order) has a coverage logit below -745, where phi is 0.0
        rng = np.random.default_rng(2404)
        digest = hashlib.sha256()
        for g in (1, 2, 3, 4):
            for head in (LogLinear(1), LogLinear(2)):
                n = g + head.Z.shape[1] + 7 * g
                points = [scale * rng.standard_normal(n)
                          for scale in (1.0, 3.0, 30.0) for _ in range(20)]
                points[-1][g - 1] = -800.0
                for x in points:
                    params = unpack(x, g, head)
                    for arr in (params.alpha, params.p, params.lam,
                                np.float64(params.phi), params.u):
                        digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "181b69da9c24ab2d88a491822e906e3f0cdfbbdbc1e05fc081d1464881f2bd4f")


@pytest.fixture
def quick(monkeypatch):
    """A few iterations from one start: the parameter count does not
    depend on where the search stops."""
    monkeypatch.setattr(_optim, "N_STARTS", 1)
    monkeypatch.setattr(_optim, "MAX_ITER", 5)


@pytest.fixture(scope="module")
def multi_hist():
    truth = MixtureParams(alpha=[1.0], p=[np.full(7, 0.1)],
                          lam=[np.full(7, 0.1)])
    draws = sample_multi_counts(truth, 3000, np.random.default_rng(8))
    return CountHistogram.from_observations(draws)


class TestAicParameterCount:
    def test_univariate(self, quick):
        # G - 1 weights, the shared p and G rates
        draws = np.random.default_rng(4).poisson(0.6, (3000, 1))
        sel = select_G(CountHistogram.from_observations(draws), 3)
        assert [row["k"] for row in sel.trace] == [2, 4, 6]

    @pytest.mark.parametrize("constraint", [LogLinear(1), LogLinear(2)],
                             ids=str)
    def test_multivariate(self, monkeypatch, quick, multi_hist, constraint):
        # G - 1 weights, phi, d_u coefficients and G x 7 rates
        rates = np.full(7, 0.1)
        start = (rates, single_class_p_hat(multi_hist, rates))
        monkeypatch.setattr(neighbor_multi, "appendix_c_start",
                            lambda hist, tau: start)
        sel = select_G_multi(multi_hist, 3, constraint=constraint)
        d_u = {1: 3, 2: 6}[constraint.d]
        assert [row["k"] for row in sel.trace] == [
            (g - 1) + 1 + d_u + 7 * g for g in (1, 2, 3)]


class TestClassCountBound:
    def test_univariate(self):
        with pytest.raises(ValueError, match="g_max"):
            select_G(CountHistogram([[0], [1]], [5, 3]), 0)

    def test_multivariate(self, monkeypatch, multi_hist):
        # refused before the start's seven univariate selections run
        no_start(monkeypatch)
        with pytest.raises(ValueError, match="g_max"):
            select_G_multi(multi_hist, 0)

    @pytest.mark.parametrize("g", [0, -1])
    def test_multivariate_fit(self, monkeypatch, multi_hist, g):
        no_start(monkeypatch)
        with pytest.raises(ValueError, match="need at least one class"):
            fit_multi(multi_hist, g)


def no_start(monkeypatch):
    """Fail a fit_multi that builds its default init before it checks g:
    that init runs seven univariate selections."""
    def refused(*args, **kwargs):
        raise AssertionError("init built before the class-count check")

    monkeypatch.setattr(neighbor_multi, "appendix_c_start", refused)


class TestMalformedConstraint:
    """A constraint other than a LogLinear, or in select_G_multi a
    non-empty tuple of them, is refused before the start's seven
    univariate selections run."""

    @pytest.mark.parametrize("fit", [
        lambda hist: select_G_multi(hist, 2, ()),
        lambda hist: select_G_multi(hist, 2, (LogLinear(1), 2)),
        lambda hist: select_G_multi(hist, 2, "x"),
        lambda hist: fit_multi(hist, 1, (LogLinear(1),))],
        ids=["empty", "not_loglinear", "string", "fit_tuple"])
    def test_refused(self, monkeypatch, multi_hist, fit):
        no_start(monkeypatch)
        with pytest.raises(ValueError, match="LogLinear"):
            fit(multi_hist)


class TestFitOptionsValidation:
    # g weights floored at NU exceed 1 from g = 1 / NU on
    def test_univariate_class_count_against_the_floor(self):
        check_class_count(round(1 / NU) - 1)
        hist = CountHistogram([[0], [1], [2], [3]], [40, 30, 20, 10])
        with pytest.raises(ValueError, match="nu"):
            fit_uni(hist, round(1 / NU))

    def test_multivariate_class_count_against_the_floor(self, monkeypatch,
                                                        multi_hist):
        no_start(monkeypatch)
        with pytest.raises(ValueError, match="nu"):
            fit_multi(multi_hist, round(1 / NU))


class TestCountCap:
    """Count caps below 1 are refused: at tau = 0 every nonzero count
    falls in the tail cell, which leaves p unidentified."""

    @pytest.mark.parametrize("tau", [0, -1])
    def test_univariate_fit(self, tau):
        with pytest.raises(ValueError, match="tau must be at least 1"):
            fit_uni(CountHistogram([[0], [1], [2]], [50, 30, 5]), 1,
                    tau=tau)

    def test_multivariate_fit(self, multi_hist):
        init = {"lambda": np.full(7, 0.1), "u": np.zeros(6), "phi": 0.7}
        for tau in (0, -1):
            with pytest.raises(ValueError, match="tau must be at least 1"):
                fit_multi(multi_hist, 1, tau=tau, init=init)

    @pytest.mark.parametrize("tau", [0, -1])
    def test_start_cells(self, multi_hist, tau):
        with pytest.raises(ValueError, match="tau must be at least 1"):
            appendix_c_start(multi_hist, tau=tau)

    @pytest.mark.parametrize("tau", [0, -1])
    def test_single_class_cells(self, multi_hist, tau):
        with pytest.raises(ValueError, match="tau must be at least 1"):
            single_class_p_hat(multi_hist, np.full(7, 0.1), tau=tau)

    @pytest.mark.parametrize("tau", [0, -1])
    def test_multivariate_selection(self, multi_hist, tau):
        with pytest.raises(ValueError, match="tau must be at least 1"):
            select_G_multi(multi_hist, 2, tau=tau)


class TestBestStart:
    def test_nan_value_ranks_below_every_number(self, monkeypatch):
        # start 0's search ends on a NaN value, which must not hide the
        # lower value of start 1
        ends = [SimpleNamespace(x=np.full(2, float(s)), fun=fun, success=True,
                                nit=s)
                for s, fun in enumerate([np.nan, 1.0, 2.0])]

        def stub(objective, x0s, **kwargs):
            (x0,) = x0s
            assert len(x0) == len(ends)
            return SimpleNamespace(starts=ends)

        def objective(Xs):
            (X,) = Xs
            return np.zeros(len(X)), (np.zeros_like(X),)

        monkeypatch.setattr(_optim, "N_STARTS", 3)
        (fit,) = fit_starts(stub, objective, (np.zeros(2),), 10.0, 1,
                            (lambda x: x,))
        assert fit.loglik == -10.0
        assert fit.n_iter == 1
        np.testing.assert_array_equal(fit.params, [1.0, 1.0])

    def test_every_start_on_nan_raises(self, monkeypatch):
        # every search ends on NaN: the best end's parameters are NaN,
        # which MixtureParams refuses, so the fit raises rather than
        # recording a NaN fit
        ends = [SimpleNamespace(x=np.full(4, np.nan), fun=np.nan,
                                success=False, nit=s) for s in range(3)]

        def stub(objective, x0s, **kwargs):
            return SimpleNamespace(starts=ends)

        def objective(Xs):
            (X,) = Xs
            return np.zeros(len(X)), (np.zeros_like(X),)

        monkeypatch.setattr(_optim, "N_STARTS", 3)
        with pytest.raises(ValueError, match="invalid mixing weights"):
            fit_starts(stub, objective, (np.zeros(4),), 10.0, 1,
                       (lambda x: unpack(x, 2, None),))


class TestReaskedPoint:
    """minimize evaluates a point again exactly when scipy's
    not np.array_equal(x, x_eval) would: a NaN coordinate makes every
    point new, and -0.0 is the point 0.0."""

    @pytest.mark.parametrize("x, x_eval", [
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        ([1.5, 2.0, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.5], [1.0, 2.0, 3.0]),
        ([-0.0, 2.0, 0.0], [0.0, 2.0, -0.0]),
        ([np.nan, 2.0, 3.0], [np.nan, 2.0, 3.0]),
        ([1.0, 2.0, np.nan], [1.0, 2.0, np.nan]),
        ([-0.0, np.nan], [0.0, np.nan]),
    ])
    def test_matches_scipy(self, x, x_eval):
        x, x_eval = np.array(x), np.array(x_eval)
        assert _new_point(x, x_eval) == (not np.array_equal(x, x_eval))

    def test_first_point(self):
        assert _new_point(np.zeros(2), None)

    @pytest.mark.parametrize("nan_value", [False, True])
    def test_nan_searches_end_as_scipy(self, nan_value):
        # past x[0] = 0.5 the gradient, or the value, turns NaN: after a
        # NaN gradient the search asks for points with NaN coordinates,
        # which scipy evaluates every time; after a NaN value the line
        # search fails and asks again for a point it evaluated, which
        # scipy does not; the start holds a -0.0
        def fun(x):
            grad = 2.0 * (x - 1.0)
            if x[0] <= 0.5:
                return float(((x - 1.0) ** 2).sum()), grad
            if nan_value:
                return np.nan, grad
            grad[1] = np.nan
            return float(((x - 1.0) ** 2).sum()), grad

        x0 = np.array([0.0, -0.0, 2.0])
        options = {"maxiter": 50, "ftol": 1e-9, "gtol": 1e-7}
        ref = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                      options=options)
        (end,) = minimize(point_block(fun), (x0[None],), jac=True,
                          method="L-BFGS-B", options=options).starts
        assert end.x.tobytes() == ref.x.tobytes()
        assert (end.nfev, end.nit, end.success) == (ref.nfev, ref.nit,
                                                    ref.success)


class TestManyHistograms:
    """One lockstep search fits many histograms of one total, one block
    and count row of the kernel each over the union of their keys, as
    the Appendix-C start fits its seven marginals."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_each_fit_is_its_own(self, monkeypatch, g):
        hists = histograms_of_one_total(20)
        tau = 8
        assert_gaps_and_tails(hists, tau)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(neighbor_uni, "minimize", counting)
        fits = fit_uni_many(hists, (g,) * len(hists), tau)
        assert len(calls) == 1 and len(calls[0]) == len(hists)
        assert [fit_bytes(fit) for fit in fits] == [
            fit_bytes(fit_uni(hist, g, tau=tau)) for hist in hists]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_wide_supports_fit_to_rounding(self, g):
        # 50 keys at or below tau, most absent from most histograms: the
        # zero counts enter the kernel's k-length sums, which BLAS groups
        # differently on long supports, so a fit may leave its own by
        # rounding, but not by more than the search's tolerance
        hists = histograms_of_one_total(20, top=60.0)
        tau = 50
        assert_gaps_and_tails(hists, tau)
        assert np.unique(np.concatenate([h.keys for h in hists
                                         ])).searchsorted(tau, "right") > 40
        for fit, hist in zip(fit_uni_many(hists, (g,) * len(hists), tau),
                             hists):
            own = fit_uni(hist, g, tau=tau)
            assert fit.converged == own.converged
            assert fit.loglik == pytest.approx(own.loglik, rel=1e-8)

    @pytest.mark.parametrize("width", [1, 7])
    def test_key_union_of_supports(self, width):
        # the union of the keys in lexicographic order, and each
        # histogram's counts at its own keys, zero at the others
        rng = np.random.default_rng(33)
        hists = [CountHistogram.from_observations(
            rng.poisson(lam, (300, width))) for lam in (0.05, 0.4, 1.5)]
        keys, counts = _key_union(hists)
        np.testing.assert_array_equal(keys, np.unique(
            np.concatenate([h.keys for h in hists]), axis=0))
        assert keys.dtype == counts.dtype == np.int64
        assert counts.shape == (len(hists), len(keys))
        for hist, row in zip(hists, counts):
            at = [np.flatnonzero((keys == key).all(axis=1))[0]
                  for key in hist.keys]
            np.testing.assert_array_equal(row[at], hist.counts)
            assert np.count_nonzero(row) == len(hist.keys)
        assert (counts[:2] == 0).any(axis=1).all()

    @pytest.mark.parametrize("width", [1, 7])
    def test_key_union_of_one_histogram(self, width):
        # one histogram given three times, as a selection fits it at
        # three class counts: its own keys and its counts tiled
        hist = CountHistogram.from_observations(
            np.random.default_rng(34).poisson(0.4, (500, width)))
        keys, counts = _key_union((hist,) * 3)
        assert keys.tobytes() == hist.keys.tobytes()
        assert keys.shape == hist.keys.shape
        np.testing.assert_array_equal(counts, np.tile(hist.counts, (3, 1)))

    @pytest.mark.parametrize("counts, n_blocks", [
        (np.ones((2, 3), np.int64), 3), (np.ones((2, 3), np.int64), 1),
        (np.ones(3, np.int64), 1), (np.ones((1, 2), np.int64), 1)])
    def test_one_count_row_per_block(self, counts, n_blocks):
        with pytest.raises(ValueError, match="one count row per block"):
            count_objective(np.arange(3)[:, None], counts, 2,
                            (1,) * n_blocks, (None,) * n_blocks)

    def test_one_class_count_per_block(self):
        with pytest.raises(ValueError, match="one class count per block"):
            count_objective(np.arange(3)[:, None], np.ones((2, 3), np.int64),
                            2, (1,), (None, None))

    @pytest.mark.parametrize("heads", [(None, 1), (1, None)],
                             ids=["none_first", "design_first"])
    def test_one_head_kind_per_kernel(self, heads):
        design = LogLinear(1).Z
        keys = np.vstack([np.zeros(7, np.int64), np.eye(7, dtype=np.int64)])
        with pytest.raises(ValueError, match="one head kind per kernel"):
            count_objective(keys, np.ones((2, 8), np.int64), 2, (1, 1),
                            tuple(None if h is None else design
                                  for h in heads))

    @pytest.mark.parametrize("shape", [(1, 5), (2, 3), (4,)])
    def test_block_widths(self, shape):
        # a G = 2 univariate block is 4 wide: 1 weight logit, the p logit
        # and 2 rate reals
        objective = count_objective(np.arange(3)[:, None],
                                    np.ones((1, 3), np.int64), 2, (2,),
                                    (None,))
        with pytest.raises(ValueError, match="widths \\[4\\]"):
            objective((np.zeros(shape),))

    def test_rows_of_one_total(self):
        counts = np.array([[5, 3, 1], [5, 3, 2]])
        with pytest.raises(ValueError, match="of one total.*9 10"):
            count_objective(np.arange(3)[:, None], counts, 2, (1, 1),
                            (None, None))


class TestOneSearchPerSelection:
    """select_G fits G = 1..g_max in one lockstep search, one block per
    class count on one histogram, and each fit ends as fit_uni at its G;
    for the multivariate selections see TestJointSelection
    (tests/test_neighbor_multi.py)."""

    @pytest.mark.parametrize("tau", [3, 13], ids=["tail", "no_tail"])
    def test_univariate(self, monkeypatch, tau):
        truth = MixtureParams(alpha=[0.6, 0.4], p=[[0.8], [0.9]],
                              lam=[[0.3], [2.5]])
        hist = CountHistogram.from_observations(
            sample_counts(truth, 3000, np.random.default_rng(9)))
        assert (hist.keys.max() > tau) == (tau == 3)
        shapes, fits = record_searches(monkeypatch, neighbor_uni)
        sel = select_G(hist, 3, tau=tau)
        assert shapes == [[(_optim.N_STARTS, 2 * g) for g in (1, 2, 3)]]
        (fits,) = fits
        monkeypatch.undo()
        assert [fit_bytes(fit) for fit in fits] == [
            fit_bytes(fit_uni(hist, g, tau=tau)) for g in (1, 2, 3)]
        assert sel.fit is fits[sel.g_hat - 1]
