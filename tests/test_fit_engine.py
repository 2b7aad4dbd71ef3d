"""What the univariate and multivariate count-mixture fits share: the JSON
documents of their results, the parameter count that AIC charges, the
settings and count caps they accept, and the choice of the best start.

The documents are pinned for hand-built results, so the pins do not
depend on the optimizer or on the platform's floating-point libraries.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from linkcov._optim import NU, FitOptions, check_class_count, fit_starts
from linkcov.neighbor_multi import (LogLinear, MultiCountHistogram,
                                    MultiMixtureParams, appendix_c_start,
                                    build_design, fit_multi,
                                    multi_fit_document, sample_multi_counts,
                                    select_G_multi, single_class_p_hat)
from linkcov.neighbor_uni import (CountHistogram, FitResult,
                                  UniMixtureParams, fit_document, fit_uni,
                                  select_G)

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
            params=UniMixtureParams(alpha=[0.75, 0.25], p=[0.875, 0.875],
                                    lam=[0.5, 0.0625]),
            loglik=-1234.5, init_loglik=-1300.1234567890123, converged=True,
            n_iter=17, tau=10)
        assert fit_document(fit, aic=2477.0) == UNI_DOC

    def test_multivariate_loglinear_with_aic(self):
        params = MultiMixtureParams(
            alpha=[0.5, 0.5], p=[P7, P7], lam=[[0.5] * 7, [0.25] * 7],
            phi=0.875, u=np.array([0.5, -1.0, 1.5, 0.0, 0.25, -0.75]),
            u_labels=build_design(2).labels)
        fit = FitResult(params=params, loglik=-2048.75, init_loglik=-2100.5,
                        converged=False, n_iter=1000, tau=10)
        assert multi_fit_document(fit, aic=4157.5) == LOGLINEAR_DOC

    def test_multivariate_refuses_params_without_phi(self):
        # every fit is log-linear; hand-built cells without a coverage
        # would be written under the constant "constraint": "loglinear"
        params = MultiMixtureParams(
            alpha=[1.0], p=[P7], lam=[[0.5, 0.25, 0.125, 1.0, 2.0, 0.0625,
                                       4.0]])
        fit = FitResult(params=params, loglik=-512.0, init_loglik=-640.125,
                        converged=True, n_iter=3, tau=6)
        with pytest.raises(ValueError, match="phi"):
            multi_fit_document(fit)


# a few iterations from one start: the parameter count does not depend
# on where the search stops
QUICK = FitOptions(n_starts=1, max_iter=5)


@pytest.fixture(scope="module")
def multi_hist():
    truth = MultiMixtureParams(alpha=[1.0], p=[np.full(7, 0.1)],
                               lam=[np.full(7, 0.1)])
    draws = sample_multi_counts(truth, 3000, np.random.default_rng(8))
    return MultiCountHistogram.from_observations(draws)


class TestAicParameterCount:
    def test_univariate(self):
        # G - 1 weights, the shared p and G rates
        draws = np.random.default_rng(4).poisson(0.6, 3000)
        sel = select_G(CountHistogram.from_observations(draws), 3,
                       opts=QUICK)
        assert [row["k"] for row in sel.trace] == [2, 4, 6]

    @pytest.mark.parametrize("constraint", [LogLinear(1), LogLinear(2)],
                             ids=str)
    def test_multivariate(self, multi_hist, constraint):
        # G - 1 weights, phi, d_u coefficients and G x 7 rates
        rates = np.full(7, 0.1)
        start = (rates, single_class_p_hat(multi_hist, rates))
        sel = select_G_multi(multi_hist, 3, constraint=constraint,
                             opts=QUICK, start=start)
        d_u = {1: 3, 2: 6}[constraint.d]
        assert [row["k"] for row in sel.trace] == [
            (g - 1) + 1 + d_u + 7 * g for g in (1, 2, 3)]


class TestClassCountBound:
    def test_univariate(self):
        with pytest.raises(ValueError, match="g_max"):
            select_G(CountHistogram([0, 1], [5, 3]), 0)

    def test_multivariate(self, multi_hist):
        with pytest.raises(ValueError, match="g_max"):
            select_G_multi(multi_hist, 0)

    @pytest.mark.parametrize("g", [0, -1])
    def test_multivariate_fit(self, multi_hist, g):
        with pytest.raises(ValueError, match="need at least one class"):
            fit_multi(multi_hist, g)


class TestFitOptionsValidation:
    @pytest.mark.parametrize("field, value", [
        ("n_starts", 0), ("max_iter", 0),
    ])
    def test_refuses(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitOptions(**{field: value})

    # g weights floored at NU exceed 1 from g = 1 / NU on
    def test_univariate_class_count_against_the_floor(self):
        check_class_count(round(1 / NU) - 1)
        hist = CountHistogram([0, 1, 2, 3], [40, 30, 20, 10])
        with pytest.raises(ValueError, match="nu"):
            fit_uni(hist, round(1 / NU))

    def test_multivariate_class_count_against_the_floor(self, multi_hist):
        with pytest.raises(ValueError, match="nu"):
            fit_multi(multi_hist, round(1 / NU))


class TestCountCap:
    """Count caps below 1 are refused: at tau = 0 every nonzero count
    falls in the tail cell, which leaves p unidentified."""

    @pytest.mark.parametrize("tau", [0, -1])
    def test_univariate_fit(self, tau):
        with pytest.raises(ValueError, match="tau must be at least 1"):
            fit_uni(CountHistogram([0, 1, 2], [50, 30, 5]), 1, tau=tau)

    def test_multivariate_fit(self, multi_hist):
        init = {"lambda": np.full(7, 0.1), "p": np.full(7, 0.1),
                "u": np.zeros(6), "phi": 0.7}
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
    def test_nan_value_ranks_below_every_number(self):
        # start 0's search ends on a NaN value, which must not hide the
        # lower value of start 1
        ends = [SimpleNamespace(x=np.full(2, float(s)), fun=fun, success=True,
                                nit=s)
                for s, fun in enumerate([np.nan, 1.0, 2.0])]

        def stub(objective, x0, **kwargs):
            assert len(x0) == len(ends)
            return SimpleNamespace(starts=ends)

        def objective(X):
            return np.zeros(len(X)), np.zeros_like(X)

        fit = fit_starts(stub, objective, np.zeros(2), (), 10.0, 1,
                         lambda x: x, FitOptions(n_starts=3))
        assert fit.loglik == -10.0
        assert fit.n_iter == 1
        np.testing.assert_array_equal(fit.params, [1.0, 1.0])
