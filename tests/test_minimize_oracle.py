"""The fits' L-BFGS-B loop against scipy.optimize.minimize.

``_optim.minimize`` runs scipy's private L-BFGS-B step routine in the
loop of scipy's own L-BFGS-B.  Every search here must end where
``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` ends, bit for
bit, after the same numbers of evaluations and iterations, so a scipy
release that changes the routine or its calling convention fails here.
"""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from linkcov import _optim, neighbor_multi, neighbor_uni
from linkcov._optim import FitOptions
from linkcov.neighbor_multi import (LogLinear, MultiCountHistogram,
                                    MultiMixtureParams, appendix_c_cells,
                                    fit_multi, sample_multi_counts)
from linkcov.neighbor_uni import (CountHistogram, UniMixtureParams, fit_uni,
                                  sample_counts)

# the moment or Appendix-C start and two jittered copies of it
OPTS = FitOptions(n_starts=3)
LBFGSB = {"maxiter": OPTS.max_iter, "ftol": OPTS.ftol, "gtol": OPTS.gtol}


def assert_same_search(fun, x0, args=(), options=LBFGSB):
    """Run _optim.minimize and scipy from x0; return the former's result."""
    ours = _optim.minimize(fun, x0, args=args, jac=True, method="L-BFGS-B",
                           options=options)
    ref = scipy_minimize(fun, x0, args=args, jac=True, method="L-BFGS-B",
                         options=options)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert float(ours.fun).hex() == float(ref.fun).hex()
    assert (ours.nfev, ours.nit, ours.success) == (
        ref.nfev, ref.nit, ref.success)
    return ours


@pytest.fixture
def searches(monkeypatch):
    """Let every search of the fit modules run through both and compare;
    returns the list of the starts compared."""
    seen = []

    def both(fun, x0, args=(), **kwargs):
        seen.append(x0)
        return assert_same_search(fun, x0, args, kwargs["options"])

    for module in (neighbor_uni, neighbor_multi):
        monkeypatch.setattr(module, "minimize", both)
    return seen


def rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * r
    return float(np.sum(100.0 * r ** 2 + (1.0 - x[:-1]) ** 2)), grad


def wrong_gradient(x):
    """A value whose gradient has the wrong sign and size in its first
    coordinate, so that line searches fail: L-BFGS-B then restarts from
    the last iterate and asks for it again, which scipy does not count
    as an evaluation."""
    k = np.arange(1.0, x.size + 1.0)
    grad = 2.0 * k * (x - 1.0) + 5.0 * np.cos(5.0 * x)
    grad[0] *= -0.3
    return float(k @ (x - 1.0) ** 2 + np.sin(5.0 * x).sum()), grad


def _uni_hist():
    truth = UniMixtureParams(alpha=[0.7, 0.3], p=[0.8, 0.8],
                             lam=[0.1, 1.5])
    draws = sample_counts(truth, 2000, np.random.default_rng(3))
    return CountHistogram.from_observations(draws)


def _multi_hist():
    p = np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25])
    truth = MultiMixtureParams(alpha=[0.6, 0.4], p=[p, p],
                               lam=[np.full(7, 0.1), np.full(7, 0.7)])
    draws = sample_multi_counts(truth, 1500, np.random.default_rng(5))
    return MultiCountHistogram.from_observations(draws)


MULTI_INIT = {"lambda": np.linspace(0.2, 0.5, 7),
              "p": np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25]),
              "u": np.array([0.5, -0.3, 0.2, 0.1, -0.2, 0.3]),
              "phi": 0.8, "flagged": False}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_univariate_fit(searches, g):
    fit_uni(_uni_hist(), g, tau=6, opts=OPTS)
    assert len(searches) == OPTS.n_starts


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_multivariate_fit(searches, g, d):
    fit_multi(_multi_hist(), g, constraint=LogLinear(d), tau=4, opts=OPTS,
              init=MULTI_INIT)
    assert len(searches) == OPTS.n_starts


def test_start_cells(searches):
    # the plug-in cells' search asks for ftol 1e-14
    appendix_c_cells(_multi_hist(), np.full(7, 0.3), tau=4)
    assert len(searches) == 1


@pytest.mark.parametrize("options", [
    LBFGSB,
    {"maxiter": 1000, "ftol": 1e-4, "gtol": 1e-3},
    {"maxiter": 1000, "ftol": 1e-14, "gtol": 1e-10},
], ids=["fit_defaults", "loose", "tight"])
def test_rosenbrock(options):
    res = assert_same_search(rosenbrock, np.linspace(-1.2, 1.0, 6),
                             options=options)
    assert res.success


def test_iteration_cap():
    res = assert_same_search(rosenbrock, np.linspace(-1.2, 1.0, 6),
                             options={**LBFGSB, "maxiter": 3})
    assert not res.success
    assert res.nit == 3


def test_failed_line_search():
    res = assert_same_search(wrong_gradient, np.linspace(-1.0, 1.0, 5),
                             options={**LBFGSB, "ftol": 1e-12})
    assert not res.success


@pytest.mark.parametrize("call", [
    {"method": "BFGS", "jac": True, "options": LBFGSB},
    {"method": "L-BFGS-B", "jac": False, "options": LBFGSB},
    {"method": "L-BFGS-B", "jac": True,
     "options": {**LBFGSB, "maxcor": 20}},
], ids=["method", "jac", "option"])
def test_refuses_other_calls(call):
    with pytest.raises(ValueError):
        _optim.minimize(rosenbrock, np.zeros(3), **call)
