"""The fits' L-BFGS-B loop against scipy.optimize.minimize.

``_optim.minimize`` runs scipy's private L-BFGS-B step routine in the
loop of scipy's own L-BFGS-B, for a block of starts in lockstep (one
start is a one-row block), without or with bounds.  Every search here
must end where ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)``
ends from that start alone, under the same bounds, bit for bit, after
the same numbers of evaluations and iterations, so a scipy release that
changes the routine or its calling convention fails here, and so does a
lockstep loop that mixes up its starts.
"""

import collections

import numpy as np
import pytest
from scipy.optimize import _lbfgsb, minimize as scipy_minimize

from linkcov import _optim, baselines, neighbor_multi, neighbor_uni
from linkcov._optim import FTOL, GTOL, FitOptions
from linkcov.neighbor_multi import (LogLinear, MultiCountHistogram,
                                    MultiMixtureParams, fit_multi,
                                    sample_multi_counts, single_class_p_hat)
from linkcov.neighbor_uni import (CountHistogram, UniMixtureParams, fit_uni,
                                  sample_counts)
from test_neighbor_uni import one_row

# the moment or Appendix-C start and two jittered copies of it
OPTS = FitOptions(n_starts=3)
LBFGSB = {"maxiter": OPTS.max_iter, "ftol": FTOL, "gtol": GTOL}


def assert_same_end(ours, ref):
    assert ours.x.tobytes() == ref.x.tobytes()
    assert float(ours.fun).hex() == float(ref.fun).hex()
    assert (ours.nfev, ours.nit, ours.success) == (
        ref.nfev, ref.nit, ref.success)


def assert_same_search(fun, x0, args=(), options=LBFGSB, bounds=None):
    """Run _optim.minimize from x0 as a one-row block of the point
    function fun, and scipy from x0; return the former's one end."""
    ours = _optim.minimize(_optim.row_loop(fun), x0[None], args=args,
                           jac=True, method="L-BFGS-B", options=options,
                           bounds=bounds)
    ref = scipy_minimize(fun, x0, args=args, jac=True, method="L-BFGS-B",
                         options=options, bounds=bounds)
    assert_same_end(ours.starts[0], ref)
    return ours.starts[0]


def assert_same_block(fun, starts, args=(), options=LBFGSB, bounds=None):
    """Run _optim.minimize on the block kernel fun from the rows of
    starts in lockstep; return its result after assert_ends_alone."""
    ours = _optim.minimize(fun, starts, args=args, jac=True,
                           method="L-BFGS-B", options=options, bounds=bounds)
    assert_ends_alone(fun, starts, ours, args, options, bounds)
    return ours


def assert_ends_alone(fun, starts, ours, args=(), options=LBFGSB,
                      bounds=None):
    """Each start of the block result ours ends where scipy ends from
    that start alone, on fun's one-row case; the block's counts are the
    sums of the starts' counts."""
    assert len(ours.starts) == len(starts)
    for x0, end in zip(starts, ours.starts):
        assert_same_end(end, scipy_minimize(
            one_row(fun), x0, args=args, jac=True, method="L-BFGS-B",
            options=options, bounds=bounds))
    assert ours.nfev == sum(end.nfev for end in ours.starts)
    assert ours.nit == sum(end.nit for end in ours.starts)


@pytest.fixture
def searches(monkeypatch):
    """Let every search of the fit modules run through both and compare;
    returns the list of the starts compared.  Every search hands over
    its starts as one block, the plug-in cells a one-row block."""
    seen = []

    def both(fun, x0, args=(), **kwargs):
        seen.extend(x0)
        return assert_same_block(fun, x0, args, kwargs["options"],
                                 kwargs.get("bounds"))

    for module in (neighbor_uni, neighbor_multi, baselines):
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
              "phi": 0.8}


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
    single_class_p_hat(_multi_hist(), np.full(7, 0.3), tau=4)
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


# rosenbrock's minimum is at 1; these bounds leave sides free (None or
# infinite) and cap the second coordinate at 0.8, where the minimum over
# the box lies
BOX = [(-0.5, None), (None, 0.8), (-np.inf, np.inf), (0.0, 2.0),
       (None, None), (-2.0, 0.7)]
INSIDE = np.linspace(-0.4, 0.6, 6)
# coordinates 0, 1, 3 and 5 outside the box, so the start is clipped
OUTSIDE = np.array([-1.2, 1.5, 0.3, 2.5, -0.7, 0.9])


def test_bounded_start_outside_the_box():
    res = assert_same_search(rosenbrock, OUTSIDE, bounds=BOX)
    assert res.success


def test_bounded_search_ends_on_a_bound():
    res = assert_same_search(rosenbrock, INSIDE, bounds=BOX)
    assert res.success
    assert res.x[1] == BOX[1][1]


def test_bounded_block():
    starts = np.array([INSIDE, OUTSIDE, np.linspace(2.0, -2.0, 6),
                       np.full(6, 0.5)])
    res = assert_same_block(_optim.row_loop(rosenbrock), starts, bounds=BOX)
    assert all(end.x[1] == BOX[1][1] for end in res.starts)


def test_racinskij_boundary_search(searches):
    # scenario 1, N=4k: the maximum lies on the box, so the fit runs its
    # four starts as one bounded block
    est = baselines.racinskij_fit([85, 179, 200, 473, 191, 490, 483, 1268],
                                  size_b=3601)
    assert est.diagnostics["method"] == "lbfgsb_box"
    assert len(searches) == 4


@pytest.mark.parametrize("bounds", [BOX[:5], [(1.0, 0.0)] * 6],
                         ids=["length", "order"])
def test_refuses_bad_bounds(bounds):
    with pytest.raises(ValueError, match="bound"):
        _optim.minimize(_optim.row_loop(rosenbrock), INSIDE[None], jac=True,
                        method="L-BFGS-B", options=LBFGSB, bounds=bounds)


def tagged(X, evaluated):
    """A block kernel whose rows are rosenbrock (last coordinate 0) or
    wrong_gradient (last coordinate 1) of the other coordinates.  The
    last coordinate's gradient is 0, so no search moves it; each row
    evaluated is appended to evaluated."""
    values, grads = [], []
    for x in X:
        evaluated.append(x.copy())
        f, grad = (wrong_gradient if x[-1] else rosenbrock)(x[:-1])
        values.append(f)
        grads.append(np.append(grad, 0.0))
    return values, grads


def test_lockstep_block(monkeypatch):
    # four searches that end at very different iteration counts:
    # rosenbrock converging from near its minimum and from a far point,
    # rosenbrock stopped by maxiter, and wrong_gradient
    options = {**LBFGSB, "maxiter": 40, "ftol": 1e-12}
    starts = np.array([
        np.append(np.linspace(0.9, 1.1, 5), 0.0),
        np.append(np.linspace(2.0, -2.0, 5), 0.0),
        np.append(np.linspace(-1.2, 1.0, 5), 0.0),
        np.append(np.linspace(-1.0, 1.0, 5), 1.0),
    ])
    requests = collections.Counter()
    setulb = _lbfgsb.setulb

    def counting(m, x, *rest):
        setulb(m, x, *rest)
        requests[x[-1]] += rest[9][0] == 3      # task 3: evaluate at x

    monkeypatch.setattr(_lbfgsb, "setulb", counting)
    evaluated = []
    res = _optim.minimize(tagged, starts, args=(evaluated,), jac=True,
                          method="L-BFGS-B", options=options)
    monkeypatch.undo()
    wrong = [x for x in evaluated if x[-1] == 1.0]
    assert_ends_alone(tagged, starts, res, (evaluated,), options)
    ends = res.starts
    assert len({end.nit for end in ends}) == len(ends)
    assert [end.success for end in ends] == [True, True, False, False]
    assert ends[2].nit == options["maxiter"]
    assert [end.x[-1] for end in ends] == [0.0, 0.0, 0.0, 1.0]
    # wrong_gradient's failed line searches asked again for points it
    # had evaluated last, which it neither evaluated again nor counted
    assert requests[1.0] > ends[3].nfev == len(wrong)


@pytest.mark.parametrize("call", [
    {"method": "BFGS", "jac": True, "options": LBFGSB},
    {"method": "L-BFGS-B", "jac": False, "options": LBFGSB},
    {"method": "L-BFGS-B", "jac": True,
     "options": {**LBFGSB, "maxcor": 20}},
], ids=["method", "jac", "option"])
def test_refuses_other_calls(call):
    with pytest.raises(ValueError):
        _optim.minimize(_optim.row_loop(rosenbrock), np.zeros((1, 3)), **call)


def test_refuses_a_single_point():
    with pytest.raises(ValueError, match="block"):
        _optim.minimize(_optim.row_loop(rosenbrock), np.zeros(3), jac=True,
                        method="L-BFGS-B", options=LBFGSB)
