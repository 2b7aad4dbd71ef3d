"""The fits' L-BFGS-B loop against scipy.optimize.minimize.

``_optim.minimize`` runs scipy's private L-BFGS-B step routine in the
loop of scipy's own unbounded L-BFGS-B, for a tuple of blocks of starts
in lockstep (one start is a one-row block).  Every search here must end
where ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` ends from
that start alone, bit for bit, after the same numbers of evaluations and
iterations, so a scipy release that changes the routine or its calling
convention fails here, and so does a lockstep loop that mixes up its
starts.
"""

import collections

import numpy as np
import pytest
from scipy.optimize import _lbfgsb, minimize as scipy_minimize

from linkcov import _optim, neighbor_multi, neighbor_uni
from linkcov._optim import (FTOL, GTOL, MAX_ITER, CountHistogram,
                            MixtureParams)
from linkcov.neighbor_multi import LogLinear, fit_multi, sample_multi_counts
from linkcov.neighbor_uni import fit_uni, sample_counts

# the moment or Appendix-C start and two jittered copies of it
N_STARTS = 3
LBFGSB = {"maxiter": MAX_ITER, "ftol": FTOL, "gtol": GTOL}


def assert_same_end(ours, ref):
    assert ours.x.tobytes() == ref.x.tobytes()
    assert float(ours.fun).hex() == float(ref.fun).hex()
    assert (ours.nfev, ours.nit, ours.success) == (
        ref.nfev, ref.nit, ref.success)


def point_block(point):
    """The one-block kernel of a point function: point(x) at each row of
    the one block."""
    def kernel(Xs):
        (X,) = Xs
        values, grads = zip(*[point(x) for x in X])
        return values, (grads,)
    return kernel


def assert_same_search(fun, x0, options=LBFGSB):
    """Run _optim.minimize from x0 as a one-row block of the point
    function fun, and scipy from x0; return the former's one end."""
    ours = _optim.minimize(point_block(fun), (x0[None],), jac=True,
                           method="L-BFGS-B", options=options)
    ref = scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                         options=options)
    assert_same_end(ours.starts[0], ref)
    return ours.starts[0]


def assert_same_block(fun, x0s, options=LBFGSB):
    """Run _optim.minimize on the kernel fun from the rows of the tuple
    of blocks x0s in lockstep; return its result after
    assert_ends_alone."""
    ours = _optim.minimize(fun, x0s, jac=True, method="L-BFGS-B",
                           options=options)
    assert_ends_alone(fun, x0s, ours, options)
    return ours


def assert_ends_alone(fun, x0s, ours, options=LBFGSB):
    """Each start of the result ours ends where scipy ends from that
    start alone, on fun's one-row case of the start's block; the counts
    are the sums of the starts' counts."""
    starts = [(b, x0) for b, block in enumerate(x0s) for x0 in block]
    assert len(ours.starts) == len(starts)
    for (b, x0), end in zip(starts, ours.starts):
        assert_same_end(end, scipy_minimize(
            block_row(fun, x0s, b), x0, jac=True, method="L-BFGS-B",
            options=options))
    assert ours.nfev == sum(end.nfev for end in ours.starts)
    assert ours.nit == sum(end.nit for end in ours.starts)


def block_row(fun, x0s, b):
    """The point function x -> (value, gradient) of block b of the kernel
    fun on the tuple of blocks x0s, called with every other block empty."""
    def point(x):
        values, grads = fun(tuple(x[None] if i == b else block[:0]
                                  for i, block in enumerate(x0s)))
        return values[0], grads[b][0]
    return point


@pytest.fixture
def searches(monkeypatch):
    """Let every search of the count-mixture fits run through both and
    compare, from N_STARTS starts; returns the list of the starts
    compared.  Every search hands over a tuple of blocks of starts."""
    seen = []

    def both(fun, x0s, **kwargs):
        seen.extend(x for block in x0s for x in block)
        return assert_same_block(fun, x0s, kwargs["options"])

    monkeypatch.setattr(_optim, "N_STARTS", N_STARTS)
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
    truth = MixtureParams(alpha=[0.7, 0.3], p=[[0.8], [0.8]],
                          lam=[[0.1], [1.5]])
    draws = sample_counts(truth, 2000, np.random.default_rng(3))
    return CountHistogram.from_observations(draws)


def _multi_hist():
    p = np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25])
    truth = MixtureParams(alpha=[0.6, 0.4], p=[p, p],
                          lam=[np.full(7, 0.1), np.full(7, 0.7)])
    draws = sample_multi_counts(truth, 1500, np.random.default_rng(5))
    return CountHistogram.from_observations(draws)


MULTI_INIT = {"lambda": np.linspace(0.2, 0.5, 7),
              "u": np.array([0.5, -0.3, 0.2, 0.1, -0.2, 0.3]),
              "phi": 0.8}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_univariate_fit(searches, g):
    fit_uni(_uni_hist(), g, tau=6)
    assert len(searches) == N_STARTS


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_multivariate_fit(searches, g, d):
    fit_multi(_multi_hist(), g, constraint=LogLinear(d), tau=4,
              init=MULTI_INIT)
    assert len(searches) == N_STARTS


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


def tagged(evaluated):
    """A one-block kernel whose rows are rosenbrock (last coordinate 0)
    or wrong_gradient (last coordinate 1) of the other coordinates.  The
    last coordinate's gradient is 0, so no search moves it; each row
    evaluated is appended to evaluated."""
    def kernel(Xs):
        (X,) = Xs
        values, grads = [], []
        for x in X:
            evaluated.append(x.copy())
            f, grad = (wrong_gradient if x[-1] else rosenbrock)(x[:-1])
            values.append(f)
            grads.append(np.append(grad, 0.0))
        return values, (grads,)
    return kernel


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
    kernel = tagged(evaluated)
    res = _optim.minimize(kernel, (starts,), jac=True, method="L-BFGS-B",
                          options=options)
    monkeypatch.undo()
    wrong = [x for x in evaluated if x[-1] == 1.0]
    assert_ends_alone(kernel, (starts,), res, options)
    ends = res.starts
    assert len({end.nit for end in ends}) == len(ends)
    assert [end.success for end in ends] == [True, True, False, False]
    assert ends[2].nit == options["maxiter"]
    assert [end.x[-1] for end in ends] == [0.0, 0.0, 0.0, 1.0]
    # wrong_gradient's failed line searches asked again for points it
    # had evaluated last, which it neither evaluated again nor counted
    assert requests[1.0] > ends[3].nfev == len(wrong)


def test_blocks_of_different_widths():
    # a block of 6-wide rosenbrock starts beside a block of 5-wide
    # wrong_gradient starts: the blocks' searches end in different
    # rounds, so later calls hand the kernel an empty block
    x0s = (np.array([np.linspace(-1.2, 1.0, 6), np.linspace(2.0, -2.0, 6),
                     np.linspace(0.9, 1.1, 6)]),
           np.array([np.linspace(-1.0, 1.0, 5), np.full(5, 0.3)]))
    sizes = []

    def kernel(Xs):
        sizes.append([len(X) for X in Xs])
        values, grads = [], []
        for point, X in zip((rosenbrock, wrong_gradient), Xs):
            ends = [point(x) for x in X]
            values += [f for f, _ in ends]
            grads.append([grad for _, grad in ends])
        return values, tuple(grads)

    options = {**LBFGSB, "ftol": 1e-12}
    res = _optim.minimize(kernel, x0s, jac=True, method="L-BFGS-B",
                          options=options)
    assert [len(end.x) for end in res.starts] == [6, 6, 6, 5, 5]
    # the wrong_gradient block ends first, and no call is empty
    assert sizes[0] == [3, 2] and sizes[-1] == [1, 0]
    assert all(sum(call) for call in sizes)
    assert_ends_alone(kernel, x0s, res, options)


@pytest.mark.parametrize("call", [
    {"method": "BFGS", "jac": True, "options": LBFGSB},
    {"method": "L-BFGS-B", "jac": False, "options": LBFGSB},
    {"method": "L-BFGS-B", "jac": True,
     "options": {**LBFGSB, "maxcor": 20}},
], ids=["method", "jac", "option"])
def test_refuses_other_calls(call):
    with pytest.raises(ValueError):
        _optim.minimize(point_block(rosenbrock), (np.zeros((1, 3)),),
                        **call)


def test_refuses_a_single_point():
    # a point, a tuple holding a point, and a plain (S, n) block, which
    # is not a tuple of blocks
    for x0s in (np.zeros(3), (np.zeros(3),), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="block"):
            _optim.minimize(point_block(rosenbrock), x0s, jac=True,
                            method="L-BFGS-B", options=LBFGSB)
