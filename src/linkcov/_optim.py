"""The fit engine of the univariate and multivariate count mixtures,
whose L-BFGS-B loop also fits the Racinskij baseline on the boundary.

The two mixtures differ only in their parameters and in the objective
kernel that L-BFGS-B calls.  They share the settings (FitOptions and the
constants below), the result types (FitResult, SelectionResult), the
deterministic multi-start search (fit_starts), the AIC selection of the
class count (select_aic) and the JSON of a result (result_document).

The fixed settings are module constants.  FTOL and the default
FitOptions.max_iter are the paper's stop rule: a relative change of the
mean log-likelihood below 1e-9, at most 1,000 iterations; GTOL is
scipy's projected-gradient tolerance for L-BFGS-B.  Start s > 0 of a fit
adds JITTER times standard normals, seeded by (JITTER_SEED, *salt, s).
NU floors the probabilities (kept in [NU, 1 - NU]), the class weights
and the rates, whose ceiling is LAMBDA_MAX.

Each search is L-BFGS-B, run by minimize: a short loop that calls
scipy's own L-BFGS-B step routine (scipy.optimize._lbfgsb.setulb)
exactly as scipy.optimize.minimize(method="L-BFGS-B", jac=True) does,
so the fits end on the same points after the same evaluations.  The
count mixtures' searches are unbounded; the Racinskij boundary search
(baselines) passes scipy's bounds.  scipy's loop wraps each evaluation
in its ScalarFunction and MemoizeJac layers, which cost about as much as
the fits' own objective kernels; this loop does not.  The routine is
private to scipy and takes its current arguments from scipy 1.15 on, the
floor pyproject.toml sets; tests/test_minimize_oracle.py pins the loop
to scipy.optimize.minimize.

A fit's starts run in lockstep: fit_starts hands minimize all of them
as one block, minimize keeps one setulb state per start, and in each
round the starts that ask for a new point are evaluated by one call of
the objective on the block of their points.  A kernel whose cost is
mostly per call, as the multivariate one is, pays that cost once per
round instead of once per start; a point kernel joins through row_loop.
Several fits whose points differ in length, such as the multivariate
fits of both interaction orders at one class count, run in one lockstep
as a tuple of blocks, one per fit, and share each round's call.  Each
start still ends on the point, after the evaluations and iterations,
that its own search would give, and minimize reports the evaluations
and iterations as sums over its starts.

All count-mixture parameters live in boxes or simplices; their fits run
an unconstrained quasi-Newton search, so each constrained quantity is
mapped through a smooth bijection:

* probabilities in an interval -> logistic transform,
* positive rates in [lo, hi]   -> logistic interpolation on the log scale,
* simplex weights              -> stick-breaking over logits.

Every forward map comes with the Jacobian pieces needed to chain analytic
gradients back to the unconstrained coordinates.

scipy.special is reached as an attribute of scipy, and scipy.optimize is
imported by minimize, when a fit runs, not with the module, so that the
commands that fit nothing never load them.
"""

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

__all__ = [
    "FTOL",
    "GTOL",
    "JITTER",
    "JITTER_SEED",
    "NU",
    "LAMBDA_MAX",
    "FitOptions",
    "FitResult",
    "SelectionResult",
    "best_end",
    "check_class_count",
    "fit_starts",
    "minimize",
    "row_loop",
    "select_aic",
    "result_document",
    "logit",
    "interval_from_real",
    "real_from_interval",
    "stick_break",
    "stick_break_inverse",
    "stick_break_vjp",
    "stick_pieces",
    "stick_pieces_vjp",
]


FTOL = 1e-9
GTOL = 1e-7
JITTER = 0.3
JITTER_SEED = 0
NU = 1e-4
LAMBDA_MAX = 100.0


@dataclass(frozen=True)
class FitOptions:
    """The search settings a caller may set: the iteration cap max_iter
    (the paper's 1,000 by default) and n_starts, the number of
    deterministic starts: the moment or Appendix-C start plus
    n_starts - 1 jittered copies.  The other settings are the module's
    constants.
    """

    max_iter: int = 1000
    n_starts: int = 5

    def __post_init__(self):
        for name in ("max_iter", "n_starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def check_class_count(g):
    """Refuse a class count g that the fits cannot take: below 1, or so
    large that g weights floored at NU would exceed 1."""
    if g < 1:
        raise ValueError("need at least one class")
    if g * NU >= 1:
        raise ValueError(f"{g} class weights floored at nu={NU} exceed 1; "
                         "g * nu must stay below 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-composite-likelihood fit.

    n_params is the length of the packed parameter vector, the k that
    AIC charges; a result built by hand may leave it unset.
    """

    params: object
    loglik: float
    init_loglik: float
    converged: bool
    n_iter: int
    tau: int
    n_params: Optional[int] = None


@dataclass(frozen=True)
class SelectionResult:
    """AIC model selection outcome."""

    g_hat: int
    fit: FitResult
    trace: list = field(default_factory=list)


def minimize(fun, x0, args=(), *, jac, method, options, bounds=None):
    """L-BFGS-B from each row of the (S, n) block x0, in lockstep, bit
    for bit as scipy.optimize.minimize runs it from that row alone.

    Takes what scipy.optimize.minimize takes for method="L-BFGS-B" and
    jac=True, with the options maxiter, ftol and gtol, and refuses
    anything else.  bounds, as scipy takes it, is None or one (lo, hi)
    pair per coordinate, where None or an infinite value leaves that side
    free; as scipy does, each start is first clipped into the box.  The
    loop is the reverse-communication loop of scipy's L-BFGS-B around its
    step routine setulb, with scipy's maxcor 10, maxls 20 and maxfun
    15000, minus the ScalarFunction and MemoizeJac wrappers that scipy
    puts around each evaluation.  setulb is private and takes these
    arguments from scipy 1.15 on; tests/test_minimize_oracle.py pins the
    loop to scipy.optimize.minimize, with and without bounds.

    fun(X, *args) returns the values (S',) and the gradients (S', n) at
    the S' rows of X (row_loop makes it from a point function), and each
    row's search runs its own setulb state.  In each round every running
    search that asks for a new point joins one call of fun, and a
    finished search drops out; a search that asks again for the point it
    last evaluated gets that evaluation back, as scipy does, uncounted.
    So each row ends where scipy would end from it alone, after the same
    nfev and nit.  The result lists one scipy OptimizeResult per row in
    starts (as scipy.optimize.shgo lists its local minima), each with x,
    fun, jac, nfev, nit and success, and gives nfev and nit summed over
    the rows.  A single search is a one-row block.

    x0 may also be a tuple of blocks, whose widths may differ: the
    searches of every block then run in one lockstep, fun takes the
    tuple of each block's asking rows (an empty block has no rows) and
    returns the values of all of them, block by block, and a tuple of
    each block's gradients; starts lists the rows block by block, and
    bounds apply to every block.

    The fit modules import this name and call it as their own
    module-level minimize, so that a stub or a counter put in that
    module's place sees every call.
    """
    if method != "L-BFGS-B" or jac is not True:
        raise ValueError("minimize runs only method='L-BFGS-B' with "
                         "jac=True")
    if set(options) != {"maxiter", "ftol", "gtol"}:
        raise ValueError("minimize takes exactly the options maxiter, ftol "
                         "and gtol")
    from scipy.optimize import OptimizeResult, _lbfgsb

    setulb = _lbfgsb.setulb
    m, maxls, maxfun = 10, 20, 15000
    maxiter = options["maxiter"]
    factr = options["ftol"] / np.finfo(float).eps
    pgtol = options["gtol"]
    many = isinstance(x0, tuple)
    blocks = [np.array(b, dtype=np.float64) for b in (x0 if many else (x0,))]
    if any(b.ndim != 2 for b in blocks):
        raise ValueError("x0 must be an (S, n) block of starts, or a tuple "
                         "of them")
    searches = []
    for b, starts in enumerate(blocks):
        n = starts.shape[1]
        box = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
        if bounds is not None:
            lo, hi = _bound_arrays(bounds, n)
            starts = np.clip(starts, lo, hi)
            # setulb's nbd: 0 no bound, 1 lower only, 2 both, 3 upper
            # only; it never reads the bound of a free side
            lower, upper, nbd = box
            has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
            nbd[:] = np.where(has_lo, 1 + has_hi, 3 * has_hi)
            lower[has_lo], upper[has_hi] = lo[has_lo], hi[has_hi]
        searches += [_Search(x, m, b, box) for x in starts]
    running = searches
    while running:
        asking = []
        for s in running:
            while True:
                setulb(m, s.x, *s.box, s.f, s.g, factr, pgtol, s.wa, s.iwa,
                       s.task, s.lsave, s.isave, s.dsave, maxls, s.ln_task)
                task = s.task[0]
                if task == 3:
                    # scipy evaluates again only at a new point, and hands
                    # setulb a fresh copy of the last gradient either way
                    if _new_point(s.x, s.x_eval):
                        asking.append(s)
                        break
                    s.g = np.array(s.grad, dtype=np.float64)
                elif task == 1:
                    s.nit += 1
                    if s.nit >= maxiter:
                        s.task[:] = 5, 504
                    elif s.nfev > maxfun:
                        s.task[:] = 5, 502
                else:
                    break
        if asking:
            rows = [[s for s in asking if s.block == b]
                    for b in range(len(blocks))]
            X = [np.array([s.x for s in ask]) if ask
                 else np.empty((0, b.shape[1]))
                 for ask, b in zip(rows, blocks)]
            values, grads = fun(tuple(X) if many else X[0], *args)
            values = iter(values)
            for ask, points, block_grads in zip(rows, X,
                                                grads if many else (grads,)):
                # setulb gets a copy of each gradient, made once per block
                copies = np.array(block_grads, dtype=np.float64)
                for s, x, grad, g in zip(ask, points, block_grads, copies):
                    s.x_eval, s.f, s.grad, s.g = x, next(values), grad, g
                    s.nfev += 1
        running = asking
    results = [OptimizeResult(x=s.x, fun=s.f, jac=s.g, nfev=s.nfev,
                              nit=s.nit, success=bool(s.task[0] == 4))
               for s in searches]
    return OptimizeResult(nfev=sum(r.nfev for r in results),
                          nit=sum(r.nit for r in results), starts=results)


def _new_point(x, x_eval):
    """Whether x differs from the last evaluated point x_eval (None when
    none was), as scipy's not np.array_equal(x, x_eval) decides: a NaN
    coordinate makes every point new, and -0.0 is the point 0.0.  The
    first coordinate alone decides all but a few in a thousand checks
    of the N=100k fits, at about 0.15 us, where the full comparison
    takes about 1.5 us."""
    return (x_eval is None or x[0] != x_eval[0]
            or not (x == x_eval).all())


def _bound_arrays(bounds, n):
    """The lower and upper bounds of scipy's (lo, hi) pairs, a free side
    infinite."""
    if len(bounds) != n:
        raise ValueError("bounds must give one (lo, hi) pair per coordinate")
    lo, hi = (np.array([np.nan if v is None else v for v in side], float)
              for side in zip(*bounds))
    lo[np.isnan(lo)], hi[np.isnan(hi)] = -np.inf, np.inf
    if (lo > hi).any():
        raise ValueError("a lower bound exceeds its upper bound")
    return lo, hi


class _Search:
    """The L-BFGS-B state of one start: its block and that block's
    (lower, upper, nbd) box, setulb's work arrays, the point, the last
    evaluation and the counts."""

    __slots__ = ("x", "block", "box", "f", "g", "wa", "iwa", "task",
                 "ln_task", "lsave", "isave", "dsave", "x_eval", "grad",
                 "nfev", "nit")

    def __init__(self, x0, m, block, box):
        n = x0.size
        self.x = x0.copy()
        self.block, self.box = block, box
        self.f, self.g = 0.0, np.zeros(n)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29)
        self.x_eval = self.grad = None
        self.nfev = self.nit = 0


def row_loop(point):
    """The block form of a point kernel: point(x, *args) at each row."""
    def block(X, *args):
        return list(zip(*[point(x, *args) for x in X]))
    return block


def best_end(ends):
    """The first of the searches' ends with the lowest fun; a NaN fun
    ranks below every number."""
    return min(ends, key=lambda end: (np.isnan(end.fun), end.fun))


def fit_starts(minimize, objective, x0, args, total, tau, params_at, opts,
               salt=()):
    """Fit by L-BFGS-B from x0 and n_starts - 1 jittered copies of it.

    objective(X, *args) gives, at each row x of X, the negative mean
    log-likelihood of total observations and its gradient (row_loop
    makes it from a point kernel); start s > 0 adds JITTER times normals
    seeded by (JITTER_SEED, *salt, s).  The search stops by FTOL, GTOL
    and opts.max_iter.  The starts go to minimize as one block,
    so their searches run in lockstep; a later start replaces the best so
    far only with a strictly lower value (see best_end), and params_at
    maps the best end point to the model.  minimize is the one the
    calling module names (see minimize).  tau, the cap of the fitted
    counts, must be at least 1.

    x0 and params_at may also be tuples, one entry per model, for an
    objective that takes a tuple of blocks (see minimize): the models'
    starts then run in one lockstep, each model's as one block, and the
    result is the tuple of the models' FitResults, each the one that
    fit_starts gives that model alone.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    many = isinstance(x0, tuple)
    x0s, params_ats = (x0, params_at) if many else ((x0,), (params_at,))
    firsts = tuple(x[None] for x in x0s)
    init_values = objective(firsts if many else firsts[0], *args)[0]
    blocks = []
    for x in x0s:
        starts = [x]
        for start in range(1, opts.n_starts):
            jrng = np.random.default_rng([JITTER_SEED, *salt, start])
            starts.append(x + JITTER * jrng.standard_normal(x.size))
        blocks.append(np.array(starts))
    res = minimize(
        objective, tuple(blocks) if many else blocks[0], args=args, jac=True,
        method="L-BFGS-B",
        options={"maxiter": opts.max_iter, "ftol": FTOL, "gtol": GTOL},
    )
    fits = []
    for i, (x, at, init_value) in enumerate(zip(x0s, params_ats,
                                                init_values)):
        best = best_end(res.starts[i * opts.n_starts:(i + 1) * opts.n_starts])
        fits.append(FitResult(
            params=at(best.x),
            loglik=float(-best.fun * total),
            init_loglik=float(-init_value * total),
            converged=bool(best.success),
            n_iter=int(best.nit),
            tau=tau,
            n_params=x.size,
        ))
    return tuple(fits) if many else fits[0]


def select_aic(fit, g_max):
    """Fit G = 1..g_max with fit(G) and keep the AIC minimizer (ties ->
    smallest G); AIC charges each fit its n_params."""
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    trace = []
    best = None
    for g in range(1, g_max + 1):
        res = fit(g)
        k = res.n_params
        aic = 2.0 * k - 2.0 * res.loglik
        trace.append({"G": g, "loglik": res.loglik, "k": k, "aic": aic})
        if best is None or aic < best[0] - 1e-12:
            best = (aic, g, res)
    return SelectionResult(g_hat=best[1], fit=best[2], trace=trace)


def result_document(fit, doc, aic=None):
    """Structured-text (JSON) rendering of a fit result: the model's own
    fields in doc, plus the fields every fit shares."""
    doc.update(tau=fit.tau, loglik=fit.loglik, init_loglik=fit.init_loglik,
               converged=fit.converged, n_iter=fit.n_iter)
    if aic is not None:
        doc["aic"] = aic
    return json.dumps(doc, indent=2, sort_keys=True)


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def interval_from_real(x, lo, hi):
    """Map R -> (lo, hi) by logistic interpolation on the log scale.

    Requires 0 < lo < hi.  Values cluster log-uniformly, which suits rate
    parameters spanning several orders of magnitude.  Returns the values
    and their elementwise derivatives d value / dx, which share one
    logistic evaluation.
    """
    span = np.log(hi) - np.log(lo)
    s = scipy.special.expit(x)
    v = np.exp(np.log(lo) + span * s)
    return v, v * span * s * (1.0 - s)


def real_from_interval(v, lo, hi):
    frac = (np.log(v) - np.log(lo)) / (np.log(hi) - np.log(lo))
    frac = np.clip(frac, 1e-12, 1.0 - 1e-12)
    return logit(frac)


def stick_pieces(v):
    """Stick-breaking over logistic values v, in Python floats.

    Returns the stick left before each break and the len(v) + 1 pieces
    (summing to one); stick_break is floor + (1 - G floor) * pieces.
    The lists hold a few elements, where array calls would cost more
    than the arithmetic.
    """
    stick, pieces = [], []
    rest = 1.0
    for vi in v:
        stick.append(rest)
        pieces.append(vi * rest)
        rest *= 1.0 - vi
    pieces.append(rest)
    return stick, pieces


def stick_pieces_vjp(v, stick, pieces, grad_s):
    """Pull a gradient w.r.t. the pieces back to the logits behind v.

    Uses d piece_h / dx_h = stick_h v_h (1 - v_h) and, for i > h,
    d piece_i / dx_h = -piece_i v_h.  grad_s may omit the last piece,
    whose entry is then taken as 0.
    """
    n = len(v)
    out = [0.0] * n
    later = grad_s[n] * pieces[n] if len(grad_s) > n else 0.0
    for h in range(n - 1, -1, -1):
        vh = v[h]
        out[h] = grad_s[h] * stick[h] * vh * (1.0 - vh) - vh * later
        later += grad_s[h] * pieces[h]
    return out


def stick_break(x, floor=0.0):
    """Map G-1 free logits to a point of the G-simplex.

    With a positive floor the weights live in [floor, 1] and still sum
    to one; floor * G must stay below 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _, pieces = stick_pieces(scipy.special.expit(x).tolist())
    return floor + (1.0 - len(pieces) * floor) * np.array(pieces)


def stick_break_inverse(weights, floor=0.0):
    """Free logits reproducing the given simplex weights."""
    w = np.asarray(weights, dtype=float)
    g = w.size
    if g == 1:
        return np.empty(0)
    s = (w - floor) / (1.0 - g * floor)
    s = np.clip(s, 1e-12, 1.0)
    x = np.empty(g - 1)
    rest = 1.0
    for i in range(g - 1):
        frac = np.clip(s[i] / rest, 1e-12, 1.0 - 1e-12)
        x[i] = logit(frac)
        rest -= s[i]
        rest = max(rest, 1e-300)
    return x


def stick_break_vjp(x, grad_s):
    """Pull a gradient w.r.t. the weights of stick_break(x) back to the
    free logits x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = scipy.special.expit(x).tolist()
    stick, pieces = stick_pieces(v)
    grad_s = np.asarray(grad_s, dtype=float).tolist()
    return np.array(stick_pieces_vjp(v, stick, pieces, grad_s))
