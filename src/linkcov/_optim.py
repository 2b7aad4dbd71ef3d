"""The fit engine of the univariate and multivariate count mixtures.

The two mixtures differ only in their parameters and in the objective
kernel that L-BFGS-B calls.  They share the settings (FitOptions), the
result types (FitResult, SelectionResult), the deterministic multi-start
search (fit_starts), the AIC selection of the class count (select_aic)
and the JSON of a result (result_document).

Each search is unbounded L-BFGS-B, run by minimize: a short loop that
calls scipy's own L-BFGS-B step routine (scipy.optimize._lbfgsb.setulb)
exactly as scipy.optimize.minimize(method="L-BFGS-B", jac=True) does,
so the fits end on the same points after the same evaluations.  scipy's
loop wraps each evaluation in its ScalarFunction and MemoizeJac layers,
which cost about as much as the fits' own objective kernels; this loop
does not.  The routine is private to scipy and takes its current
arguments from scipy 1.15 on, the floor pyproject.toml sets;
tests/test_minimize_oracle.py pins the loop to scipy.optimize.minimize.

All model parameters live in boxes or simplices; the fits run an
unconstrained quasi-Newton search, so each constrained quantity is mapped
through a smooth bijection:

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
    "FitOptions",
    "FitResult",
    "SelectionResult",
    "fit_starts",
    "minimize",
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


@dataclass(frozen=True)
class FitOptions:
    """Optimizer settings shared by the univariate and multivariate fits.

    max_iter / ftol mirror the stated convergence rule (relative change in
    the mean log-likelihood below 1e-9, at most 1000 iterations).  n_starts
    counts the deterministic multi-starts: the moment initialization plus
    n_starts - 1 jittered copies.  nu floors the probabilities (kept in
    [nu, 1 - nu]), the class weights and the rates, whose ceiling is
    lambda_max.
    """

    max_iter: int = 1000
    ftol: float = 1e-9
    gtol: float = 1e-7
    n_starts: int = 5
    jitter: float = 0.3
    seed: int = 0
    nu: float = 1e-4
    lambda_max: float = 100.0

    def __post_init__(self):
        for name in ("max_iter", "n_starts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("ftol", "gtol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.jitter >= 0:
            raise ValueError("jitter must not be negative")
        if not 0 < self.nu < 0.5:
            raise ValueError("nu must lie in (0, 0.5)")
        if not self.nu < self.lambda_max:
            raise ValueError("nu must stay below lambda_max")

    def check_class_count(self, g):
        """Refuse a class count g that the fits cannot take: below 1, or
        so large that g weights floored at nu would exceed 1."""
        if g < 1:
            raise ValueError("need at least one class")
        if g * self.nu >= 1:
            raise ValueError(f"{g} class weights floored at nu={self.nu} "
                             "exceed 1; g * nu must stay below 1")


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


def minimize(fun, x0, args=(), *, jac, method, options):
    """Unbounded L-BFGS-B from x0, bit for bit as scipy.optimize.minimize
    runs it.

    Takes what scipy.optimize.minimize takes for method="L-BFGS-B" and
    jac=True (fun returns the value and the gradient), with the options
    maxiter, ftol and gtol, and refuses anything else.  Returns an
    OptimizeResult with x, fun, jac, nfev, nit and success.  The loop is
    the reverse-communication loop of scipy's L-BFGS-B around its step
    routine setulb, with scipy's maxcor 10, maxls 20 and maxfun 15000,
    minus the ScalarFunction and MemoizeJac wrappers that scipy puts
    around each evaluation.  setulb is private and takes these arguments
    from scipy 1.15 on; tests/test_minimize_oracle.py pins the loop to
    scipy.optimize.minimize.

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

    m, maxls, maxfun = 10, 20, 15000
    maxiter = options["maxiter"]
    factr = options["ftol"] / np.finfo(float).eps
    pgtol = options["gtol"]
    x = np.array(x0, dtype=np.float64, ndmin=1)
    n = x.size
    # nbd 0 marks a coordinate without bounds, whose bound setulb never reads
    bound = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    x_eval = None
    nfev = nit = 0
    while True:
        _lbfgsb.setulb(m, x, bound, bound, nbd, f, g, factr, pgtol, wa, iwa,
                       task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:
            # scipy evaluates again only at a new point, and hands setulb
            # a fresh copy of the last gradient either way
            if x_eval is None or not (x == x_eval).all():
                x_eval = x.copy()
                f, grad = fun(x.copy(), *args)
                nfev += 1
            g = np.array(grad, dtype=np.float64)
        elif task[0] == 1:
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > maxfun:
                task[:] = 5, 502
        else:
            break
    return OptimizeResult(x=x, fun=f, jac=g, nfev=nfev, nit=nit,
                          success=bool(task[0] == 4))


def fit_starts(minimize, objective, x0, args, total, tau, params_at, opts,
               salt=()):
    """Fit by L-BFGS-B from x0 and n_starts - 1 jittered copies of it.

    objective(x, *args) gives the negative mean log-likelihood of total
    observations and its gradient; start s > 0 adds jitter times normals
    seeded by (seed, *salt, s); params_at maps the best end point to the
    model.  minimize is the one the calling module names (see minimize).
    tau, the cap of the fitted counts, must be at least 1.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    init_loglik = -objective(x0, *args)[0] * total
    best = None
    for start in range(opts.n_starts):
        if start == 0:
            x_start = x0
        else:
            jrng = np.random.default_rng([opts.seed, *salt, start])
            x_start = x0 + opts.jitter * jrng.standard_normal(x0.size)
        res = minimize(
            objective, x_start, args=args, jac=True, method="L-BFGS-B",
            options={"maxiter": opts.max_iter, "ftol": opts.ftol,
                     "gtol": opts.gtol},
        )
        if best is None or res.fun < best.fun:
            best = res
    return FitResult(
        params=params_at(best.x),
        loglik=float(-best.fun * total),
        init_loglik=float(init_loglik),
        converged=bool(best.success),
        n_iter=int(best.nit),
        tau=tau,
        n_params=x0.size,
    )


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


def stick_break_vjp(x, grad_s, floor=0.0):
    """Pull a gradient w.r.t. the weights back to the free logits."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = scipy.special.expit(x).tolist()
    stick, pieces = stick_pieces(v)
    grad_s = np.asarray(grad_s, dtype=float).tolist()
    return ((1.0 - len(pieces) * floor)
            * np.array(stick_pieces_vjp(v, stick, pieces, grad_s)))
