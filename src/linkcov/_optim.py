"""The fit engine of the univariate and multivariate count mixtures.

The univariate model is the one-cell case of the multivariate one, so
both read one histogram type (CountHistogram, count vectors of m cells:
1, or 7 agreement patterns), take one parameter type (MixtureParams,
p and lam G x m) and one pmf (comp_pmf, mix_pmf).  Their fits differ
only in the head that gives the true-positive cells, one p or a
log-linear design over seven cells: L-BFGS-B calls one objective kernel
for both (count_objective), with a head per model.  They share the
settings (the constants below), the result types (FitResult,
SelectionResult), the deterministic multi-start search (fit_starts),
the AIC selection of the class count (select_aic) and the JSON of a
result (result_document).

The settings are module constants.  FTOL and MAX_ITER are the paper's
stop rule: a relative change of the mean log-likelihood below 1e-9, at
most 1,000 iterations; GTOL is scipy's projected-gradient tolerance for
L-BFGS-B.  A fit runs N_STARTS starts: the moment or Appendix-C start
and N_STARTS - 1 copies of it, start s > 0 adding JITTER times standard
normals seeded by (JITTER_SEED, *salt, s).  NU floors the probabilities
(kept in [NU, 1 - NU]), the class weights and the rates, whose ceiling
is LAMBDA_MAX.

Each fit is an unbounded L-BFGS-B search, run by minimize: a short loop
that calls scipy's own L-BFGS-B step routine
(scipy.optimize._lbfgsb.setulb) exactly as
scipy.optimize.minimize(method="L-BFGS-B", jac=True) does, so the fits
end on the same points after the same evaluations.  scipy's loop wraps
each evaluation in its ScalarFunction and MemoizeJac layers, which cost
about as much as the fits' own objective kernels; this loop does not.
The routine is private to scipy and takes its current arguments from
scipy 1.15 on, the floor pyproject.toml sets;
tests/test_minimize_oracle.py pins the loop to scipy.optimize.minimize.

A fit's starts run in lockstep, and minimize takes them in one shape: a
tuple of (S, n) blocks, one block per model, whose widths may differ.
fit_starts hands it a block of starts per model, minimize keeps one
setulb state per start, and in each round the starts that ask for a new
point are evaluated by one call of the objective on the tuple of each
block's asking points.  The count-mixture kernel, whose cost is mostly
per call, pays that cost once per round instead of once per start, and
the fits of several histograms or class counts, or of several designs
of one head kind, share it: an AIC selection fits G = 1..g_max as one
search, whose FitResults select_aic takes in G order.  Within a call,
every step of the kernel runs as one array pass over all its rows,
with the bits that a loop over each row's Python floats gives (math.exp
and math.log included; see count_objective).  Each start still ends on
the point, after the evaluations and iterations, that its own search
would give (for histograms and padded classes, see count_objective),
and minimize reports the evaluations and iterations as sums over its
starts.

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
import math
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
    "MAX_ITER",
    "N_STARTS",
    "CountHistogram",
    "MixtureParams",
    "FitResult",
    "SelectionResult",
    "best_end",
    "check_class_count",
    "comp_pmf",
    "count_objective",
    "fit_starts",
    "minimize",
    "mix_pmf",
    "split_counts",
    "select_aic",
    "result_document",
    "logit",
    "interval_from_real",
    "real_from_interval",
    "stick_break",
    "stick_break_inverse",
    "stick_break_vjp",
]


FTOL = 1e-9
GTOL = 1e-7
JITTER = 0.3
JITTER_SEED = 0
NU = 1e-4
LAMBDA_MAX = 100.0
MAX_ITER = 1000
N_STARTS = 5


# The weight term of a class that its row lacks: the exponents it enters
# are at most this, so exp gives an exact zero (see count_objective).
_PAD_LOG = -1e4


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
    AIC charges.
    """

    params: object
    loglik: float
    init_loglik: float
    converged: bool
    n_iter: int
    tau: int
    n_params: int


@dataclass(frozen=True)
class SelectionResult:
    """AIC model selection outcome."""

    g_hat: int
    fit: FitResult
    trace: list = field(default_factory=list)


def minimize(fun, x0s, *, jac, method, options):
    """Unbounded L-BFGS-B from each row of each (S, n) block of the
    tuple x0s, in lockstep, bit for bit as scipy.optimize.minimize runs
    it from that row alone.

    Takes what scipy.optimize.minimize takes for method="L-BFGS-B" and
    jac=True without bounds or args, with the options maxiter, ftol and
    gtol, and refuses anything else.  The loop is the
    reverse-communication loop of scipy's L-BFGS-B around its step
    routine setulb, with scipy's maxcor 10, maxls 20 and maxfun 15000,
    minus the ScalarFunction and MemoizeJac wrappers that scipy puts
    around each evaluation.  setulb is private and takes these arguments
    from scipy 1.15 on; tests/test_minimize_oracle.py pins the loop to
    scipy.optimize.minimize.

    The blocks' widths may differ, one block per model.  fun(Xs) takes
    the tuple of each block's asking rows (a block with none asking is
    empty) and returns the values of all of them, block by block, and
    the tuple of each block's gradients, as count_objective does.  Each
    row's search runs its own setulb state.  In each round every running
    search that asks for a new point joins one call of fun, and a
    finished search drops out; a search that asks again for the point it
    last evaluated gets that evaluation back, as scipy does, uncounted.
    So each row ends where scipy would end from it alone, after the same
    nfev and nit.  The result lists one scipy OptimizeResult per row in
    starts, block by block (as scipy.optimize.shgo lists its local
    minima), each with x, fun, jac, nfev, nit and success, and gives
    nfev and nit summed over the rows.

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
    blocks = [np.array(b, dtype=np.float64) for b in x0s]
    if any(b.ndim != 2 for b in blocks):
        raise ValueError("x0s must be a tuple of (S, n) blocks of starts")
    searches = [_Search(x, m, b) for b, starts in enumerate(blocks)
                for x in starts]
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
            rows = [[] for _ in blocks]
            for s in asking:
                rows[s.block].append(s)
            X = [np.array([s.x for s in ask]) if ask
                 else np.empty((0, b.shape[1]))
                 for ask, b in zip(rows, blocks)]
            values, grads = fun(tuple(X))
            values = iter(values)
            for ask, points, block_grads in zip(rows, X, grads):
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


class _Search:
    """The L-BFGS-B state of one start: its block, setulb's all-zero
    (lower, upper, nbd) box, which leaves every coordinate free, its work
    arrays, the point, the last evaluation and the counts."""

    __slots__ = ("x", "block", "box", "f", "g", "wa", "iwa", "task",
                 "ln_task", "lsave", "isave", "dsave", "x_eval", "grad",
                 "nfev", "nit")

    def __init__(self, x0, m, block):
        n = x0.size
        self.x = x0.copy()
        self.block = block
        self.box = np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
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


def _integers(values, what):
    """values as an int64 array, refused unless each is an integer or an
    integral float: truncating 1.5 or a NaN would count what was not
    seen."""
    arr = np.asarray(values)
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            integral = (arr == np.trunc(arr)) & (np.abs(arr) < 2.0 ** 63)
        if integral.all():
            return arr.astype(np.int64)
    raise ValueError(f"histogram {what} must be finite integers")


@dataclass(frozen=True)
class CountHistogram:
    """Multiplicities of observed count vectors: the distinct vectors as
    the rows of a (k, m) key matrix, in lexicographic order, and how
    often each was seen.  The univariate model reads width m = 1, the
    multivariate model one cell per agreement pattern."""

    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        keys = _integers(self.keys, "keys")
        counts = _integers(self.counts, "counts")
        if (keys.ndim != 2 or not keys.shape[1] or not counts.size
                or counts.shape != keys.shape[:1]):
            raise ValueError(f"histogram needs a non-empty (k, m) key matrix "
                             f"and k counts; got shapes {keys.shape} and "
                             f"{counts.shape}")
        if np.any(keys < 0) or np.any(counts <= 0):
            raise ValueError("histogram needs count vectors >= 0 and "
                             "positive multiplicities")
        order = np.lexsort(keys.T[::-1])
        keys, counts = keys[order], counts[order]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            raise ValueError("histogram keys must be unique")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_observations(cls, count_matrix):
        """The histogram of the rows of an (n, m) count matrix, as
        ``np.unique(axis=0, return_counts=True)`` gives them.

        Rows of small non-negative counts are counted by np.bincount of
        one mixed-radix code per row (radix the column maximum + 1, the
        first column most significant, so codes sort as rows do); others
        go through np.unique itself.
        """
        mat = _integers(count_matrix, "observations")
        if mat.ndim != 2:
            raise ValueError(f"observations must be an (n, m) matrix, one "
                             f"count vector per row; got shape {mat.shape}")
        radix = [int(v) + 1 for v in mat.max(axis=0, initial=0)]
        # the counting array stays within a small multiple of the input
        if mat.min(initial=0) >= 0 and math.prod(radix) <= 16 * mat.size:
            counts = np.bincount(np.ravel_multi_index(mat.T, radix))
            codes = np.flatnonzero(counts)
            return cls(np.stack(np.unravel_index(codes, radix), axis=1),
                       counts[codes])
        return cls(*np.unique(mat, axis=0, return_counts=True))

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def width(self):
        return self.keys.shape[1]


@dataclass(frozen=True)
class MixtureParams:
    """G-class count-mixture parameters over m cells in canonical class
    order: the weights alpha, and p and lam, G x m, each class's
    true-positive cells and false-positive rates (m = 1 for the
    univariate model).  Classes sort by rate row, then p row, then
    weight, rows compared lexicographically.  Fits share the cells
    across the classes, and the multivariate fits store their log-linear
    (phi, u); params that carry phi must share the cells.  Hand-built
    params may leave phi unset, which coverage_from_fit and
    multi_fit_document refuse.  Weights must be positive and sum to one,
    each class's cells be >= 0 and sum to at most one, and rates be
    positive and finite; NaN meets none of these.
    """

    alpha: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    phi: Optional[float] = None
    u: Optional[np.ndarray] = None
    u_labels: Optional[tuple] = None

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        p = np.atleast_2d(np.asarray(self.p, dtype=float))
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        if (alpha.ndim != 1 or p.ndim != 2 or p.shape[0] != alpha.size
                or lam.shape != p.shape):
            raise ValueError("parameter arrays inconsistent with G x cells")
        # each check reads "not (within bounds)", which NaN fails
        if not (abs(alpha.sum() - 1.0) <= 1e-9 and np.all(alpha > 0)):
            raise ValueError("invalid mixing weights")
        if not (np.all(p >= 0) and np.all(p.sum(axis=1) <= 1.0 + 1e-12)):
            raise ValueError("true-positive cells must be >= 0, summing <= 1")
        if not np.all((lam > 0) & (lam < np.inf)):
            raise ValueError("false-positive rates must be positive and "
                             "finite")
        if self.phi is not None and not np.allclose(p, p[0]):
            raise ValueError("log-linear params require shared p across "
                             "classes")
        order = np.lexsort((alpha, *p.T[::-1], *lam.T[::-1]))
        object.__setattr__(self, "alpha", alpha[order])
        object.__setattr__(self, "p", p[order])
        object.__setattr__(self, "lam", lam[order])

    @property
    def n_components(self):
        return self.alpha.size

    @property
    def p_bar(self):
        """alpha . |p|: the share of records with a true link."""
        return float(self.alpha @ self.p.sum(axis=1))

    @property
    def lambda_bar(self):
        """alpha . |lam|: the mean number of false links per record."""
        return float(self.alpha @ self.lam.sum(axis=1))


def comp_pmf(t, p, lam):
    """One class's pmf at the count vector t, or at each row of a (k, m)
    matrix t: at most one true positive, in cell g with probability p_g,
    plus independent Poisson(lam_g) counts.  Evaluates
    (1-|p|) prod Pois(t_g) + sum_g p_g Pois(t_g - 1) prod', written as
    prod Pois(t_g) * [(1-|p|) + sum_g p_g t_g / lambda_g]; the two forms
    agree for every t including |t| = 0 and |t| = 1.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("all rates must be positive")
    if np.any(p < 0) or p.sum() > 1.0 + 1e-12:
        raise ValueError("cell probabilities must be >= 0 with sum <= 1")
    t = np.asarray(t, dtype=float)
    log_a = (t @ np.log(lam) - lam.sum()
             - scipy.special.gammaln(t + 1.0).sum(axis=-1))
    out = np.exp(log_a) * ((1.0 - p.sum()) + (t / lam) @ p)
    return float(out) if out.ndim == 0 else out


def mix_pmf(t, params):
    """The mixture pmf of params at the count vector t, or at each row
    of a (k, m) matrix t."""
    return sum(a * comp_pmf(t, p, lam)
               for a, p, lam in zip(params.alpha, params.p, params.lam))


def split_counts(keys, counts, tau):
    """The (k, m) count vectors keys with |t| <= tau, their summed log
    factorials, their multiplicities and the tail count (for a count
    matrix, a row and a count per block).  Refuses a cap tau below 1,
    which leaves the true-positive cells unidentified."""
    if tau < 1:
        raise ValueError("tau must be at least 1")
    low = keys.sum(axis=1) <= tau
    low_keys = keys[low].astype(float)
    return (low_keys, scipy.special.gammaln(low_keys + 1.0).sum(axis=1),
            counts[..., low].astype(float),
            counts[..., ~low].sum(axis=-1).astype(float).tolist())


def count_objective(keys, counts, tau, gs, designs):
    """The objective of count-mixture fits to the distinct (k, m) count
    vectors keys, seen counts[b] times each by block b's histogram (rows
    of one total): a block kernel on a tuple of blocks, block b's rows
    laid out for gs[b] classes and the head designs[b]: X -> (the
    negative mean capped log-likelihood at each row x of each block,
    block by block, and the tuple of the blocks' analytic gradients; see
    minimize).  Each row gets the bits that the kernel gives it alone on
    its own histogram at its own class count, so the fits of several
    heads, histograms or class counts can share each call.  Two layouts
    keep those bits only as far as they were measured (OpenBLAS 0.3.31,
    its Haswell kernel): zeros for keys that a block's histogram lacks
    up to 14 keys at or below tau, and classes padded to max(gs), below,
    at every support tried (up to 300 keys) for m = 7 but up to 15 keys
    at or below tau for m = 1; both hold at tau = 10.  Past them, a fit
    may match its own only to the search's tolerance, as may one of 4 or
    more classes at m = 1 padded to 8 or more, whose class sums numpy's
    pairwise summation regroups.

    A row is [weight logits | head | rate reals].  Class c gives a count
    vector t with |t| <= tau the mass alpha_c a_c times the bracket
    1 - |p| + t . p / lam_c, a_c = prod_gamma Pois(t_gamma; lam_c,gamma);
    the vectors above tau pool into one tail cell.  The classes share
    the true-positive cells p, which the head gives: for a log-linear
    design Z (the multivariate model), [logit phi | u] gives
    p = phi * softmax(Z u) over the m cells and a zero cell; for None
    (the univariate model, m = 1), one logit x gives
    p = NU + (1 - 2 NU) sigma(x).  A kernel has one head kind: designs
    holds a design for every block or None for every block, and a tuple
    that mixes them is refused.

    It holds the per-fit constants: the columns [t | 1 | log t!] of the
    count vectors with |t| <= tau, contiguous and transposed, their
    multiplicities, log NU and the log-span of the rates.  Every row is
    laid out with G = max(gs) classes.  A class that its row lacks gets
    the weight logistic 1.0 (so the row's last piece is the stick left
    and the later pieces are 0), the rates NU and a weight term of
    _PAD_LOG, a finite log so far below exp's range that its mass is an
    exact zero (an infinite one would turn 0 * inf into NaN inside the
    products), so it adds zeros to every class sum.

    Every step runs as one array pass over all rows of a call.  One
    scatter copies the blocks' rows into an (S, width) input of [-inf |
    weight logits | +inf | head logit | rate reals | u], whose padded
    logits are +inf and padded rate reals -inf, and one logistic of it
    gives the weight logistics (between a 0.0 and a 1.0), the head and
    the rate logistics; the logistic saturates where exp(-x) would
    overflow.  The
    weights break the stick column by column (see _stick_rows), and the
    head, the log weights, the tail and the stick's gradient
    (_stick_rows_vjp) follow as arrays; the gradient is laid out as the
    input, and one gather gives each block's.  Only the log-linear
    products eta = Z u and Z^T (dl/d eta) run per block.  These steps
    keep the bits that the earlier kernel's per-row Python floats gave
    (tests/test_objective_oracle.py holds that kernel): every expression
    keeps Python's order of operations; a sum over cells or classes adds
    column by column (np.add.accumulate), as Python's sum does up to
    3.11, because numpy's sum(axis=...) groups 8 or more terms
    differently; exp and log are math.exp and math.log mapped over flat
    lists, because np.exp differs from math.exp in 46,756 of 10^6 values
    uniform on [-20, 0], and np.log from math.log in 3,591 of 10^6
    uniform on [1e-4, 1] (numpy 2.4 on AVX-512); the tail's terms enter
    only the rows with a tail (adding 0.0 turns -0.0 into 0.0).

    The per-row constants of a row layout, the tuple of the blocks'
    shapes, and its pre-padded input are built when a call's layout
    differs from the last call's (_Rows), and only the last is kept: a
    search's starts leave it one by one, so its rows per block never
    grow back after the first round, and the three searches of an N=100k
    scenario-3 replication build each of their 13, 36 and 28 layouts
    once.  Keeping every layout would hold up to 0.3 MB in each search
    until it ends.

    Per call, one stacked product of the (S, 2G, m + 2) coefficient
    block with the transposed columns gives, for each row and class, the
    exponents of alpha_c a_c (the weight enters as log alpha_c) and the
    bracket.  [alpha a | alpha mix] fill one (S, 2G, k) block; q is the
    class sum of its mix rows, floored at 1e-300 as the tail mass is,
    and one stacked product of the w-weighted block with the columns
    gives the four weighted sums of the gradient (a zero count adds
    zeros).  Every product is stacked, one 2-D product per row, on
    contiguous count rows, because one flat product of all rows, or a
    strided row, rounds differently.  Nothing of size k * G * m is
    formed.  A call costs mostly its fixed overhead: on the 155 distinct
    vectors of one N=100k scenario-3 replication, one block at G = 3 and
    m = 7 takes 80-85 us on one row, 120 us on five and 145-160 us on
    ten, where the per-row Python loop took 70-75, 130 and 200-215 us
    (2-vCPU VM, one BLAS thread, the two timed alternately, two runs).
    """
    totals = np.sum(counts, axis=-1)
    if np.shape(counts) != (len(designs), len(keys)) or np.ptp(totals):
        raise ValueError(f"need one count row per block over the keys, of "
                         f"one total; got {np.shape(counts)}, {totals}")
    if len(gs) != len(designs):
        raise ValueError(f"need one class count per block; got {len(gs)} "
                         f"for {len(designs)} blocks")
    loglinear = designs[0] is not None
    if any((design is not None) != loglinear for design in designs):
        raise ValueError("need one head kind per kernel: a log-linear "
                         "design for every block or None for every block")
    keys, log_fact, cnts, tail_counts = split_counts(keys, counts, tau)
    k, m = keys.shape
    total = float(totals[0])
    cols = np.empty((k, m + 2))
    cols[:, :m] = keys
    cols[:, m] = 1.0
    cols[:, m + 1] = log_fact
    cols_t = np.ascontiguousarray(cols.T)
    cols = np.ascontiguousarray(cols[:, :m + 1])
    # per row, rows [log lam_c | log alpha_c - |lam_c| | -1] for c < G,
    # then [p / lam_c | 1 - |p| | 0], and the (2G, k) block of
    # [alpha a | alpha mix]; views[S] holds the first S rows of buffers
    # made for the largest call so far
    g = max(gs)
    nu = NU
    # per block: its classes, weight logits and head end
    layouts = [(gb, gb - 1, gb + (0 if design is None else design.shape[1]))
               for gb, design in zip(gs, designs)]
    # a row of block b, [weight logits | head logit | u | rate reals],
    # goes to places[b] of the (S, width) input and gradient rows
    # [-inf | weight logits | +inf | head logit | rate reals | u]
    u_at = g + 2 + g * m
    row_places = [np.concatenate([
        1 + np.arange(n_alpha), [g + 1],
        u_at + np.arange(n_head - n_alpha - 1), g + 2 + np.arange(gb * m)])
        for gb, n_alpha, n_head in layouts]
    widths = np.array([row.size for row in row_places])
    places = np.zeros((len(layouts), widths.max()), np.int64)
    for row, place in zip(places, row_places):
        row[:place.size] = place
    width = u_at + max(n_head - n_alpha - 1 for _, n_alpha, n_head in layouts)
    block_gs = np.array(gs)
    # each block's input row before its values go in: the -inf and +inf
    # around every row's weight logits, padded logits at +inf, padded
    # rate reals at -inf
    pad_rows = np.zeros((len(layouts), width))
    for row, gb in zip(pad_rows, gs):
        row[0] = -np.inf
        row[gb:g + 1] = np.inf
        row[g + 2 + gb * m:u_at] = -np.inf
    empty_grads = [np.empty((0, n_head + gb * m))
                   for gb, _, n_head in layouts]
    views = []
    # the row layout of the last call and its _Rows
    last = [None, None]

    def grow(n_rows):
        coef = np.zeros((n_rows, 2 * g, m + 2))
        coef[:, :g, m + 1] = -1.0
        a_mix = np.empty((n_rows, 2 * g, k))
        views[:] = [(coef[:i], a_mix[:i]) for i in range(n_rows + 1)]

    log_lo = math.log(nu)
    span = math.log(LAMBDA_MAX) - log_lo
    log_fact_tau = math.lgamma(tau + 1.0)
    expit, pdtr = scipy.special.expit, scipy.special.pdtr
    exp, log = math.exp, math.log

    def objective(blocks):
        shapes = tuple([block.shape for block in blocks])
        if shapes != last[0]:
            last[:] = shapes, _Rows(shapes, block_gs, pad_rows, places,
                                    widths, tail_counts)
        rows = last[1]
        n_rows = rows.n
        if n_rows >= len(views):
            grow(n_rows)
        coef, a_mix = views[n_rows]
        x_in = rows.x
        x_in.put(rows.at, np.concatenate(blocks, axis=None))
        sig = expit(x_in)
        v, sp, sig_lam = sig[:, :g + 1], sig[:, g + 1], sig[:, g + 2:u_at]
        rests, pieces = _stick_rows(v)
        alpha = nu + rows.scale * pieces
        log_lam = np.add(log_lo, span * sig_lam.reshape(n_rows, g, m),
                         out=coef[:, :g, :m])
        lam = np.exp(log_lam)
        lam_sum = np.add.reduce(lam, axis=2)
        # the head logit's gradient is (dl/dp . r) times slope (1 - sp):
        # the softmax r and slope phi for a design, r = 1 and slope
        # (1 - 2 nu) sigma for None
        if loglinear:
            eta = np.empty((n_rows, m + 1))
            for b, lo, hi, _, _ in rows.filled:
                _, n_alpha, n_head = layouts[b]
                eta[lo:hi, :m] = np.matmul(
                    designs[b], blocks[b][:, n_alpha + 1:n_head, None]
                )[:, :, 0]
            mx = np.maximum.reduce(eta[:, :m], axis=1, initial=0.0)
            eta[:, :m] -= mx[:, None]
            np.negative(mx, out=eta[:, m])
            # [exp(eta - mx) | exp(-mx)], whose running sum ends on
            # exp(-mx) + sum(exp(eta - mx))
            e = np.fromiter(map(exp, eta.ravel().tolist()), float,
                            eta.size).reshape(eta.shape)
            r = e[:, :m] / np.add.accumulate(e, axis=1)[:, m:]
            p = sp[:, None] * r
            slope = sp
        else:
            r = np.ones(n_rows)
            p = nu + (1.0 - 2.0 * nu) * sp
            slope = (1.0 - 2.0 * nu) * sp
        r = r.reshape(n_rows, m, 1)
        p = p.reshape(n_rows, 1, m)
        psum = np.add.reduce(p, axis=2)
        log_terms = np.subtract(
            np.fromiter(map(log, alpha.ravel().tolist()), float,
                        alpha.size).reshape(alpha.shape),
            lam_sum, out=coef[:, :g, m])
        if rows.pad is not None:
            np.copyto(log_terms, _PAD_LOG, where=rows.pad)
        coef[:, g:, m] = 1.0 - psum
        np.divide(p, lam, out=coef[:, g:, :m])
        expo = np.matmul(coef, cols_t)
        a = np.exp(expo[:, :g], out=a_mix[:, :g])
        mix = np.multiply(a, expo[:, g:], out=a_mix[:, g:])
        q = np.add.reduce(mix, axis=1)
        np.maximum(q, 1e-300, out=q)
        row_cnts = cnts.take(rows.block, axis=0)
        w = row_cnts / q
        ll = np.matmul(row_cnts[:, None, :], np.log(q, out=q)[:, :, None]
                       ).ravel()
        # sums[., c, gamma] = alpha_c sum_k w [a | mix]_c t_gamma, and in
        # column m alpha_c sum_k w [a | mix]_c
        sums = np.matmul(np.multiply(a_mix, w[:, None, :], out=a_mix), cols)
        # dq/dp = alpha a (t/lam - 1); dq/dlam = alpha (mix (t/lam - 1)
        # - a p t / lam^2); ratios[:, 0] is wat = sums[:, :g, :m] / lam
        ratios = sums[:, :, :m].reshape(n_rows, 2, g, m) / lam[:, None]
        diffs = ratios - sums[:, :, m:].reshape(n_rows, 2, g, 1)
        d_p = diffs[:, 0]
        d_lam = diffs[:, 1] - p * ratios[:, 0] / lam
        d_alpha = sums[:, g:, m] / alpha
        at = rows.tail
        if at is not None:
            n_tail, ls, ps, alpha_t = (rows.n_tail, lam_sum[at], psum[at],
                                       alpha[at])
            cdf_t, cdf_tm1 = pdtr(tau, ls), pdtr(tau - 1, ls)
            below = (1.0 - ps) * cdf_t + ps * cdf_tm1
            terms = alpha_t * below
            if rows.tail_pad is not None:
                np.copyto(terms, 0.0, where=rows.tail_pad)
            T = np.maximum(1.0 - np.add.accumulate(terms, axis=1)[:, g - 1:],
                           1e-300)
            logs = np.fromiter(
                map(log, ls.ravel().tolist() + T.ravel().tolist()), float,
                ls.size + T.size)
            ll[at] += n_tail[:, 0] * logs[ls.size:]
            wt = n_tail / T
            pmf_t = np.fromiter(
                map(exp, (tau * logs[:ls.size].reshape(ls.shape) - ls
                          - log_fact_tau).ravel().tolist()),
                float, ls.size).reshape(ls.shape)
            d_alpha[at] -= wt * below
            tail_p = wt * (alpha_t * (cdf_t - cdf_tm1))
            tail_lam = wt * (alpha_t * ((1.0 - ps) * pmf_t
                                        + ps * pmf_t * tau / ls))
            if rows.tail_pad is not None:
                np.copyto(tail_p, 0.0, where=rows.tail_pad)
                np.copyto(tail_lam, 0.0, where=rows.tail_pad)
            d_p[at] += tail_p[:, :, None]
            d_lam[at] += tail_lam[:, :, None]

        # chain rules, into one (S, width) gradient laid out as x_in
        dldp = np.add.reduce(d_p, axis=1, keepdims=True)
        dldr = np.matmul(dldp, r)
        out = np.empty(x_in.shape)
        d_weights = _stick_rows_vjp(v, rests, pieces, d_alpha, rows.pad,
                                    out=out[:, 1:g])
        np.multiply(d_weights, rows.scale, out=d_weights)
        np.multiply(dldr[:, 0, 0] * slope, 1.0 - sp, out=out[:, g + 1])
        np.multiply(d_lam.reshape(n_rows, -1),
                    lam.reshape(n_rows, -1) * span * sig_lam * (1.0 - sig_lam),
                    out=out[:, g + 2:u_at])
        if loglinear:
            d_cells = p * (dldp - dldr)
            for b, lo, hi, _, _ in rows.filled:
                np.matmul(d_cells[lo:hi], designs[b], out=out[
                    lo:hi, None, u_at:u_at + designs[b].shape[1]])
        flat = out.take(rows.at)
        np.divide(flat, -total, out=flat)
        # an empty block's gradient is a shared (0, n) array
        grads = list(empty_grads)
        for b, _, _, lo, hi in rows.filled:
            grads[b] = flat[lo:hi].reshape(blocks[b].shape)
        return (-ll / total).tolist(), tuple(grads)

    return objective


class _Rows:
    """The constants of one row layout of a count_objective call, the
    tuple of its blocks' shapes, which it refuses unless each block is
    (S_b, n_b) with block b's width n_b: each block with rows, its row
    bounds and the bounds of its elements in the call (filled), and the
    elements' places (at) in the (S, width) input and gradient; per row
    its block, the weight scale 1 - G_b NU and the padded classes (pad,
    None when no row has one); the rows with a tail cell (tail: None,
    every row, or their indices), with their tail counts and padded
    classes; and the input x, its padding set, whose values each call of
    the layout fills in."""

    __slots__ = ("n", "filled", "at", "block", "scale", "pad", "tail",
                 "n_tail", "tail_pad", "x")

    def __init__(self, shapes, gs, pad_rows, places, widths, tail_counts):
        if [shape[1:] for shape in shapes] != [(w,) for w in widths]:
            raise ValueError(f"need blocks of shapes (S, n) with widths "
                             f"{widths.tolist()}; got {shapes}")
        sizes = tuple(shape[0] for shape in shapes)
        g = gs.max()
        width = pad_rows.shape[1]
        self.n = n = sum(sizes)
        bounds = np.cumsum((0,) + sizes).tolist()
        ends = np.cumsum([0, *(np.array(sizes) * widths)]).tolist()
        self.filled = [(b, bounds[b], bounds[b + 1], ends[b], ends[b + 1])
                       for b, size in enumerate(sizes) if size]
        self.block = block = np.repeat(np.arange(len(sizes)), sizes)
        self.at = (np.arange(n)[:, None] * width + places[block])[
            np.arange(places.shape[1]) < widths[block][:, None]]
        row_g = gs[block][:, None]
        self.scale = 1.0 - row_g * NU
        pad = np.arange(g) >= row_g
        self.pad = pad if pad.any() else None
        row_tails = np.repeat(tail_counts, sizes)
        with_tail = np.flatnonzero(row_tails)
        self.tail = (None if not with_tail.size else
                     slice(None) if with_tail.size == n else with_tail)
        self.n_tail = row_tails[with_tail][:, None]
        self.tail_pad = None if self.pad is None else pad[with_tail]
        self.x = pad_rows.take(block, axis=0)


def best_end(ends):
    """The first of the searches' ends with the lowest fun; a NaN fun
    ranks below every number."""
    return min(ends, key=lambda end: (np.isnan(end.fun), end.fun))


def fit_starts(minimize, objective, x0s, total, tau, params_ats, salt=()):
    """Fit each model by L-BFGS-B from its start in x0s and N_STARTS - 1
    jittered copies of it; the tuple of the models' FitResults.

    objective(Xs) takes a tuple of blocks, one per model, and gives, at
    each row x of each block, the negative mean log-likelihood of total
    observations and its gradient (see minimize); start s > 0 adds
    JITTER times normals seeded by (JITTER_SEED, *salt, s).  The search
    stops by FTOL, GTOL and MAX_ITER; N_STARTS and MAX_ITER are read
    when the fit runs.  Each model's starts go to minimize as one block,
    so the starts of every model run in one lockstep; a later start
    replaces the best so far only with a strictly lower value (see
    best_end), and the model's entry of params_ats maps its best end
    point to the model.  Each FitResult is the one that the model's fit
    alone gives.  minimize is the one the calling module names (see
    minimize).  tau is the cap of the fitted counts, which the objective
    refuses below 1.
    """
    init_values = objective(tuple(x[None] for x in x0s))[0]
    blocks = []
    for x in x0s:
        starts = [x]
        for start in range(1, N_STARTS):
            jrng = np.random.default_rng([JITTER_SEED, *salt, start])
            starts.append(x + JITTER * jrng.standard_normal(x.size))
        blocks.append(np.array(starts))
    res = minimize(
        objective, tuple(blocks), jac=True, method="L-BFGS-B",
        options={"maxiter": MAX_ITER, "ftol": FTOL, "gtol": GTOL},
    )
    fits = []
    for i, (x, at, init_value) in enumerate(zip(x0s, params_ats,
                                                init_values)):
        best = best_end(res.starts[i * N_STARTS:(i + 1) * N_STARTS])
        fits.append(FitResult(
            params=at(best.x),
            loglik=float(-best.fun * total),
            init_loglik=float(-init_value * total),
            converged=bool(best.success),
            n_iter=int(best.nit),
            tau=tau,
            n_params=x.size,
        ))
    return tuple(fits)


def select_aic(fits):
    """Keep the AIC minimizer of fits, the FitResults of G = 1, 2, ...
    in order (ties -> smallest G); AIC charges each fit its n_params."""
    trace = []
    best = None
    for g, res in enumerate(fits, start=1):
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


def _stick_rows(v):
    """Stick-breaking of each row of v, the (S, G + 1) logistics of
    [-inf | G - 1 logits | +inf], that is [0 | v_1 .. v_G-1 | 1], column
    by column as a loop over one row's floats runs it: (rests, pieces),
    rests[:, c] the stick left before break c and the pieces
    v[:, 1:] * rests (summing to one per row); stick_break is
    floor + (1 - G floor) * pieces.  A row whose later logistics are 1.0
    ends its stick there: its pieces after that column are 0."""
    rests = np.multiply.accumulate(1.0 - v[:, :-1], axis=1)
    return rests, v[:, 1:] * rests


def _stick_rows_vjp(v, rests, pieces, grad, pad=None, out=None):
    """Pull a gradient w.r.t. the pieces of _stick_rows back to the
    logits behind v, row by row, as a loop over one row's floats runs it;
    v, rests and pieces are as _stick_rows takes and gives them; pad
    marks the pieces after each row's last (None for none), whose
    entries of the result mean nothing.

    Uses d piece_h / dx_h = rest_h v_h (1 - v_h) and, for i > h,
    d piece_i / dx_h = -piece_i v_h: the pull to x_h is
    grad_h rest_h v_h (1 - v_h) - v_h later_h, where later_h sums
    grad_i piece_i over i > h from the last piece down.
    """
    v = v[:, 1:-1]
    later = grad * pieces
    if pad is not None:
        # -0.0 adds nothing to any sum, -0.0 included
        np.copyto(later, -0.0, where=pad)
    later = np.add.accumulate(later[:, :0:-1], axis=1)[:, ::-1]
    d_v = grad[:, :-1] * rests[:, :-1]
    d_v *= v
    d_v *= 1.0 - v
    return np.subtract(d_v, v * later, out=out)


def _stick_row(x):
    """(v, rests, pieces) of _stick_rows for the one row of logits x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.ones((1, x.size + 2))
    v[0, 0] = 0.0
    v[0, 1:-1] = scipy.special.expit(x)
    return (v, *_stick_rows(v))


def stick_break(x, floor=0.0):
    """Map G-1 free logits to a point of the G-simplex.

    With a positive floor the weights live in [floor, 1] and still sum
    to one; floor * G must stay below 1.
    """
    pieces = _stick_row(x)[2][0]
    return floor + (1.0 - pieces.size * floor) * pieces


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
    v, rests, pieces = _stick_row(x)
    grad = np.asarray(grad_s, dtype=float)[None]
    return _stick_rows_vjp(v, rests, pieces, grad)[0]
