"""Multivariate mixture model for pattern-indexed link counts.

A record's links are counted per agreement pattern of three binary rule
groups, one cell for each of the seven nonzero patterns (PATTERNS).
Each latent class contributes an incomplete-multinomial true-positive
vector (at most one TP overall, cell probabilities p^(gamma)) convolved
with independent Poisson false-positive counts per cell.  The fits
constrain the true-positive cells, shared by every class, through a
log-linear design with a coverage factor, p = phi * softmax(Z u):
without interactions (LogLinear(1)) or with 2nd-order interactions
(LogLinear(2)).  The fitted coverage phi is the estimator of
P(i in S_A).

The fits run the count-mixture kernel of ``_optim`` (count_objective),
built once per class count, with the log-linear head of their design.
It is a block kernel: one call evaluates the points of all the starts
that the lockstep search asks for in a round, and gives each the bits
it would get alone.  select_G_multi, given both interaction orders,
fits them together at each G, so one call takes the asking points of
both, each laid out for its own design.  The starts, the result types,
the AIC selection and the JSON document come from the same fit engine.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

from ._optim import (
    LAMBDA_MAX,
    NU,
    FitOptions,
    check_class_count,
    count_objective,
    fit_starts,
    interval_from_real,
    real_from_interval,
    logit,
    minimize,
    one_block,
    result_document,
    row_loop,
    select_aic,
    split_counts,
    stick_break,
    stick_break_inverse,
    stick_break_vjp,
)
from .neighbor_uni import CountHistogram, select_G
from .popsim import PATTERNS as _ALL_PATTERNS

__all__ = [
    "PATTERNS",
    "DesignMatrix",
    "MultiMixtureParams",
    "MultiCountHistogram",
    "LogLinear",
    "build_design",
    "loglinear_probs",
    "multi_comp_pmf",
    "multi_mix_pmf",
    "marginal_histogram",
    "single_class_p_hat",
    "appendix_c_start",
    "init_appendix_c",
    "fit_multi",
    "select_G_multi",
    "coverage_from_fit",
    "sample_multi_counts",
    "multi_fit_document",
]


# The seven nonzero agreement patterns of three binary rule groups, in
# lexicographic order: the cells of a count vector (pattern_counts
# without its all-disagree column) and the rows of a design.
PATTERNS = _ALL_PATTERNS[1:]


@dataclass(frozen=True)
class DesignMatrix:
    """Dummy-coded covariate rows z^(gamma) for a log-linear p model."""

    Z: np.ndarray
    labels: tuple


def build_design(d):
    """Main effects plus interactions up to order d, dummy coded.

    Columns: the main terms u_k(1) for k = 1..3, then for d = 2 the
    pairwise terms u_kl(11) for the group pairs in lexicographic order.
    Row gamma holds 1 where every group of the term agrees in gamma.
    """
    if not 1 <= d <= 2:
        raise ValueError(f"interaction order d={d} outside 1..2")
    terms = [combo for t in range(1, d + 1)
             for combo in itertools.combinations(range(3), t)]
    Z = np.array([[1.0 if all(g[k] for k in combo) else 0.0
                   for combo in terms] for g in PATTERNS])
    labels = tuple("u_" + "".join(str(k + 1) for k in combo)
                   + "(" + "1" * len(combo) + ")" for combo in terms)
    return DesignMatrix(Z=Z, labels=labels)


def loglinear_probs(phi, u, design):
    """True-positive cell probabilities phi * softmax(Z u) over PATTERNS.

    The implicit zero pattern carries the remaining softmax mass, so
    sum(p) = phi * (1 - r0) < phi.
    """
    if not 0 < phi <= 1:
        raise ValueError("coverage must lie in (0, 1]")
    eta = design.Z @ np.asarray(u, dtype=float)
    m = max(0.0, float(eta.max()))
    denom = np.exp(-m) + np.exp(eta - m).sum()
    return phi * np.exp(eta - m) / denom


@dataclass(frozen=True)
class LogLinear:
    """Log-linear constraint on the shared true-positive cells: main
    effects only (d=1), or with their 2nd-order interactions (d=2)."""

    d: int = 2

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"interaction order d={self.d!r} must be 1 or 2")


@dataclass(frozen=True)
class MultiMixtureParams:
    """Multivariate mixture parameters in canonical class order.

    Classes sort by lexicographic comparison of their rate vectors.  p
    and lam are G x m, with one column per cell; fits give m = 7, one
    per pattern.  Fits also store the log-linear (phi, u), and params
    that carry phi must give every class the same true-positive cells.
    Hand-built params may leave phi unset, which coverage_from_fit and
    multi_fit_document refuse.
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
        if p.shape[0] != alpha.size or lam.shape != p.shape:
            raise ValueError("parameter arrays inconsistent with G x cells")
        if abs(alpha.sum() - 1.0) > 1e-9 or np.any(alpha <= 0):
            raise ValueError("invalid mixing weights")
        if np.any(p < 0) or np.any(p.sum(axis=1) > 1.0 + 1e-12):
            raise ValueError("true-positive cells must be >= 0, summing <= 1")
        if np.any(lam <= 0):
            raise ValueError("false-positive rates must be positive")
        if self.phi is not None and not np.allclose(p, p[0]):
            raise ValueError("log-linear params require shared p across "
                             "classes")
        order = sorted(range(alpha.size), key=lambda g: tuple(lam[g]))
        object.__setattr__(self, "alpha", alpha[order])
        object.__setattr__(self, "p", p[order])
        object.__setattr__(self, "lam", lam[order])

    @property
    def n_components(self):
        return self.alpha.size


@dataclass(frozen=True)
class MultiCountHistogram:
    """Multiplicities of observed count vectors."""

    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        keys = np.atleast_2d(np.asarray(self.keys, dtype=np.int64))
        counts = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        if keys.shape[0] != counts.size or counts.size == 0:
            raise ValueError("histogram needs matching non-empty arrays")
        if np.any(keys < 0) or np.any(counts <= 0):
            raise ValueError("invalid histogram contents")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_observations(cls, count_matrix):
        """Distinct rows in lexicographic order with their multiplicities,
        as ``np.unique(axis=0, return_counts=True)`` gives them.

        Rows of small non-negative counts are counted by np.bincount of
        one mixed-radix code per row (radix the column maximum + 1, the
        first column most significant, so codes sort as rows do); others
        are sorted with np.lexsort.
        """
        mat = np.atleast_2d(np.asarray(count_matrix, dtype=np.int64))
        radix = [int(v) + 1 for v in mat.max(axis=0, initial=0)]
        # the counting array stays within a small multiple of the input
        if mat.min(initial=0) >= 0 and math.prod(radix) <= 16 * mat.size:
            counts = np.bincount(np.ravel_multi_index(mat.T, radix))
            codes = np.flatnonzero(counts)
            return cls(np.stack(np.unravel_index(codes, radix), axis=1),
                       counts[codes])
        rows = mat[np.lexsort(mat.T[::-1])]
        first = np.ones(rows.shape[0], dtype=bool)
        first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        starts = np.flatnonzero(first)
        return cls(rows[starts], np.diff(np.append(starts, rows.shape[0])))

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def width(self):
        return self.keys.shape[1]


def marginal_histogram(hist, coord):
    """Univariate histogram of one coordinate of the count vectors."""
    vals, inv = np.unique(hist.keys[:, coord], return_inverse=True)
    counts = np.zeros(vals.size, dtype=np.int64)
    np.add.at(counts, inv, hist.counts)
    return CountHistogram(vals, counts)


def multi_comp_pmf(t, p_vec, lambda_vec):
    """One-class PMF: incomplete multinomial * product of Poissons.

    Evaluates (1-|p|) prod Pois(t_g) + sum_g p_g Pois(t_g - 1) prod',
    written as prod Pois(t_g) * [(1-|p|) + sum_g p_g t_g / lambda_g];
    the two forms agree for every t including |t| = 0 and |t| = 1.
    """
    p = np.asarray(p_vec, dtype=float)
    lam = np.asarray(lambda_vec, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("all rates must be positive")
    if np.any(p < 0) or p.sum() > 1.0 + 1e-12:
        raise ValueError("cell probabilities must be >= 0 with sum <= 1")
    t = np.atleast_2d(np.asarray(t, dtype=float))
    log_a = (t @ np.log(lam) - lam.sum()
             - scipy.special.gammaln(t + 1.0).sum(axis=1))
    bracket = (1.0 - p.sum()) + (t / lam) @ p
    out = np.exp(log_a) * bracket
    return float(out[0]) if out.size == 1 else out


def multi_mix_pmf(t, params):
    """Mixture PMF at one or several count vectors."""
    t = np.atleast_2d(np.asarray(t, dtype=np.int64))
    out = np.zeros(t.shape[0])
    for g in range(params.n_components):
        out += params.alpha[g] * multi_comp_pmf(t, params.p[g], params.lam[g])
    return float(out[0]) if out.shape[0] == 1 else out


def sample_multi_counts(params, size, rng):
    """Draw count vectors from the generative model."""
    m = params.p.shape[1]
    g = rng.choice(params.n_components, size=size, p=params.alpha)
    out = np.empty((size, m), dtype=np.int64)
    for comp in range(params.n_components):
        sel = g == comp
        k = int(sel.sum())
        if not k:
            continue
        out[sel] = rng.poisson(params.lam[comp], size=(k, m))
        cell_p = np.append(params.p[comp], 1.0 - params.p[comp].sum())
        cells = rng.choice(m + 1, size=k, p=cell_p)
        rows = np.flatnonzero(sel)
        hit = cells < m
        out[rows[hit], cells[hit]] += 1
    return out


# ----------------------------------------------------------------- fitting

def _unpack_multi(x, g, design):
    """Parameters at x = [weight logits | logit phi | u | rate reals]."""
    n_alpha = g - 1
    n_head = n_alpha + 1 + design.Z.shape[1]
    alpha = stick_break(x[:n_alpha], floor=NU) if g > 1 else np.ones(1)
    phi = float(scipy.special.expit(x[n_alpha]))
    u = x[n_alpha + 1:n_head]
    eta = design.Z @ u
    mx = max(0.0, float(eta.max()))
    e = np.exp(eta - mx)
    p = phi * (e / (np.exp(-mx) + e.sum()))[None, :]
    lam, _ = interval_from_real(x[n_head:], NU, LAMBDA_MAX)
    return MultiMixtureParams(
        alpha=alpha, p=p.repeat(g, axis=0), lam=lam.reshape(g, -1), phi=phi,
        u=u, u_labels=design.labels)


def single_class_p_hat(hist, lambda_fixed, tau=10):
    """Single-class true-positive cells with the rates plugged in.

    The capped log-likelihood is concave in p, so this is a convex
    problem; it is solved through the simplex reparameterization to a
    tight gradient tolerance, from one start.  The cells sum to at most
    1 - NU.
    """
    nu = NU
    lam = np.asarray(lambda_fixed, dtype=float)
    m = lam.size
    keys, log_fact, cnts, tail_count = split_counts(hist.keys, hist.counts,
                                                   tau)
    total = float(hist.total)
    log_a = keys @ np.log(lam) - lam.sum() - log_fact
    a = np.exp(log_a)
    ratio = keys / lam[None, :]
    if tail_count:
        s = lam.sum()
        cdf_t = float(scipy.special.pdtr(tau, s))
        cdf_tm1 = float(scipy.special.pdtr(tau - 1, s))

    def objective(xp):
        cells = stick_break(xp)
        p = (1.0 - nu) * cells[:m]
        bracket = (1.0 - p.sum()) + ratio @ p
        q = np.maximum(a * bracket, 1e-300)
        w = cnts / q
        ll = float(cnts @ np.log(q))
        d_p = (a * w) @ (ratio - 1.0)
        if tail_count:
            psum = p.sum()
            T = max(1.0 - ((1.0 - psum) * cdf_t + psum * cdf_tm1), 1e-300)
            ll += tail_count * np.log(T)
            d_p += tail_count / T * (cdf_t - cdf_tm1)
        gs = np.append((1.0 - nu) * d_p, 0.0)
        return -ll / total, -stick_break_vjp(xp, gs) / total

    res = minimize(row_loop(objective), np.full((1, m), -1.0), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-8})
    cells = stick_break(res.starts[0].x)
    return (1.0 - nu) * cells[:m]


def _require_three_binary_groups(hist):
    if hist.width != len(PATTERNS):
        raise ValueError(f"count vectors need 7 cells, one per pattern of "
                         f"three binary rule groups; got {hist.width}")


def appendix_c_start(hist, tau=10, opts=FitOptions()):
    """What the Appendix-C start of both interaction orders rests on:
    (rates, cells).

    rates holds, per rule, the aggregate rate lambda_bar of a univariate
    shared-p fit (G = 1..2, AIC) of that rule's marginal counts, floored
    at NU; cells are the single-class true-positive cells with those
    rates plugged in (single_class_p_hat).  Neither depends on the
    interaction order or on G, so one start serves every fit of the
    histogram (see init_appendix_c).
    """
    _require_three_binary_groups(hist)
    rates = []
    for coord in range(hist.width):
        sel = select_G(marginal_histogram(hist, coord), 2, tau=tau,
                       opts=opts)
        rates.append(sel.fit.params.lambda_bar)
    rates = np.clip(rates, NU, None)
    return rates, single_class_p_hat(hist, rates, tau=tau)


def init_appendix_c(start, d):
    """Moment-based starting values for the log-linear multivariate fit
    of interaction order d, from the (rates, cells) of appendix_c_start.

    The starting log-linear coefficients follow the stated moment
    formulas on the cells (logit-averaged ratios without interactions,
    log-ratio sums with them), and the starting coverage is
    sum(p) / sum(r) at those coefficients.  Returns the bundle that
    fit_multi takes as init: "lambda" the rates, "p" the cells, "u" the
    coefficients (d=2 sized, the interactions 0 for d=1) and "phi".
    """
    LogLinear(d)    # refuses any order but 1 and 2
    lam, p_hat = start
    pat = dict(zip(PATTERNS, p_hat))
    if d == 1:
        q = {k: sum(v for g, v in pat.items() if g[k] == 1) for k in range(3)}
        qq = {(k1, k2): sum(v for g, v in pat.items() if g[k1] == 1 and g[k2] == 1)
              for k1, k2 in ((0, 1), (0, 2), (1, 2))}
        ratios = [
            0.5 * (qq[(0, 1)] / q[1] + qq[(0, 2)] / q[2]),
            0.5 * (qq[(0, 1)] / q[0] + qq[(1, 2)] / q[2]),
            0.5 * (qq[(0, 2)] / q[0] + qq[(1, 2)] / q[1]),
        ]
        u = np.concatenate([logit(np.clip(ratios, 1e-6, 1.0 - 1e-6)),
                            np.zeros(3)])
    else:
        pv = {g: max(v, 1e-8) for g, v in pat.items()}
        ref = pv[(1, 1, 1)]
        lr = {g: np.log(pv[g] / ref) for g in pv}
        bracket = lr[(1, 1, 0)] + lr[(1, 0, 1)] + lr[(0, 1, 1)]
        u = np.array([
            bracket - (lr[(1, 0, 0)] + lr[(0, 1, 0)]),
            bracket - (lr[(1, 0, 0)] + lr[(0, 0, 1)]),
            bracket - (lr[(0, 1, 0)] + lr[(0, 0, 1)]),
            -bracket + lr[(1, 0, 0)],
            -bracket + lr[(0, 1, 0)],
            -bracket + lr[(0, 0, 1)],
        ])

    design = build_design(2)
    eta = design.Z @ u
    r = np.exp(eta) / (1.0 + np.exp(eta).sum())
    phi = float(np.clip(p_hat.sum() / r.sum(), 1e-3, 1.0 - 1e-3))
    return {"lambda": lam, "p": p_hat, "u": u, "phi": phi}


def fit_multi(hist, g, constraint=LogLinear(2), tau=10, opts=FitOptions(),
              init=None):
    """Fit a G-class multivariate mixture whose shared true-positive cells
    follow the log-linear constraint, on three binary rule groups.

    init may carry a bundle from init_appendix_c; otherwise the bundle is
    built here from appendix_c_start.
    """
    check_class_count(g)
    _require_three_binary_groups(hist)
    if init is None:
        init = init_appendix_c(appendix_c_start(hist, tau, opts),
                               constraint.d)
    return _fit_orders(hist, g, (constraint,), tau, opts, (init,))[0]


def _fit_orders(hist, g, constraints, tau, opts, inits):
    """The G-class fits of a tuple of constraints, one init bundle each,
    as one lockstep search, each row of each kernel call laid out for
    its own order: the tuple of the orders' FitResults.  The caller
    checks g and hist.  One order hands minimize a plain block, as the
    other fits do."""
    designs = [build_design(c.d) for c in constraints]
    x0s = tuple(_start_point(g, init, design)
                for init, design in zip(inits, designs))
    params_ats = tuple(lambda x, design=design: _unpack_multi(x, g, design)
                       for design in designs)
    objective = count_objective(hist.keys, hist.counts, tau, g,
                                tuple(d.Z for d in designs))
    if len(designs) == 1:
        return (fit_starts(minimize, one_block(objective), x0s[0], (),
                           float(hist.total), tau, params_ats[0], opts,
                           salt=(71,)),)
    return fit_starts(minimize, objective, x0s, (), float(hist.total), tau,
                      params_ats, opts, salt=(71,))


def _start_point(g, init, design):
    """The first start of a G-class fit of design from an init bundle."""
    nu, lam_max = NU, LAMBDA_MAX
    lam0 = np.tile(np.clip(init["lambda"], nu * 2, lam_max), (g, 1))
    # spread duplicated rate vectors a little so classes can separate
    if g > 1:
        scales = np.linspace(0.6, 1.6, g)[:, None]
        lam0 = np.clip(lam0 * scales, nu * 2, lam_max)
    # bundle coefficients are d=2 sized; main terms lead
    return np.concatenate([
        stick_break_inverse(np.full(g, 1.0 / g), floor=nu),
        np.atleast_1d(logit(np.clip(init["phi"], 1e-6, 1 - 1e-6))),
        np.asarray(init["u"], dtype=float)[:design.Z.shape[1]],
        real_from_interval(np.clip(lam0.ravel(), nu * (1 + 1e-9), lam_max),
                           nu, lam_max)])


def select_G_multi(hist, g_max, constraint=LogLinear(2), tau=10,
                   opts=FitOptions(), start=None):
    """AIC selection of the class count (ties -> smallest G).

    constraint may be a tuple of constraints: at each G the fits of
    every order then run as one lockstep search, and the result is the
    tuple of the orders' SelectionResults, each the one that its order's
    own selection gives.  One order's fits run through fit_multi.

    start: appendix_c_start(hist, tau, opts), computed once and shared
    by the interaction orders fitted to one histogram; None computes it.
    """
    _require_three_binary_groups(hist)
    if start is None:
        start = appendix_c_start(hist, tau, opts)
    many = isinstance(constraint, tuple)
    constraints = constraint if many else (constraint,)
    inits = tuple(init_appendix_c(start, c.d) for c in constraints)
    if many:
        def fit(g):
            check_class_count(g)
            return _fit_orders(hist, g, constraints, tau, opts, inits)
    else:
        def fit(g):
            return (fit_multi(hist, g, constraint=constraint, tau=tau,
                              opts=opts, init=inits[0]),)
    by_g = [fit(g) for g in range(1, g_max + 1)]
    selections = tuple(select_aic(lambda g, i=i: by_g[g - 1][i], g_max)
                       for i in range(len(constraints)))
    return selections if many else selections[0]


def coverage_from_fit(params):
    """Fitted coverage P(i in S_A): the log-linear phi, which hand-built
    params may lack."""
    if params.phi is None:
        raise ValueError("coverage requires log-linear params with phi")
    return float(params.phi)


def multi_fit_document(fit, aic=None):
    """Structured-text (JSON) rendering of a multivariate fit result.

    Every fit is log-linear on three binary rule groups, which the
    constant "constraint" and "rule_levels" fields state."""
    p = fit.params
    return result_document(fit, {
        "model": "count-mixture-multivariate",
        "constraint": "loglinear",
        "rule_levels": [1, 1, 1],
        "coverage": coverage_from_fit(p),
        "u": dict(zip(p.u_labels, np.asarray(p.u).tolist())),
        "components": [
            {"alpha": float(a), "p": p.p[g].tolist(), "lambda": p.lam[g].tolist()}
            for g, a in enumerate(p.alpha)
        ],
    }, aic)
