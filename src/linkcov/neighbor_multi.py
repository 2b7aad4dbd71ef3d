"""Multivariate mixture model for pattern-indexed link counts.

A record's links are counted per agreement pattern of three binary rule
groups, one cell for each of the seven nonzero patterns (PATTERNS).
Each latent class contributes an incomplete-multinomial true-positive
vector (at most one TP overall, cell probabilities p^(gamma)) convolved
with independent Poisson false-positive counts per cell.  The fits
constrain the true-positive cells, shared by every class, through a
log-linear design with a coverage factor, p = phi * softmax(Z u):
without interactions (LogLinear(1)) or with 2nd-order interactions
(LogLinear(2)), each of which carries its design Z.  The fitted
coverage phi is the estimator of P(i in S_A).  The histograms,
parameters and pmf are those of ``_optim`` at width 7, and the fitted
MixtureParams carry phi and u as well.

The fits run the count-mixture kernel of ``_optim`` (count_objective)
with the log-linear head of their LogLinear's Z.  It is a block kernel:
one call evaluates the points of all the starts that the lockstep
search asks for in a round, each laid out for its own class count and
order, and gives each the bits it would get alone.  So select_G_multi
fits every class count 1..g_max, and both interaction orders when given
both, in one search, and appendix_c_start fits its seven marginals at
G = 1 and 2 in another.  The starts, the result types, the AIC
selection and the JSON document come from the same fit engine.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy

from ._optim import (
    LAMBDA_MAX,
    NU,
    CountHistogram,
    MixtureParams,
    check_class_count,
    count_objective,
    fit_starts,
    interval_from_real,
    real_from_interval,
    logit,
    minimize,
    result_document,
    select_aic,
    split_counts,
    stick_break,
    stick_break_inverse,
    stick_break_vjp,
)
# select_G is not called here: perfbench/layers.py hooks it in this module.
from .neighbor_uni import fit_uni_many, select_G
from .popsim import PATTERNS as _ALL_PATTERNS

__all__ = [
    "PATTERNS",
    "LogLinear",
    "loglinear_probs",
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
class LogLinear:
    """Log-linear constraint on the shared true-positive cells: main
    effects only (d=1), or with their 2nd-order interactions (d=2).

    It carries its dummy-coded design, built from d, which alone sets
    equality, hash and repr.  Z has a row z^(gamma) per pattern of
    PATTERNS, holding 1 where every group of a column's term agrees in
    gamma; labels names the columns: the main terms u_k(1) for k = 1..3,
    then for d = 2 the pairwise terms u_kl(11) in lexicographic order.
    """

    d: int = 2
    Z: np.ndarray = field(init=False, compare=False, repr=False)
    labels: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"interaction order d={self.d!r} must be 1 or 2")
        terms = [combo for t in range(1, self.d + 1)
                 for combo in itertools.combinations(range(3), t)]
        object.__setattr__(self, "Z", np.array(
            [[1.0 if all(g[k] for k in combo) else 0.0 for combo in terms]
             for g in PATTERNS]))
        object.__setattr__(self, "labels", tuple(
            "u_" + "".join(str(k + 1) for k in combo)
            + "(" + "1" * len(combo) + ")" for combo in terms))


def _cells(phi, u, constraint):
    """loglinear_probs for any phi, 0 included."""
    eta = constraint.Z @ u
    m = max(0.0, float(eta.max()))
    e = np.exp(eta - m)
    return phi * (e / (np.exp(-m) + e.sum()))


def loglinear_probs(phi, u, constraint):
    """True-positive cell probabilities phi * softmax(Z u) over PATTERNS.

    The implicit zero pattern carries the remaining softmax mass, so
    sum(p) = phi * (1 - r0) < phi.
    """
    if not 0 < phi <= 1:
        raise ValueError("coverage must lie in (0, 1]")
    return _cells(phi, np.asarray(u, dtype=float), constraint)


def marginal_histogram(hist, coord):
    """The width-1 histogram of one coordinate of the count vectors."""
    vals, inv = np.unique(hist.keys[:, coord], return_inverse=True)
    return CountHistogram(vals[:, None], np.bincount(inv, hist.counts))


def sample_multi_counts(params, size, rng):
    """Draw size count vectors, one per row, from the generative model
    (class, incomplete multinomial, Poissons)."""
    m = params.p.shape[1]
    g = rng.choice(params.n_components, size=size, p=params.alpha)
    out = np.empty((size, m), dtype=np.int64)
    for comp in range(params.n_components):
        sel = g == comp
        k = int(sel.sum())
        if not k:
            continue
        out[sel] = rng.poisson(params.lam[comp], size=(k, m))
        cell_p = np.append(params.p[comp],
                           max(1.0 - params.p[comp].sum(), 0.0))
        cells = rng.choice(m + 1, size=k, p=cell_p)
        rows = np.flatnonzero(sel)
        hit = cells < m
        out[rows[hit], cells[hit]] += 1
    return out


# ----------------------------------------------------------------- fitting

def _unpack_multi(x, g, constraint):
    """Parameters at x = [weight logits | logit phi | u | rate reals]."""
    n_alpha = g - 1
    n_head = n_alpha + 1 + constraint.Z.shape[1]
    alpha = stick_break(x[:n_alpha], floor=NU) if g > 1 else np.ones(1)
    phi = float(scipy.special.expit(x[n_alpha]))
    u = x[n_alpha + 1:n_head]
    p = _cells(phi, u, constraint)[None, :]
    lam, _ = interval_from_real(x[n_head:], NU, LAMBDA_MAX)
    return MixtureParams(
        alpha=alpha, p=p.repeat(g, axis=0), lam=lam.reshape(g, -1), phi=phi,
        u=u, u_labels=constraint.labels)


def single_class_p_hat(hist, lambda_fixed, tau=10):
    """Single-class true-positive cells with the rates plugged in.

    The capped log-likelihood is concave in p, so this is a convex
    problem; it is solved through the simplex reparameterization to a
    tight gradient tolerance, from one start, by scipy's own L-BFGS-B,
    a single search of a few dozen evaluations.  The cells sum to at
    most 1 - NU.  The rates, one per histogram cell, must be finite and
    positive.
    """
    nu = NU
    lam = np.asarray(lambda_fixed, dtype=float)
    m = lam.size
    if lam.shape != (hist.width,):
        raise ValueError("need one rate per histogram cell")
    if not (np.isfinite(lam) & (lam > 0)).all():
        raise ValueError("all rates must be finite and positive")
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

    res = scipy.optimize.minimize(
        objective, np.full(m, -1.0), jac=True, method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-8})
    cells = stick_break(res.x)
    return (1.0 - nu) * cells[:m]


def _require_three_binary_groups(hist):
    if hist.width != len(PATTERNS):
        raise ValueError(f"count vectors need 7 cells, one per pattern of "
                         f"three binary rule groups; got {hist.width}")


def appendix_c_start(hist, tau=10):
    """What the Appendix-C start of both interaction orders rests on:
    (rates, cells).

    rates holds, per rule, the aggregate rate lambda_bar of a univariate
    shared-p fit (G = 1..2, AIC) of that rule's marginal counts, floored
    at NU; the fourteen fits, seven marginals at two class counts, run
    as one search.  cells are the single-class true-positive cells with
    those rates plugged in (single_class_p_hat).  Neither depends on the
    interaction order or on G, so one start serves every fit of the
    histogram (see init_appendix_c).
    """
    _require_three_binary_groups(hist)
    m = hist.width
    marginals = [marginal_histogram(hist, c) for c in range(m)]
    fits = fit_uni_many(marginals * 2, (1,) * m + (2,) * m, tau)
    rates = np.clip([select_aic(fits[i::m]).fit.params.lambda_bar
                     for i in range(m)], NU, None)
    return rates, single_class_p_hat(hist, rates, tau=tau)


def init_appendix_c(start, constraint):
    """Moment-based starting values for the log-linear multivariate fit
    under constraint, a LogLinear, from the (rates, cells) of
    appendix_c_start.

    The starting log-linear coefficients follow the stated moment
    formulas on the cells (logit-averaged ratios without interactions,
    log-ratio sums with them), and the starting coverage is
    sum(p) / sum(r) at those coefficients.  Returns the bundle that
    fit_multi takes as init: "lambda" the rates, "u" the coefficients
    (d=2 sized, the interactions 0 for d=1) and "phi".
    """
    lam, p_hat = start
    pat = dict(zip(PATTERNS, p_hat))
    if constraint.d == 1:
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

    # unshifted, unlike _cells: every MN fit starts from these bits
    eta = LogLinear(2).Z @ u
    r = np.exp(eta) / (1.0 + np.exp(eta).sum())
    phi = float(np.clip(p_hat.sum() / r.sum(), 1e-3, 1.0 - 1e-3))
    return {"lambda": lam, "u": u, "phi": phi}


def fit_multi(hist, g, constraint=LogLinear(2), tau=10, init=None):
    """Fit a G-class multivariate mixture whose shared true-positive cells
    follow the log-linear constraint, a LogLinear, on three binary rule
    groups.

    init may carry a bundle from init_appendix_c; otherwise the bundle is
    built here from appendix_c_start.
    """
    check_class_count(g)
    _require_three_binary_groups(hist)
    _require_loglinear((constraint,))
    if init is None:
        init = init_appendix_c(appendix_c_start(hist, tau), constraint)
    return _fit_blocks(hist, (g,), (constraint,), tau, (init,))[0]


def _require_loglinear(constraints):
    """Refuse a tuple of constraints that is empty or holds anything but
    a LogLinear."""
    if not constraints or not all(isinstance(c, LogLinear)
                                  for c in constraints):
        raise ValueError("constraint must be a LogLinear, or a non-empty "
                         f"tuple of them for select_G_multi: {constraints}")


def _fit_blocks(hist, gs, constraints, tau, inits):
    """The fits of hist at each class count of gs under the constraint
    and from the init bundle of the same place, as one lockstep search,
    each fit's starts one block laid out for its own G and order: the
    tuple of their FitResults.  The caller checks the class counts and
    hist."""
    x0s = tuple(_start_point(g, init, c)
                for g, init, c in zip(gs, inits, constraints))
    params_ats = tuple(lambda x, g=g, c=c: _unpack_multi(x, g, c)
                       for g, c in zip(gs, constraints))
    objective = count_objective(
        hist.keys, np.tile(hist.counts, (len(constraints), 1)), tau,
        tuple(gs), tuple(c.Z for c in constraints))
    return fit_starts(minimize, objective, x0s, float(hist.total), tau,
                      params_ats, salt=(71,))


def _start_point(g, init, constraint):
    """The first start of a G-class fit under constraint from init."""
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
        np.asarray(init["u"], dtype=float)[:constraint.Z.shape[1]],
        real_from_interval(np.clip(lam0.ravel(), nu * (1 + 1e-9), lam_max),
                           nu, lam_max)])


def select_G_multi(hist, g_max, constraint=LogLinear(2), tau=10):
    """AIC selection of the class count (ties -> smallest G).

    constraint is a LogLinear or a non-empty tuple of them; for a tuple
    the result is the tuple of the orders' SelectionResults, each the
    one that its order's own selection gives.  The fits of every class
    count 1..g_max and every order run as one lockstep search, one block
    per (G, order), each fit the one that fit_multi gives at its G.
    Every fit starts from one appendix_c_start of the histogram,
    computed here once for all orders and class counts.
    """
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    check_class_count(g_max)
    _require_three_binary_groups(hist)
    many = isinstance(constraint, tuple)
    constraints = constraint if many else (constraint,)
    _require_loglinear(constraints)
    start = appendix_c_start(hist, tau)
    inits = tuple(init_appendix_c(start, c) for c in constraints)
    n = len(constraints)
    fits = _fit_blocks(hist, [g for g in range(1, g_max + 1)
                              for _ in constraints],
                       constraints * g_max, tau, inits * g_max)
    selections = tuple(select_aic(fits[i::n]) for i in range(n))
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
