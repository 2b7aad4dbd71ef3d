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

The objective is built once per fit (``_objective_multi``).  It keeps
the per-fit constants, and each call spends two matrix products on the
k distinct count vectors: one for the exponents of every class's
Poisson product and true-positive bracket, one for all weighted sums of
the gradient.  The weights, phi and the softmax are Python floats.

The starts, the result types, the AIC selection and the JSON document
come from the fit engine in ``_optim``.  The univariate kernel stays
apart: its p map nu + (1 - 2 nu) sigma(x) is not the cell map here.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

from ._optim import (
    FitOptions,
    fit_starts,
    interval_from_real,
    real_from_interval,
    logit,
    minimize,
    result_document,
    select_aic,
    stick_break,
    stick_break_inverse,
    stick_break_vjp,
    stick_pieces,
    stick_pieces_vjp,
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
    "init_appendix_c",
    "appendix_c_cells",
    "marginal_rates",
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
    order: int


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
    return DesignMatrix(Z=Z, labels=labels, order=d)


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
        as ``np.unique(axis=0, return_counts=True)`` gives them."""
        mat = np.atleast_2d(np.asarray(count_matrix, dtype=np.int64))
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

def _unpack_multi(x, g, design, nu, lam_max):
    """Parameters at x = [weight logits | logit phi | u | rate reals]."""
    n_alpha = g - 1
    n_head = n_alpha + 1 + design.Z.shape[1]
    alpha = stick_break(x[:n_alpha], floor=nu) if g > 1 else np.ones(1)
    phi = float(scipy.special.expit(x[n_alpha]))
    u = x[n_alpha + 1:n_head]
    eta = design.Z @ u
    mx = max(0.0, float(eta.max()))
    e = np.exp(eta - mx)
    p = phi * (e / (np.exp(-mx) + e.sum()))[None, :]
    lam, _ = interval_from_real(x[n_head:], nu, lam_max)
    return MultiMixtureParams(
        alpha=alpha, p=p.repeat(g, axis=0), lam=lam.reshape(g, -1), phi=phi,
        u=u, u_labels=design.labels)


def _objective_multi(hist, tau, g, Z, nu, lam_max):
    """The objective of one fit_multi call: x -> (negative mean capped
    log-likelihood, its analytic gradient).

    It holds the per-fit constants: the columns [t | 1 | log t!] of the
    k count vectors with |t| <= tau, contiguous and transposed, their
    multiplicities, log nu and the log-span of the rates.  Per call, one
    product of a (2g, m + 2) coefficient block with the transposed
    columns gives, for each class c, the exponent of alpha_c a_c, where
    a_c = prod_gamma Pois(t_gamma; lam_c,gamma) and the weight enters as
    log alpha_c, and the true-positive bracket 1 - |p| + t . p / lam_c.
    [alpha a | alpha mix] fill one (2g, k) buffer; q is the column sum
    of its mix rows, and one product of the w-weighted buffer with the
    columns gives the four weighted sums of the gradient.  The weights,
    phi and the softmax are Python floats; the logistic of x is one array
    call, which saturates where exp(-x) would overflow.  Nothing of size
    k * g * m is formed.
    """
    keys, log_fact, cnts, tail_count = _split_multi(hist, tau)
    k = keys.shape[0]
    m = Z.shape[0]
    total = float(hist.total)
    cols = np.empty((k, m + 2))
    cols[:, :m] = keys
    cols[:, m] = 1.0
    cols[:, m + 1] = log_fact
    cols_t = np.ascontiguousarray(cols.T)
    cols = np.ascontiguousarray(cols[:, :m + 1])
    # rows [log lam_c | log alpha_c - |lam_c| | -1] for c < g, then
    # [p / lam_c | 1 - |p| | 0]
    coef = np.zeros((2 * g, m + 2))
    coef[:g, m + 1] = -1.0
    a_mix = np.empty((2 * g, k))
    n_alpha = g - 1
    n_head = n_alpha + 1 + Z.shape[1]
    grad = np.empty(n_head + g * m)
    log_lo = math.log(nu)
    span = math.log(lam_max) - log_lo
    log_fact_tau = math.lgamma(tau + 1.0)
    scale = 1.0 - g * nu
    expit, pdtr = scipy.special.expit, scipy.special.pdtr

    def objective(x):
        sig = expit(x)
        s = sig[:n_alpha + 1].tolist()
        stick, pieces = stick_pieces(s[:n_alpha])
        alpha = [nu + scale * piece for piece in pieces]
        phi = s[n_alpha]
        eta = (Z @ x[n_alpha + 1:n_head]).tolist()
        mx = max(0.0, max(eta))
        e = [math.exp(et - mx) for et in eta]
        den = math.exp(-mx) + sum(e)
        r = np.array([ei / den for ei in e])
        p = phi * r
        psum = [float(p.sum())] * g
        sig_lam = sig[n_head:]
        log_lam = log_lo + span * sig_lam
        lam_flat = np.exp(log_lam)
        lam = lam_flat.reshape(g, m)
        lam_sum = lam.sum(axis=1).tolist()

        coef[:g, :m] = log_lam.reshape(g, m)
        coef[g:, :m] = p / lam
        coef[:, m] = ([math.log(ac) - ls for ac, ls in zip(alpha, lam_sum)]
                      + [1.0 - ps for ps in psum])
        expo = coef @ cols_t
        a = np.exp(expo[:g], out=a_mix[:g])
        mix = np.multiply(a, expo[g:], out=a_mix[g:])
        q = mix.sum(axis=0)
        np.maximum(q, 1e-300, out=q)
        w = cnts / q
        ll = float(cnts @ np.log(q))
        # sums[c, gamma] = alpha_c sum_k w [a | mix]_c t_gamma, and in
        # column m alpha_c sum_k w [a | mix]_c
        sums = (a_mix * w) @ cols
        # dq/dp = alpha a (t/lam - 1); dq/dlam = alpha (mix (t/lam - 1)
        # - a p t / lam^2)
        wat = sums[:g, :m] / lam
        d_p = wat - sums[:g, m:]
        d_lam = sums[g:, :m] / lam - sums[g:, m:] - p * wat / lam
        d_alpha = [sm / ac for sm, ac in zip(sums[g:, m].tolist(), alpha)]
        if tail_count:
            cdf_t = pdtr(tau, lam_sum).tolist()
            cdf_tm1 = pdtr(tau - 1, lam_sum).tolist()
            below = [(1.0 - ps) * ct + ps * cm
                     for ps, ct, cm in zip(psum, cdf_t, cdf_tm1)]
            T = max(1.0 - sum([ac * b for ac, b in zip(alpha, below)]),
                    1e-300)
            ll += tail_count * math.log(T)
            wt = tail_count / T
            tail_p, tail_lam = [], []
            for c in range(g):
                ls, ps = lam_sum[c], psum[c]
                pmf_t = math.exp(tau * math.log(ls) - ls - log_fact_tau)
                d_alpha[c] -= wt * below[c]
                tail_p.append(wt * (alpha[c] * (cdf_t[c] - cdf_tm1[c])))
                tail_lam.append(wt * (alpha[c] * ((1.0 - ps) * pmf_t
                                                  + ps * pmf_t * tau / ls)))
            d_p += np.array(tail_p)[:, None]
            d_lam += np.array(tail_lam)[:, None]

        # chain rules
        grad[:n_alpha] = [
            scale * gv
            for gv in stick_pieces_vjp(s[:n_alpha], stick, pieces, d_alpha)]
        dldp = d_p.sum(axis=0)
        dldr = float(dldp @ r)
        grad[n_alpha] = dldr * phi * (1.0 - phi)
        grad[n_alpha + 1:n_head] = (p * (dldp - dldr)) @ Z
        grad[n_head:] = d_lam.ravel() * (lam_flat * span * sig_lam
                                         * (1.0 - sig_lam))
        return -ll / total, grad / -total

    return objective


def _split_multi(hist, tau):
    """Count vectors with |t| <= tau, their summed log factorials, their
    multiplicities, and the tail count."""
    low = hist.keys.sum(axis=1) <= tau
    keys = hist.keys[low].astype(float)
    return (keys, scipy.special.gammaln(keys + 1.0).sum(axis=1),
            hist.counts[low].astype(float), float(hist.counts[~low].sum()))


def single_class_p_hat(hist, lambda_fixed, tau=10, nu=1e-4):
    """Single-class true-positive cells with the rates plugged in.

    The capped log-likelihood is concave in p, so this is a convex
    problem; it is solved through the simplex reparameterization to a
    tight gradient tolerance.
    """
    lam = np.asarray(lambda_fixed, dtype=float)
    m = lam.size
    keys, log_fact, cnts, tail_count = _split_multi(hist, tau)
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

    x0 = np.zeros(m) - 1.0
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-8})
    cells = stick_break(res.x)
    return (1.0 - nu) * cells[:m]


def _require_three_binary_groups(hist):
    if hist.width != len(PATTERNS):
        raise ValueError(f"count vectors need 7 cells, one per pattern of "
                         f"three binary rule groups; got {hist.width}")


def appendix_c_cells(hist, lambda_bar_by_rule, tau=10, nu=1e-4):
    """The plug-in true-positive cells of the Appendix-C start: the
    single-class cells with the per-rule rates (floored at nu) plugged
    in.  They depend on neither the interaction order nor G, so one set
    serves both orders fitted to the same histogram."""
    lam = np.clip(np.asarray(lambda_bar_by_rule, dtype=float), nu, None)
    return single_class_p_hat(hist, lam, tau=tau, nu=nu)


def init_appendix_c(hist, lambda_bar_by_rule, d, tau=10, opts=FitOptions(),
                    p_hat=None):
    """Moment-based starting values for the log-linear multivariate fit
    of interaction order d.

    lambda_bar_by_rule supplies, per rule, the aggregate rate from a
    univariate fit of that rule's marginal counts (``marginal_rates``;
    None fits them here).  The true-positive cells come from the plug-in
    convex step (``appendix_c_cells``; pass them as p_hat when they are
    already computed); the starting log-linear coefficients follow the
    stated moment formulas (logit-averaged ratios without interactions,
    log-ratio sums with them), and the starting coverage is
    sum(p) / sum(r) at those coefficients.
    """
    LogLinear(d)    # refuses any order but 1 and 2
    _require_three_binary_groups(hist)
    nu = opts.nu
    if lambda_bar_by_rule is None:
        lambda_bar_by_rule = marginal_rates(hist, tau, opts)
    lam = np.clip(np.asarray(lambda_bar_by_rule, dtype=float), nu, None)
    if p_hat is None:
        p_hat = appendix_c_cells(hist, lam, tau=tau, nu=nu)

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
        clipped = np.clip(ratios, 1e-6, 1.0 - 1e-6)
        flagged = bool(np.any(clipped != np.asarray(ratios)))
        u = np.concatenate([logit(clipped), np.zeros(3)])
    else:
        floor = 1e-8
        pv = {g: max(v, floor) for g, v in pat.items()}
        flagged = any(v < floor for v in pat.values())
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
    return {"lambda": lam, "p": p_hat, "u": u, "phi": phi, "flagged": flagged}


def marginal_rates(hist, tau=10, opts=FitOptions()):
    """Per-rule rates lambda_bar from univariate shared-p fits (G = 1..2,
    AIC) of each rule's marginal counts; they seed the Appendix-C start.
    One set serves both interaction orders fitted to the same histogram."""
    lam_bar = []
    for coord in range(hist.width):
        mh = marginal_histogram(hist, coord)
        sel = select_G(mh, 2, tau=tau, opts=opts)
        lam_bar.append(sel.fit.params.lambda_bar)
    return np.asarray(lam_bar)


def fit_multi(hist, g, constraint=LogLinear(2), tau=10, opts=FitOptions(),
              init=None):
    """Fit a G-class multivariate mixture whose shared true-positive cells
    follow the log-linear constraint, on three binary rule groups.

    init may carry a bundle from init_appendix_c; otherwise the bundle is
    built here from per-rule univariate fits.
    """
    opts.check_class_count(g)
    _require_three_binary_groups(hist)
    nu, lam_max = opts.nu, opts.lambda_max
    design = build_design(constraint.d)
    if init is None:
        init = init_appendix_c(hist, None, constraint.d, tau, opts)

    lam0 = np.tile(np.clip(init["lambda"], nu * 2, lam_max), (g, 1))
    # spread duplicated rate vectors a little so classes can separate
    if g > 1:
        scales = np.linspace(0.6, 1.6, g)[:, None]
        lam0 = np.clip(lam0 * scales, nu * 2, lam_max)
    # bundle coefficients are d=2 sized; main terms lead
    x0 = np.concatenate([
        stick_break_inverse(np.full(g, 1.0 / g), floor=nu),
        np.atleast_1d(logit(np.clip(init["phi"], 1e-6, 1 - 1e-6))),
        np.asarray(init["u"], dtype=float)[:design.Z.shape[1]],
        real_from_interval(np.clip(lam0.ravel(), nu * (1 + 1e-9), lam_max),
                           nu, lam_max)])
    objective = _objective_multi(hist, tau, g, design.Z, nu, lam_max)
    return fit_starts(
        minimize, objective, x0, (), float(hist.total), tau,
        lambda x: _unpack_multi(x, g, design, nu, lam_max), opts,
        salt=(71,))


def select_G_multi(hist, g_max, constraint=LogLinear(2), tau=10,
                   opts=FitOptions(), lambda_bar=None, p_hat=None):
    """AIC selection of the class count (ties -> smallest G).

    lambda_bar: marginal_rates(hist, tau, opts) computed once and shared
    between the interaction orders fitted to one histogram; None computes
    them.  p_hat: appendix_c_cells(hist, lambda_bar, tau, opts.nu), shared
    the same way; None computes them.
    """
    init = init_appendix_c(hist, lambda_bar, constraint.d, tau, opts, p_hat)
    return select_aic(
        lambda g: fit_multi(hist, g, constraint=constraint, tau=tau,
                            opts=opts, init=init),
        g_max)


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
