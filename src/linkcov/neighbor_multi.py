"""Multivariate mixture model for pattern-indexed link counts.

For a family of mutually exclusive linkage rules indexed by Gamma, each
latent class contributes an incomplete-multinomial true-positive vector
(at most one TP overall, cell probabilities p^(gamma)) convolved with
independent Poisson false-positive counts per rule.  The fits run on
three binary agreement groups, and constrain the true-positive cells,
shared by every class, through a log-linear design with a coverage
factor, p = phi * softmax(Z u): without interactions (LogLinear(1)) or
with 2nd-order interactions (LogLinear(2)).  The fitted coverage phi is
the estimator of P(i in S_A).

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
from .neighbor_uni import CountHistogram, UniMixtureParams, select_G

__all__ = [
    "RuleIndexSet",
    "DesignMatrix",
    "MultiMixtureParams",
    "MultiCountHistogram",
    "LogLinear",
    "binary_rules",
    "build_design",
    "loglinear_probs",
    "loglinear_invert",
    "multi_comp_pmf",
    "multi_mix_pmf",
    "marginal_histogram",
    "marginal_params",
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


@dataclass(frozen=True)
class RuleIndexSet:
    """Rule index set Gamma: levels 0..H_k per group, minus the zero tuple.

    Patterns are ordered lexicographically; that order also defines the
    lexicographic comparison of rate vectors used for canonical class
    ordering.
    """

    H: tuple

    def __post_init__(self):
        if not self.H or any(int(h) < 1 for h in self.H):
            raise ValueError("each rule group needs at least one level")
        object.__setattr__(self, "H", tuple(int(h) for h in self.H))

    @property
    def K(self):
        return len(self.H)

    @property
    def patterns(self):
        full = itertools.product(*(range(h + 1) for h in self.H))
        return tuple(p for p in full if any(p))

    @property
    def size(self):
        out = 1
        for h in self.H:
            out *= h + 1
        return out - 1


def binary_rules(k=3):
    """All-binary rule groups (exact agreement indicators)."""
    return RuleIndexSet(H=(1,) * k)


_RULES = binary_rules(3)


@dataclass(frozen=True)
class DesignMatrix:
    """Dummy-coded covariate rows z^(gamma) for a log-linear p model."""

    Z: np.ndarray
    labels: tuple
    order: int
    rules: RuleIndexSet


def build_design(rules, d):
    """Main effects plus interactions up to order d, dummy coded.

    Columns: main-term blocks for k = 1..K first, then interaction
    blocks for index subsets in lexicographic order; within a block the
    level of the earliest group varies fastest, matching the Kronecker
    layout of the pairwise construction.
    """
    if not 1 <= d <= rules.K - 1:
        raise ValueError(f"interaction order d={d} outside 1..K-1")
    patterns = rules.patterns
    columns = []
    labels = []
    for t in range(1, d + 1):
        for combo in itertools.combinations(range(rules.K), t):
            level_ranges = [range(1, rules.H[k] + 1) for k in combo]
            # earliest group's level varies fastest
            for levels_rev in itertools.product(*reversed(level_ranges)):
                levels = tuple(reversed(levels_rev))
                col = np.array(
                    [
                        1.0 if all(g[k] == l for k, l in zip(combo, levels))
                        else 0.0
                        for g in patterns
                    ]
                )
                columns.append(col)
                ks = "".join(str(k + 1) for k in combo)
                ls = "".join(str(l) for l in levels)
                labels.append(f"u_{ks}({ls})")
    Z = np.column_stack(columns)
    return DesignMatrix(Z=Z, labels=tuple(labels), order=d, rules=rules)


def loglinear_probs(phi, u, design):
    """True-positive cell probabilities phi * softmax(Z u) over Gamma.

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
class LogLinearInversion:
    phi: float
    u: np.ndarray
    residual: float
    exact: bool


def loglinear_invert(p, rules, d, tol=1e-8):
    """Recover (phi, u) from positive cell probabilities.

    log p is affine in (intercept, u), so the unique preimage comes out
    of a linear solve; when p admits no exact order-d representation the
    least-squares solution is returned with its residual.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("cell probabilities must be strictly positive")
    design = build_design(rules, d)
    A = np.column_stack([np.ones(p.size), design.Z])
    coef, _, _, _ = np.linalg.lstsq(A, np.log(p), rcond=None)
    resid = float(np.max(np.abs(A @ coef - np.log(p))))
    u = coef[1:]
    eta = design.Z @ u
    phi = float(np.exp(coef[0]) * (1.0 + np.exp(eta).sum()))
    return LogLinearInversion(phi=phi, u=u, residual=resid, exact=resid < tol)


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

    Classes sort by lexicographic comparison of their rate vectors.
    Fits give the "loglinear" constraint: every class carries the same
    true-positive cells, and the params also store (phi, u).  The
    default, "free", marks hand-built cells, which coverage_from_fit
    refuses.
    """

    alpha: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    rules: RuleIndexSet
    constraint: str = "free"
    phi: Optional[float] = None
    u: Optional[np.ndarray] = None
    u_labels: Optional[tuple] = None

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        p = np.atleast_2d(np.asarray(self.p, dtype=float))
        lam = np.atleast_2d(np.asarray(self.lam, dtype=float))
        m = self.rules.size
        if p.shape != (alpha.size, m) or lam.shape != (alpha.size, m):
            raise ValueError("parameter arrays inconsistent with G x |Gamma|")
        if abs(alpha.sum() - 1.0) > 1e-9 or np.any(alpha <= 0):
            raise ValueError("invalid mixing weights")
        if np.any(p < 0) or np.any(p.sum(axis=1) > 1.0 + 1e-12):
            raise ValueError("true-positive cells must be >= 0, summing <= 1")
        if np.any(lam <= 0):
            raise ValueError("false-positive rates must be positive")
        if self.constraint == "loglinear" and alpha.size > 1:
            if not np.allclose(p, p[0]):
                raise ValueError("constraint requires shared p across classes")
        order = sorted(range(alpha.size), key=lambda g: tuple(lam[g]))
        object.__setattr__(self, "alpha", alpha[order])
        object.__setattr__(self, "p", p[order])
        object.__setattr__(self, "lam", lam[order])

    @property
    def n_components(self):
        return self.alpha.size

    @property
    def p_bar(self):
        return self.alpha @ self.p

    @property
    def lambda_bar(self):
        return self.alpha @ self.lam


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


def marginal_params(params, coord):
    """Univariate mixture implied for one rule's marginal counts."""
    return UniMixtureParams(
        alpha=params.alpha.copy(),
        p=params.p[:, coord].copy(),
        lam=params.lam[:, coord].copy(),
    )


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
    m = params.rules.size
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
        alpha=alpha, p=p.repeat(g, axis=0), lam=lam.reshape(g, -1),
        rules=_RULES, constraint="loglinear", phi=phi, u=u,
        u_labels=design.labels)


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


def single_class_p_hat(hist, lambda_fixed, tau=10, nu=1e-4, gtol=1e-8,
                       max_iter=2000):
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
                   options={"maxiter": max_iter, "ftol": 1e-14, "gtol": gtol})
    cells = stick_break(res.x)
    return (1.0 - nu) * cells[:m]


def _require_three_binary_groups(hist):
    if hist.width != _RULES.size:
        raise ValueError(f"count vectors need 7 cells, one per pattern of "
                         f"three binary rule groups; got {hist.width}")


def appendix_c_cells(hist, lambda_bar_by_rule, tau=10, nu=1e-4):
    """The plug-in true-positive cells of the Appendix-C start: the
    single-class cells with the per-rule rates (floored at nu) plugged
    in.  They depend on neither the interaction order nor G, so one set
    serves both orders fitted to the same histogram."""
    lam = np.clip(np.asarray(lambda_bar_by_rule, dtype=float), nu, None)
    return single_class_p_hat(hist, lam, tau=tau, nu=nu)


def init_appendix_c(hist, lambda_bar_by_rule, mode, tau=10, nu=1e-4,
                    p_hat=None):
    """Moment-based starting values for the log-linear multivariate fit.

    lambda_bar_by_rule supplies, per rule, the aggregate rate from a
    univariate fit of that rule's marginal counts.  The true-positive
    cells come from the plug-in convex step (``appendix_c_cells``; pass
    them as p_hat when they are already computed); the starting
    log-linear coefficients follow the stated moment formulas
    (logit-averaged ratios without interactions, log-ratio sums with
    them), and the starting coverage is sum(p) / sum(r) at those
    coefficients.
    """
    if mode not in ("no_interactions", "with_interactions"):
        raise ValueError(f"unknown initialization mode {mode!r}")
    _require_three_binary_groups(hist)
    lam = np.clip(np.asarray(lambda_bar_by_rule, dtype=float), nu, None)
    if p_hat is None:
        p_hat = appendix_c_cells(hist, lam, tau=tau, nu=nu)

    pat = dict(zip(_RULES.patterns, p_hat))
    if mode == "no_interactions":
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

    design = build_design(_RULES, d=2)
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
        sel = select_G(mh, 2, tau=tau, shared_p=True, opts=opts)
        lam_bar.append(sel.fit.params.lambda_bar)
    return np.asarray(lam_bar)


def _appendix_c_start(hist, constraint, tau, opts, lambda_bar, p_hat=None):
    """The Appendix-C start for the constraint's order; lambda_bar=None
    fits the marginal rates, p_hat=None computes the plug-in cells."""
    _require_three_binary_groups(hist)
    if lambda_bar is None:
        lambda_bar = marginal_rates(hist, tau, opts)
    mode = "with_interactions" if constraint.d == 2 else "no_interactions"
    return init_appendix_c(hist, lambda_bar, mode, tau=tau, nu=opts.nu,
                           p_hat=p_hat)


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
    design = build_design(_RULES, constraint.d)
    if init is None:
        init = _appendix_c_start(hist, constraint, tau, opts, None)

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


def n_free_params_multi(g, constraint=LogLinear(2)):
    """Free parameters: (G-1) weights, phi, the u's and G x 7 rates."""
    du = build_design(_RULES, constraint.d).Z.shape[1]
    return (g - 1) + 1 + du + g * _RULES.size


def select_G_multi(hist, g_max, constraint=LogLinear(2), tau=10,
                   opts=FitOptions(), lambda_bar=None, p_hat=None):
    """AIC selection of the class count (ties -> smallest G).

    lambda_bar: marginal_rates(hist, tau, opts) computed once and shared
    between the interaction orders fitted to one histogram; None computes
    them.  p_hat: appendix_c_cells(hist, lambda_bar, tau, opts.nu), shared
    the same way; None computes them.
    """
    init = _appendix_c_start(hist, constraint, tau, opts, lambda_bar, p_hat)
    return select_aic(
        lambda g: fit_multi(hist, g, constraint=constraint, tau=tau,
                            opts=opts, init=init),
        g_max)


def coverage_from_fit(params):
    """Fitted coverage P(i in S_A); only the log-linear mode carries it."""
    if params.constraint != "loglinear" or params.phi is None:
        raise ValueError("coverage requires a log-linear constrained fit")
    return float(params.phi)


def multi_fit_document(fit, aic=None):
    """Structured-text (JSON) rendering of a multivariate fit result."""
    p = fit.params
    doc = {
        "model": "count-mixture-multivariate",
        "constraint": p.constraint,
        "rule_levels": list(p.rules.H),
        "components": [
            {"alpha": float(a), "p": p.p[g].tolist(), "lambda": p.lam[g].tolist()}
            for g, a in enumerate(p.alpha)
        ],
    }
    if p.phi is not None:
        doc["coverage"] = float(p.phi)
        doc["u"] = dict(zip(p.u_labels, np.asarray(p.u).tolist()))
    return result_document(fit, doc, aic)
