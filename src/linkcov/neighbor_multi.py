"""Multivariate mixture model for pattern-indexed link counts.

For a family of mutually exclusive linkage rules indexed by Gamma, each
latent class contributes an incomplete-multinomial true-positive vector
(at most one TP overall, cell probabilities p^(gamma)) convolved with
independent Poisson false-positive counts per rule.  The true-positive
cells can be left free, shared across classes, or constrained through a
log-linear design with a coverage factor, in which case the fitted
coverage is the estimator of P(i in S_A).
"""

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, gammaln, pdtr

from ._optim import (
    FitOptions,
    interval_from_real,
    real_from_interval,
    logit,
    stick_break,
    stick_break_inverse,
    stick_break_vjp,
)
from .neighbor_uni import CountHistogram, select_G

__all__ = [
    "RuleIndexSet",
    "DesignMatrix",
    "MultiMixtureParams",
    "MultiCountHistogram",
    "LogLinear",
    "MultiFitResult",
    "MultiSelectionResult",
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


def tie_matrix(design):
    """Collapse coefficients of equal interaction order to one value."""
    orders = [lbl.split("(")[0].split("_")[1] for lbl in design.labels]
    sizes = [len(o) for o in orders]
    uniq = sorted(set(sizes))
    M = np.zeros((len(sizes), len(uniq)))
    for i, s in enumerate(sizes):
        M[i, uniq.index(s)] = 1.0
    return M


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
    """Log-linear constraint on the shared true-positive cells."""

    d: int = 2
    tie_symmetric: bool = False


@dataclass(frozen=True)
class MultiMixtureParams:
    """Multivariate mixture parameters in canonical class order.

    Classes sort by lexicographic comparison of their rate vectors.
    For the shared_p and loglinear constraints every class carries the
    same true-positive cells; loglinear params also store (phi, u).
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
        if self.constraint in ("shared_p", "loglinear") and alpha.size > 1:
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
    from .neighbor_uni import UniMixtureParams

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
    log_a = t @ np.log(lam) - lam.sum() - gammaln(t + 1.0).sum(axis=1)
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

def _n_p(g, m, constraint, du):
    """Length of the packed true-positive block (du: free coefficients)."""
    if constraint == "free":
        return g * m
    if constraint == "shared_p":
        return m
    return 1 + du


def _unpack_multi(x, g, m, n_p, constraint, Zv, nu, lam_max):
    """Parameters at x, plus d lam / dx.  Zv maps the free log-linear
    coefficients to eta (the design, times the tie matrix when tied)."""
    n_alpha = g - 1
    alpha = stick_break(x[:n_alpha], floor=nu) if g > 1 else np.ones(1)
    xp = x[n_alpha:n_alpha + n_p]
    aux = {}
    if constraint == "free":
        p = np.empty((g, m))
        for comp in range(g):
            cells = stick_break(xp[comp * m:(comp + 1) * m])
            p[comp] = (1.0 - nu) * cells[:m]
    elif constraint == "shared_p":
        cells = stick_break(xp)
        p = ((1.0 - nu) * cells[None, :m]).repeat(g, axis=0)
    else:
        phi = float(expit(xp[0]))
        eta = Zv @ xp[1:]
        mx = max(0.0, float(eta.max()))
        e = np.exp(eta - mx)
        r = e / (np.exp(-mx) + e.sum())
        p = (phi * r[None, :]).repeat(g, axis=0)
        aux = {"phi": phi, "v": xp[1:], "r": r}
    lam, dlam_dx = interval_from_real(x[n_alpha + n_p:], nu, lam_max)
    return alpha, p, lam.reshape(g, m), dlam_dx, aux


def _pack_multi(alpha, p_block, lam, constraint, nu, lam_max):
    """p_block: per-mode payload (p matrix, shared p vector, or (phi, v))."""
    g = alpha.size
    parts = []
    if g > 1:
        parts.append(stick_break_inverse(alpha, floor=nu))
    if constraint == "free":
        for comp in range(g):
            cells = np.append(p_block[comp] / (1.0 - nu), 0.0)
            cells[-1] = max(1.0 - cells[:-1].sum(), 1e-12)
            parts.append(stick_break_inverse(cells / cells.sum()))
    elif constraint == "shared_p":
        cells = np.append(np.asarray(p_block) / (1.0 - nu), 0.0)
        cells[-1] = max(1.0 - cells[:-1].sum(), 1e-12)
        parts.append(stick_break_inverse(cells / cells.sum()))
    else:
        phi, v = p_block
        parts.append(np.atleast_1d(logit(np.clip(phi, 1e-6, 1 - 1e-6))))
        parts.append(np.asarray(v, dtype=float))
    parts.append(real_from_interval(
        np.clip(np.asarray(lam).ravel(), nu * (1 + 1e-9), lam_max), nu, lam_max))
    return np.concatenate(parts)


def _objective_multi(x, keys, log_fact, cnts, tail_count, total, g, m, n_p,
                     constraint, Zv, tau, nu, lam_max):
    """Negative mean capped log-likelihood with analytic gradient.

    Every per-count sum is a (k, g) or (g, m) matrix product; nothing of
    size k * g * m is formed.
    """
    alpha, p, lam, dlam_dx, aux = _unpack_multi(x, g, m, n_p, constraint,
                                                Zv, nu, lam_max)
    psum = p.sum(axis=1)

    # a[k, g] = prod_gamma Pois(t / lam_g); the bracket adds the TP shift
    a = np.exp(keys @ np.log(lam).T - lam.sum(axis=1) - log_fact[:, None])
    mix = a * ((1.0 - psum) + keys @ (p / lam).T)      # (k, g)
    q = np.maximum(mix @ alpha, 1e-300)
    w = cnts / q                                        # (k,)
    ll = float(cnts @ np.log(q))

    d_alpha = w @ mix                                   # (g,)
    # sum_k w a t / lam and sum_k w mix t / lam, per class and rule
    wat = ((w[:, None] * a).T @ keys) / lam             # (g, m)
    wmt = ((w[:, None] * mix).T @ keys) / lam
    # dq/dp = alpha a (t/lam - 1); dq/dlam = alpha (mix (t/lam - 1)
    # - a p t / lam^2)
    d_p = alpha[:, None] * (wat - (w @ a)[:, None])
    d_lam = alpha[:, None] * (wmt - d_alpha[:, None] - p * wat / lam)

    if tail_count:
        s = lam.sum(axis=1)
        cdf_t = pdtr(tau, s)
        cdf_tm1 = pdtr(tau - 1, s)
        pmf_t = np.exp(tau * np.log(s) - s - gammaln(tau + 1.0))
        pmf_tm1 = pmf_t * tau / s
        below = (1.0 - psum) * cdf_t + psum * cdf_tm1
        T = max(1.0 - float(alpha @ below), 1e-300)
        ll += tail_count * np.log(T)
        wt = tail_count / T
        d_alpha -= wt * below
        d_p += wt * (alpha * (cdf_t - cdf_tm1))[:, None]
        d_lam += wt * (alpha * ((1.0 - psum) * pmf_t + psum * pmf_tm1))[:, None]

    # chain rules
    n_alpha = g - 1
    grad = np.empty_like(x)
    if g > 1:
        grad[:n_alpha] = stick_break_vjp(x[:n_alpha], d_alpha, floor=nu)
    xp = x[n_alpha:n_alpha + n_p]
    if constraint == "free":
        for comp in range(g):
            gs = np.append((1.0 - nu) * d_p[comp], 0.0)
            grad[n_alpha + comp * m:n_alpha + (comp + 1) * m] = stick_break_vjp(
                xp[comp * m:(comp + 1) * m], gs)
    elif constraint == "shared_p":
        gs = np.append((1.0 - nu) * d_p.sum(axis=0), 0.0)
        grad[n_alpha:n_alpha + n_p] = stick_break_vjp(xp, gs)
    else:
        # p = phi * softmax(eta), shared across classes
        phi, r = aux["phi"], aux["r"]
        dldp = d_p.sum(axis=0)
        dldr = float(dldp @ r)
        grad[n_alpha] = dldr * phi * (1.0 - phi)
        grad[n_alpha + 1:n_alpha + n_p] = Zv.T @ (phi * r * (dldp - dldr))
    grad[n_alpha + n_p:] = d_lam.ravel() * dlam_dx
    return -ll / total, -grad / total


def _split_multi(hist, tau):
    """Count vectors with |t| <= tau, their summed log factorials, their
    multiplicities, and the tail count."""
    low = hist.keys.sum(axis=1) <= tau
    keys = hist.keys[low].astype(float)
    return (keys, gammaln(keys + 1.0).sum(axis=1),
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
        cdf_t = float(pdtr(tau, s))
        cdf_tm1 = float(pdtr(tau - 1, s))

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


_BIN3 = ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0),
         (1, 1, 1))


def init_appendix_c(hist, lambda_bar_by_rule, mode, rules=None, tau=10,
                    nu=1e-4):
    """Moment-based starting values for the constrained multivariate fit.

    lambda_bar_by_rule supplies, per rule, the aggregate rate from a
    univariate fit of that rule's marginal counts.  The true-positive
    cells come from the plug-in convex step; the starting log-linear
    coefficients follow the stated moment formulas (logit-averaged
    ratios without interactions, log-ratio sums with them), and the
    starting coverage is sum(p) / sum(r) at those coefficients.
    """
    if mode not in ("no_interactions", "with_interactions"):
        raise ValueError(f"unknown initialization mode {mode!r}")
    rules = rules or binary_rules(3)
    if rules.patterns != _BIN3:
        raise ValueError("moment initialization requires three binary groups")
    lam = np.clip(np.asarray(lambda_bar_by_rule, dtype=float), nu, None)
    p_hat = single_class_p_hat(hist, lam, tau=tau, nu=nu)
    flagged = False

    pat = dict(zip(rules.patterns, p_hat))
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

    design = build_design(rules, d=2)
    eta = design.Z @ u
    r = np.exp(eta) / (1.0 + np.exp(eta).sum())
    phi = float(np.clip(p_hat.sum() / r.sum(), 1e-3, 1.0 - 1e-3))
    return {"lambda": lam, "p": p_hat, "u": u, "phi": phi, "flagged": flagged}


@dataclass(frozen=True)
class MultiFitResult:
    params: MultiMixtureParams
    loglik: float
    init_loglik: float
    converged: bool
    n_iter: int
    tau: int


def _constraint_key(constraint):
    if isinstance(constraint, LogLinear):
        return "loglinear"
    if constraint in ("free", "shared_p"):
        return constraint
    raise ValueError(f"unknown constraint {constraint!r}")


def marginal_rates(hist, tau=10, opts=FitOptions()):
    """Per-rule rates lambda_bar from univariate shared-p fits (G = 1..2,
    AIC) of each rule's marginal counts; they seed the Appendix-C start.
    One set serves every constraint fitted to the same histogram."""
    lam_bar = []
    for coord in range(hist.width):
        mh = marginal_histogram(hist, coord)
        sel = select_G(mh, 2, tau=tau, shared_p=True, opts=opts)
        lam_bar.append(sel.fit.params.lambda_bar)
    return np.asarray(lam_bar)


def _appendix_c_start(hist, constraint, rules, tau, opts, lambda_bar):
    """The Appendix-C start bundle, or None unless rules are three binary
    groups; lambda_bar=None fits the marginal rates here."""
    if rules.patterns != _BIN3:
        if lambda_bar is not None:
            raise ValueError("lambda_bar needs three binary rule groups")
        return None
    if lambda_bar is None:
        lambda_bar = marginal_rates(hist, tau, opts)
    with_interactions = isinstance(constraint, LogLinear) and constraint.d >= 2
    mode = "with_interactions" if with_interactions else "no_interactions"
    return init_appendix_c(hist, lambda_bar, mode, rules=rules, tau=tau,
                           nu=opts.nu)


def fit_multi(hist, g, constraint="shared_p", tau=10, rules=None,
              opts=FitOptions(), init=None):
    """Fit a G-class multivariate mixture under the given constraint.

    constraint: "free", "shared_p", or a LogLinear(d, tie_symmetric)
    spec.  init may carry a bundle from init_appendix_c; otherwise the
    bundle is built internally (for three binary groups) from per-rule
    univariate fits.
    """
    rules = rules or binary_rules(3)
    m = rules.size
    key = _constraint_key(constraint)
    nu, lam_max = opts.nu, opts.lambda_max

    design = M_tie = Zv = None
    if key == "loglinear":
        design = build_design(rules, constraint.d)
        Zv = design.Z
        if constraint.tie_symmetric:
            M_tie = tie_matrix(design)
            Zv = design.Z @ M_tie
    n_p = _n_p(g, m, key, None if Zv is None else Zv.shape[1])

    if init is None:
        init = _appendix_c_start(hist, constraint, rules, tau, opts, None)
    if init is None:
        mean = (hist.keys * hist.counts[:, None]).sum(axis=0) / hist.total
        p0 = np.clip(mean * 0.5, 1e-4, 0.9 / m)
        init = {"lambda": np.clip(mean - p0, 0.02, None), "p": p0,
                "u": None, "phi": min(0.9, float(p0.sum()) + 0.1),
                "flagged": False}

    alpha0 = np.full(g, 1.0 / g)
    lam0 = np.tile(np.clip(init["lambda"], nu * 2, lam_max), (g, 1))
    # spread duplicated rate vectors a little so classes can separate
    if g > 1:
        scales = np.linspace(0.6, 1.6, g)[:, None]
        lam0 = np.clip(lam0 * scales, nu * 2, lam_max)
    if key == "free":
        p_block = np.tile(init["p"], (g, 1))
    elif key == "shared_p":
        p_block = init["p"]
    else:
        u0 = init["u"]
        n_u = design.Z.shape[1]
        if u0 is None:
            u0 = np.zeros(n_u)
        else:
            u0 = np.asarray(u0, dtype=float)
            if u0.size != n_u:
                # bundle coefficients are d=2 sized; main terms lead
                u0 = u0[:n_u] if u0.size > n_u else np.pad(u0, (0, n_u - u0.size))
        v0 = (np.linalg.lstsq(M_tie, u0, rcond=None)[0]
              if M_tie is not None else u0)
        p_block = (init["phi"], v0)

    x0 = _pack_multi(alpha0, p_block, lam0, key, nu, lam_max)
    total = float(hist.total)
    args = (*_split_multi(hist, tau), total, g, m, n_p, key, Zv, tau, nu,
            lam_max)
    init_loglik = -_objective_multi(x0, *args)[0] * total

    best = None
    for start in range(opts.n_starts):
        if start == 0:
            x_start = x0
        else:
            jrng = np.random.default_rng([opts.seed, 71, start])
            x_start = x0 + opts.jitter * jrng.standard_normal(x0.size)
        res = minimize(
            _objective_multi, x_start, args=args, jac=True, method="L-BFGS-B",
            options={"maxiter": opts.max_iter, "ftol": opts.ftol,
                     "gtol": opts.gtol},
        )
        if best is None or res.fun < best.fun:
            best = res

    alpha, p, lam, _, aux = _unpack_multi(best.x, g, m, n_p, key, Zv, nu,
                                          lam_max)
    u = None
    if key == "loglinear":
        u = M_tie @ aux["v"] if M_tie is not None else aux["v"]
    params = MultiMixtureParams(
        alpha=alpha, p=p, lam=lam, rules=rules, constraint=key,
        phi=aux.get("phi"), u=u,
        u_labels=design.labels if design is not None else None,
    )
    return MultiFitResult(
        params=params,
        loglik=float(-best.fun * total),
        init_loglik=float(init_loglik),
        converged=bool(best.success),
        n_iter=int(best.nit),
        tau=tau,
    )


@dataclass(frozen=True)
class MultiSelectionResult:
    g_hat: int
    fit: MultiFitResult
    trace: list = field(default_factory=list)


def n_free_params_multi(g, m, constraint, du=None):
    return (g - 1) + _n_p(g, m, _constraint_key(constraint), du) + g * m


def select_G_multi(hist, g_max, constraint="shared_p", tau=10, rules=None,
                   opts=FitOptions(), lambda_bar=None):
    """AIC selection of the class count (ties -> smallest G).

    lambda_bar: marginal_rates(hist, tau, opts) computed once and shared
    between constraints fitted to one histogram; None computes them.
    """
    rules = rules or binary_rules(3)
    key = _constraint_key(constraint)
    du = None
    if key == "loglinear":
        design = build_design(rules, constraint.d)
        du = (tie_matrix(design).shape[1] if constraint.tie_symmetric
              else design.Z.shape[1])
    init = _appendix_c_start(hist, constraint, rules, tau, opts, lambda_bar)
    trace = []
    best = None
    for g in range(1, g_max + 1):
        fit = fit_multi(hist, g, constraint=constraint, tau=tau, rules=rules,
                        opts=opts, init=init)
        k = n_free_params_multi(g, rules.size, constraint, du)
        aic = 2.0 * k - 2.0 * fit.loglik
        trace.append({"G": g, "loglik": fit.loglik, "k": k, "aic": aic})
        if best is None or aic < best[0] - 1e-12:
            best = (aic, g, fit)
    return MultiSelectionResult(g_hat=best[1], fit=best[2], trace=trace)


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
        "tau": fit.tau,
        "components": [
            {"alpha": float(a), "p": p.p[g].tolist(), "lambda": p.lam[g].tolist()}
            for g, a in enumerate(p.alpha)
        ],
        "loglik": fit.loglik,
        "init_loglik": fit.init_loglik,
        "converged": fit.converged,
        "n_iter": fit.n_iter,
    }
    if p.phi is not None:
        doc["coverage"] = float(p.phi)
        doc["u"] = dict(zip(p.u_labels, np.asarray(p.u).tolist()))
    if aic is not None:
        doc["aic"] = aic
    return json.dumps(doc, indent=2, sort_keys=True)
