"""Univariate mixture model for per-record link counts.

Each latent record class g contributes links as Bernoulli(p_g) true
positives convolved with Poisson(lambda_g) false positives; classes mix
with weights alpha_g.  The fits share one p_g = p across the classes.
Parameters are estimated by maximizing the capped composite
log-likelihood of the observed counts, the number of classes is chosen
by AIC, and the fitted aggregates p_bar / lambda_bar translate into
precision, coverage and recall estimates.

The objective that L-BFGS-B calls (``_objective``) is a scalar kernel.
A histogram holds a handful of distinct counts (3 to 11), so its sums
over (class, value) run in Python floats; the only array call is one
saturating logistic of all coordinates.  It serves every G and the tail
cell, and meets the lockstep starts one row at a time (``row_loop``).
The starts, the result types, the AIC selection and the JSON document
come from the fit engine in ``_optim``.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

from ._optim import (
    LAMBDA_MAX,
    NU,
    FitOptions,
    FitResult,
    SelectionResult,
    check_class_count,
    fit_starts,
    interval_from_real,
    real_from_interval,
    logit,
    minimize,
    result_document,
    row_loop,
    select_aic,
    stick_break,
    stick_break_inverse,
    stick_pieces,
    stick_pieces_vjp,
)

__all__ = [
    "UniMixtureParams",
    "CountHistogram",
    "AccuracySummary",
    "FitResult",
    "SelectionResult",
    "comp_pmf",
    "mix_pmf",
    "capped_loglik",
    "fit_uni",
    "select_G",
    "accuracy_from_fit",
    "sample_counts",
    "fit_document",
]


@dataclass(frozen=True)
class UniMixtureParams:
    """Mixture parameters, stored in canonical ascending-lambda order.

    Fits share one p across the classes; a hand-built truth (for
    sample_counts, mix_pmf or capped_loglik) may give each class its own.
    """

    alpha: np.ndarray
    p: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if not (alpha.size == p.size == lam.size):
            raise ValueError("component arrays differ in length")
        if abs(alpha.sum() - 1.0) > 1e-9:
            raise ValueError("mixing weights must sum to one")
        if np.any(alpha <= 0):
            raise ValueError("mixing weights must be positive")
        if np.any((p < 0) | (p > 1)):
            raise ValueError("true-positive probabilities outside [0, 1]")
        if np.any(lam <= 0):
            raise ValueError("false-positive rates must be positive")
        order = np.lexsort((alpha, p, lam))
        object.__setattr__(self, "alpha", alpha[order])
        object.__setattr__(self, "p", p[order])
        object.__setattr__(self, "lam", lam[order])

    @property
    def n_components(self):
        return self.alpha.size

    @property
    def p_bar(self):
        return float(self.alpha @ self.p)

    @property
    def lambda_bar(self):
        return float(self.alpha @ self.lam)


@dataclass(frozen=True)
class CountHistogram:
    """Multiplicities of observed counts."""

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=np.int64))
        counts = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        if values.size != counts.size or values.size == 0:
            raise ValueError("histogram needs matching non-empty arrays")
        if np.any(counts <= 0) or np.any(values < 0):
            raise ValueError("histogram needs positive multiplicities, counts >= 0")
        if np.unique(values).size != values.size:
            raise ValueError("histogram values must be unique")
        order = np.argsort(values)
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "counts", counts[order])

    @classmethod
    def from_observations(cls, n_values):
        vals, cnts = np.unique(np.asarray(n_values, dtype=np.int64),
                               return_counts=True)
        return cls(vals, cnts)

    @property
    def total(self):
        return int(self.counts.sum())


def comp_pmf(n, p, lam):
    """Bernoulli(p) convolved with Poisson(lam), evaluated at n."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    n = np.asarray(n)
    pois = np.exp(n * np.log(lam) - lam - scipy.special.gammaln(n + 1.0))
    pois_shift = pois * n / lam
    return (1.0 - p) * pois + p * pois_shift


def mix_pmf(n, params):
    """Mixture PMF at n (scalar or array)."""
    n = np.asarray(n, dtype=float)
    out = np.zeros_like(n, dtype=float)
    for a, p, l in zip(params.alpha, params.p, params.lam):
        out = out + a * comp_pmf(n, p, l)
    return out if out.shape else float(out)


def capped_loglik(hist, params, tau):
    """Capped composite log-likelihood of a count histogram.

    Counts up to tau contribute log pmf; everything above pools into a
    single tail cell with mass 1 - sum_{n<=tau} pmf.  The tail term is
    omitted when no observation exceeds tau.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    low = hist.values <= tau
    ll = float(np.dot(hist.counts[low],
                      np.log(mix_pmf(hist.values[low], params))))
    tail_count = int(hist.counts[~low].sum())
    if tail_count:
        tail_mass = 1.0 - float(np.sum(mix_pmf(np.arange(tau + 1), params)))
        if tail_mass <= 0:
            return -np.inf
        ll += tail_count * np.log(tail_mass)
    return ll


def sample_counts(params, size, rng):
    """Draw counts from the generative model (class, Bernoulli, Poisson)."""
    g = rng.choice(params.n_components, size=size, p=params.alpha)
    bern = rng.random(size) < params.p[g]
    return bern.astype(np.int64) + rng.poisson(params.lam[g])


# ----------------------------------------------------------------- fitting

def _split_hist(hist, tau):
    """Counts up to tau with their log factorials and multiplicities, as
    lists of floats, and the tail count."""
    low = hist.values <= tau
    vals = hist.values[low].astype(float)
    return (vals.tolist(), scipy.special.gammaln(vals + 1.0).tolist(),
            hist.counts[low].astype(float).tolist(),
            float(hist.counts[~low].sum()))


def _unpack(x, g):
    """Parameters at x = [weight logits | p logit | rate reals]."""
    pos = g - 1
    alpha = stick_break(x[:pos], floor=NU) if g > 1 else np.ones(1)
    p = NU + (1.0 - 2.0 * NU) * scipy.special.expit(x[pos:pos + 1])
    lam, _ = interval_from_real(x[pos + 1:], NU, LAMBDA_MAX)
    return UniMixtureParams(alpha=alpha, p=np.full(g, p[0]), lam=lam)


def _objective(x, vals, log_fact, cnts, tail_count, total, g, tau):
    """Negative mean capped log-likelihood and its gradient.

    A scalar kernel: vals, log_fact and cnts are the short lists of
    ``_split_hist``, and every sum runs over (class, value) in Python
    floats.  The one array call is the logistic of all coordinates; it
    saturates where exp(-x) would overflow.  Per class, with
    t_v = cnts_v / q_v * Pois(v; lam), the gradient needs only
    T0 = sum t_v, T1 = sum t_v v and T2 = sum t_v v (v - 1).
    """
    sig = scipy.special.expit(x).tolist()
    pos = g - 1
    nu = NU

    # weights: stick-breaking above the floor nu, as stick_break
    stick, pieces = stick_pieces(sig[:pos])
    scale = 1.0 - g * nu
    alpha = [nu + scale * s for s in pieces]
    # one p, shared by every class
    p_sig = sig[pos:pos + 1]
    p = [nu + (1.0 - 2.0 * nu) * s for s in p_sig] * g
    # rates: logistic interpolation on the log scale, as interval_from_real
    log_lo = math.log(nu)
    span = math.log(LAMBDA_MAX) - log_lo
    lam_sig = sig[pos + 1:]
    log_lam = [log_lo + span * s for s in lam_sig]
    exp, log = math.exp, math.log
    lam = [exp(y) for y in log_lam]

    # pois[c][v] = Poisson(v; lam_c);
    # q_v = sum_c alpha_c pois[c][v] (1 - p_c + p_c v / lam_c)
    pois = []
    q = [0.0] * len(vals)
    for a, pc, y, l in zip(alpha, p, log_lam, lam):
        base, slope = a * (1.0 - pc), a * pc / l
        row = [exp(v * y - l - lf) for v, lf in zip(vals, log_fact)]
        pois.append(row)
        q = [qv + pz * (base + slope * v) for qv, pz, v in zip(q, row, vals)]
    ll = 0.0
    w = []
    for c, qv in zip(cnts, q):
        if qv < 1e-300:
            qv = 1e-300
        ll += c * log(qv)
        w.append(c / qv)

    d_alpha, d_p, d_lam = [], [], []
    for a, pc, l, row in zip(alpha, p, lam, pois):
        t0 = t1 = t2 = 0.0
        for wv, pz, v in zip(w, row, vals):
            t = wv * pz
            t0 += t
            t *= v
            t1 += t
            t2 += t * (v - 1.0)
        r = t1 / l
        d_alpha.append((1.0 - pc) * t0 + pc * r)
        d_p.append(a * (r - t0))
        d_lam.append(a * ((1.0 - pc) * (r - t0) + pc / l * (t2 / l - t1)))

    if tail_count:
        pdtr = scipy.special.pdtr
        cdf_t = pdtr(tau, lam).tolist()
        cdf_tm1 = pdtr(tau - 1, lam).tolist()
        log_fact_tau = math.lgamma(tau + 1.0)
        below = [(1.0 - pc) * ct + pc * cm
                 for pc, ct, cm in zip(p, cdf_t, cdf_tm1)]
        T = max(1.0 - sum([a * b for a, b in zip(alpha, below)]), 1e-300)
        ll += tail_count * log(T)
        wt = tail_count / T
        for c in range(g):
            a, pc, l = alpha[c], p[c], lam[c]
            pmf_t = exp(tau * log_lam[c] - l - log_fact_tau)
            d_alpha[c] -= wt * below[c]
            d_p[c] += wt * a * (cdf_t[c] - cdf_tm1[c])
            d_lam[c] += wt * a * ((1.0 - pc) * pmf_t + pc * pmf_t * tau / l)

    # chain to unconstrained coordinates
    grad = [scale * gv
            for gv in stick_pieces_vjp(sig[:pos], stick, pieces, d_alpha)]
    d_p = [sum(d_p)]
    grad += [dp * (1.0 - 2.0 * nu) * s * (1.0 - s)
             for dp, s in zip(d_p, p_sig)]
    grad += [dl * l * span * s * (1.0 - s)
             for dl, l, s in zip(d_lam, lam, lam_sig)]
    return -ll / total, np.array(grad) / -total


def _start(hist, g):
    """The moment initialization, packed: equal weights, p from the share
    of nonzero counts, rates spread evenly about the mean count minus p."""
    total = hist.total
    frac_pos = float(hist.counts[hist.values >= 1].sum()) / total
    p0 = float(np.clip(frac_pos, NU, 1.0 - NU))
    mean_n = float(hist.values @ hist.counts) / total
    base = max(mean_n - p0, 0.05)
    lam = base * 2.0 * np.arange(1, g + 1) / (g + 1.0)
    frac = np.clip((np.full(1, p0) - NU) / (1.0 - 2.0 * NU), 1e-12,
                   1 - 1e-12)
    return np.concatenate([
        stick_break_inverse(np.full(g, 1.0 / g), floor=NU), logit(frac),
        real_from_interval(np.clip(lam, NU * (1 + 1e-9), LAMBDA_MAX), NU,
                           LAMBDA_MAX)])


def fit_uni(hist, g, tau=10, opts=FitOptions()):
    """Fit a G-class mixture with one p shared by the classes to a count
    histogram: 2G free parameters, G - 1 weights, p and G rates.

    Runs the moment initialization plus deterministic jittered restarts
    and keeps the best local maximizer.  The achieved log-likelihood
    never falls below the initialization's.
    """
    check_class_count(g)
    total = float(hist.total)
    args = (*_split_hist(hist, tau), total, g, tau)
    return fit_starts(minimize, row_loop(_objective), _start(hist, g), args,
                      total, tau, lambda x: _unpack(x, g), opts)


def select_G(hist, g_max, tau=10, opts=FitOptions()):
    """Fit G = 1..g_max and keep the AIC minimizer (ties -> smallest G)."""
    return select_aic(lambda g: fit_uni(hist, g, tau=tau, opts=opts), g_max)


@dataclass(frozen=True)
class AccuracySummary:
    """Linkage accuracy implied by a fitted mixture."""

    p_bar: float
    lambda_bar: float
    precision_hat: Optional[float]
    coverage_lower_bound: float
    coverage_hat: Optional[float] = None
    recall_hat: Optional[float] = None


def accuracy_from_fit(params, known_recall=None, known_coverage=None):
    """Translate fitted aggregates into accuracy estimates.

    p_bar alone lower-bounds the coverage; dividing by a known recall
    gives a coverage estimate, dividing by a known coverage gives a
    recall estimate.
    """
    p_bar = params.p_bar
    lambda_bar = params.lambda_bar
    denom = p_bar + lambda_bar
    precision = p_bar / denom if denom > 0 else None
    coverage_hat = None
    if known_recall is not None:
        if known_recall <= 0:
            raise ValueError("known recall must be positive")
        coverage_hat = p_bar / known_recall
    recall_hat = None
    if known_coverage is not None:
        if known_coverage <= 0:
            raise ValueError("known coverage must be positive")
        recall_hat = p_bar / known_coverage
    return AccuracySummary(
        p_bar=p_bar, lambda_bar=lambda_bar, precision_hat=precision,
        coverage_lower_bound=p_bar, coverage_hat=coverage_hat,
        recall_hat=recall_hat,
    )


def fit_document(fit, aic=None):
    """Structured-text (JSON) rendering of a fit result."""
    return result_document(fit, {
        "model": "count-mixture-univariate",
        "shared_p": True,
        "components": [
            {"alpha": float(a), "p": float(p), "lambda": float(l)}
            for a, p, l in zip(fit.params.alpha, fit.params.p, fit.params.lam)
        ],
    }, aic)
