"""Univariate mixture model for per-record link counts.

Each latent record class g contributes links as Bernoulli(p_g) true
positives convolved with Poisson(lambda_g) false positives; classes mix
with weights alpha_g.  The fits share one p_g = p across the classes.
Parameters are estimated by maximizing the capped composite
log-likelihood of the observed counts, the number of classes is chosen
by AIC, and the fitted aggregates p_bar / lambda_bar translate into
precision, coverage and recall estimates.

The model is the one-rule case of the multivariate one: a class's
component is Pois(n; lambda) * ((1 - p) + p n / lambda), with the same
capped tail.  So its fits run the count-mixture kernel of ``_optim``
(count_objective) with the one-cell head, p = NU + (1 - 2 NU) sigma(x),
and the parameters packed as [weight logits | p logit | rate reals].
The starts, the result types, the AIC selection and the JSON document
come from the same fit engine.
"""

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
    count_objective,
    fit_starts,
    interval_from_real,
    real_from_interval,
    logit,
    minimize,
    one_block,
    result_document,
    select_aic,
    stick_break,
    stick_break_inverse,
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

def _unpack(x, g):
    """Parameters at x = [weight logits | p logit | rate reals]."""
    pos = g - 1
    alpha = stick_break(x[:pos], floor=NU) if g > 1 else np.ones(1)
    p = NU + (1.0 - 2.0 * NU) * scipy.special.expit(x[pos:pos + 1])
    lam, _ = interval_from_real(x[pos + 1:], NU, LAMBDA_MAX)
    return UniMixtureParams(alpha=alpha, p=np.full(g, p[0]), lam=lam)


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
    objective = count_objective(hist.values[:, None], hist.counts, tau, g,
                                (None,))
    return fit_starts(minimize, one_block(objective), _start(hist, g), (),
                      float(hist.total), tau, lambda x: _unpack(x, g), opts)


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
