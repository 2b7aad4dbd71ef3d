"""Univariate mixture model for per-record link counts.

Each latent record class g contributes links as Bernoulli(p_g) true
positives convolved with Poisson(lambda_g) false positives; classes mix
with weights alpha_g.  The fits share one p_g = p across the classes.
Parameters are estimated by maximizing the capped composite
log-likelihood of the observed counts, the number of classes is chosen
by AIC, and the fitted aggregates p_bar / lambda_bar translate into
precision, coverage and recall estimates.

The model is the one-cell case of the multivariate one: a class's
component is Pois(n; lambda) * ((1 - p) + p n / lambda), with the same
capped tail.  So it reads the CountHistogram of ``_optim`` at width 1,
its parameters are MixtureParams whose p and lam are G x 1, and
comp_pmf and mix_pmf evaluate it; the functions here refuse other
widths.  Its fits run the count-mixture kernel of ``_optim``
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
    MixtureParams,
    check_class_count,
    count_objective,
    fit_starts,
    interval_from_real,
    real_from_interval,
    logit,
    minimize,
    mix_pmf,
    result_document,
    select_aic,
    split_counts,
    stick_break,
    stick_break_inverse,
)

__all__ = [
    "AccuracySummary",
    "capped_loglik",
    "fit_uni",
    "fit_uni_many",
    "select_G",
    "accuracy_from_fit",
    "sample_counts",
    "fit_document",
]


def _require_one_cell(*widths):
    """Refuse histograms or params whose width is not one cell."""
    if any(width != 1 for width in widths):
        raise ValueError(f"the univariate model counts one cell; got "
                         f"widths {widths}")


def capped_loglik(hist, params, tau):
    """Capped composite log-likelihood of a width-1 count histogram under
    width-1 params; other widths are refused.

    Counts up to tau contribute log pmf; everything above pools into a
    single tail cell with mass 1 - sum_{n<=tau} pmf.  The tail term is
    omitted when no observation exceeds tau.
    """
    _require_one_cell(hist.width, params.p.shape[1])
    keys, _, cnts, tail_count = split_counts(hist.keys, hist.counts, tau)
    ll = float(cnts @ np.log(mix_pmf(keys, params)))
    if tail_count:
        tail_mass = 1.0 - float(np.sum(mix_pmf(np.arange(tau + 1.0)[:, None],
                                               params)))
        if tail_mass <= 0:
            return -np.inf
        ll += tail_count * np.log(tail_mass)
    return ll


def sample_counts(params, size, rng):
    """Draw size counts, an (size, 1) matrix, from the generative model
    of width-1 params (class, Bernoulli, Poisson)."""
    _require_one_cell(params.p.shape[1])
    g = rng.choice(params.n_components, size=size, p=params.alpha)
    bern = rng.random(size) < params.p[g, 0]
    return (bern.astype(np.int64) + rng.poisson(params.lam[g, 0]))[:, None]


# ----------------------------------------------------------------- fitting

def _unpack(x, g):
    """Parameters at x = [weight logits | p logit | rate reals]."""
    pos = g - 1
    alpha = stick_break(x[:pos], floor=NU) if g > 1 else np.ones(1)
    p = NU + (1.0 - 2.0 * NU) * scipy.special.expit(x[pos:pos + 1])
    lam, _ = interval_from_real(x[pos + 1:], NU, LAMBDA_MAX)
    return MixtureParams(alpha=alpha, p=np.full((g, 1), p[0]),
                         lam=lam[:, None])


def _start(hist, g):
    """The moment initialization, packed: equal weights, p from the share
    of nonzero counts, rates spread evenly about the mean count minus p."""
    total = hist.total
    values = hist.keys[:, 0]
    frac_pos = float(hist.counts[values >= 1].sum()) / total
    p0 = float(np.clip(frac_pos, NU, 1.0 - NU))
    mean_n = float(values @ hist.counts) / total
    base = max(mean_n - p0, 0.05)
    lam = base * 2.0 * np.arange(1, g + 1) / (g + 1.0)
    frac = np.clip((np.full(1, p0) - NU) / (1.0 - 2.0 * NU), 1e-12,
                   1 - 1e-12)
    return np.concatenate([
        stick_break_inverse(np.full(g, 1.0 / g), floor=NU), logit(frac),
        real_from_interval(np.clip(lam, NU * (1 + 1e-9), LAMBDA_MAX), NU,
                           LAMBDA_MAX)])


def fit_uni(hist, g, tau=10):
    """Fit a G-class mixture with one p shared by the classes to a width-1
    count histogram: 2G free parameters, G - 1 weights, p and G rates.

    Runs the moment initialization plus deterministic jittered restarts
    and keeps the best local maximizer.  The achieved log-likelihood
    never falls below the initialization's.
    """
    return fit_uni_many((hist,), (g,), tau)[0]


def fit_uni_many(hists, gs, tau=10):
    """fit_uni of each of hists, of one total, at its class count in gs,
    as one lockstep search: one kernel block and count row per fit over
    the union of their counts, laid out with max(gs) classes.  Each
    FitResult is bit for bit its own while that union is short (see
    count_objective), as for select_G's class counts and
    appendix_c_start's seven marginals at G = 1 and 2."""
    for g in gs:
        check_class_count(g)
    _require_one_cell(*(h.width for h in hists))
    values = np.unique(np.concatenate([h.keys[:, 0] for h in hists]))
    counts = np.zeros((len(hists), values.size), np.int64)
    for row, h in zip(counts, hists):
        row[np.searchsorted(values, h.keys[:, 0])] = h.counts
    objective = count_objective(values[:, None], counts, tau, tuple(gs),
                                (None,) * len(hists))
    return fit_starts(minimize, objective,
                      tuple(_start(h, g) for h, g in zip(hists, gs)),
                      float(hists[0].total), tau,
                      tuple(lambda x, g=g: _unpack(x, g) for g in gs))


def select_G(hist, g_max, tau=10):
    """Fit G = 1..g_max, as one lockstep search, and keep the AIC
    minimizer (ties -> smallest G)."""
    if g_max < 1:
        raise ValueError("g_max must be at least 1")
    return select_aic(fit_uni_many((hist,) * g_max, range(1, g_max + 1),
                                   tau))


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
    """Translate the fitted aggregates p_bar and lambda_bar of width-1
    params into accuracy estimates.

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
            for a, p, l in zip(fit.params.alpha, fit.params.p[:, 0],
                               fit.params.lam[:, 0])
        ],
    }, aic)
