"""Comparison coverage estimators.

Alongside the count-mixture estimators the harness reports: the naive
dual-system ratio that ignores linkage errors, two clerical corrections
(one adjusting for both error types, one assuming negligible false
positives among co-captured units), and a two-class conditional
independence mixture over agreement patterns (Racinskij).  The latter
two families reconstruct externally published estimators at the level
of detail stated here; they are compared qualitatively, not value
matched.

The mixture has as many parameters as its pattern histogram has degrees
of freedom, so its maximum likelihood fit takes the closed moment form
of latent structure analysis whenever the maximum is interior; only a
maximum on the boundary of the parameter space needs a search, scipy's
bounded L-BFGS-B from each of four fixed starts.  The estimate therefore
depends on the data alone, not on an iteration cap or a restart count
(racinskij_fit).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy

from ._optim import best_end
from .popsim import PATTERNS

__all__ = [
    "CoverageEstimate",
    "lincoln_petersen",
    "df_dt_estimators",
    "racinskij_fit",
]


@dataclass(frozen=True)
class CoverageEstimate:
    """One estimator's output for a replication."""

    estimator_id: str
    coverage_hat: float
    n_hat: float = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.coverage_hat > 0:
            raise ValueError("coverage estimate must be positive")


def lincoln_petersen(size_a, size_b, m):
    """Dual-system estimate from an intersection count m.

    Population size size_a * size_b / m; coverage of the first list is
    m / size_b.
    """
    if m <= 0:
        raise ValueError("intersection count must be positive")
    return CoverageEstimate(
        estimator_id="lincoln_petersen",
        coverage_hat=m / size_b,
        n_hat=size_a * size_b / m,
        diagnostics={"m": float(m)},
    )


def df_dt_estimators(links2_count, clerical, size_a, size_b):
    """Clerically corrected dual-system estimates.

    Both divide the one-to-one link count by the estimated recall to
    undo deletions; the first further multiplies by the estimated
    precision to remove surviving false positives, the second treats
    false positives among co-captured units as negligible.
    """
    if clerical.recall_hat is None or clerical.recall_hat <= 0:
        raise ValueError("clerical recall estimate must be positive")
    if clerical.precision_hat is None:
        raise ValueError("clerical precision estimate is undefined")
    m_df = links2_count * clerical.precision_hat / clerical.recall_hat
    m_dt = links2_count / clerical.recall_hat
    df = lincoln_petersen(size_a, size_b, m_df)
    dt = lincoln_petersen(size_a, size_b, m_dt)
    return (
        CoverageEstimate("df", df.coverage_hat, df.n_hat,
                         {"m_hat": m_df, "recall_hat": clerical.recall_hat,
                          "precision_hat": clerical.precision_hat}),
        CoverageEstimate("dt", dt.coverage_hat, dt.n_hat,
                         {"m_hat": m_dt, "recall_hat": clerical.recall_hat}),
    )


def _ci_loglik(counts, patterns, w, theta, eta):
    pm = (w * np.prod(theta ** patterns * (1 - theta) ** (1 - patterns), axis=1)
          + (1 - w) * np.prod(eta ** patterns * (1 - eta) ** (1 - patterns),
                              axis=1))
    return float(counts @ np.log(np.maximum(pm, 1e-300)))


# the box of the boundary search: w, theta and eta each in [lo, hi]
_BOX = (1e-10, 1.0 - 1e-10)
# the boundary search stops on a tighter rule than the count mixtures'
# fits: a boundary maximum is weakly identified along w, so its search
# gains log-likelihood slowly
_BOX_OPTIONS = {"maxiter": 15000, "ftol": 1e-15, "gtol": 1e-10}


def _interior_solution(freq, patterns):
    """(w, theta, eta) of the moment solution from the pattern shares
    freq, or None when there is none inside (0, 1): A singular, the
    eigenvalues complex or equal, or a parameter out of range."""
    def share(*k):
        return freq @ np.prod(patterns[:, list(k)], axis=1)

    a = np.array([[1.0, share(1)], [share(0), share(0, 1)]])
    b = np.array([[share(2), share(1, 2)], [share(0, 2), share(0, 1, 2)]])
    # B A^-1 = U1 diag(theta3, eta3) U1^-1 with U1 = [[1, 1], [theta1, eta1]],
    # and B^T A^-T = (A^-1 B)^T the same with theta2 and eta2
    rates = []
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            pair = (np.linalg.solve(a.T, b.T).T, np.linalg.solve(a, b).T)
        except np.linalg.LinAlgError:
            return None
        for m in pair:
            vals, vecs = np.linalg.eig(m)
            if np.iscomplexobj(vals) or vals[0] == vals[1]:
                return None
            order = np.argsort(vals)
            rates.append((vals[order], vecs[1, order] / vecs[0, order]))
        (third, first), (_, second) = rates
        theta, eta = np.array([first, second, third]).T
        w = (share(0) - eta[0]) / (theta[0] - eta[0])
    values = np.hstack([w, theta, eta])
    if not ((0 < values) & (values < 1)).all():
        return None
    return w, theta, eta


def _box_starts(counts, patterns):
    """The boundary search's four starts: pairs split by their number of
    agreements, and three fixed draws."""
    total = counts.sum()
    hi = patterns.sum(axis=1) >= 2
    wk0 = counts * hi
    wu0 = counts * ~hi
    starts = [np.hstack([
        min(max(wk0.sum() / total, 0.05), 0.95),
        np.clip((wk0 @ patterns) / max(wk0.sum(), 1e-9), 0.05, 0.95),
        np.clip((wu0 @ patterns) / max(wu0.sum(), 1e-9), 0.05, 0.95),
    ])]
    for restart in range(1, 4):
        rng = np.random.default_rng([0, restart])
        starts.append(np.hstack([rng.uniform(0.2, 0.8),
                                 rng.uniform(0.6, 0.95, size=3),
                                 rng.uniform(0.05, 0.45, size=3)]))
    return np.array(starts)


def _ci_negloglik(x, freq, patterns):
    """The negative mean log-likelihood of the pattern shares freq at
    x = (w, theta, eta), and its gradient."""
    w, theta, eta = x[0], x[1:4], x[4:]
    disagree = 1.0 - patterns
    cm = np.exp(patterns @ np.log(theta) + disagree @ np.log1p(-theta))
    cu = np.exp(patterns @ np.log(eta) + disagree @ np.log1p(-eta))
    pm = w * cm + (1.0 - w) * cu
    r = freq / pm
    rm, ru = w * r * cm, (1.0 - w) * r * cu
    grad = np.hstack([
        r @ (cu - cm),
        (rm @ disagree) / (1.0 - theta) - (rm @ patterns) / theta,
        (ru @ disagree) / (1.0 - eta) - (ru @ patterns) / eta,
    ])
    return -(freq @ np.log(pm)), grad


def racinskij_fit(pattern_hist, size_b):
    """Two-class conditional-independence mixture over agreement patterns.

    pattern_hist holds the multiplicities of the eight patterns (PATTERNS
    order) among the baseline candidate pairs, and the model is
    P(gamma) = w prod theta_k^g (1-theta_k)^(1-g) + (1-w) prod eta_k ....
    Its 7 parameters match the histogram's 7 degrees of freedom, so an
    interior maximum reproduces the pattern shares and has the closed
    form of latent structure analysis (Anderson 1954).  Writing P(.) for
    the share of pairs agreeing on the named fields,
    A = [[1, P(g2)], [P(g1), P(g1 g2)]] and
    B = [[P(g3), P(g2 g3)], [P(g1 g3), P(g1 g2 g3)]], the eigenvalues of
    B A^-1 are theta_3 and eta_3, its eigenvectors scaled to a first
    entry of 1 give theta_1 and eta_1, B^T A^-T gives theta_2 and eta_2
    (paired by eigenvalue), and w = (P(g1) - eta_1) / (theta_1 - eta_1).

    When A is singular, an eigenvalue is complex or a parameter falls
    outside (0, 1), the maximum lies on the boundary of the parameter
    space.  Then scipy.optimize.minimize's bounded L-BFGS-B searches
    over (w, theta, eta) in the box [1e-10, 1 - 1e-10]^7, with the
    analytic gradient, from each of four fixed starts, and the best end
    is kept.  scipy.optimize is loaded by the first such search.

    The class with the larger sum of agreement probabilities is taken as
    the matched class; its weight times the pair total estimates the
    intersection size.  Besides the parameters and the log-likelihood,
    the diagnostics report the method ("closed_form" or "lbfgsb_box"),
    saturated_gap (the saturated log-likelihood minus the fit's),
    boundary (a parameter ends on the box) and converged (True for the
    closed form, the search's success for the box).
    """
    counts = np.asarray(pattern_hist, dtype=float)
    if (counts.size != len(PATTERNS) or not np.isfinite(counts).all()
            or (counts < 0).any() or counts.sum() <= 0):
        raise ValueError("pattern_hist must hold eight finite, non-negative "
                         "multiplicities, not all zero")
    if not size_b > 0:
        raise ValueError("size_b must be positive")
    patterns = np.array(PATTERNS, dtype=float)
    total = counts.sum()
    freq = counts / total
    seen = counts > 0
    saturated = float(counts[seen] @ np.log(freq[seen]))

    fit = _interior_solution(freq, patterns)
    if fit is not None:
        w, theta, eta = fit
        method, converged, boundary = "closed_form", True, False
    else:
        end = best_end([scipy.optimize.minimize(
            _ci_negloglik, x0, args=(freq, patterns), jac=True,
            method="L-BFGS-B", bounds=[_BOX] * 7, options=_BOX_OPTIONS)
            for x0 in _box_starts(counts, patterns)])
        w, theta, eta = end.x[0], end.x[1:4], end.x[4:]
        method, converged = "lbfgsb_box", bool(end.success)
        boundary = bool(((end.x <= _BOX[0]) | (end.x >= _BOX[1])).any())
    ll = _ci_loglik(counts, patterns, w, theta, eta)

    # identify the matched class as the high-agreement one
    if theta.sum() < eta.sum():
        w, theta, eta = 1 - w, eta, theta
    m_hat = w * total
    return CoverageEstimate(
        estimator_id="racinskij",
        coverage_hat=m_hat / size_b,
        n_hat=None,
        diagnostics={
            "w": float(w), "theta": theta.tolist(), "eta": eta.tolist(),
            "loglik": ll, "converged": converged, "n_pairs": float(total),
            "method": method, "saturated_gap": saturated - ll,
            "boundary": boundary,
        },
    )
