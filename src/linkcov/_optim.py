"""Reparameterizations and shared optimizer settings for the mixture fits.

All model parameters live in boxes or simplices; the fits run an
unconstrained quasi-Newton search, so each constrained quantity is mapped
through a smooth bijection:

* probabilities in an interval -> logistic transform,
* positive rates in [lo, hi]   -> logistic interpolation on the log scale,
* simplex weights              -> stick-breaking over logits.

Every forward map comes with the Jacobian pieces needed to chain analytic
gradients back to the unconstrained coordinates.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "FitOptions",
    "logit",
    "interval_from_real",
    "real_from_interval",
    "stick_break",
    "stick_break_inverse",
    "stick_break_vjp",
]


@dataclass(frozen=True)
class FitOptions:
    """Optimizer settings shared by the univariate and multivariate fits.

    max_iter / ftol mirror the stated convergence rule (relative change in
    the mean log-likelihood below 1e-9, at most 1000 iterations).  n_starts
    counts the deterministic multi-starts: the moment initialization plus
    n_starts - 1 jittered copies.
    """

    max_iter: int = 1000
    ftol: float = 1e-9
    gtol: float = 1e-7
    n_starts: int = 5
    jitter: float = 0.3
    seed: int = 0
    nu: float = 1e-4
    lambda_max: float = 100.0


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
    s = expit(x)
    v = np.exp(np.log(lo) + span * s)
    return v, v * span * s * (1.0 - s)


def real_from_interval(v, lo, hi):
    frac = (np.log(v) - np.log(lo)) / (np.log(hi) - np.log(lo))
    frac = np.clip(frac, 1e-12, 1.0 - 1e-12)
    return logit(frac)


def stick_break(x, floor=0.0):
    """Map G-1 free logits to a point of the G-simplex.

    With a positive floor the weights live in [floor, 1] and still sum
    to one; floor * G must stay below 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = x.size + 1
    v = expit(x)
    s = np.empty(g)
    rest = 1.0
    for i in range(g - 1):
        s[i] = v[i] * rest
        rest *= 1.0 - v[i]
    s[g - 1] = rest
    return floor + (1.0 - g * floor) * s


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


def stick_break_vjp(x, grad_s, floor=0.0):
    """Pull a gradient w.r.t. the weights back to the free logits.

    Uses ds_h/dx_h = c_h * v_h * (1 - v_h) with c_h the remaining stick,
    and ds_i/dx_h = -s_i * v_h for i > h.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = x.size + 1
    if g == 1:
        return np.empty(0)
    v = expit(x)
    s = np.empty(g)
    c = np.empty(g - 1)
    rest = 1.0
    for i in range(g - 1):
        c[i] = rest
        s[i] = v[i] * rest
        rest *= 1.0 - v[i]
    s[g - 1] = rest
    scale = 1.0 - g * floor
    out = np.zeros(g - 1)
    for h in range(g - 1):
        acc = grad_s[h] * c[h] * v[h] * (1.0 - v[h])
        for i in range(h + 1, g):
            acc -= grad_s[i] * s[i] * v[h]
        out[h] = scale * acc
    return out
