"""The count-mixture objectives against frozen copies of their numpy form.

``_oracle_objective`` and ``_oracle_objective_multi``, with the helpers
they call (stick_break and stick_break_vjp among them), are verbatim
copies of the numpy objectives the fits used before the per-call
kernels, kept here as test-only oracles.  The objectives that
``fit_uni`` and ``fit_multi`` hand to L-BFGS-B are captured through a
stub ``minimize`` and must give the oracle's value and gradient.
Values agree within rtol 1e-12; gradient components within rtol 1e-12
of the gradient's largest component, because a component that is a
difference of large terms carries the rounding of those terms, not of
itself.

Both fits hand L-BFGS-B one block kernel, ``fit_uni`` through its
one-cell head, captured here through its one-row case.
TestMultiBlockKernel checks, for both, that each row of a block gets the
same bytes as that row alone, wherever it sits in the block, and that a
row of a kernel on several blocks gets the bytes that its own kernel
gives it: for the univariate kernel on several histograms, one count
row per block, and for both on blocks of different class counts over
one histogram, laid out with the largest.
TestAllCountsInTail fits histograms with no count at or below the cap.

At saturated points (|x| up to 800: weights, cells, phi and rates on
their bounds) both objectives must return finite values and gradients
and warn of nothing; this pins the overflow of a scalar logistic
written as 1 / (1 + exp(-x)).  There the values are compared with the
oracle's.  The gradients are not: with densities down to 1e-300, a
component is the difference of terms as large as cnts / q, and both
forms carry rounding far above its size (0.20 against 0.07 at one
tied LogLinear(2) point).

``reference_count_objective`` is a verbatim copy of the block kernel as
it was when it ran its weights, head, log weights, tail and stick
gradient in Python floats, row by row.  TestPerRowKernelOracle holds
count_objective, which runs those steps as array passes over the rows
of a call, to its bytes: for both heads, blocks of G = 1..3 in one call,
histograms with and without a tail cell, calls of one row, of uneven
rows per block and with empty blocks, at ordinary and saturated points,
where neither kernel may warn.  The per-row kernel adds with Python's
sum, which compensates its rounding from Python 3.12 on, so the bytes
are held on Python up to 3.11.
"""

import math
import sys
import warnings

import numpy as np
import pytest
import scipy
from scipy.special import expit, gammaln, pdtr

from linkcov import _optim, neighbor_multi, neighbor_uni
from linkcov._optim import (_PAD_LOG, LAMBDA_MAX, NU, CountHistogram,
                            MixtureParams, count_objective,
                            interval_from_real, split_counts)
from linkcov.neighbor_multi import (PATTERNS, LogLinear, fit_multi,
                                    loglinear_probs, sample_multi_counts)
from linkcov.neighbor_uni import fit_uni, sample_counts
from test_neighbor_uni import (assert_gaps_and_tails, captured_objective,
                               histograms_of_one_total)

RTOL = 1e-12


# ------------------------------------------- stick-breaking the oracles use

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


# ------------------------------------------------------- univariate oracle

def _oracle_split_hist(hist, tau):
    """Counts up to tau with their log factorials, and the tail count."""
    values = hist.keys[:, 0]
    low = values <= tau
    vals = values[low].astype(float)
    return (vals, gammaln(vals + 1.0), hist.counts[low].astype(float),
            float(hist.counts[~low].sum()))


def _oracle_unpack(x, g, shared_p, nu, lam_max):
    """Parameters at x, plus d lam / dx for the gradient."""
    pos = g - 1
    alpha = stick_break(x[:pos], floor=nu) if g > 1 else np.ones(1)
    np_p = 1 if shared_p else g
    p_raw = x[pos:pos + np_p]
    p = nu + (1.0 - 2.0 * nu) * expit(p_raw)
    if shared_p:
        p = np.full(g, p[0])
    lam, dlam_dx = interval_from_real(x[pos + np_p:], nu, lam_max)
    return alpha, p, lam, dlam_dx


def _oracle_objective(x, vals, log_fact, cnts, tail_count, total, g,
                      shared_p, tau, nu, lam_max):
    """Negative mean capped log-likelihood and its gradient."""
    alpha, p, lam, dlam_dx = _oracle_unpack(x, g, shared_p, nu, lam_max)

    # pois[g, v] = Poisson(v; lam_g); shifted variant via v / lam
    logl = np.log(lam)
    pois = np.exp(np.outer(logl, vals) - lam[:, None] - log_fact)
    shift = pois * vals / lam[:, None]
    comp = (1.0 - p)[:, None] * pois + p[:, None] * shift
    q = np.maximum(alpha @ comp, 1e-300)

    wv = cnts / q
    ll = float(cnts @ np.log(q))
    d_alpha = comp @ wv
    d_p = alpha * ((shift - pois) @ wv)
    dpois = pois * (vals / lam[:, None] - 1.0)
    # shift is 0 at v = 0, so dshift is too
    dshift = shift * ((vals - 1.0) / lam[:, None] - 1.0)
    d_lam = alpha * (((1.0 - p)[:, None] * dpois + p[:, None] * dshift) @ wv)

    if tail_count:
        cdf_t = pdtr(tau, lam)
        cdf_tm1 = pdtr(tau - 1, lam)
        pmf_t = np.exp(tau * logl - lam - gammaln(tau + 1.0))
        pmf_tm1 = pmf_t * tau / lam
        T = 1.0 - float(alpha @ ((1.0 - p) * cdf_t + p * cdf_tm1))
        T = max(T, 1e-300)
        ll += tail_count * np.log(T)
        wt = tail_count / T
        d_alpha += wt * -((1.0 - p) * cdf_t + p * cdf_tm1)
        d_p += wt * alpha * (cdf_t - cdf_tm1)
        d_lam += wt * alpha * ((1.0 - p) * pmf_t + p * pmf_tm1)

    # chain to unconstrained coordinates
    pos = g - 1
    np_p = 1 if shared_p else g
    grad = np.empty_like(x)
    if g > 1:
        grad[:pos] = stick_break_vjp(x[:pos], d_alpha, floor=nu)
    sp = expit(x[pos:pos + np_p])
    dp_dx = (1.0 - 2.0 * nu) * sp * (1.0 - sp)
    grad[pos:pos + np_p] = (d_p.sum() if shared_p else d_p) * dp_dx
    grad[pos + np_p:] = d_lam * dlam_dx
    return -ll / total, -grad / total


# ----------------------------------------------------- multivariate oracle

def _oracle_n_p(g, m, constraint, du):
    """Length of the packed true-positive block (du: free coefficients)."""
    if constraint == "free":
        return g * m
    if constraint == "shared_p":
        return m
    return 1 + du


def _oracle_unpack_multi(x, g, m, n_p, constraint, Zv, nu, lam_max):
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


def _oracle_objective_multi(x, keys, log_fact, cnts, tail_count, total, g, m,
                            n_p, constraint, Zv, tau, nu, lam_max):
    """Negative mean capped log-likelihood with analytic gradient.

    Every per-count sum is a (k, g) or (g, m) matrix product; nothing of
    size k * g * m is formed.
    """
    alpha, p, lam, dlam_dx, aux = _oracle_unpack_multi(
        x, g, m, n_p, constraint, Zv, nu, lam_max)
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


def _oracle_split_multi(hist, tau):
    """Count vectors with |t| <= tau, their summed log factorials, their
    multiplicities, and the tail count."""
    low = hist.keys.sum(axis=1) <= tau
    keys = hist.keys[low].astype(float)
    return (keys, gammaln(keys + 1.0).sum(axis=1),
            hist.counts[low].astype(float), float(hist.counts[~low].sum()))


# ------------------------------------------------- the per-row block kernel

# _optim.count_objective as it was before its per-row steps ran as array
# passes over the rows of a call: the weights, the head, the log weights,
# the tail and the stick's gradient in Python floats, row by row, with
# the stick-breaking helpers it called.  Kept verbatim as the oracle
# that the array kernel must reproduce byte for byte.
def stick_pieces(v):
    """Stick-breaking over logistic values v, in Python floats.

    Returns the stick left before each break and the len(v) + 1 pieces
    (summing to one); stick_break is floor + (1 - G floor) * pieces.
    The lists hold a few elements, where array calls would cost more
    than the arithmetic.
    """
    stick, pieces = [], []
    rest = 1.0
    for vi in v:
        stick.append(rest)
        pieces.append(vi * rest)
        rest *= 1.0 - vi
    pieces.append(rest)
    return stick, pieces


def stick_pieces_vjp(v, stick, pieces, grad_s):
    """Pull a gradient w.r.t. the pieces back to the logits behind v.

    Uses d piece_h / dx_h = stick_h v_h (1 - v_h) and, for i > h,
    d piece_i / dx_h = -piece_i v_h.
    """
    n = len(v)
    out = [0.0] * n
    later = grad_s[n] * pieces[n]
    for h in range(n - 1, -1, -1):
        vh = v[h]
        out[h] = grad_s[h] * stick[h] * vh * (1.0 - vh) - vh * later
        later += grad_s[h] * pieces[h]
    return out


def reference_count_objective(keys, counts, tau, gs, designs):
    """The per-row block kernel: count_objective's arguments and
    result."""
    totals = np.sum(counts, axis=-1)
    if np.shape(counts) != (len(designs), len(keys)) or np.ptp(totals):
        raise ValueError(f"need one count row per block over the keys, of "
                         f"one total; got {np.shape(counts)}, {totals}")
    if len(gs) != len(designs):
        raise ValueError(f"need one class count per block; got {len(gs)} "
                         f"for {len(designs)} blocks")
    keys, log_fact, cnts, tail_counts = split_counts(keys, counts, tau)
    k, m = keys.shape
    total = float(totals[0])
    cols = np.empty((k, m + 2))
    cols[:, :m] = keys
    cols[:, m] = 1.0
    cols[:, m + 1] = log_fact
    cols_t = np.ascontiguousarray(cols.T)
    cols = np.ascontiguousarray(cols[:, :m + 1])
    # per row, rows [log lam_c | log alpha_c - |lam_c| | -1] for c < G,
    # then [p / lam_c | 1 - |p| | 0], and the (2G, k) block of
    # [alpha a | alpha mix]; views[S] holds the first S rows of buffers
    # made for the largest block so far
    g = max(gs)
    nu = NU
    # per block: its classes, weight logits, head end and weight scale
    layouts = [(gb, gb - 1, gb + (0 if design is None else design.shape[1]),
                1.0 - gb * nu) for gb, design in zip(gs, designs)]
    views = []

    def grow(n_rows):
        coef = np.zeros((n_rows, 2 * g, m + 2))
        coef[:, :g, m + 1] = -1.0
        a_mix = np.empty((n_rows, 2 * g, k))
        views[:] = [(coef[:i], a_mix[:i]) for i in range(n_rows + 1)]

    log_lo = math.log(nu)
    span = math.log(LAMBDA_MAX) - log_lo
    log_fact_tau = math.lgamma(tau + 1.0)
    expit, pdtr = scipy.special.expit, scipy.special.pdtr
    exp, log = math.exp, math.log

    def objective(blocks):
        sizes = [block.shape[0] for block in blocks]
        n_rows = sum(sizes)
        if n_rows >= len(views):
            grow(n_rows)
        coef, a_mix = views[n_rows]
        # the rate logistics, padded classes at 0 (rates NU)
        sig_lam = np.zeros((n_rows, g * m))
        etas, sig_heads, row_layouts, lo = [], [], [], 0
        for block, design, layout in zip(blocks, designs, layouts):
            if block.shape[0]:
                gb, n_alpha, n_head, _ = layout
                sig = expit(block)
                etas += ([None] * block.shape[0] if design is None else
                         np.matmul(design, block[:, n_alpha + 1:n_head, None]
                                   )[:, :, 0].tolist())
                sig_heads += sig[:, :n_alpha + 1].tolist()
                row_layouts += [layout] * block.shape[0]
                sig_lam[lo:lo + block.shape[0], :gb * m] = sig[:, n_head:]
                lo += block.shape[0]
        log_lam = np.add(log_lo, span * sig_lam.reshape(n_rows, g, m),
                         out=coef[:, :g, :m])
        lam = np.exp(log_lam)
        lam_sums = lam.sum(axis=2).tolist()
        heads, alphas, r, p, log_terms = [], [], [], [], []
        for s, eta, lam_sum, (gb, n_alpha, _, scale) in zip(
                sig_heads, etas, lam_sums, row_layouts):
            stick, pieces = stick_pieces(s[:n_alpha])
            alpha = [nu + scale * piece for piece in pieces]
            sp = s[n_alpha]
            # the head logit's gradient is (dl/dp . r) times slope's
            # product: the softmax r and phi (1 - phi) for a design,
            # r = 1 and (1 - 2 nu) sigma (1 - sigma) for None
            if eta is None:
                r_row = [1.0]
                p += [nu + (1.0 - 2.0 * nu) * sp]
                slope = ((1.0 - 2.0 * nu) * sp, 1.0 - sp)
            else:
                mx = max(0.0, max(eta))
                e = [exp(et - mx) for et in eta]
                den = exp(-mx) + sum(e)
                r_row = [ei / den for ei in e]
                p += [sp * ri for ri in r_row]
                slope = (sp, 1.0 - sp)
            r += r_row
            heads.append((s, stick, pieces, slope))
            alphas.append(alpha)
            log_terms.append([log(ac) - ls for ac, ls in zip(alpha, lam_sum)]
                             + [_PAD_LOG] * (g - gb))
        r = np.array(r).reshape(n_rows, m, 1)
        p = np.array(p).reshape(n_rows, 1, m)
        psum = p.sum(axis=2)
        coef[:, :g, m] = log_terms
        coef[:, g:, m] = 1.0 - psum
        np.divide(p, lam, out=coef[:, g:, :m])
        expo = np.matmul(coef, cols_t)
        a = np.exp(expo[:, :g], out=a_mix[:, :g])
        mix = np.multiply(a, expo[:, g:], out=a_mix[:, g:])
        q = mix.sum(axis=1)
        np.maximum(q, 1e-300, out=q)
        row_cnts = np.repeat(cnts, sizes, axis=0)
        w = row_cnts / q
        ll = np.matmul(row_cnts[:, None, :], np.log(q, out=q)[:, :, None]
                       ).ravel().tolist()
        # sums[., c, gamma] = alpha_c sum_k w [a | mix]_c t_gamma, and in
        # column m alpha_c sum_k w [a | mix]_c
        sums = np.matmul(np.multiply(a_mix, w[:, None, :], out=a_mix), cols)
        # dq/dp = alpha a (t/lam - 1); dq/dlam = alpha (mix (t/lam - 1)
        # - a p t / lam^2); ratios[:, 0] is wat = sums[:, :g, :m] / lam
        ratios = sums[:, :, :m].reshape(n_rows, 2, g, m) / lam[:, None]
        diffs = ratios - sums[:, :, m:].reshape(n_rows, 2, g, 1)
        d_p = diffs[:, 0]
        d_lam = diffs[:, 1] - p * ratios[:, 0] / lam
        d_alphas = [[sm / ac for sm, ac in zip(row_sums, alpha)]
                    for row_sums, alpha in zip(sums[:, g:, m].tolist(),
                                               alphas)]
        row_tails = sum(([t] * n for t, n in zip(tail_counts, sizes)), [])
        tail_rows = [i for i, t in enumerate(row_tails) if t]
        if tail_rows:
            cdf_ts = pdtr(tau, lam_sums).tolist()
            cdf_tm1s = pdtr(tau - 1, lam_sums).tolist()
            tail_p, tail_lam = [], []
            rows = list(zip(alphas, d_alphas, lam_sums, psum.ravel().tolist(),
                            cdf_ts, cdf_tm1s, row_tails))
            for i in tail_rows:
                alpha, d_alpha, lam_sum, ps, cdf_t, cdf_tm1, n_tail = rows[i]
                below = [(1.0 - ps) * ct + ps * cm
                         for ct, cm in zip(cdf_t, cdf_tm1)]
                T = max(1.0 - sum([ac * b for ac, b in zip(alpha, below)]),
                        1e-300)
                ll[i] += n_tail * log(T)
                wt = n_tail / T
                row_p, row_lam = [0.0] * g, [0.0] * g
                for c in range(len(alpha)):
                    ls = lam_sum[c]
                    pmf_t = exp(tau * log(ls) - ls - log_fact_tau)
                    d_alpha[c] -= wt * below[c]
                    row_p[c] = wt * (alpha[c] * (cdf_t[c] - cdf_tm1[c]))
                    row_lam[c] = wt * (alpha[c] * ((1.0 - ps) * pmf_t
                                                   + ps * pmf_t * tau / ls))
                tail_p.append(row_p)
                tail_lam.append(row_lam)
            # a slice of all rows adds in place, a list of some by copies
            at = slice(None) if len(tail_rows) == n_rows else tail_rows
            d_p[at] += np.array(tail_p)[:, :, None]
            d_lam[at] += np.array(tail_lam)[:, :, None]

        # chain rules
        dldp = d_p.sum(axis=1, keepdims=True)
        dldr = np.matmul(dldp, r)
        d_heads = [
            [scale * gv for gv in stick_pieces_vjp(s[:n_alpha], stick, pieces,
                                                   d_alpha)]
            + [dr * slope[0] * slope[1]]
            for (s, stick, pieces, slope), d_alpha, ((dr,),),
            (_, n_alpha, _, scale) in zip(heads, d_alphas, dldr.tolist(),
                                          row_layouts)]
        d_cells = p * (dldp - dldr)
        d_rates = d_lam.reshape(n_rows, -1) * (lam.reshape(n_rows, -1)
                                               * span * sig_lam
                                               * (1.0 - sig_lam))
        grads, lo = [], 0
        for block, design, (gb, n_alpha, n_head, _) in zip(blocks, designs,
                                                           layouts):
            hi = lo + block.shape[0]
            grad = np.empty(block.shape)
            if hi > lo:
                grad[:, :n_alpha + 1] = d_heads[lo:hi]
                if design is not None:
                    np.matmul(d_cells[lo:hi], design,
                              out=grad[:, None, n_alpha + 1:n_head])
                grad[:, n_head:] = d_rates[lo:hi, :gb * m]
                np.divide(grad, -total, out=grad)
            grads.append(grad)
            lo = hi
        return [-v / total for v in ll], tuple(grads)

    return objective


# ---------------------------------------------------------------- fixtures

# the true-positive cells that the "flat" data's classes share
FLAT_P = np.array([0.05, 0.1, 0.05, 0.2, 0.1, 0.15, 0.25])
MULTI_INIT = {"lambda": np.linspace(0.2, 0.5, 7),
              "u": np.array([0.5, -0.3, 0.2, 0.1, -0.2, 0.3]),
              "phi": 0.8}
MULTI_CONSTRAINTS = [LogLinear(1), LogLinear(2)]


def _uni_hist():
    truth = MixtureParams(alpha=[0.6, 0.4], p=[[0.8], [0.9]],
                          lam=[[0.3], [2.5]])
    draws = sample_counts(truth, 5000, np.random.default_rng(5))
    return CountHistogram.from_observations(draws)


def _multi_hist(data="flat"):
    """Counts from two classes with flat rates ("flat"), or from three
    classes whose rates differ by rule and whose log-linear cells carry
    strong interactions, spanning 0.005 to 0.45 ("interacting")."""
    if data == "flat":
        p = FLAT_P
        truth = MixtureParams(
            alpha=[0.6, 0.4], p=[p, p],
            lam=[np.full(7, 0.1), np.full(7, 0.7)],
        )
        draws = sample_multi_counts(truth, 5000, np.random.default_rng(51))
    else:
        p = loglinear_probs(0.7, np.array([2.0, -1.0, 0.5, -1.5, 1.0, 0.8]),
                            LogLinear(2))
        truth = MixtureParams(
            alpha=[0.5, 0.3, 0.2], p=[p, p, p],
            lam=[np.linspace(0.02, 0.2, 7), np.linspace(0.9, 0.1, 7),
                 np.full(7, 1.2)],
        )
        draws = sample_multi_counts(truth, 4000, np.random.default_rng(53))
    return CountHistogram.from_observations(draws)


def _tau(max_count, tail):
    """A cap that puts some counts in the tail cell, or none."""
    return 3 if tail else int(max_count)


def uni_pair(monkeypatch, g, tail):
    """(objective, x0) as fit_uni runs it, and the oracle's args:
    fit_uni shares one p across the classes, the oracle's shared_p."""
    hist = _uni_hist()
    tau = _tau(hist.keys.max(), tail)
    monkeypatch.setattr(_optim, "N_STARTS", 1)
    fun, x0 = captured_objective(
        monkeypatch, neighbor_uni, fit_uni, hist, g, tau=tau)
    oracle_args = (*_oracle_split_hist(hist, tau), float(hist.total), g,
                   True, tau, NU, LAMBDA_MAX)
    assert (oracle_args[3] > 0) == tail
    return fun, x0, oracle_args


def multi_pair(monkeypatch, g, constraint, tail, data):
    """(objective, x0) as fit_multi runs it, and the oracle's args."""
    hist = _multi_hist(data)
    tau = _tau(hist.keys.sum(axis=1).max(), tail)
    monkeypatch.setattr(_optim, "N_STARTS", 1)
    fun, x0 = captured_objective(
        monkeypatch, neighbor_multi, fit_multi, hist, g,
        constraint=constraint, tau=tau, init=MULTI_INIT)
    m = len(PATTERNS)
    key = "loglinear"
    Zv = constraint.Z
    du = Zv.shape[1]
    oracle_args = (*_oracle_split_multi(hist, tau), float(hist.total), g, m,
                   _oracle_n_p(g, m, key, du), key, Zv, tau, NU, LAMBDA_MAX)
    assert (oracle_args[3] > 0) == tail
    return fun, x0, oracle_args


def assert_matches_oracle(value, grad, ref_value, ref_grad):
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert value == pytest.approx(ref_value, rel=RTOL, abs=0)
    scale = float(np.max(np.abs(ref_grad))) if ref_grad.size else 0.0
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=RTOL * scale)


def jittered(x0, seed, n_points=4):
    """x0, then points around it at two jitter scales."""
    rng = np.random.default_rng(seed)
    yield x0
    for scale in (0.5, 1.5):
        for _ in range(n_points):
            yield x0 + scale * rng.standard_normal(x0.size)


def saturated(n, seed, n_points=6):
    """Points with every coordinate at +-800 or spread up to |800|."""
    rng = np.random.default_rng(seed)
    yield np.full(n, 800.0)
    yield np.full(n, -800.0)
    for _ in range(n_points):
        yield 800.0 * rng.choice([-1.0, 1.0], n)
        yield rng.uniform(-800.0, 800.0, n)


def evaluate_quietly(fun, x):
    """The objective at x; any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = fun(x)
    return float(value), np.asarray(grad, dtype=float)


def oracle_at(oracle, x, args):
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return oracle(x, *args)


def assert_value_matches(value, oracle_result):
    """Finite value and gradient; the value matches a finite oracle's."""
    ref_value = oracle_result[0]
    if np.isfinite(ref_value):
        assert value == pytest.approx(ref_value, rel=RTOL, abs=0)


# ------------------------------------------------------------------- tests

GS = [1, 2, 3]
TAILS = pytest.mark.parametrize("tail", [True, False], ids=["tail", "no_tail"])
MULTI_DATA = pytest.mark.parametrize("data", ["flat", "interacting"])


class TestUniObjectiveOracle:
    @TAILS
    @pytest.mark.parametrize("g", GS)
    def test_matches_oracle(self, monkeypatch, g, tail):
        fun, x0, oracle_args = uni_pair(monkeypatch, g, tail)
        for x in jittered(x0, seed=100 * g + 10 + tail):
            value, grad = evaluate_quietly(fun, x)
            assert_matches_oracle(value, grad,
                                  *_oracle_objective(x, *oracle_args))

    @TAILS
    @pytest.mark.parametrize("g", GS)
    def test_saturated_points(self, monkeypatch, g, tail):
        fun, x0, oracle_args = uni_pair(monkeypatch, g, tail)
        for x in saturated(x0.size, seed=200 * g + 10 + tail):
            value, grad = evaluate_quietly(fun, x)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            assert_value_matches(value, oracle_at(_oracle_objective, x,
                                                  oracle_args))


class TestMultiObjectiveOracle:
    @MULTI_DATA
    @TAILS
    @pytest.mark.parametrize("constraint", MULTI_CONSTRAINTS, ids=str)
    @pytest.mark.parametrize("g", GS)
    def test_matches_oracle(self, monkeypatch, g, constraint, tail, data):
        fun, x0, oracle_args = multi_pair(monkeypatch, g, constraint,
                                                tail, data)
        for x in jittered(x0, seed=300 * g + tail):
            value, grad = evaluate_quietly(fun, x)
            assert_matches_oracle(value, grad,
                                  *_oracle_objective_multi(x, *oracle_args))

    @MULTI_DATA
    @TAILS
    @pytest.mark.parametrize("constraint", MULTI_CONSTRAINTS, ids=str)
    @pytest.mark.parametrize("g", GS)
    def test_saturated_points(self, monkeypatch, g, constraint, tail, data):
        fun, x0, oracle_args = multi_pair(monkeypatch, g, constraint,
                                                tail, data)
        for x in saturated(x0.size, seed=400 * g + tail):
            value, grad = evaluate_quietly(fun, x)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            assert_value_matches(value, oracle_at(_oracle_objective_multi, x,
                                                  oracle_args))


def row_bytes(fun, X, row):
    """The bytes of the value and the gradient that the one-block kernel
    fun gives row of X."""
    values, (grads,) = fun((X,))
    return float(values[row]).hex(), np.asarray(grads[row]).tobytes()


def assert_rows_match_alone(fun, x0s, g, tail, owns=None):
    """Each point around the start x0s[b] of each block b gets, in calls
    of 1 to 5 points per block, at every place in its block, the bytes
    that its own one-block kernel gives it alone: owns[b], the kernel of
    block b's own histogram, class count and head, or fun itself when it
    has one block."""
    points = [np.array([*jittered(x0, seed=500 * g + tail + 7 * b),
                        *saturated(x0.size, seed=600 * g + tail + 7 * b)])
              for b, x0 in enumerate(x0s)]
    alone = [[row_bytes(own, x[None], 0) for x in block]
             for own, block in zip(owns or [fun], points)]
    n = len(points[0])
    for size in range(1, 6):
        for i in range(n):
            rows = [(i + j) % n for j in range(size)]
            values, grads = fun(tuple(block[rows] for block in points))
            got = [(float(v).hex(), grad.tobytes()) for v, grad in
                   zip(values, [row for block in grads for row in block])]
            assert got == [alone[b][r] for b in range(len(x0s))
                           for r in rows]


def fit_blocks(hist, gs, constraints, tau):
    """The fits of hist at each class count of gs under the constraint
    of the same place, from MULTI_INIT, as one lockstep search on
    neighbor_multi's minimize, as select_G_multi runs its fits."""
    x0s = [neighbor_multi._start_point(g, MULTI_INIT, c)
           for g, c in zip(gs, constraints)]
    return _optim.fit_counts(neighbor_multi.minimize, (hist,) * len(gs), gs,
                             constraints, x0s, tau, (71,))


class TestMultiBlockKernel:
    @MULTI_DATA
    @TAILS
    @pytest.mark.parametrize("constraint", MULTI_CONSTRAINTS, ids=str)
    @pytest.mark.parametrize("g", GS)
    def test_rows_match_alone(self, monkeypatch, g, constraint, tail, data):
        hist = _multi_hist(data)
        tau = _tau(hist.keys.sum(axis=1).max(), tail)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fun, starts = captured_objective(
            monkeypatch, neighbor_multi, fit_multi, hist, g,
            constraint=constraint, tau=tau, init=MULTI_INIT,
            block=True)
        assert_rows_match_alone(fun, [starts[0][0]], g, tail)

    @TAILS
    @pytest.mark.parametrize("g", GS)
    def test_uni_rows_match_alone(self, monkeypatch, g, tail):
        # the univariate fit runs the same kernel through its one-cell
        # head, and its lockstep starts rely on the same property
        hist = _uni_hist()
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        fun, starts = captured_objective(
            monkeypatch, neighbor_uni, fit_uni, hist, g,
            tau=_tau(hist.keys.max(), tail), block=True)
        assert_rows_match_alone(fun, [starts[0][0]], g, tail)

    @TAILS
    @pytest.mark.parametrize("g", GS)
    def test_histogram_rows_match_alone(self, monkeypatch, g, tail):
        # the Appendix-C marginal fits call one kernel on several
        # histograms of one total, one count row per block: each row must
        # get the bytes that its own histogram's kernel, as fit_uni builds
        # it, gives it alone, whether a key is absent from its histogram
        # and whether its block, or only another, has a tail cell
        hists = histograms_of_one_total(4)
        tau = 5 if tail else max(int(h.keys.max()) for h in hists)
        assert_gaps_and_tails(hists, tau, tails=tail)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        owns = [captured_objective(monkeypatch, neighbor_uni, fit_uni, h, g,
                                   tau=tau, block=True)[0] for h in hists]
        fun, starts = captured_objective(
            monkeypatch, neighbor_uni, neighbor_uni.fit_uni_many, hists,
            (g,) * len(hists), tau, block=True)
        assert_rows_match_alone(fun, [block[0] for block in starts], g, tail,
                                owns)

    @TAILS
    def test_class_count_rows_match_alone(self, monkeypatch, tail):
        # select_G calls one kernel on blocks of G = 1..3 over one
        # histogram, every row laid out with three classes: each row must
        # get the bytes that its own G's kernel gives it alone
        hist = _uni_hist()
        tau = _tau(hist.keys.max(), tail)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        owns = [captured_objective(monkeypatch, neighbor_uni, fit_uni, hist,
                                   g, tau=tau, block=True)[0] for g in GS]
        fun, starts = captured_objective(
            monkeypatch, neighbor_uni, neighbor_uni.fit_uni_many,
            (hist,) * len(GS), GS, tau, block=True)
        assert_rows_match_alone(fun, [block[0] for block in starts],
                                len(GS), tail, owns)

    @MULTI_DATA
    @TAILS
    def test_class_count_and_order_rows_match_alone(self, monkeypatch, tail,
                                                    data):
        # select_G_multi calls one kernel on a block per (G, order), G =
        # 1..3, every row laid out with three classes: each row must get
        # the bytes that fit_multi's kernel at its G and order gives it
        hist = _multi_hist(data)
        tau = _tau(hist.keys.sum(axis=1).max(), tail)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        pairs = [(g, c) for g in GS for c in MULTI_CONSTRAINTS]
        owns = [captured_objective(monkeypatch, neighbor_multi, fit_multi,
                                   hist, g, constraint=c, tau=tau,
                                   init=MULTI_INIT, block=True)[0]
                for g, c in pairs]
        fun, starts = captured_objective(
            monkeypatch, neighbor_multi, fit_blocks, hist,
            [g for g, _ in pairs], tuple(c for _, c in pairs), tau,
            block=True)
        assert_rows_match_alone(fun, [block[0] for block in starts],
                                len(GS), tail, owns)

    @MULTI_DATA
    @TAILS
    @pytest.mark.parametrize("g", GS)
    def test_mixed_orders_match_alone(self, monkeypatch, g, tail, data):
        # the joint fits of both orders call one kernel on a LogLinear(1)
        # and a LogLinear(2) block; in calls of 2 to 10 rows, split
        # between them in several ways, each row must get the bytes that
        # its own order's kernel gives it alone
        hist = _multi_hist(data)
        tau = _tau(hist.keys.sum(axis=1).max(), tail)
        monkeypatch.setattr(_optim, "N_STARTS", 1)
        points, alone = [], []
        for constraint in MULTI_CONSTRAINTS:
            fun, starts = captured_objective(
                monkeypatch, neighbor_multi, fit_multi, hist, g,
                constraint=constraint, tau=tau, init=MULTI_INIT,
                block=True)
            x0 = starts[0][0]
            seed = 700 * g + 10 * constraint.d + tail
            points.append(np.array([*jittered(x0, seed=seed),
                                    *saturated(x0.size, seed=seed)]))
            alone.append([row_bytes(fun, x[None], 0)
                          for x in points[-1]])
        joint, starts = captured_objective(
            monkeypatch, neighbor_multi, fit_blocks, hist, (g, g),
            tuple(MULTI_CONSTRAINTS), tau, block=True)
        assert [b.shape[1] for b in starts] == [p.shape[1] for p in points]
        n = len(points[0])
        for size in range(2, 11):
            for first in sorted({1, size // 2, size - 1}):
                for i in range(n):
                    rows = [[(i + j) % n for j in range(first)],
                            [(i + 3 + j) % n for j in range(size - first)]]
                    values, grads = joint(
                        tuple(p[r] for p, r in zip(points, rows)))
                    got = [(float(v).hex(), grad.tobytes()) for v, grad in
                           zip(values, [*grads[0], *grads[1]])]
                    assert got == [alone[b][k] for b in (0, 1)
                                   for k in rows[b]]


class TestAllCountsInTail:
    # no count vector at or below tau: the kernel sums over no cell, and
    # the tail cell alone carries the log-likelihood
    @pytest.mark.filterwarnings("error")
    def test_uni(self):
        fit = fit_uni(CountHistogram([[12], [15]], [30, 20]), 1, tau=10)
        assert np.isfinite(fit.loglik) and fit.loglik <= 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("constraint", MULTI_CONSTRAINTS, ids=str)
    def test_multi(self, constraint):
        hist = CountHistogram([[2, 2, 2, 2, 2, 1, 1],
                               [3, 2, 2, 2, 2, 2, 2]], [30, 20])
        fit = fit_multi(hist, 1, constraint=constraint, tau=10)
        assert np.isfinite(fit.loglik) and fit.loglik <= 0.0


# ----------------------------------------------- the per-row kernel oracle

def result_bytes(result):
    """The bytes of a block kernel's values and gradients."""
    values, grads = result
    return ([float(v).hex() for v in values],
            [(grad.shape, grad.tobytes()) for grad in grads])


def assert_matches_per_row_kernel(args, x0s, seed):
    """count_objective(*args) gives the bytes of the per-row kernel on
    calls of one row in one block, one row in each block, and uneven
    rows per block with empty blocks among them, drawn from points
    around each block's start x0s[b] and saturated points; neither
    kernel warns."""
    kernel, reference = count_objective(*args), reference_count_objective(
        *args)
    points = [np.array([*jittered(x0, seed=seed + 7 * b),
                        *saturated(x0.size, seed=seed + 7 * b)])
              for b, x0 in enumerate(x0s)]
    n_blocks, n_points = len(points), len(points[0])
    rng = np.random.default_rng(seed)
    layouts = ([tuple(int(b == i) for b in range(n_blocks))
                for i in range(n_blocks)] + [(1,) * n_blocks]
               + [tuple(rng.integers(0, 6, n_blocks)) for _ in range(6)])
    for sizes in layouts:
        for first in range(0, n_points, 4):
            blocks = tuple(
                block[[(first + 3 * b + j) % n_points for j in range(size)]]
                for b, (block, size) in enumerate(zip(points, sizes)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got, want = kernel(blocks), reference(blocks)
            assert result_bytes(got) == result_bytes(want)


def histogram_rows(hists):
    """The union of the width-1 histograms' keys and a count row per
    histogram over it, by np.unique and searchsorted: the layout that
    _optim._key_union gives them."""
    values = np.unique(np.concatenate([h.keys[:, 0] for h in hists]))
    counts = np.zeros((len(hists), values.size), np.int64)
    for row, h in zip(counts, hists):
        row[np.searchsorted(values, h.keys[:, 0])] = h.counts
    return values[:, None], counts


# the per-row kernel sums with Python's sum, which from 3.12 on
# compensates its rounding; the array kernel adds as sum did up to 3.11
@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() compensates its rounding from 3.12 on")
class TestPerRowKernelOracle:
    @TAILS
    def test_univariate(self, tail):
        hist = _uni_hist()
        tau = _tau(hist.keys.max(), tail)
        args = (hist.keys, np.tile(hist.counts, (len(GS), 1)), tau,
                tuple(GS), (None,) * len(GS))
        assert (split_counts(hist.keys, hist.counts, tau)[3] > 0) == tail
        x0s = [neighbor_uni._start(hist, g) for g in GS]
        assert_matches_per_row_kernel(args, x0s, seed=800 + tail)

    def test_univariate_histograms(self):
        # four histograms, some with a tail cell and some without, and
        # keys that some lack, at G = 1, 2, 3, 2
        hists = histograms_of_one_total(4)
        tau = 5
        assert_gaps_and_tails(hists, tau)
        gs = (1, 2, 3, 2)
        args = (*histogram_rows(hists), tau, gs, (None,) * len(gs))
        x0s = [neighbor_uni._start(h, g) for h, g in zip(hists, gs)]
        assert_matches_per_row_kernel(args, x0s, seed=810)

    @MULTI_DATA
    @TAILS
    def test_multivariate(self, tail, data):
        # a block per (G, order), G = 1..3, as select_G_multi lays them
        hist = _multi_hist(data)
        tau = _tau(hist.keys.sum(axis=1).max(), tail)
        pairs = [(g, c) for g in GS for c in MULTI_CONSTRAINTS]
        args = (hist.keys, np.tile(hist.counts, (len(pairs), 1)), tau,
                tuple(g for g, _ in pairs), tuple(c.Z for _, c in pairs))
        x0s = [neighbor_multi._start_point(g, MULTI_INIT, c)
               for g, c in pairs]
        assert_matches_per_row_kernel(args, x0s, seed=820 + tail)
