import itertools

import numpy as np
import pytest
from scipy.optimize import approx_fprime, minimize

from linkcov.baselines import (CoverageEstimate, df_dt_estimators,
                               lincoln_petersen, racinskij_fit, _ci_loglik,
                               _ci_negloglik)
from linkcov.linkage import ClericalEstimates
from linkcov.popsim import PATTERNS


class TestLincolnPetersen:
    def test_exact_arithmetic(self):
        est = lincoln_petersen(90, 90, 81)
        assert est.n_hat == pytest.approx(100.0)
        assert est.coverage_hat == pytest.approx(0.9)

    def test_full_overlap(self):
        assert lincoln_petersen(90, 90, 90).coverage_hat == pytest.approx(1.0)

    def test_zero_intersection_rejected(self):
        with pytest.raises(ValueError):
            lincoln_petersen(90, 90, 0)


class TestDfDt:
    def test_consistency_example(self):
        clerical = ClericalEstimates(recall_hat=0.95, precision_hat=1.0,
                                     sample_size=1000)
        df, dt = df_dt_estimators(7695, clerical, 9000, 9000)
        assert dt.coverage_hat == pytest.approx((7695 / 0.95) / 9000)
        assert dt.coverage_hat == pytest.approx(0.9)

    def test_perfect_precision_identical(self):
        clerical = ClericalEstimates(0.9, 1.0, 500)
        df, dt = df_dt_estimators(4000, clerical, 5000, 5000)
        assert df.coverage_hat == pytest.approx(dt.coverage_hat)

    def test_dt_dominates_df(self):
        clerical = ClericalEstimates(0.9, 0.97, 500)
        df, dt = df_dt_estimators(4000, clerical, 5000, 5000)
        assert dt.coverage_hat >= df.coverage_hat

    def test_zero_recall_rejected(self):
        with pytest.raises(ValueError):
            df_dt_estimators(100, ClericalEstimates(0.0, 1.0, 10), 50, 50)
        with pytest.raises(ValueError):
            df_dt_estimators(100, ClericalEstimates(None, 1.0, 10), 50, 50)


def ci_cells(w, theta, eta):
    pats = np.array(PATTERNS, float)
    theta = np.asarray(theta)
    eta = np.asarray(eta)
    pm = np.prod(theta ** pats * (1 - theta) ** (1 - pats), axis=1)
    pu = np.prod(eta ** pats * (1 - eta) ** (1 - pats), axis=1)
    return w * pm + (1 - w) * pu


class TestRacinskij:
    def test_degenerate_full_agreement(self):
        hist = np.zeros(8)
        hist[PATTERNS.index((1, 1, 1))] = 5000
        est = racinskij_fit(hist, size_b=5000)
        assert est.coverage_hat == pytest.approx(1.0, abs=1e-3)

    def test_grid_search_oracle(self):
        # EM against a dense grid search of the same likelihood
        truth = (0.7, (0.9, 0.85, 0.8), (0.2, 0.3, 0.25))
        cells = ci_cells(*truth)
        counts = np.round(cells * 500000)
        est = racinskij_fit(counts, size_b=1.0)
        pats = np.array(PATTERNS, float)

        grid = np.linspace(0.05, 0.95, 19)
        best = None
        for w in np.linspace(0.5, 0.9, 41):
            for t1 in grid:
                ll = _ci_loglik(counts, pats, w,
                                np.array([t1, 0.85, 0.8]),
                                np.array([0.2, 0.3, 0.25]))
                if best is None or ll > best[0]:
                    best = (ll, w, t1)
        # EM must reach the restricted grid optimum (to stopping tolerance)
        assert est.diagnostics["loglik"] >= best[0] - 1e-4
        assert est.diagnostics["w"] == pytest.approx(0.7, abs=1e-3)
        np.testing.assert_allclose(est.diagnostics["theta"],
                                   truth[1], atol=1e-3)

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(10, 400, 8).astype(float)
        pats = np.array(PATTERNS, float)
        w, theta, eta = 0.5, np.full(3, 0.7), np.full(3, 0.3)
        prev = -np.inf
        total = counts.sum()
        for _ in range(60):
            pm = w * np.prod(theta ** pats * (1 - theta) ** (1 - pats), axis=1)
            pu = (1 - w) * np.prod(eta ** pats * (1 - eta) ** (1 - pats), axis=1)
            resp = pm / np.maximum(pm + pu, 1e-300)
            wk = counts * resp
            w = min(max(wk.sum() / total, 1e-12), 1 - 1e-12)
            theta = np.clip((wk @ pats) / max(wk.sum(), 1e-300), 1e-9, 1 - 1e-9)
            wu = counts * (1 - resp)
            eta = np.clip((wu @ pats) / max(wu.sum(), 1e-300), 1e-9, 1 - 1e-9)
            ll = _ci_loglik(counts, pats, w, theta, eta)
            assert ll >= prev - 1e-9
            prev = ll

    def test_label_identification(self):
        # matched class reported as the high-agreement one regardless of
        # which component the EM labels first
        cells = ci_cells(0.25, (0.2, 0.3, 0.25), (0.9, 0.85, 0.8))
        counts = np.round(cells * 100000)
        est = racinskij_fit(counts, size_b=1.0)
        assert sum(est.diagnostics["theta"]) > sum(est.diagnostics["eta"])
        assert est.diagnostics["w"] == pytest.approx(0.75, abs=5e-3)

    def test_invalid_histogram(self):
        with pytest.raises(ValueError):
            racinskij_fit(np.zeros(8), 10)
        with pytest.raises(ValueError):
            racinskij_fit(np.ones(5), 10)


def saturated_loglik(counts):
    counts = np.asarray(counts, float)
    seen = counts > 0
    return counts[seen] @ np.log(counts[seen] / counts.sum())


class TestRacinskijInputs:
    @pytest.mark.parametrize("bad", [-5.0, np.nan, np.inf])
    def test_refuses_bad_multiplicities(self, bad):
        hist = [bad, 10, 10, 10, 10, 10, 10, 500]
        with pytest.raises(ValueError, match="pattern_hist"):
            racinskij_fit(hist, size_b=100)

    @pytest.mark.parametrize("size_b", [0, -100, np.nan])
    def test_refuses_a_size_b_that_is_not_positive(self, size_b):
        with pytest.raises(ValueError, match="size_b"):
            racinskij_fit([10, 10, 10, 10, 10, 10, 10, 500], size_b=size_b)


class TestRacinskijClosedForm:
    @pytest.mark.parametrize("truth", [
        (0.6, (0.9, 0.8, 0.85), (0.2, 0.3, 0.1)),
        (0.3, (0.95, 0.7, 0.9), (0.4, 0.05, 0.3)),
    ])
    def test_recovers_interior_parameters(self, truth):
        # 200k pairs drawn from an interior truth: the closed form
        # returns it within sampling error, and its cells reproduce the
        # pattern shares, so it reaches the saturated log-likelihood
        n = 200000
        counts = np.random.default_rng(11).multinomial(n, ci_cells(*truth))
        est = racinskij_fit(counts, size_b=n)
        d = est.diagnostics
        assert (d["method"], d["converged"], d["boundary"]) == (
            "closed_form", True, False)
        assert d["w"] == pytest.approx(truth[0], abs=0.01)
        np.testing.assert_allclose(d["theta"], truth[1], atol=0.01)
        np.testing.assert_allclose(d["eta"], truth[2], atol=0.01)
        np.testing.assert_allclose(ci_cells(d["w"], d["theta"], d["eta"]),
                                   counts / n, rtol=0, atol=1e-12)
        assert abs(d["saturated_gap"]) <= 1e-9
        assert d["saturated_gap"] == pytest.approx(
            saturated_loglik(counts) - d["loglik"], abs=1e-9)
        assert est.coverage_hat == pytest.approx(d["w"])


# the baseline-pair pattern histograms of scenario 1 at N=4k: TINY's
# replication 0 (master seed 3) and replications 0-5 at seed 20259
BOUNDARY_HISTS = {
    "tiny": [85, 179, 200, 473, 191, 490, 483, 1268],
    "n4k_0": [86, 166, 182, 460, 206, 521, 446, 1283],
    "n4k_1": [81, 173, 198, 477, 183, 479, 493, 1302],
    "n4k_2": [86, 172, 212, 481, 188, 460, 509, 1294],
    "n4k_3": [91, 190, 201, 470, 193, 469, 484, 1246],
    "n4k_4": [83, 173, 184, 495, 206, 501, 456, 1306],
    "n4k_5": [90, 198, 174, 467, 200, 469, 471, 1302],
}
BOX = [(1e-10, 1 - 1e-10)] * 7


def reference_loglik(counts, n_starts=24):
    """The best log-likelihood of scipy's bounded L-BFGS-B over the box,
    from many random starts, stopped only at ftol 1e-15."""
    counts = np.asarray(counts, float)
    args = (counts / counts.sum(), np.array(PATTERNS, float))
    rng = np.random.default_rng(2)
    best = min(
        minimize(_ci_negloglik, rng.uniform(0.01, 0.99, 7), args=args,
                 jac=True, method="L-BFGS-B", bounds=BOX,
                 options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000,
                          "maxfun": 20000}).fun
        for _ in range(n_starts))
    return -best * counts.sum()


class TestRacinskijBoundary:
    def test_gradient_matches_finite_differences(self):
        counts = np.array(BOUNDARY_HISTS["tiny"], float)
        args = (counts / counts.sum(), np.array(PATTERNS, float))
        rng = np.random.default_rng(4)
        for _ in range(4):
            x = rng.uniform(0.05, 0.95, 7)
            _, grad = _ci_negloglik(x, *args)
            numeric = 0.5 * (
                approx_fprime(x, lambda z: _ci_negloglik(z, *args)[0], 1e-6)
                + approx_fprime(x, lambda z: _ci_negloglik(z, *args)[0],
                                -1e-6))
            np.testing.assert_allclose(grad, numeric, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("name", BOUNDARY_HISTS)
    def test_matches_a_many_start_reference(self, name):
        counts = BOUNDARY_HISTS[name]
        d = racinskij_fit(counts, size_b=3600).diagnostics
        ll = d["loglik"]
        assert ll >= reference_loglik(counts) - 1e-6
        assert d["saturated_gap"] == pytest.approx(
            saturated_loglik(counts) - ll, abs=1e-9)
        if d["method"] == "lbfgsb_box":
            assert d["converged"]
        else:
            assert abs(d["saturated_gap"]) <= 1e-9

    def test_fits_on_the_box(self):
        # TINY's histogram has no interior maximum: the closed form
        # leaves (0, 1), and the search ends with a parameter on the box
        d = racinskij_fit(BOUNDARY_HISTS["tiny"], size_b=3601).diagnostics
        assert (d["method"], d["converged"], d["boundary"]) == (
            "lbfgsb_box", True, True)
        assert d["saturated_gap"] > 1e-3
        params = np.hstack([d["w"], d["theta"], d["eta"]])
        assert ((params == BOX[0][0]) | (params == BOX[0][1])).any()
