import io
import json
import os

import numpy as np
import pytest

from linkcov import neighbor_multi
from linkcov.baselines import CoverageEstimate
from linkcov.experiment import (ALL_ESTIMATORS, MetricsTable,
                                ReplicationResult, ScenarioConfig,
                                adjust_incomplete, read_replication_log,
                                render_report, run_experiment,
                                run_replication, stratified_fit,
                                write_replication_log)
from linkcov.frequencies import load_frequency_table
from linkcov.linkage import CountVector, RULE_BASELINE_AND_ANY_EXACT
from linkcov._optim import CountHistogram, MixtureParams
from linkcov.neighbor_multi import (LogLinear, loglinear_probs,
                                    sample_multi_counts, select_G_multi)
from linkcov.neighbor_uni import sample_counts
from linkcov.popsim import PerturbationParams

TINY = dict(n_population=4000, replications=2, g_max=2, master_seed=3,
            clerical_m=200)


class TestScenarioConfig:
    def test_table7_parameters(self):
        s1 = ScenarioConfig.from_scenario(1).perturbation
        assert s1.u_pair == (0.0,) * 3 and s1.u_triple == 0.0
        s3 = ScenarioConfig.from_scenario(3).perturbation
        assert s3.u_pair == (1.0,) * 3 and s3.u_triple == 0.25
        s4 = ScenarioConfig.from_scenario(4)
        assert s4.rule_variant == RULE_BASELINE_AND_ANY_EXACT
        assert s4.perturbation.u_pair == (1.0,) * 3

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_scenario(9)

    def test_unknown_estimator_refused(self):
        # refused, not dropped: the run would report Naive alone
        with pytest.raises(ValueError,
                           match="'estimators' names unknown estimator.*UN"):
            ScenarioConfig.from_scenario(3, estimators=("UN", "naive"))

    @pytest.mark.parametrize("size", [0, -5])
    def test_table_reference_size_below_one_refused(self, size):
        # refused by key name, as the CLI refuses it, not calibrated at
        # n_population without a word
        with pytest.raises(ValueError, match="'table_reference_size' must "
                                             "be a positive integer"):
            ScenarioConfig.from_scenario(1, n_population=3000,
                                         table_reference_size=size)

    @pytest.mark.parametrize("size, calibrated", [(None, 3000), (1, 1),
                                                  (5000, 5000)])
    def test_tables_calibrate_at_the_reference_size(self, monkeypatch, size,
                                                    calibrated):
        from linkcov import experiment

        seen = []
        monkeypatch.setattr(experiment, "synthetic_surname_table",
                            lambda n: seen.append(n))
        ScenarioConfig.from_scenario(1, n_population=3000,
                                     table_reference_size=size).tables()
        assert seen == [calibrated]


class TestCensusTables:
    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        from linkcov import experiment
        from linkcov.frequencies import synthetic_surname_table

        table = synthetic_surname_table(20000)
        path = tmp_path / "names.csv"
        path.write_text("name,count\n" + "".join(
            f"{label},{round(p * 1e9)}\n"
            for label, p in zip(table.labels, table.probs)))
        parsed = []

        def counting_load(source, kind, *args, **kwargs):
            parsed.append((source, kind))
            return load_frequency_table(source, kind, *args, **kwargs)

        monkeypatch.setattr(experiment, "load_frequency_table", counting_load)
        cfg = ScenarioConfig.from_scenario(1, surname_csv=str(path),
                                           estimators=("naive",), **TINY)
        a = run_replication(cfg, 0)
        b = run_replication(cfg, 0)
        assert parsed == [(str(path), "surname")]
        assert cfg.tables()[0] is cfg.tables()[0]
        assert a.estimates["naive"].coverage_hat \
            == b.estimates["naive"].coverage_hat
        assert a.accuracy == b.accuracy


class TestReplication:
    def test_determinism(self):
        cfg = ScenarioConfig.from_scenario(1, **TINY)
        a = run_replication(cfg, 0)
        b = run_replication(cfg, 0)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_replication_log([a], buf_a)
        write_replication_log([b], buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_perfect_world(self):
        # full inclusion, perturbation forced to identity: every
        # estimator finds full coverage
        cfg = ScenarioConfig.from_scenario(
            1, n_population=500, pi_a=1.0, pi_b=1.0,
            perturbation=PerturbationParams(u_main=(60.0,) * 3),
            clerical_m=50, g_max=1, master_seed=5,
            rule_variant=RULE_BASELINE_AND_ANY_EXACT,
            table_reference_size=100000,   # diffuse table: no collisions
        )
        res = run_replication(cfg, 0)
        for name, est in res.estimates.items():
            assert est.coverage_hat == pytest.approx(1.0, abs=0.02), name
        assert res.accuracy["rule1_recall"] == 1.0

    def test_both_mn_modes_share_one_plug_in_step(self, monkeypatch):
        calls = []
        real = neighbor_multi.single_class_p_hat

        def counting(*args, **kwargs):
            calls.append(args[0].total)
            return real(*args, **kwargs)

        monkeypatch.setattr(neighbor_multi, "single_class_p_hat", counting)
        cfg = ScenarioConfig.from_scenario(
            3, estimators=("mn_no_interactions", "mn_with_interactions"),
            **TINY)
        res = run_replication(cfg, 0)
        assert set(res.estimates) == {"mn_no_interactions",
                                      "mn_with_interactions"}
        assert len(calls) == 1

    @pytest.mark.parametrize("estimators", [("un", "mn_with_interactions"),
                                            ("mn_no_interactions",)])
    def test_count_cap_below_one_refused(self, estimators):
        cfg = ScenarioConfig.from_scenario(3, tau=0, estimators=estimators,
                                           **TINY)
        with pytest.raises(ValueError, match="tau must be at least 1"):
            run_replication(cfg, 0)

    def test_un_fit_reports_converged(self):
        cfg = ScenarioConfig.from_scenario(1, estimators=("un",), **TINY)
        assert run_replication(cfg, 0).estimates["un"].diagnostics[
            "converged"] is True

    def test_accuracy_record_fields(self):
        cfg = ScenarioConfig.from_scenario(1, estimators=("naive",), **TINY)
        res = run_replication(cfg, 0)
        assert set(res.accuracy) == {
            "rule1_recall", "rule1_precision", "rule1_fpr",
            "rule2_recall", "rule2_precision", "rule2_fpr",
        }
        assert res.accuracy["rule1_recall"] == 1.0


class TestMetrics:
    def test_trivial_exact(self):
        m = MetricsTable(0.9, 2, {"x": np.array([0.9, 0.9])}, {})
        assert m.rows["x"]["rel_bias_pct"] == 0.0
        assert m.rows["x"]["variance"] == 0.0
        assert m.rows["x"]["mse"] == 0.0

    def test_hand_example(self):
        # sample variance, population mse, per the table conventions
        m = MetricsTable(0.9, 2, {"x": np.array([0.89, 0.91])}, {})
        assert m.rows["x"]["rel_bias_pct"] == pytest.approx(0.0, abs=1e-12)
        assert m.rows["x"]["variance"] == pytest.approx(2e-4)
        assert m.rows["x"]["mse"] == pytest.approx(1e-4)

    def test_identity(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.85, 0.95, 30)
        m = MetricsTable(0.9, 30, {"x": vals}, {})
        r = m.rows["x"]
        bias = r["mean"] - 0.9
        assert r["mse"] == pytest.approx(
            r["variance"] * 29 / 30 + bias ** 2, rel=1e-12)

    @pytest.mark.parametrize("values", [[0.9], []])
    def test_fewer_than_two_values_refused(self, values):
        # one value has no sample variance
        with pytest.raises(ValueError,
                           match="need at least two replications; 'x' has"):
            MetricsTable(0.9, len(values), {"x": np.array(values)}, {})


class TestRunExperiment:
    def test_aggregation_and_log(self, tmp_path):
        cfg = ScenarioConfig.from_scenario(
            1, estimators=("naive", "un"), **TINY)
        log = tmp_path / "reps.jsonl"
        m = run_experiment(cfg, log_path=log)
        assert set(m.estimates) == {"naive", "un"}
        assert len(m.estimates["un"]) == 2
        records = read_replication_log(log)
        assert [r.rep_index for r in records] == [0, 1]

    def test_resume_skips_done(self, tmp_path):
        cfg = ScenarioConfig.from_scenario(
            1, estimators=("naive",), **TINY)
        log = tmp_path / "reps.jsonl"
        run_experiment(cfg, log_path=log)
        first = log.read_text()
        cfg3 = ScenarioConfig.from_scenario(
            1, estimators=("naive",),
            **{**TINY, "replications": 3})
        m = run_experiment(cfg3, log_path=log, resume=True)
        assert len(m.estimates["naive"]) == 3
        # the first two records were reused verbatim
        assert log.read_text().startswith(first.rsplit("\n", 1)[0][:200])

    def test_resume_aggregates_only_configured_reps(self, tmp_path):
        log = tmp_path / "reps.jsonl"
        write_replication_log(
            [ReplicationResult(r, {"naive": CoverageEstimate("naive", v)},
                               {"rule1_recall": v})
             for r, v in enumerate((0.8, 0.9, 1.0, 1.1))], log)
        cfg = ScenarioConfig.from_scenario(1, estimators=("naive",), **TINY)
        m = run_experiment(cfg, log_path=log, resume=True)
        assert m.replications == 2
        np.testing.assert_array_equal(m.estimates["naive"], [0.8, 0.9])
        assert m.rows["naive"]["mean"] == pytest.approx(0.85)
        assert m.accuracy_means["rule1_recall"] == pytest.approx(0.85)
        assert len(read_replication_log(log)) == 4

    def test_killed_run_keeps_its_records_and_resumes(self, tmp_path,
                                                      monkeypatch):
        from linkcov import experiment
        cfg = ScenarioConfig.from_scenario(
            1, estimators=("naive", "un"), **{**TINY, "replications": 4})
        log = tmp_path / "reps.jsonl"

        def killed_after_two(rep_index):
            if rep_index == 1:
                raise RuntimeError("killed")

        with pytest.raises(RuntimeError, match="killed"):
            run_experiment(cfg, log_path=log, progress=killed_after_two)
        assert [r.rep_index for r in read_replication_log(log)] == [0, 1]

        ran = []
        real = experiment.run_replication
        monkeypatch.setattr(experiment, "run_replication",
                            lambda c, r: ran.append(r) or real(c, r))
        resumed = run_experiment(cfg, log_path=log, resume=True)
        assert ran == [2, 3]
        logged = [r.rep_index for r in read_replication_log(log)]
        assert logged == [0, 1, 2, 3]
        monkeypatch.undo()
        whole = run_experiment(cfg)
        assert resumed.rows == whole.rows
        assert resumed.accuracy_means == whole.accuracy_means
        for name in ("naive", "un"):
            np.testing.assert_array_equal(resumed.estimates[name],
                                          whole.estimates[name])

    def test_workers_report_progress_in_order(self):
        cfg = ScenarioConfig.from_scenario(
            1, estimators=("naive", "un"), **{**TINY, "replications": 3})
        seen = {1: [], 2: []}
        m = {w: run_experiment(cfg, workers=w, progress=seen[w].append)
             for w in (1, 2)}
        assert seen[1] == seen[2] == [0, 1, 2]
        for name in ("naive", "un"):
            np.testing.assert_array_equal(m[2].estimates[name],
                                          m[1].estimates[name])

    def test_no_more_workers_than_replications_left(self, tmp_path,
                                                    monkeypatch):
        # a pool forks all its workers at the first submit; this stub
        # records the pool size and runs the replications here, starting
        # no process
        from linkcov import experiment
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(experiment, "run_replication", lambda c, r: (
            ReplicationResult(r, {"naive": CoverageEstimate("naive", 0.9)},
                              {})))
        cfg = ScenarioConfig.from_scenario(1, estimators=("naive",), **TINY)
        log = tmp_path / "reps.jsonl"
        run_experiment(cfg, workers=8, log_path=log)
        cfg5 = ScenarioConfig.from_scenario(
            1, estimators=("naive",), **{**TINY, "replications": 5})
        m = run_experiment(cfg5, workers=8, log_path=log, resume=True)
        assert sizes == [2, 3]
        assert m.replications == 5

    def test_workers_inherit_the_calibrated_table(self, tmp_path,
                                                  monkeypatch):
        # _brentq runs only in a cold calibration; each call appends the
        # pid of the process making it, forked workers included.
        from linkcov import frequencies
        pids = tmp_path / "calibrating_pids"
        brentq = frequencies._brentq

        def logging_brentq(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return brentq(*args, **kwargs)

        monkeypatch.setattr(frequencies, "_brentq", logging_brentq)
        frequencies.synthetic_surname_table.cache_clear()
        cfg = ScenarioConfig.from_scenario(1, estimators=("naive",), **TINY)
        run_experiment(cfg, workers=2)
        assert set(pids.read_text().split()) == {str(os.getpid())}
        assert frequencies.synthetic_surname_table.cache_info().misses == 1


class TestAdjustIncomplete:
    def test_arithmetic(self):
        assert adjust_incomplete(100, 80, 0.72) == pytest.approx(0.9)

    def test_no_missingness(self):
        assert adjust_incomplete(50, 50, 0.77) == pytest.approx(0.77)

    def test_inconsistent_flagged_not_clamped(self):
        with pytest.warns(UserWarning):
            out = adjust_incomplete(100, 50, 0.9)
        assert out == pytest.approx(1.8)

    def test_errors(self):
        with pytest.raises(ValueError):
            adjust_incomplete(100, 0, 0.9)
        with pytest.raises(ValueError):
            adjust_incomplete(10, 20, 0.9)


def make_stratum(p, lam, n, seed):
    params = MixtureParams(alpha=[1.0], p=[[p]], lam=[[lam]])
    n_total = sample_counts(params, n, np.random.default_rng(seed))[:, 0]
    return CountVector(n_total=n_total,
                       pattern_counts=np.zeros((n, 8), dtype=np.int64))


class TestStratified:
    def test_single_stratum_matches_unstratified(self):
        cv = make_stratum(0.9, 0.05, 20000, 0)
        res = stratified_fit({"all": cv}, estimator="un", g_max=1,
                             min_size=100)
        assert res.pooled == pytest.approx(res.per_stratum["all"])
        assert res.pooled == pytest.approx(0.9, abs=0.02)

    def test_equal_coverage_strata_pool_consistently(self):
        strata = {"a": make_stratum(0.9, 0.05, 20000, 1),
                  "b": make_stratum(0.9, 0.05, 20000, 2)}
        res = stratified_fit(strata, estimator="un", g_max=1, min_size=100)
        assert res.pooled == pytest.approx(0.9, abs=0.02)

    def test_weighted_mean_of_unequal_strata(self):
        strata = {"low": make_stratum(0.8, 0.05, 20000, 3),
                  "high": make_stratum(0.995, 0.05, 20000, 4)}
        res = stratified_fit(strata, estimator="un", g_max=1, min_size=100)
        assert res.pooled == pytest.approx(0.9, abs=0.02)

    def test_undersized_stratum_skipped(self):
        strata = {"big": make_stratum(0.9, 0.05, 20000, 5),
                  "tiny": make_stratum(0.5, 0.05, 100, 6)}
        with pytest.warns(UserWarning):
            res = stratified_fit(strata, estimator="un", g_max=1,
                                 min_size=500)
        assert res.skipped == ("tiny",)
        assert "tiny" not in res.per_stratum

    @pytest.mark.parametrize("estimator, d", [("mn_no_interactions", 1),
                                              ("mn_with_interactions", 2)])
    def test_mn_stratum_is_the_mn_selection(self, estimator, d):
        cv = make_multi_stratum(0.9, 0.05, 5000, 7)
        res = stratified_fit({"all": cv}, estimator=estimator, g_max=1,
                             min_size=100)
        hist = CountHistogram.from_observations(cv.pattern_counts[:, 1:])
        sel = select_G_multi(hist, 1, constraint=LogLinear(d), tau=10)
        assert res.per_stratum["all"] == float(sel.fit.params.phi)


class TestRender:
    @pytest.fixture
    def metrics(self):
        rng = np.random.default_rng(1)
        return MetricsTable(
            0.9, 5,
            {name: rng.uniform(0.85, 0.95, 5) for name in ALL_ESTIMATORS},
            {"rule1_recall": 1.0},
        )

    def test_markdown_rows(self, metrics):
        md = render_report(metrics, "markdown")
        for label in ("Naive", "R", "DF", "DT", "UN",
                      "MN with no interactions"):
            assert f"| {label} |" in md
        assert md.count("\n") == 2 + len(ALL_ESTIMATORS)

    def test_csv_round_trip_12_digits(self, metrics):
        import csv as _csv

        text = render_report(metrics, "csv")
        rows = list(_csv.reader(io.StringIO(text)))
        assert rows[0] == ["estimator", "relative_bias_pct", "variance_x1e7",
                           "mse_x1e7"]
        for row, name in zip(rows[1:], ALL_ESTIMATORS):
            r = metrics.rows[name]
            assert float(row[1]) == pytest.approx(r["rel_bias_pct"],
                                                  rel=1e-11)
            assert float(row[2]) == pytest.approx(r["variance"] * 1e7,
                                                  rel=1e-11)

    def test_scale_factor_exact(self, metrics):
        doc = json.loads(render_report(metrics, "json"))
        row = next(r for r in doc["rows"] if r["estimator"] == "UN")
        assert row["variance_x1e7"] == pytest.approx(
            metrics.rows["un"]["variance"] * 1e7, rel=1e-14)

    def test_unknown_format(self, metrics):
        with pytest.raises(ValueError):
            render_report(metrics, "yaml")


def make_multi_stratum(phi, lam, n, seed):
    p = loglinear_probs(phi, np.array([1.0, 1, 1, 0, 0, 0]), LogLinear(2))
    params = MixtureParams(alpha=[1.0], p=[p], lam=[np.full(7, lam)])
    patterns = sample_multi_counts(params, n, np.random.default_rng(seed))
    return CountVector(n_total=patterns.sum(axis=1),
                       pattern_counts=np.column_stack(
                           [np.zeros(n, dtype=np.int64), patterns]))
