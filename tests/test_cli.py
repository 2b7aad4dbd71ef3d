import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkcov
from linkcov import cli
from linkcov.cli import main, parse_config
from linkcov.baselines import CoverageEstimate
from linkcov.experiment import (ReplicationResult, ScenarioConfig,
                                run_replication, write_replication_log)
from linkcov.linkage import RULE_BASELINE_AND_ANY_EXACT, RULE_BASELINE_ONLY


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config('{"scenario": 1, "seed": 42}')
        assert cfg.tau == 10
        assert cfg.g_max == 5
        assert cfg.d == 2
        assert cfg.pi_a == 0.9 and cfg.pi_b == 0.9
        assert cfg.seed == 42

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="scneario"):
            parse_config('{"scneario": 1}')

    def test_scenario4_rule_variant(self):
        cfg = parse_config('{"scenario": 4}')
        assert cfg.rule_variant == RULE_BASELINE_AND_ANY_EXACT
        assert parse_config('{"scenario": 2}').rule_variant == \
            RULE_BASELINE_ONLY

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4, 5])
    def test_rule_variant_from_the_scenario_table(self, scenario):
        table = ScenarioConfig.from_scenario(scenario).rule_variant
        assert parse_config(
            json.dumps({"scenario": scenario})).rule_variant == table
        other = ({RULE_BASELINE_ONLY, RULE_BASELINE_AND_ANY_EXACT}
                 - {table}).pop()
        cfg = parse_config(json.dumps({"scenario": scenario,
                                       "rule_variant": other}))
        assert cfg.rule_variant == other

    def test_file_input(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": 3, "tau": 8}')
        cfg = parse_config(str(path))
        assert cfg.scenario == 3 and cfg.tau == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_config('{"scenario": 7}')
        with pytest.raises(ValueError):
            parse_config('{"pi_a": 1.5}')
        with pytest.raises(ValueError):
            parse_config('{"estimators": ["un", "bogus"]}')

    def test_fractional_tau_refused(self):
        with pytest.raises(ValueError, match="'tau' must be an integer"):
            parse_config('{"tau": 10.5}')

    def test_string_full_scale_refused(self):
        with pytest.raises(ValueError, match="'full_scale' must be true or"):
            parse_config('{"full_scale": "false"}')

    def test_fractional_population_refused(self):
        with pytest.raises(ValueError,
                           match="'n_population' must be an integer"):
            parse_config('{"n_population": 3000.5}')

    def test_boolean_integer_refused(self):
        with pytest.raises(ValueError, match="'seed' must be an integer"):
            parse_config('{"seed": true}')

    def test_null_only_where_the_default_is_null(self):
        assert parse_config(
            '{"table_reference_size": null}').table_reference_size is None
        with pytest.raises(ValueError, match="'g_max' must be an integer"):
            parse_config('{"g_max": null}')

    @pytest.mark.parametrize("data, message", [
        ('{"pi_a": "0.5"}', "'pi_a' must be a number"),
        ('{"pi_a": true}', "'pi_a' must be a number"),
        ('{"estimators": "un"}', "'estimators' must be a list of strings"),
        ('{"estimators": ["un", 5]}',
         "'estimators' must be a list of strings"),
        ('{"surname_csv": 5}', "'surname_csv' must be a string"),
        ('{"out_dir": null}', "'out_dir' must be a string"),
        ('{"rule_variant": "bogus"}', "'rule_variant' must be one of"),
        ('{"estimators": ["un", "bogus"]}',
         "'estimators' names unknown estimator.*bogus"),
        ('{"d": 0}', "'d' must be 1 or 2"),
        ('{"d": 3}', "'d' must be 1 or 2"),
        ('{"seed": -3}', "'seed' must be a non-negative integer"),
        ('{"rep_index": -1}', "'rep_index' must be a non-negative integer"),
        ('{"table_reference_size": 0}',
         "'table_reference_size' must be a positive integer"),
    ])
    def test_key_types_refused_by_name(self, data, message):
        with pytest.raises(ValueError, match=message):
            parse_config(data)

    def test_integer_number_accepted(self):
        assert parse_config('{"pi_a": 1}').pi_a == 1

    def test_bad_rule_variant_refused_before_simulate(self, tmp_path,
                                                      capsys):
        cfg = json.dumps({"rule_variant": "bogus",
                          "out_dir": str(tmp_path / "art")})
        assert main(["simulate", "--config", cfg]) == 1
        assert "'rule_variant'" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize("d", [0, 3])
    def test_bad_interaction_order_refused_before_simulate(self, tmp_path,
                                                           capsys, d):
        cfg = json.dumps({"d": d, "out_dir": str(tmp_path / "art")})
        assert main(["simulate", "--config", cfg]) == 1
        assert "'d' must be 1 or 2" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    def test_census_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("LINKCOV_CENSUS_DIR", str(tmp_path))
        cfg = parse_config('{"surname_csv": "names.csv"}')
        assert cfg.surname_csv == str(tmp_path / "names.csv")


class TestScenarioFlag:
    """--scenario derives the linkage rule only when the config leaves
    rule_variant unset."""

    @staticmethod
    def config_seen(monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "dispatch",
                            lambda command, cfg: seen.append(cfg) or 0)
        assert main(argv) == 0
        return seen[0]

    def test_rule_derived_when_config_leaves_it_unset(self, monkeypatch):
        cfg = self.config_seen(monkeypatch, [
            "link", "--config", '{"scenario": 1}', "--scenario", "4"])
        assert cfg.scenario == 4
        assert cfg.rule_variant == RULE_BASELINE_AND_ANY_EXACT

    def test_rule_set_in_config_is_kept(self, monkeypatch):
        config = json.dumps({"scenario": 1,
                             "rule_variant": RULE_BASELINE_ONLY})
        cfg = self.config_seen(monkeypatch, [
            "link", "--config", config, "--scenario", "5"])
        assert cfg.scenario == 5
        assert cfg.rule_variant == RULE_BASELINE_ONLY


@pytest.fixture
def tiny_cfg(tmp_path):
    cfg = {
        "scenario": 1, "seed": 11, "n_population": 3000,
        "replications": 2, "g_max": 2, "clerical_m": 200,
        "out_dir": str(tmp_path / "art"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), tmp_path / "art"


class TestCommands:
    def test_staged_pipeline(self, tiny_cfg, capsys):
        cfg_path, art = tiny_cfg
        for command in ("simulate", "link", "fit-uni", "fit-multi",
                        "baselines"):
            assert main([command, "--config", cfg_path]) == 0
        for artifact in ("population.csv", "links_rule1.csv",
                         "links_rule2.csv", "counts.csv", "fit_uni.json",
                         "fit_multi.json", "baselines.json"):
            assert (art / artifact).exists(), artifact
        doc = json.loads((art / "fit_multi.json").read_text())
        assert "coverage" in doc

    def test_deterministic_artifacts(self, tiny_cfg):
        cfg_path, art = tiny_cfg
        main(["simulate", "--config", cfg_path])
        main(["link", "--config", cfg_path])
        first = {
            f: (art / f).read_bytes()
            for f in ("population.csv", "links_rule1.csv", "counts.csv")
        }
        main(["simulate", "--config", cfg_path])
        main(["link", "--config", cfg_path])
        for f, blob in first.items():
            assert (art / f).read_bytes() == blob, f

    def test_experiment_and_report(self, tiny_cfg, capsys):
        cfg_path, art = tiny_cfg
        assert main(["experiment", "--config", cfg_path]) == 0
        for artifact in ("replications.jsonl", "report.md", "report.csv",
                         "report.json"):
            assert (art / artifact).exists()
        md_first = (art / "report.md").read_bytes()
        assert main(["report", "--config", cfg_path]) == 0
        assert (art / "report.md").read_bytes() == md_first

    def test_report_on_one_record_refused(self, tiny_cfg, capsys):
        # one replication has no sample variance
        cfg_path, art = tiny_cfg
        art.mkdir()
        write_replication_log(
            [ReplicationResult(0, {"naive": CoverageEstimate("naive", 0.9)},
                               {"rule1_recall": 1.0})],
            art / "replications.jsonl")
        assert main(["report", "--config", cfg_path]) == 1
        assert "need at least two replications" in capsys.readouterr().err

    def test_error_exit_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scneario": 1}')
        assert main(["simulate", "--config", str(bad)]) == 1
        assert "scneario" in capsys.readouterr().err

    def test_seed_override_changes_population(self, tiny_cfg):
        cfg_path, art = tiny_cfg
        main(["simulate", "--config", cfg_path])
        base = (art / "population.csv").read_bytes()
        main(["simulate", "--config", cfg_path, "--seed", "999"])
        assert (art / "population.csv").read_bytes() != base


def _data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


class TestOnePipeline:
    """The staged commands produce what run_replication computes."""

    @pytest.mark.parametrize("d, mn_name", [(1, "mn_no_interactions"),
                                            (2, "mn_with_interactions")])
    def test_chain_matches_run_replication(self, tmp_path, d, mn_name):
        config = json.dumps({"scenario": 5, "seed": 11, "n_population": 3000,
                             "g_max": 1, "clerical_m": 200, "rep_index": 1,
                             "d": d, "out_dir": str(tmp_path)})
        for command in ("simulate", "link", "fit-uni", "fit-multi",
                        "baselines"):
            assert main([command, "--config", config]) == 0
        res = run_replication(cli._scenario_config(parse_config(config)), 1)

        d = res.diagnostics
        assert _data_rows(tmp_path / "links_rule1.csv") == d["links_rule1"]
        assert _data_rows(tmp_path / "links_rule2.csv") == d["links_rule2"]
        assert _data_rows(tmp_path / "counts.csv") == d["size_b"]

        base = json.loads((tmp_path / "baselines.json").read_text())
        assert sorted(base) == ["df", "dt", "naive", "racinskij"]
        for name, doc in base.items():
            est = res.estimates[name]
            assert doc == json.loads(json.dumps({
                "coverage_hat": est.coverage_hat, "n_hat": est.n_hat,
                "diagnostics": est.diagnostics})), name

        multi = json.loads((tmp_path / "fit_multi.json").read_text())
        assert multi["coverage"] == res.estimates[mn_name].coverage_hat
        assert multi["constraint"] == "loglinear"
        assert multi["rule_levels"] == [1, 1, 1]
        uni = json.loads((tmp_path / "fit_uni.json").read_text())
        assert uni["shared_p"] is True
        p_bar = sum(c["alpha"] * c["p"] for c in uni["components"])
        assert p_bar == pytest.approx(res.estimates["un"].coverage_hat,
                                      rel=1e-12)


# Runs in a fresh process: prints, after each step, the scipy modules of
# the fits that are loaded.
_SCIPY_PROBE = """
import json, sys
from linkcov import cli
from linkcov.experiment import ScenarioConfig

def loaded():
    return [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]

base = json.loads(sys.argv[1])
seen = {"import": loaded()}
ScenarioConfig.from_scenario(base["scenario"],
                             n_population=base["n_population"]).tables()
seen["tables"] = loaded()
for command, extra in json.loads(sys.argv[2]):
    assert cli.main([command, "--config", json.dumps({**base, **extra})]) == 0
    seen[command] = loaded()
print(json.dumps(seen))
"""


def scipy_modules_seen(config, steps):
    """The scipy modules loaded after the import, the tables and each
    (command, extra config) step, run in a fresh interpreter."""
    src = str(Path(linkcov.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(config),
         json.dumps(steps)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_scipy_loaded_only_when_a_fit_runs(tmp_path):
    """The commands that fit nothing start without scipy.optimize and
    scipy.special; fit-uni loads both.  baselines fits nothing here:
    this replication's Racinskij estimate is interior, in closed form."""
    config = {"scenario": 5, "seed": 11, "n_population": 3000,
              "replications": 2, "g_max": 1, "clerical_m": 200,
              "out_dir": str(tmp_path)}
    seen = scipy_modules_seen(config, [
        ("simulate", {}), ("link", {}), ("baselines", {}),
        ("experiment", {"estimators": ["naive"]}), ("report", {}),
        ("fit-uni", {})])
    racinskij = json.loads((tmp_path / "baselines.json").read_text())[
        "racinskij"]["diagnostics"]
    assert racinskij["method"] == "closed_form"
    fits = seen.pop("fit-uni")
    assert seen == {step: [] for step in seen}
    assert list(seen) == ["import", "tables", "simulate", "link",
                          "baselines", "experiment", "report"]
    assert fits == ["scipy.optimize", "scipy.special"]


def test_baselines_loads_scipy_optimize_on_boundary_data(tmp_path):
    """A Racinskij maximum on the boundary is found by a bounded
    L-BFGS-B search, so baselines loads scipy.optimize (and with it
    scipy.special) for it."""
    config = {"scenario": 1, "seed": 11, "n_population": 4000,
              "replications": 1, "clerical_m": 200,
              "out_dir": str(tmp_path)}
    seen = scipy_modules_seen(config, [("simulate", {}), ("link", {}),
                                       ("baselines", {})])
    racinskij = json.loads((tmp_path / "baselines.json").read_text())[
        "racinskij"]["diagnostics"]
    assert racinskij["method"] == "lbfgsb_box"
    assert seen.pop("baselines") == ["scipy.optimize", "scipy.special"]
    assert seen == {step: [] for step in ("import", "tables", "simulate",
                                          "link")}
