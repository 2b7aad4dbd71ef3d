"""Config-driven command line for the pipeline stages.

Each subcommand reads a JSON config (plus a few overriding flags),
executes one stage, and leaves its artifacts in the output directory so
stages compose through files:

  simulate    population dump
  link        link sets and per-record counts
  fit-uni     univariate fit document
  fit-multi   multivariate fit document
  baselines   naive / CI-mixture / clerically corrected estimates
  experiment  replication log (JSONL) and comparison reports
  report      re-render reports from an existing replication log

Artifacts, by the stage that writes them.  CSV files have one header
row; popsim owns the population format and linkage the other two.

  simulate    population.csv: unit_id, surname_a, day_a, month_a, year_a,
              surname_b, day_b, month_b, year_b, in_a, in_b
  link        links_rule1.csv, links_rule2.csv: b_unit_id, a_unit_id,
              g1, g2, g3, sorted by (b_unit_id, a_unit_id);
              counts.csv: b_unit_id, n_total, n_001, n_010, ..., n_111
              (reads population.csv)
  fit-uni     fit_uni.json (reads counts.csv)
  fit-multi   fit_multi.json (reads counts.csv)
  baselines   baselines.json (reads population.csv)
  experiment  replications.jsonl, report.md, report.csv, report.json
  report      report.md, report.csv, report.json (reads replications.jsonl)

The population_csv, counts_csv and log_jsonl config keys point a stage
at inputs outside the output directory.  Census CSV paths resolve
against $LINKCOV_CENSUS_DIR when relative.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linkage as lk
from .baselines import df_dt_estimators, lincoln_petersen, racinskij_fit
from .experiment import (ALL_ESTIMATORS, MetricsTable, ScenarioConfig,
                         read_replication_log, render_report, run_experiment,
                         run_replication)
from .neighbor_multi import (LogLinear, MultiCountHistogram,
                             multi_fit_document, select_G_multi)
from .neighbor_uni import CountHistogram, fit_document, select_G
from .popsim import dump_population, load_population

CENSUS_DIR_ENV = "LINKCOV_CENSUS_DIR"

# The stages read counts.csv through this module-level name, which
# perfbench/layers.py wraps to time the CSV reads.
_counts_from_csv = lk.load_counts

_DEFAULTS = {
    "scenario": 1,
    "seed": 20259,
    "out_dir": "linkcov-out",
    "n_population": 20000,
    "pi_a": 0.9,
    "pi_b": 0.9,
    "replications": 30,
    "tau": 10,
    "g_max": 5,
    "d": 2,
    "clerical_m": 1000,
    "estimators": list(ALL_ESTIMATORS),
    "rule_variant": None,
    "table_reference_size": None,
    "surname_csv": None,
    "age_csv": None,
    "threads": 1,
    "full_scale": False,
    "rep_index": 0,
    "population_csv": None,
    "counts_csv": None,
    "log_jsonl": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration for all commands."""

    scenario: int
    seed: int
    out_dir: str
    n_population: int
    pi_a: float
    pi_b: float
    replications: int
    tau: int
    g_max: int
    d: int
    clerical_m: int
    estimators: tuple
    rule_variant: str
    table_reference_size: int
    surname_csv: str
    age_csv: str
    threads: int
    full_scale: bool
    rep_index: int
    population_csv: str
    counts_csv: str
    log_jsonl: str


def parse_config(source=None):
    """Build a RunConfig from a JSON file path, inline JSON, or None.

    Unknown keys are rejected by name; omitted keys take defaults.
    """
    return _config_from(_read_config(source))


def _read_config(source):
    """The JSON object a config source holds; {} for None."""
    data = {}
    if source is not None:
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            text = str(source)
            if text.lstrip().startswith("{"):
                data = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _config_from(data):
    """Validate config keys, fill defaults and derive the linkage rule."""
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    merged = {**_DEFAULTS, **data}

    if merged["scenario"] not in (1, 2, 3, 4, 5):
        raise ValueError("config key 'scenario' must be 1..5")
    for key in ("pi_a", "pi_b"):
        if not 0 < merged[key] <= 1:
            raise ValueError(f"config key {key!r} must lie in (0, 1]")
    for key in ("n_population", "replications", "tau", "g_max", "d",
                "clerical_m", "threads"):
        if int(merged[key]) < 1:
            raise ValueError(f"config key {key!r} must be a positive integer")
    bad = set(merged["estimators"]) - set(ALL_ESTIMATORS)
    if bad:
        raise ValueError(f"unknown estimator(s): {', '.join(sorted(bad))}")
    merged["estimators"] = tuple(merged["estimators"])
    if merged["rule_variant"] is None:
        merged["rule_variant"] = (
            lk.RULE_BASELINE_AND_ANY_EXACT if merged["scenario"] in (4, 5)
            else lk.RULE_BASELINE_ONLY)
    merged["surname_csv"] = _resolve_census(merged["surname_csv"])
    merged["age_csv"] = _resolve_census(merged["age_csv"])
    return RunConfig(**merged)


def _resolve_census(path):
    if path is None:
        return None
    base = os.environ.get(CENSUS_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return str(Path(base) / p)
    return str(p)


def _scenario_config(cfg):
    n_pop = 100000 if cfg.full_scale else cfg.n_population
    reps = 100 if cfg.full_scale else cfg.replications
    return ScenarioConfig.from_scenario(
        cfg.scenario,
        rule_variant=cfg.rule_variant,
        n_population=n_pop,
        pi_a=cfg.pi_a,
        pi_b=cfg.pi_b,
        replications=reps,
        master_seed=cfg.seed,
        estimators=cfg.estimators,
        tau=cfg.tau,
        g_max=cfg.g_max,
        clerical_m=cfg.clerical_m,
        table_reference_size=cfg.table_reference_size,
        surname_csv=cfg.surname_csv,
        age_csv=cfg.age_csv,
    )


def _outdir(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _pipeline_from_dump(cfg, out):
    path = cfg.population_csv or out / "population.csv"
    pop, flags = load_population(path)
    panel_b, panel_a = lk.sample_records(pop, flags)
    pairs = lk.block_pairs(panel_b, panel_a)
    base = lk.baseline_pairs(panel_b, panel_a, pairs)
    links1 = lk.link_rule1(panel_b, panel_a, pairs,
                           lk.LinkageRuleSpec(cfg.rule_variant))
    links2 = lk.dedupe_rule2(links1)
    return pop, flags, panel_b, panel_a, base, links1, links2


def cmd_simulate(cfg):
    out = _outdir(cfg)
    scn = _scenario_config(cfg)
    ss = np.random.SeedSequence([scn.master_seed, cfg.rep_index])
    pop_rng, sample_rng, _ = map(np.random.default_rng, ss.spawn(3))
    surnames, ages = scn.tables()
    from .frequencies import build_soundex_index
    from .popsim import draw_samples, generate_population
    pop = generate_population(scn.n_population, surnames, ages,
                              scn.perturbation, build_soundex_index(surnames),
                              pop_rng)
    flags = draw_samples(pop, scn.pi_a, scn.pi_b, sample_rng)
    dump_population(pop, flags, out / "population.csv")
    print(f"wrote {out / 'population.csv'} ({pop.n} units)")
    return 0


def cmd_link(cfg):
    out = _outdir(cfg)
    _, _, panel_b, _, _, links1, links2 = _pipeline_from_dump(cfg, out)
    cv = lk.counts(links1, panel_b.size)
    lk.dump_linkset(links1, out / "links_rule1.csv")
    lk.dump_linkset(links2, out / "links_rule2.csv")
    lk.dump_counts(cv, panel_b.unit_id, out / "counts.csv")
    print(f"wrote {out / 'links_rule1.csv'} ({links1.size} links), "
          f"{out / 'links_rule2.csv'} ({links2.size}), {out / 'counts.csv'}")
    return 0


def cmd_fit_uni(cfg):
    out = _outdir(cfg)
    path = cfg.counts_csv or out / "counts.csv"
    _, n_total, _ = _counts_from_csv(path)
    hist = CountHistogram.from_observations(n_total)
    sel = select_G(hist, cfg.g_max, tau=cfg.tau, shared_p=True)
    doc = fit_document(sel.fit, aic=sel.trace[sel.g_hat - 1]["aic"])
    (out / "fit_uni.json").write_text(doc + "\n", encoding="utf-8")
    print(f"wrote {out / 'fit_uni.json'} (G={sel.g_hat})")
    return 0


def cmd_fit_multi(cfg):
    out = _outdir(cfg)
    path = cfg.counts_csv or out / "counts.csv"
    _, _, patterns = _counts_from_csv(path)
    hist = MultiCountHistogram.from_observations(patterns)
    sel = select_G_multi(hist, cfg.g_max, constraint=LogLinear(cfg.d),
                         tau=cfg.tau)
    doc = multi_fit_document(sel.fit, aic=sel.trace[sel.g_hat - 1]["aic"])
    (out / "fit_multi.json").write_text(doc + "\n", encoding="utf-8")
    print(f"wrote {out / 'fit_multi.json'} (G={sel.g_hat}, "
          f"coverage={sel.fit.params.phi:.4f})")
    return 0


def cmd_baselines(cfg):
    out = _outdir(cfg)
    _, flags, panel_b, panel_a, base, links1, links2 = _pipeline_from_dump(
        cfg, out)
    ss = np.random.SeedSequence([cfg.seed, cfg.rep_index])
    clerical_rng = np.random.default_rng(ss.spawn(3)[2])
    naive = lincoln_petersen(panel_a.size, panel_b.size, links2.size)
    phist = np.bincount(base.pattern_code, minlength=8)
    r = racinskij_fit(phist, panel_b.size)
    clerical = lk.clerical_sample(base, links2, cfg.clerical_m, clerical_rng)
    df, dt = df_dt_estimators(links2.size, clerical, panel_a.size,
                              panel_b.size)
    doc = {
        est.estimator_id: {"coverage_hat": est.coverage_hat,
                           "n_hat": est.n_hat,
                           "diagnostics": est.diagnostics}
        for est in (naive, r, df, dt)
    }
    (out / "baselines.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out / 'baselines.json'}")
    return 0


def _write_reports(metrics, out):
    (out / "report.md").write_text(render_report(metrics, "markdown"),
                                   encoding="utf-8")
    (out / "report.csv").write_text(render_report(metrics, "csv"),
                                    encoding="utf-8")
    (out / "report.json").write_text(render_report(metrics, "json") + "\n",
                                     encoding="utf-8")


def cmd_experiment(cfg):
    out = _outdir(cfg)
    scn = _scenario_config(cfg)
    metrics = run_experiment(scn, workers=cfg.threads,
                             log_path=out / "replications.jsonl")
    _write_reports(metrics, out)
    print(render_report(metrics, "markdown"))
    print(f"wrote {out / 'replications.jsonl'} and reports")
    return 0


def cmd_report(cfg):
    out = _outdir(cfg)
    path = cfg.log_jsonl or out / "replications.jsonl"
    results = read_replication_log(path)
    if not results:
        raise ValueError(f"no replication records in {path}")
    names = sorted(results[0].estimates)
    estimates = {
        n: np.array([r.estimates[n].coverage_hat for r in results])
        for n in names
    }
    acc_keys = results[0].accuracy.keys()
    accuracy_means = {
        k: float(np.mean([r.accuracy[k] for r in results
                          if r.accuracy[k] is not None]))
        for k in acc_keys
    }
    metrics = MetricsTable(
        true_coverage=cfg.pi_a,
        replications=len(results),
        estimates=estimates,
        accuracy_means=accuracy_means,
    )
    _write_reports(metrics, out)
    print(render_report(metrics, "markdown"))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "link": cmd_link,
    "fit-uni": cmd_fit_uni,
    "fit-multi": cmd_fit_multi,
    "baselines": cmd_baselines,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def dispatch(command, cfg):
    """Run one command; returns the process exit status."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    return _COMMANDS[command](cfg)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linkcov",
        description="Linkage-accuracy and coverage estimation pipeline",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file or inline JSON")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--threads", type=int,
                        help="worker cap for replications")
    parser.add_argument("--scenario", type=int, choices=range(1, 6),
                        help="scenario override")
    parser.add_argument("--full-scale", action="store_true",
                        help="population 100000, 100 replications")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # flags override config keys before validation, so --scenario
        # derives the rule only when the config leaves rule_variant unset
        data = _read_config(args.config)
        if args.seed is not None:
            data["seed"] = args.seed
        if args.out is not None:
            data["out_dir"] = args.out
        if args.threads is not None:
            data["threads"] = args.threads
        if args.scenario is not None:
            data["scenario"] = args.scenario
        if args.full_scale:
            data["full_scale"] = True
        cfg = _config_from(data)
        status = dispatch(args.command, cfg)
    except Exception as exc:  # surface the failing stage, nonzero exit
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
