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
The CSV bytes are a contract: UTF-8, every line ending in "\n",
integers in plain decimal, and surnames quoted exactly as the csv
module's QUOTE_MINIMAL quotes them under a "\n" line terminator.  The
golden SHA-256 digests in tests/test_artifacts.py pin them.

  simulate    population.csv: unit_id, surname_a, day_a, month_a, year_a,
              surname_b, day_b, month_b, year_b, in_a, in_b
  link        baseline_pairs.csv, links_rule1.csv, links_rule2.csv:
              b_unit_id, a_unit_id, g1, g2, g3, sorted by (b_unit_id,
              a_unit_id), the pairs meeting the baseline criterion and
              the links of rule 1 and rule 2;
              counts.csv: b_unit_id, n_total, n_001, n_010, ..., n_111;
              linkage.json: size_a, size_b, candidate_pairs,
              baseline_pairs, links_rule1, links_rule2 and rule_variant
              (reads population.csv)
  fit-uni     fit_uni.json (reads counts.csv)
  fit-multi   fit_multi.json (reads counts.csv)
  baselines   baselines.json: the estimates named in the estimators key
              among naive, racinskij, df and dt (reads linkage.json,
              baseline_pairs.csv and links_rule2.csv, and refuses a
              linkage.json written under another rule_variant)
  experiment  replications.jsonl, report.md, report.csv, report.json
  report      report.md, report.csv, report.json (reads replications.jsonl)

The population_csv, counts_csv and log_jsonl config keys point a stage
at inputs outside the output directory: population_csv the link stage,
counts_csv the two fits and log_jsonl the report.  Census CSV paths
resolve against $LINKCOV_CENSUS_DIR when relative.

simulate, link and report load neither scipy.optimize nor
scipy.special: the calibration solves its root in-repo, and each fit
loads both at its first call: fit-uni, fit-multi, an experiment with
un or an mn_* among its estimators, and a Racinskij fit whose maximum
lies on the boundary (a bounded L-BFGS-B search), in baselines too.

Neither the commands nor run_experiment pin BLAS threads.  OpenBLAS then
starts one thread per core for the fits' small matrix products, and on a
2-vCPU machine fit-multi ran 3 to 29 times slower beside other load.
Set OPENBLAS_NUM_THREADS=1 in the environment that runs them.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import linkage as lk
# Not called here: perfbench/layers.py hooks these names in this module.
from .baselines import df_dt_estimators, lincoln_petersen, racinskij_fit
from .experiment import (ALL_ESTIMATORS, ScenarioConfig,
                         aggregate_replications, baseline_estimates,
                         check_estimators, estimates_document, link,
                         read_replication_log, render_report,
                         replication_rngs, run_experiment, simulate)
from .neighbor_multi import (LogLinear, MultiCountHistogram,
                             multi_fit_document, select_G_multi)
from .neighbor_uni import CountHistogram, fit_document, select_G
from .popsim import dump_population, load_population

CENSUS_DIR_ENV = "LINKCOV_CENSUS_DIR"

# The stages read counts.csv through this module-level name, which
# perfbench/layers.py wraps to time the CSV reads.
_counts_from_csv = lk.load_counts


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration: the config keys and their defaults."""

    scenario: int = 1
    seed: int = 20259
    out_dir: str = "linkcov-out"
    n_population: int = 20000
    pi_a: float = 0.9
    pi_b: float = 0.9
    replications: int = 30
    tau: int = 10
    g_max: int = 5
    d: int = 2
    clerical_m: int = 1000
    estimators: tuple = ALL_ESTIMATORS
    rule_variant: str = None
    table_reference_size: int = None
    surname_csv: str = None
    age_csv: str = None
    threads: int = 1
    full_scale: bool = False
    rep_index: int = 0
    population_csv: str = None
    counts_csv: str = None
    log_jsonl: str = None


def parse_config(source=None):
    """Build a RunConfig from a JSON file path, inline JSON, or None.

    Unknown keys are rejected by name; omitted keys take defaults.
    """
    return _config_from(_read_config(source))


def _read_config(source):
    """The JSON object a config source holds; {} for None."""
    if source is None:
        data = {}
    elif hasattr(source, "read"):
        data = json.load(source)
    elif str(source).lstrip().startswith("{"):
        data = json.loads(str(source))
    else:
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


# The JSON values each RunConfig field type admits, and how an error
# names them.  type(), not isinstance(): a JSON true is a bool, which
# is an int.
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    tuple: ("a list of strings",
            lambda v: type(v) in (list, tuple)
            and all(type(item) is str for item in v)),
}


def _config_from(data):
    """Validate config keys, fill defaults and derive the linkage rule."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    merged = {**defaults, **data}

    for f in fields(RunConfig):
        value = merged[f.name]
        kind, admits = _JSON_TYPES[f.type]
        if not admits(value) and not (value is None and f.default is None):
            raise ValueError(f"config key {f.name!r} must be {kind}")
    if merged["scenario"] not in (1, 2, 3, 4, 5):
        raise ValueError("config key 'scenario' must be 1..5")
    for key in ("pi_a", "pi_b"):
        if not 0 < merged[key] <= 1:
            raise ValueError(f"config key {key!r} must lie in (0, 1]")
    for key in ("n_population", "replications", "tau", "g_max",
                "clerical_m", "threads", "table_reference_size"):
        if merged[key] is not None and merged[key] < 1:
            raise ValueError(f"config key {key!r} must be a positive integer")
    for key in ("seed", "rep_index"):
        if merged[key] < 0:
            raise ValueError(f"config key {key!r} must be a non-negative "
                             f"integer")
    if merged["d"] not in (1, 2):
        raise ValueError("config key 'd' must be 1 or 2")
    check_estimators(merged["estimators"])
    merged["estimators"] = tuple(merged["estimators"])
    if merged["rule_variant"] not in (None, *lk.RULE_VARIANTS):
        raise ValueError(f"config key 'rule_variant' must be one of "
                         f"{', '.join(lk.RULE_VARIANTS)}")
    if merged["rule_variant"] is None:
        merged["rule_variant"] = ScenarioConfig.from_scenario(
            merged["scenario"]).rule_variant
    merged["surname_csv"] = _resolve_census(merged["surname_csv"])
    merged["age_csv"] = _resolve_census(merged["age_csv"])
    return RunConfig(**merged)


def _resolve_census(path):
    if path is None:
        return None
    # an absolute path stays as it is: joining it drops the directory
    return str(Path(os.environ.get(CENSUS_DIR_ENV, "")) / path)


def _scenario_config(cfg):
    """The scenario settings, with every key the two configs share."""
    shared = ({f.name for f in fields(ScenarioConfig)}
              & {f.name for f in fields(RunConfig)})
    scn = ScenarioConfig.from_scenario(
        cfg.scenario, master_seed=cfg.seed,
        **{key: getattr(cfg, key) for key in shared})
    if cfg.full_scale:
        return replace(scn, n_population=100000, replications=100)
    return scn


def _outdir(cfg):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg):
    out = _outdir(cfg)
    scn = _scenario_config(cfg)
    pop_rng, sample_rng, _ = replication_rngs(scn.master_seed, cfg.rep_index)
    pop, flags = simulate(scn, pop_rng, sample_rng)
    dump_population(pop, flags, out / "population.csv")
    print(f"wrote {out / 'population.csv'} ({pop.n} units)")
    return 0


def cmd_link(cfg):
    out = _outdir(cfg)
    dump = cfg.population_csv or out / "population.csv"
    linked = link(*load_population(dump), cfg.rule_variant)
    links1, links2 = linked.links1, linked.links2
    lk.dump_counts(lk.counts(links1, linked.panel_b.size),
                   linked.panel_b.unit_id, out / "counts.csv")
    # both rules keep a subset of the baseline pairs, so their rows are
    # formatted once
    rows = lk.linkset_rows(linked.base)
    lk.dump_linkset(linked.base, out / "baseline_pairs.csv", rows)
    lk.dump_linkset(links1, out / "links_rule1.csv", rows)
    lk.dump_linkset(links2, out / "links_rule2.csv", rows)
    _write_json(out / "linkage.json",
                {**linked.sizes(), "rule_variant": cfg.rule_variant})
    print(f"wrote {out / 'baseline_pairs.csv'} ({linked.base.size} pairs), "
          f"{out / 'links_rule1.csv'} ({links1.size} links), "
          f"{out / 'links_rule2.csv'} ({links2.size}), {out / 'counts.csv'}, "
          f"{out / 'linkage.json'}")
    return 0


def cmd_fit_uni(cfg):
    out = _outdir(cfg)
    _, n_total, _ = _counts_from_csv(cfg.counts_csv or out / "counts.csv")
    hist = CountHistogram.from_observations(n_total)
    sel = select_G(hist, cfg.g_max, tau=cfg.tau)
    doc = fit_document(sel.fit, aic=sel.trace[sel.g_hat - 1]["aic"])
    (out / "fit_uni.json").write_text(doc + "\n", encoding="utf-8")
    print(f"wrote {out / 'fit_uni.json'} (G={sel.g_hat})")
    return 0


def cmd_fit_multi(cfg):
    out = _outdir(cfg)
    _, _, patterns = _counts_from_csv(cfg.counts_csv or out / "counts.csv")
    hist = MultiCountHistogram.from_observations(patterns)
    sel = select_G_multi(hist, cfg.g_max, constraint=LogLinear(cfg.d),
                         tau=cfg.tau)
    doc = multi_fit_document(sel.fit, aic=sel.trace[sel.g_hat - 1]["aic"])
    (out / "fit_multi.json").write_text(doc + "\n", encoding="utf-8")
    print(f"wrote {out / 'fit_multi.json'} (G={sel.g_hat}, "
          f"coverage={sel.fit.params.phi:.4f})")
    return 0


def _linkage_sizes(out, rule_variant):
    """The linkage.json counts of out, checked against rule_variant."""
    path = out / "linkage.json"
    if not path.exists():
        raise FileNotFoundError(f"{path} is missing: run link first")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("rule_variant") != rule_variant:
        raise ValueError(f"{path} was written under rule_variant "
                         f"{doc.get('rule_variant')!r}, the config has "
                         f"{rule_variant!r}: run link again")
    return doc


def cmd_baselines(cfg):
    out = _outdir(cfg)
    sizes = _linkage_sizes(out, cfg.rule_variant)
    base = lk.load_linkset(out / "baseline_pairs.csv")
    links2 = lk.load_linkset(out / "links_rule2.csv")
    if (base.size, links2.size) != (sizes["baseline_pairs"],
                                    sizes["links_rule2"]):
        raise ValueError(f"baseline_pairs.csv and links_rule2.csv in {out} "
                         f"do not match linkage.json: run link again")
    _, _, clerical_rng = replication_rngs(cfg.seed, cfg.rep_index)
    estimates = baseline_estimates(sizes["size_a"], sizes["size_b"], base,
                                   links2, cfg.estimators, cfg.clerical_m,
                                   clerical_rng)
    _write_json(out / "baselines.json", estimates_document(estimates))
    print(f"wrote {out / 'baselines.json'}")
    return 0


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


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
    metrics = aggregate_replications(results, cfg.pi_a)
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
    # a flag left unset stays out of the namespace, and every other flag
    # is stored under the config key it overrides
    parser = argparse.ArgumentParser(
        prog="linkcov",
        description="Linkage-accuracy and coverage estimation pipeline",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file or inline JSON")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", dest="out_dir",
                        help="output directory override")
    parser.add_argument("--threads", type=int,
                        help="worker cap for replications")
    parser.add_argument("--scenario", type=int, choices=range(1, 6),
                        help="scenario override")
    parser.add_argument("--full-scale", action="store_true",
                        help="population 100000, 100 replications")
    return parser


def main(argv=None):
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    try:
        # flags override config keys before validation, so --scenario
        # derives the rule only when the config leaves rule_variant unset
        data = _read_config(flags.pop("config", None))
        cfg = _config_from({**data, **flags})
        status = dispatch(command, cfg)
    except Exception as exc:  # surface the failing stage, nonzero exit
        print(f"error [{command}]: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
