"""Monte Carlo comparison harness.

Runs replications of the generate -> sample -> link -> estimate pipeline
for the five predefined scenarios (or custom settings), scores every
configured coverage estimator against the true sampling rate, and
renders the comparison table.  Replications are pure functions of
(config, replication index), with RNG streams split per stage.
"""

import csv
import io
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from functools import lru_cache

import numpy as np

from . import linkage as lk
from ._optim import FitOptions
from .baselines import CoverageEstimate, df_dt_estimators, lincoln_petersen, racinskij_fit
from .frequencies import (build_soundex_index, load_frequency_table,
                          synthetic_age_table, synthetic_surname_table)
from .neighbor_multi import (LogLinear, MultiCountHistogram,
                             appendix_c_cells, marginal_rates, select_G_multi)
from .neighbor_uni import (CountHistogram, accuracy_from_fit, select_G)
from .popsim import PerturbationParams, draw_samples, generate_population

__all__ = [
    "ALL_ESTIMATORS",
    "ScenarioConfig",
    "ReplicationResult",
    "MetricsTable",
    "aggregate_replications",
    "run_replication",
    "run_experiment",
    "adjust_incomplete",
    "stratified_fit",
    "render_report",
    "write_replication_log",
    "read_replication_log",
]

ALL_ESTIMATORS = ("naive", "racinskij", "df", "dt", "un",
                  "mn_no_interactions", "mn_with_interactions")

ESTIMATOR_LABELS = {
    "naive": "Naive",
    "racinskij": "R",
    "df": "DF",
    "dt": "DT",
    "un": "UN",
    "mn_no_interactions": "MN with no interactions",
    "mn_with_interactions": "MN with 2nd order interactions",
}

# scenario id -> (main, pair, triple, rule variant)
_SCENARIOS = {
    1: (1.0, 0.0, 0.0, lk.RULE_BASELINE_ONLY),
    2: (1.0, 1.0, 0.0, lk.RULE_BASELINE_ONLY),
    3: (1.0, 1.0, 0.25, lk.RULE_BASELINE_ONLY),
    4: (1.0, 1.0, 0.0, lk.RULE_BASELINE_AND_ANY_EXACT),
    5: (1.0, 1.0, 0.25, lk.RULE_BASELINE_AND_ANY_EXACT),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation setting: population, perturbation, linkage, fits."""

    scenario_id: int = 1
    u_main: tuple = (1.0, 1.0, 1.0)
    u_pair: tuple = (0.0, 0.0, 0.0)
    u_triple: float = 0.0
    rule_variant: str = lk.RULE_BASELINE_ONLY
    n_population: int = 20000
    pi_a: float = 0.9
    pi_b: float = 0.9
    replications: int = 30
    master_seed: int = 20259
    estimators: tuple = ALL_ESTIMATORS
    tau: int = 10
    g_max: int = 3
    clerical_m: int = 1000
    table_reference_size: int = None
    surname_csv: str = None
    age_csv: str = None

    @classmethod
    def from_scenario(cls, scenario_id, **overrides):
        """Standard scenario settings, optionally overridden."""
        if scenario_id not in _SCENARIOS:
            raise ValueError(f"unknown scenario {scenario_id}")
        main, pair, triple, variant = _SCENARIOS[scenario_id]
        base = cls(
            scenario_id=scenario_id,
            u_main=(main,) * 3,
            u_pair=(pair,) * 3,
            u_triple=triple,
            rule_variant=variant,
        )
        return replace(base, **overrides) if overrides else base

    @property
    def perturbation(self):
        return PerturbationParams(u_main=self.u_main, u_pair=self.u_pair,
                                  u_triple=self.u_triple)

    def tables(self):
        """Surname/age tables: ingested census files or synthetic.

        Each census file is parsed once per process, so replications
        share one table object and the soundex index kept with it.
        """
        if self.surname_csv:
            surnames = _census_table(self.surname_csv, "surname")
        else:
            ref = self.table_reference_size or self.n_population
            surnames = synthetic_surname_table(ref)
        if self.age_csv:
            ages = _census_table(self.age_csv, "age")
        else:
            ages = synthetic_age_table()
        return surnames, ages


@lru_cache(maxsize=None)
def _census_table(path, kind):
    return load_frequency_table(path, kind)


@dataclass
class ReplicationResult:
    """Estimates plus realized linkage accuracy for one replication."""

    rep_index: int
    estimates: dict
    accuracy: dict
    diagnostics: dict = field(default_factory=dict)


def _accuracy_record(cm1, cm2):
    return {
        "rule1_recall": cm1.recall, "rule1_precision": cm1.precision,
        "rule1_fpr": cm1.fpr,
        "rule2_recall": cm2.recall, "rule2_precision": cm2.precision,
        "rule2_fpr": cm2.fpr,
    }


def run_replication(cfg, rep_index, opts=None):
    """Execute one full pipeline pass.

    Deterministic given (cfg, rep_index): the RNG root seeds from
    (master_seed, rep_index) and splits into population, sampling and
    clerical children in that order.
    """
    opts = opts or FitOptions()
    ss = np.random.SeedSequence([cfg.master_seed, rep_index])
    pop_rng, sample_rng, clerical_rng = map(np.random.default_rng, ss.spawn(3))

    surnames, ages = cfg.tables()
    soundex_index = build_soundex_index(surnames)
    pop = generate_population(cfg.n_population, surnames, ages,
                              cfg.perturbation, soundex_index, pop_rng)
    flags = draw_samples(pop, cfg.pi_a, cfg.pi_b, sample_rng)

    panel_b, panel_a = lk.sample_records(pop, flags)
    pairs = lk.block_pairs(panel_b, panel_a)
    base = lk.baseline_pairs(panel_b, panel_a, pairs)
    links1 = lk.link_rule1(panel_b, panel_a, pairs,
                           lk.LinkageRuleSpec(cfg.rule_variant))
    links2 = lk.dedupe_rule2(links1)
    cv = lk.counts(links1, panel_b.size)

    n_matched = int((flags.in_a & flags.in_b).sum())
    cm1 = lk.confusion(links1, n_matched, panel_b.size, panel_a.size)
    cm2 = lk.confusion(links2, n_matched, panel_b.size, panel_a.size)

    estimates = {}
    wanted = set(cfg.estimators)

    if "naive" in wanted:
        est = lincoln_petersen(panel_a.size, panel_b.size, links2.size)
        estimates["naive"] = CoverageEstimate("naive", est.coverage_hat,
                                              est.n_hat, est.diagnostics)
    if "racinskij" in wanted:
        phist = np.bincount(base.pattern_code, minlength=8)
        estimates["racinskij"] = racinskij_fit(phist, panel_b.size)
    if "df" in wanted or "dt" in wanted:
        clerical = lk.clerical_sample(base, links2, cfg.clerical_m,
                                      clerical_rng)
        df, dt = df_dt_estimators(links2.size, clerical, panel_a.size,
                                  panel_b.size)
        if "df" in wanted:
            estimates["df"] = df
        if "dt" in wanted:
            estimates["dt"] = dt
    if "un" in wanted:
        uh = CountHistogram.from_observations(cv.n_total)
        sel = select_G(uh, cfg.g_max, tau=cfg.tau, shared_p=True, opts=opts)
        acc = accuracy_from_fit(sel.fit.params, known_recall=1.0)
        estimates["un"] = CoverageEstimate(
            "un", acc.coverage_hat,
            diagnostics={"G": sel.g_hat, "p_bar": acc.p_bar,
                         "lambda_bar": acc.lambda_bar,
                         "precision_hat": acc.precision_hat},
        )
    mn_modes = [("mn_no_interactions", LogLinear(1)),
                ("mn_with_interactions", LogLinear(2))]
    if wanted & {m for m, _ in mn_modes}:
        mh = MultiCountHistogram.from_observations(cv.pattern_counts[:, 1:])
        # both modes start from the same per-rule rates and plug-in cells
        lam_bar = marginal_rates(mh, cfg.tau, opts)
        p_hat = appendix_c_cells(mh, lam_bar, cfg.tau, opts.nu)
        for name, constraint in mn_modes:
            if name not in wanted:
                continue
            sel = select_G_multi(mh, cfg.g_max, constraint=constraint,
                                 tau=cfg.tau, opts=opts, lambda_bar=lam_bar,
                                 p_hat=p_hat)
            estimates[name] = CoverageEstimate(
                name, float(sel.fit.params.phi),
                diagnostics={"G": sel.g_hat,
                             "converged": sel.fit.converged},
            )

    return ReplicationResult(
        rep_index=rep_index,
        estimates=estimates,
        accuracy=_accuracy_record(cm1, cm2),
        diagnostics={
            "size_a": panel_a.size, "size_b": panel_b.size,
            "n_matched": n_matched, "candidate_pairs": pairs.size,
            "baseline_pairs": base.size, "links_rule1": links1.size,
            "links_rule2": links2.size,
        },
    )


@dataclass
class MetricsTable:
    """Estimator comparison over replications.

    Conventions: relative bias is against the true coverage pi_a in
    percent; variance uses the sample (R-1) denominator; MSE is the mean
    squared deviation from the true coverage, so
    mse = variance * (R-1)/R + bias^2 holds exactly.
    """

    true_coverage: float
    replications: int
    estimates: dict          # estimator -> np.ndarray of per-rep values
    accuracy_means: dict
    rows: dict = field(init=False)

    def __post_init__(self):
        rows = {}
        for name, values in self.estimates.items():
            values = np.asarray(values, dtype=float)
            r = values.size
            mean = float(values.mean())
            bias = mean - self.true_coverage
            rows[name] = {
                "mean": mean,
                "rel_bias_pct": 100.0 * bias / self.true_coverage,
                "variance": float(values.var(ddof=1)) if r > 1 else 0.0,
                "mse": float(np.mean((values - self.true_coverage) ** 2)),
            }
        self.rows = rows


def aggregate_replications(results, true_coverage, estimators=None):
    """The comparison metrics over replication results, in index order.

    estimators restricts the table to those names; None keeps every
    estimator of the first result.  Accuracy means skip missing values.
    """
    results = sorted(results, key=lambda res: res.rep_index)
    first = results[0]
    estimates = {
        name: np.array([res.estimates[name].coverage_hat for res in results])
        for name in (estimators or first.estimates) if name in first.estimates
    }
    accuracy_means = {
        k: float(np.mean([res.accuracy[k] for res in results
                          if res.accuracy[k] is not None]))
        for k in first.accuracy
    }
    return MetricsTable(
        true_coverage=true_coverage,
        replications=len(results),
        estimates=estimates,
        accuracy_means=accuracy_means,
    )


def _rep_worker(payload):
    cfg_dict, rep = payload
    cfg = ScenarioConfig(**cfg_dict)
    return run_replication(cfg, rep)


def _replications(cfg, todo, workers):
    """Yield the replications of ``todo`` in order, as each finishes."""
    if workers > 1:
        # Calibrate the tables and build the soundex index here, before
        # the pool starts: forked workers inherit both from the caches
        # instead of each calibrating its own.
        surnames, _ = cfg.tables()
        build_soundex_index(surnames)
        payloads = [(asdict(cfg), r) for r in todo]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_rep_worker, payloads)
    else:
        for r in todo:
            yield run_replication(cfg, r)


def run_experiment(cfg, workers=1, log_path=None, resume=False,
                   progress=None):
    """Run all replications and aggregate the comparison metrics.

    With log_path, per-replication records append to a JSONL file; with
    resume=True, replication indices already present are not rerun, and
    logged indices at or past cfg.replications stay in the log but out of
    the metrics.
    progress(rep_index) is called as each fresh replication arrives, in
    index order, with any number of workers.
    """
    if cfg.replications < 2:
        raise ValueError("need at least two replications")
    done = {}
    if log_path and resume:
        try:
            done = {r.rep_index: r for r in read_replication_log(log_path)}
        except FileNotFoundError:
            done = {}
    todo = [r for r in range(cfg.replications) if r not in done]

    results = list(done.values())
    if todo:
        for res in _replications(cfg, todo, workers):
            results.append(res)
            if progress:
                progress(res.rep_index)
        if log_path:
            write_replication_log(
                sorted(results, key=lambda x: x.rep_index), log_path)
    wanted = range(cfg.replications)
    return aggregate_replications(
        [res for res in results if res.rep_index in wanted], cfg.pi_a,
        cfg.estimators)


def adjust_incomplete(size_a_full, size_a_complete, phi_complete):
    """Two-step coverage adjustment for incomplete records.

    Divides the complete-record count by its estimated coverage to get
    the implied register size, then rescales to the full record count:
    size_a_full * phi_complete / size_a_complete.  Values above one are
    flagged with a warning, not clamped.
    """
    if size_a_complete <= 0:
        raise ValueError("complete-record count must be positive")
    if size_a_complete > size_a_full:
        raise ValueError("complete records cannot exceed the full count")
    if not 0 < phi_complete <= 1:
        raise ValueError("coverage of complete records must lie in (0, 1]")
    out = size_a_full * phi_complete / size_a_complete
    if out > 1.0:
        warnings.warn("adjusted coverage exceeds 1; inputs look inconsistent",
                      stacklevel=2)
    return out


@dataclass(frozen=True)
class StratifiedResult:
    per_stratum: dict
    pooled: float
    skipped: tuple


def stratified_fit(strata, estimator="un", tau=10, g_max=3, min_size=500,
                   opts=FitOptions()):
    """Run a count-mixture estimator independently per post-stratum.

    strata maps a label to that stratum's CountVector (per-record link
    counts).  Undersized strata are skipped with a warning; the pooled
    coverage weights per-stratum estimates by stratum size.
    """
    if estimator not in ("un", "mn_no_interactions", "mn_with_interactions"):
        raise ValueError(f"unknown stratified estimator {estimator!r}")
    per = {}
    skipped = []
    for label, cv in strata.items():
        if cv.size < min_size:
            warnings.warn(f"stratum {label!r} below minimum size, skipped",
                          stacklevel=2)
            skipped.append(label)
            continue
        if estimator == "un":
            hist = CountHistogram.from_observations(cv.n_total)
            sel = select_G(hist, g_max, tau=tau, shared_p=True, opts=opts)
            per[label] = (sel.fit.params.p_bar, cv.size)
        else:
            d = 1 if estimator == "mn_no_interactions" else 2
            hist = MultiCountHistogram.from_observations(cv.pattern_counts[:, 1:])
            sel = select_G_multi(hist, g_max, constraint=LogLinear(d),
                                 tau=tau, opts=opts)
            per[label] = (float(sel.fit.params.phi), cv.size)
    if not per:
        raise ValueError("all strata skipped; nothing to pool")
    weights = np.array([n for _, n in per.values()], dtype=float)
    values = np.array([v for v, _ in per.values()])
    pooled = float(values @ weights / weights.sum())
    return StratifiedResult(
        per_stratum={k: v for k, (v, _) in per.items()},
        pooled=pooled,
        skipped=tuple(skipped),
    )


_REPORT_COLUMNS = ("estimator", "relative_bias_pct", "variance_x1e7",
                   "mse_x1e7")


def render_report(metrics, fmt="markdown"):
    """Render the comparison table (variance and MSE scaled by 1e7)."""
    rows = []
    for name in ALL_ESTIMATORS:
        if name not in metrics.rows:
            continue
        r = metrics.rows[name]
        rows.append((ESTIMATOR_LABELS[name], r["rel_bias_pct"],
                     r["variance"] * 1e7, r["mse"] * 1e7))
    if fmt == "markdown":
        out = ["| Estimator | Relative bias (%) | Variance x1e-7 | MSE x1e-7 |",
               "|---|---|---|---|"]
        for label, bias, var, mse in rows:
            out.append(f"| {label} | {bias:.3f} | {var:.2f} | {mse:.2f} |")
        return "\n".join(out) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for label, bias, var, mse in rows:
            writer.writerow([label, f"{bias:.12g}", f"{var:.12g}",
                             f"{mse:.12g}"])
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "true_coverage": metrics.true_coverage,
            "replications": metrics.replications,
            "scale_note": "variance and mse columns scaled by 1e7",
            "rows": [
                {"estimator": label, "relative_bias_pct": bias,
                 "variance_x1e7": var, "mse_x1e7": mse}
                for label, bias, var, mse in rows
            ],
            "accuracy_means": metrics.accuracy_means,
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    raise ValueError(f"unknown report format {fmt!r}")


def write_replication_log(results, dest):
    """Line-delimited JSON records, one per replication."""
    own = not hasattr(dest, "write")
    fh = open(dest, "w", encoding="utf-8") if own else dest
    try:
        for res in results:
            rec = {
                "rep_index": res.rep_index,
                "estimates": {
                    k: {"coverage_hat": v.coverage_hat,
                        "n_hat": v.n_hat,
                        "diagnostics": v.diagnostics}
                    for k, v in res.estimates.items()
                },
                "accuracy": res.accuracy,
                "diagnostics": res.diagnostics,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if own:
            fh.close()


def read_replication_log(source):
    """Parse a replication JSONL log back into result objects."""
    own = not hasattr(source, "read")
    fh = open(source, "r", encoding="utf-8") if own else source
    try:
        out = []
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            estimates = {
                k: CoverageEstimate(k, v["coverage_hat"], v.get("n_hat"),
                                    v.get("diagnostics", {}))
                for k, v in rec["estimates"].items()
            }
            out.append(ReplicationResult(
                rep_index=rec["rep_index"],
                estimates=estimates,
                accuracy=rec["accuracy"],
                diagnostics=rec.get("diagnostics", {}),
            ))
        return out
    finally:
        if own:
            fh.close()
