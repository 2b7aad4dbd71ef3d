"""Monte Carlo comparison harness.

Runs replications of the generate -> sample -> link -> estimate pipeline
for the five predefined scenarios (or custom settings), scores every
configured coverage estimator against the true sampling rate, and
renders the comparison table.  Replications are pure functions of
(config, replication index), with RNG streams split per stage.  The
stage functions serve both run_replication and the CLI commands.
"""

import csv
import io
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import linkage as lk
from .baselines import CoverageEstimate, df_dt_estimators, lincoln_petersen, racinskij_fit
from .frequencies import (build_soundex_index, load_frequency_table,
                          synthetic_age_table, synthetic_surname_table)
from ._optim import CountHistogram
from .neighbor_multi import LogLinear, coverage_from_fit, select_G_multi
from .neighbor_uni import accuracy_from_fit, select_G
from .popsim import PerturbationParams, draw_samples, generate_population

__all__ = [
    "ALL_ESTIMATORS",
    "check_estimators",
    "ScenarioConfig",
    "ReplicationResult",
    "MetricsTable",
    "aggregate_replications",
    "replication_rngs",
    "simulate",
    "link",
    "baseline_estimates",
    "count_estimates",
    "run_replication",
    "run_experiment",
    "adjust_incomplete",
    "stratified_fit",
    "render_report",
    "estimates_document",
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


def check_estimators(names):
    """Refuse estimator names outside ALL_ESTIMATORS, naming them."""
    bad = set(names) - set(ALL_ESTIMATORS)
    if bad:
        raise ValueError(f"config key 'estimators' names unknown "
                         f"estimator(s): {', '.join(sorted(bad))}")


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
    """One simulation setting: population, perturbation, linkage, fits.

    perturbation holds the log-linear coefficients of the agreement
    patterns, the paper's Table 7 in the standard scenarios.  estimators
    may name only ALL_ESTIMATORS; any other name is refused.
    """

    scenario_id: int = 1
    perturbation: PerturbationParams = PerturbationParams()
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

    def __post_init__(self):
        check_estimators(self.estimators)
        ref = self.table_reference_size
        if ref is not None and ref < 1:
            raise ValueError("config key 'table_reference_size' must be a "
                             "positive integer")

    @classmethod
    def from_scenario(cls, scenario_id, **overrides):
        """Standard scenario settings, optionally overridden."""
        if scenario_id not in _SCENARIOS:
            raise ValueError(f"unknown scenario {scenario_id}")
        main, pair, triple, variant = _SCENARIOS[scenario_id]
        base = cls(
            scenario_id=scenario_id,
            perturbation=PerturbationParams((main,) * 3, (pair,) * 3, triple),
            rule_variant=variant,
        )
        return replace(base, **overrides) if overrides else base

    def tables(self):
        """Surname/age tables: ingested census files or synthetic.

        Each census file is parsed once per process, so replications
        share one table object and the soundex index kept with it.
        """
        if self.surname_csv:
            surnames = _census_table(self.surname_csv, "surname")
        else:
            ref = self.table_reference_size
            surnames = synthetic_surname_table(
                self.n_population if ref is None else ref)
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


def replication_rngs(seed, rep_index):
    """The population, sampling and clerical generators, spawned in that
    order from one root seeded by (seed, rep_index), so a stage draws the
    same numbers whether the harness or a CLI command runs it."""
    ss = np.random.SeedSequence([seed, rep_index])
    return tuple(map(np.random.default_rng, ss.spawn(3)))


def simulate(cfg, pop_rng, sample_rng):
    """The population of a replication and its sample flags."""
    surnames, ages = cfg.tables()
    pop = generate_population(cfg.n_population, surnames, ages,
                              cfg.perturbation, pop_rng)
    return pop, draw_samples(pop, cfg.pi_a, cfg.pi_b, sample_rng)


@dataclass(frozen=True)
class Linked:
    """What linking the two samples leaves for the estimators."""

    panel_b: lk.RecordPanel
    panel_a: lk.RecordPanel
    candidate_pairs: int
    base: lk.LinkSet
    links1: lk.LinkSet
    links2: lk.LinkSet

    def sizes(self):
        """The sample sizes and the pair and link counts."""
        return {"size_a": self.panel_a.size, "size_b": self.panel_b.size,
                "candidate_pairs": self.candidate_pairs,
                "baseline_pairs": self.base.size,
                "links_rule1": self.links1.size,
                "links_rule2": self.links2.size}


def link(pop, flags, rule_variant):
    """Panels, blocking, baseline pairs, rule 1 and rule 2."""
    panel_b, panel_a = lk.sample_records(pop, flags)
    pairs = lk.block_pairs(panel_b, panel_a)
    base = lk.baseline_pairs(panel_b, panel_a, pairs)
    links1 = lk.link_rule1(base, rule_variant)
    return Linked(panel_b, panel_a, pairs.size, base, links1,
                  lk.dedupe_rule2(links1))


def baseline_estimates(size_a, size_b, base, links2, estimators, clerical_m,
                       clerical_rng):
    """The naive, Racinskij, DF and DT estimates named in estimators,
    from the sample sizes, the baseline pairs and the rule-2 links."""
    wanted = set(estimators)
    estimates = {}
    if "naive" in wanted:
        est = lincoln_petersen(size_a, size_b, links2.size)
        estimates["naive"] = replace(est, estimator_id="naive")
    if "racinskij" in wanted:
        phist = np.bincount(base.pattern_code, minlength=8)
        estimates["racinskij"] = racinskij_fit(phist, size_b)
    if wanted & {"df", "dt"}:
        clerical = lk.clerical_sample(base, links2, clerical_m, clerical_rng)
        for est in df_dt_estimators(links2.size, clerical, size_a, size_b):
            if est.estimator_id in wanted:
                estimates[est.estimator_id] = est
    return estimates


_MN_CONSTRAINTS = {"mn_no_interactions": LogLinear(1),
                   "mn_with_interactions": LogLinear(2)}


def count_estimates(cv, estimators, tau, g_max):
    """The UN and MN estimates named in estimators, from link counts; the
    MN modes share one start, and their fits at every G one lockstep
    search."""
    estimates = {}
    if "un" in estimators:
        uh = CountHistogram.from_observations(cv.n_total[:, None])
        sel = select_G(uh, g_max, tau=tau)
        acc = accuracy_from_fit(sel.fit.params, known_recall=1.0)
        estimates["un"] = CoverageEstimate(
            "un", acc.coverage_hat,
            diagnostics={"G": sel.g_hat, "p_bar": acc.p_bar,
                         "lambda_bar": acc.lambda_bar,
                         "precision_hat": acc.precision_hat,
                         "converged": sel.fit.converged},
        )
    modes = [name for name in _MN_CONSTRAINTS if name in estimators]
    if modes:
        mh = CountHistogram.from_observations(cv.pattern_counts[:, 1:])
        orders = tuple(_MN_CONSTRAINTS[name] for name in modes)
        for name, sel in zip(modes, select_G_multi(mh, g_max, orders,
                                                   tau=tau)):
            estimates[name] = CoverageEstimate(
                name, coverage_from_fit(sel.fit.params),
                diagnostics={"G": sel.g_hat, "converged": sel.fit.converged},
            )
    return estimates


def run_replication(cfg, rep_index):
    """Execute one full pipeline pass.

    Deterministic given (cfg, rep_index): the stages draw from the
    generators of ``replication_rngs(cfg.master_seed, rep_index)``.
    """
    pop_rng, sample_rng, clerical_rng = replication_rngs(cfg.master_seed,
                                                         rep_index)
    pop, flags = simulate(cfg, pop_rng, sample_rng)
    linked = link(pop, flags, cfg.rule_variant)
    panel_b, panel_a = linked.panel_b, linked.panel_a
    cv = lk.counts(linked.links1, panel_b.size)

    n_matched = int((flags.in_a & flags.in_b).sum())
    cm1 = lk.confusion(linked.links1, n_matched, panel_b.size, panel_a.size)
    cm2 = lk.confusion(linked.links2, n_matched, panel_b.size, panel_a.size)

    estimates = baseline_estimates(panel_a.size, panel_b.size, linked.base,
                                   linked.links2, cfg.estimators,
                                   cfg.clerical_m, clerical_rng)
    estimates.update(count_estimates(cv, cfg.estimators, cfg.tau, cfg.g_max))
    return ReplicationResult(
        rep_index=rep_index,
        estimates=estimates,
        accuracy=_accuracy_record(cm1, cm2),
        diagnostics={**linked.sizes(), "n_matched": n_matched},
    )


@dataclass
class MetricsTable:
    """Estimator comparison over replications.

    Conventions: relative bias is against the true coverage pi_a in
    percent; variance uses the sample (R-1) denominator; MSE is the mean
    squared deviation from the true coverage, so
    mse = variance * (R-1)/R + bias^2 holds exactly.  An estimator with
    fewer than two values has no sample variance and is refused.
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
            if values.size < 2:
                raise ValueError(f"need at least two replications; "
                                 f"{name!r} has {values.size}")
            mean = float(values.mean())
            bias = mean - self.true_coverage
            rows[name] = {
                "mean": mean,
                "rel_bias_pct": 100.0 * bias / self.true_coverage,
                "variance": float(values.var(ddof=1)),
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


def _replications(cfg, todo, workers):
    """Yield the replications of ``todo`` in order, as each finishes."""
    if workers > 1:
        # Calibrate the tables, build the soundex index and load the
        # scipy modules of the fits here, before the pool starts: forked
        # workers inherit all three instead of each making its own.
        surnames, _ = cfg.tables()
        build_soundex_index(surnames)
        import scipy.optimize  # noqa: F401
        import scipy.special  # noqa: F401
        with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
            yield from pool.map(run_replication, repeat(cfg), todo)
    else:
        for r in todo:
            yield run_replication(cfg, r)


def run_experiment(cfg, workers=1, log_path=None, resume=False,
                   progress=None):
    """Run all replications and aggregate the comparison metrics.

    With log_path, each replication's record is written to a JSONL file
    and flushed as it arrives, so a killed run keeps what it finished.
    A fresh run truncates the log; resume=True appends to it, does not
    rerun the indices already present, and keeps logged indices at or
    past cfg.replications in the log but out of the metrics.
    progress(rep_index) is called as each fresh replication arrives, in
    index order, with any number of workers, after its record is written.
    BLAS threads are not pinned: set OPENBLAS_NUM_THREADS=1, since the
    fits ran 3 to 29 times slower beside other load (see linkcov.cli).
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
        with (open(log_path, "a" if resume else "w", encoding="utf-8")
              if log_path else nullcontext()) as log:
            for res in _replications(cfg, todo, workers):
                results.append(res)
                if log:
                    write_replication_log([res], log)
                    log.flush()
                if progress:
                    progress(res.rep_index)
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


def stratified_fit(strata, estimator="un", tau=10, g_max=3, min_size=500):
    """Run a count-mixture estimator independently per post-stratum.

    strata maps a label to that stratum's CountVector (per-record link
    counts).  Undersized strata are skipped with a warning; the pooled
    coverage weights per-stratum estimates by stratum size.
    """
    if estimator != "un" and estimator not in _MN_CONSTRAINTS:
        raise ValueError(f"unknown stratified estimator {estimator!r}")
    per = {}
    skipped = []
    for label, cv in strata.items():
        if cv.size < min_size:
            warnings.warn(f"stratum {label!r} below minimum size, skipped",
                          stacklevel=2)
            skipped.append(label)
            continue
        est = count_estimates(cv, (estimator,), tau, g_max)[estimator]
        per[label] = (est.coverage_hat, cv.size)
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


def estimates_document(estimates):
    """Each estimate's coverage_hat, n_hat and diagnostics, by name."""
    return {k: {"coverage_hat": v.coverage_hat, "n_hat": v.n_hat,
                "diagnostics": v.diagnostics}
            for k, v in estimates.items()}


def write_replication_log(results, dest):
    """Line-delimited JSON records, one per replication."""
    with (nullcontext(dest) if hasattr(dest, "write")
          else open(dest, "w", encoding="utf-8")) as fh:
        for res in results:
            rec = {
                "rep_index": res.rep_index,
                "estimates": estimates_document(res.estimates),
                "accuracy": res.accuracy,
                "diagnostics": res.diagnostics,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_replication_log(source):
    """Parse a replication JSONL log back into result objects."""
    out = []
    with (nullcontext(source) if hasattr(source, "read")
          else open(source, "r", encoding="utf-8")) as fh:
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
