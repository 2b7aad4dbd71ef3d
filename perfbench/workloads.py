"""The benchmark's workloads: configs, units of work and output checks.

A unit of work is one ``run_replication`` call (harness workloads) or
one ``simulate -> link -> fit-uni -> fit-multi -> baselines`` chain run
through ``linkcov.cli.main`` (the CLI workload).  Every run of a workload
measures the fixed list of replication indices ``0 .. units-1`` and, if
that takes less than ``--seconds``, goes on with the next indices until
``--seconds`` have passed.  The workload seed becomes the config's master
seed; the program sees only the generated config.

Import this module only after ``linkcov`` is importable: it loads numpy.
"""

import contextlib
import csv
import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from linkcov import cli, experiment, frequencies
from linkcov import linkage as lk
from linkcov.experiment import ScenarioConfig, run_replication

DEFAULT_SEED = 20259

# UN and MN coverage estimates at the default seed must stay this close
# (absolute) to the values recorded at the seed commit.  The Monte Carlo
# standard deviation of one estimate is about 1e-3 at N=20k, so the
# tolerance admits reordered float sums and optimizer end points, not a
# different selected model.
COVERAGE_TOL = 5e-4
# The Racinskij log-likelihood may not fall below its recorded value by
# more than this relative amount (float noise); it may rise.
LOGLIK_REL_SLACK = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CHAIN = ("simulate", "link", "fit-uni", "fit-multi", "baselines")
# Names that run_replication looks up in linkcov.experiment when it calls
# them.  A timed replication pauses before each call, so that the
# benchmark can sample the machine's speed between stages (run.py).
PAUSE_BEFORE = ("racinskij_fit", "select_G", "select_G_multi")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "harness" or "cli"
    scenario: int
    rule_variant: str
    config: dict         # further ScenarioConfig fields, or CLI config keys
    units: int           # fixed replication indices 0 .. units-1

    def scenario_config(self, seed):
        """The ScenarioConfig the unit runs (harness) or calibrates (CLI)."""
        keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
        extra = {k: v for k, v in self.config.items() if k in keys}
        return ScenarioConfig.from_scenario(
            self.scenario, rule_variant=self.rule_variant,
            master_seed=seed, **extra)

    def cli_config(self, seed, rep, out_dir):
        return json.dumps({"scenario": self.scenario,
                           "rule_variant": self.rule_variant,
                           "seed": seed, "rep_index": rep,
                           "out_dir": str(out_dir), **self.config})


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    # Racinskij EM at the CLI default N.  Not in BENCHMARK.json: its EM
    # iteration count, and so its replication time, varies several-fold
    # with the data, more than any bound allows at an affordable run length.
    Workload("s1-20k", "harness", 1, lk.RULE_BASELINE_ONLY,
             {"n_population": 20000}, units=12),
    # The MN selections dominate; Racinskij is cheap.
    Workload("s3-100k", "harness", 3, lk.RULE_BASELINE_ONLY,
             {"n_population": 100000}, units=4),
    # Population, blocking and rules at scale; no fits.
    Workload("link-1m", "harness", 1, lk.RULE_BASELINE_ONLY,
             {"n_population": 1000000, "table_reference_size": 100000,
              "estimators": ()}, units=1),
    # The staged CLI: CSV dump and reload, the any-exact rule 1.
    Workload("cli-s5-100k", "cli", 5, lk.RULE_BASELINE_AND_ANY_EXACT,
             {"n_population": 100000, "g_max": 3}, units=3),
)}


@dataclass
class Inspection:
    """What the output checks saw in one unit's output."""

    record: dict          # values compared against the reference
    failures: list        # messages; empty when every check passed
    fits: int             # fits that report a converged flag
    unconverged: int


def calibrate(workload, seed):
    """One cold table calibration; returns the tables."""
    frequencies.synthetic_surname_table.cache_clear()
    frequencies.synthetic_age_table.cache_clear()
    return workload.scenario_config(seed).tables()


class HarnessUnits:
    """Runs ``run_replication`` on the workload's config."""

    def __init__(self, workload, seed, tracer):
        self.cfg = workload.scenario_config(seed)
        self.captured = {}
        # keep the population and the sample flags of the last unit, to
        # digest them after the timed region
        for name in ("generate_population", "draw_samples"):
            tracer.hook(f"linkcov.experiment.{name}",
                        after=self._capture(name))
        self.capture_missing = dict(tracer.missing)

    def _capture(self, name):
        def after(tracer, args, kwargs, result):
            self.captured[name] = result
        return after

    def run(self, rep, pause=None):
        """One replication; calls ``pause()`` before each stage named in
        PAUSE_BEFORE."""
        self.captured.clear()
        if pause is None:
            return run_replication(self.cfg, rep)
        with _pausing(experiment, PAUSE_BEFORE, pause):
            return run_replication(self.cfg, rep)

    def inspect(self, rep, result):
        failures = []
        pop = self.captured.pop("generate_population", None)
        flags = self.captured.pop("draw_samples", None)
        digest = None
        if pop is None or flags is None:
            failures.append("population not captured: "
                            + "; ".join(self.capture_missing.values()))
        else:
            digest = population_digest(pop, flags)

        d = result.diagnostics
        counts = {k: int(d[k]) for k in (
            "size_a", "size_b", "n_matched", "candidate_pairs",
            "baseline_pairs", "links_rule1", "links_rule2")}
        failures += _count_order(counts)
        if (self.cfg.rule_variant == lk.RULE_BASELINE_ONLY
                and counts["n_matched"] > 0
                and result.accuracy["rule1_recall"] != 1.0):
            failures.append("rule1_recall is "
                            f"{result.accuracy['rule1_recall']!r}, not 1.0 "
                            "under the baseline-only rule")
        estimates = {k: None if v.coverage_hat is None
                     else float(v.coverage_hat)
                     for k, v in result.estimates.items()}
        failures += _in_unit_interval(estimates)
        fits = unconverged = 0
        for est in result.estimates.values():
            if "converged" in est.diagnostics:
                fits += 1
                unconverged += not est.diagnostics["converged"]
        record = {
            "population_sha256": digest,
            "counts": counts,
            "estimates": {k: estimates[k] for k in (
                "un", "mn_no_interactions", "mn_with_interactions")
                if k in estimates},
        }
        if "racinskij" in result.estimates:
            record["racinskij_loglik"] = float(
                result.estimates["racinskij"].diagnostics["loglik"])
        return Inspection(record, failures, fits, unconverged)

    def close(self):
        pass


class CliUnits:
    """Runs the staged CLI chain into a fresh directory per unit."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out = None

    def run(self, rep, pause=None):
        """Runs the chain; calls ``pause()`` between two commands."""
        self.out = Path(tempfile.mkdtemp(prefix=f"chain{rep}-",
                                         dir=self.workdir))
        config = self.workload.cli_config(self.seed, rep, self.out)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for i, command in enumerate(CHAIN):
                    if i:
                        _release_free_heap()
                        if pause is not None:
                            pause()
                    status = cli.main([command, "--config", config])
                    if status != 0:
                        raise RuntimeError(
                            f"linkcov {command} exited {status}")
        except Exception:
            self.close()
            raise
        return self.out

    def inspect(self, rep, out):
        try:
            return self._inspect(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            self.out = None

    def _inspect(self, out):
        failures = []
        links1 = _csv_rows(out / "links_rule1.csv")
        links2 = _csv_rows(out / "links_rule2.csv")
        with open(out / "counts.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        linked = sum(int(r[1]) for r in rows if r)
        uni = json.loads((out / "fit_uni.json").read_text(encoding="utf-8"))
        multi = json.loads((out / "fit_multi.json").read_text(
            encoding="utf-8"))
        base = json.loads((out / "baselines.json").read_text(
            encoding="utf-8"))
        racinskij = base["racinskij"]
        counts = {"links_rule1": links1, "links_rule2": links2,
                  "size_b": len(rows),
                  "baseline_pairs": int(racinskij["diagnostics"]["n_pairs"])}
        failures += _count_order(counts)
        if linked != links1:
            failures.append(f"counts.csv totals {linked} links, "
                            f"links_rule1.csv has {links1}")
        un_p_bar = sum(c["alpha"] * c["p"] for c in uni["components"])
        estimates = {"un_p_bar": un_p_bar, "mn_coverage": multi["coverage"]}
        failures += _in_unit_interval(
            {**estimates, **{k: v["coverage_hat"] for k, v in base.items()}})
        flags = [racinskij["diagnostics"]["converged"], multi["converged"]]
        record = {
            "population_sha256": _file_sha256(out / "population.csv"),
            "counts": counts,
            "estimates": estimates,
            "racinskij_loglik": float(racinskij["diagnostics"]["loglik"]),
            "bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        }
        return Inspection(record, failures, len(flags),
                          sum(not f for f in flags))

    def close(self):
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)


def _release_free_heap():
    """Give the C heap's free pages back to the system (glibc only).

    A user runs each command of the chain as a process of its own; run in
    one process, a command would start on the heap the one before left.
    How much of it glibc keeps varies from run to run, by some 19 MB on
    cli-s5-100k, and the peak RSS of the chain with it.
    """
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


_LIBC = ctypes.CDLL(None)


@contextlib.contextmanager
def _pausing(module, names, pause):
    """Make each ``module.name`` call ``pause()`` first; names that no
    longer exist are skipped."""
    originals = {n: getattr(module, n) for n in names if hasattr(module, n)}

    def pausing(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pause()
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(module, name, pausing(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def units_for(workload, seed, tracer, workdir):
    if workload.kind == "cli":
        return CliUnits(workload, seed, workdir)
    return HarnessUnits(workload, seed, tracer)


def population_digest(pop, flags):
    """SHA-256 of a population and its sample flags, by value.

    Surnames enter as their rank among the sorted labels, so the digest
    does not depend on the order of the label table; every column is
    widened to int64 so it does not depend on the storage dtype.
    """
    labels = np.asarray(pop.surname_labels)
    order = np.argsort(labels, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    h = hashlib.sha256()
    h.update("\n".join(labels[order].tolist()).encode())
    for col in (rank[pop.sidx_a], pop.day_a, pop.month_a, pop.year_a,
                rank[pop.sidx_b], pop.day_b, pop.month_b, pop.year_b,
                flags.in_a, flags.in_b):
        h.update(np.ascontiguousarray(col, dtype=np.int64).tobytes())
    return h.hexdigest()


def compare_reference(expected, got):
    """Messages for every way ``got`` departs from the recorded values."""
    failures = []
    if got.get("population_sha256") != expected["population_sha256"]:
        failures.append("population digest differs from the reference")
    for key, want in expected["counts"].items():
        if got["counts"].get(key) != want:
            failures.append(f"{key} is {got['counts'].get(key)}, "
                            f"reference {want}")
    for key, want in expected["estimates"].items():
        value = got["estimates"].get(key)
        if value is None or abs(value - want) > COVERAGE_TOL:
            failures.append(f"estimate {key} is {value}, reference {want} "
                            f"(tolerance {COVERAGE_TOL})")
    if "racinskij_loglik" in expected:
        want = expected["racinskij_loglik"]
        if got["racinskij_loglik"] < want - LOGLIK_REL_SLACK * abs(want):
            failures.append(f"Racinskij log-likelihood "
                            f"{got['racinskij_loglik']!r} is below the "
                            f"reference {want!r}")
    return failures


def load_reference(workload_name, seed):
    """Recorded values by replication index, for the default seed only."""
    if seed != DEFAULT_SEED:
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {int(k): v for k, v in doc["workloads"][workload_name].items()}


def _count_order(c):
    chain = [k for k in ("links_rule2", "links_rule1", "baseline_pairs",
                         "candidate_pairs") if k in c]
    return [f"{lo} ({c[lo]}) exceeds {hi} ({c[hi]})"
            for lo, hi in zip(chain, chain[1:]) if c[lo] > c[hi]]


def _in_unit_interval(estimates):
    return [f"estimate {k} = {v!r} is not a finite value in (0, 1]"
            for k, v in estimates.items()
            if v is None or not math.isfinite(v) or not 0 < v <= 1]


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return sum(1 for row in csv.reader(fh) if row) - 1


def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
