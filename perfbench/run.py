"""Benchmark of the linkcov pipeline, measured from outside the package.

    python3 perfbench/run.py --workload s1-20k [--seed 20259]
                             [--seconds 10] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
The process pins BLAS to one thread and turns numpy's huge-page advice
off before numpy loads, and pins itself and the processes it starts to
one processor.  It starts no worker pool; it starts only the set-up
probes, one at a time.

``--trace 0`` measures the end-to-end metrics: set-up time (the median
of three fresh processes' package import plus cold table calibration,
spread over the run), the median and the throughput of warm units of
work, and peak RSS.  One untimed unit warms the process up first.
Times are adjusted for the machine's current speed with the reference
kernel of ``speed.py``, timed around each of them; the wall times are
printed and kept as well.  ``--trace 1``
runs the workload's first unit untraced, traced and untraced again, and
reports the per-layer metrics of the traced unit.  Every unit's output
is checked; at the default seed it is also compared with the values in
``reference.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result (environment, per-unit times and checks, spans) is written
under ``perfbench/out/``.  The exit status is 1 when a check failed and 2
when the benchmark cannot start.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, failed_frac, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
# No unit starts after this many seconds of measuring, so that a run ends
# well within three minutes even on a slow machine.
MEASURE_CAP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20259)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "linkcov" / "__init__.py").is_file():
        print(f"perfbench: no linkcov package under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    # Without huge-page advice on numpy's large arrays: the kernel's
    # khugepaged fills such regions in the background, so the peak RSS
    # would depend on how long the process sat between its stages.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    # The units, the set-up probes and the reference kernel timed around
    # them all run on one processor; the probes inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import linkcov
    import linkcov.cli  # noqa: F401  (the CLI workload's entry point)
    import_s = time.perf_counter() - start
    if Path(linkcov.__file__).resolve().parent != (SRC / "linkcov").resolve():
        print(f"perfbench: imported linkcov from {linkcov.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = Bench(workload, args.seed, args.seconds)
    result = bench.run(bool(args.trace))
    result["import_s"] = import_s
    result["environment"] = environment(workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in bench.tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")

    report(result, stem)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


class Bench:
    """One run of one workload: set-up, then timed or traced units."""

    def __init__(self, workload, seed, seconds):
        import layers
        import speed
        import workloads

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.layers = layers
        self.speed = speed
        self.wl = workloads
        self.reference = workloads.load_reference(workload.name, seed)
        self.tracer = Tracer()
        self.units = []
        self.warm_up_s = None

    def run(self, trace):
        setup = []
        with Tracer() as capture:
            runner = self.wl.units_for(self.workload, self.seed, capture,
                                       OUT / "work")
            try:
                if trace:
                    self.layers.install(self.tracer)
                    calibrations = [self._calibrate()
                                    for _ in range(SETUP_REPEATS)]
                    self.tracer.remove_hooks()
                    metrics = self._traced(runner)
                else:
                    calibrations = [self._calibrate()]
                    setup = self._timed(runner)
                    metrics = self._end_to_end(setup)
            finally:
                self.tracer.remove_hooks()
                runner.close()
        failed = sum(1 for u in self.units if u["failures"])
        fits = sum(u["fits"] for u in self.units)
        unconverged = sum(u["unconverged"] for u in self.units)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(trace),
            "correct": failed == 0,
            "attempted": len(self.units),
            "failed": failed,
            "failed_frac": failed_frac(failed, len(self.units)),
            "fits": fits,
            "unconverged": unconverged,
            "unconverged_frac": unconverged / fits if fits else 0.0,
            "calibration_s": calibrations,
            "setup_samples": setup,
            "metrics": metrics,
            "wall": {} if trace else self._wall_figures(setup),
            "warm_up_s": self.warm_up_s,
            "units": self.units,
        }

    def _unit(self, runner, rep, traced=False, kernel=None):
        """Run, time and check one unit; returns its record."""
        entry = {"rep": rep, "traced": traced, "seconds": None,
                 "cpu_seconds": None, "segments_s": None, "kernel_s": None,
                 "adjusted_s": None, "failures": [], "fits": 0,
                 "unconverged": 0}
        self.units.append(entry)
        try:
            output = self._run_timed(runner, rep, traced, entry, kernel)
            seen = runner.inspect(rep, output)
        except Exception:
            entry["failures"].append(traceback.format_exc())
            print(entry["failures"][-1], file=sys.stderr)
            return entry
        failures = list(seen.failures)
        if rep in self.reference:
            failures += self.wl.compare_reference(self.reference[rep],
                                                  seen.record)
        entry.update(failures=failures, fits=seen.fits,
                     unconverged=seen.unconverged, record=seen.record)
        for message in failures:
            print(f"check failed, unit {rep}: {message}", file=sys.stderr)
        return entry

    def _run_timed(self, runner, rep, traced, entry, kernel=None):
        """The timed region.  A traced unit runs inside one root span with
        the layer hooks installed; they are removed before its output is
        checked.

        ``kernel`` is the time of the reference kernel pass run just
        before the unit; with it, the unit's time is adjusted (speed.py).
        The kernel runs again after the unit and between its stages,
        where the runner calls ``pause`` (workloads.py).  Those passes are
        left out of the unit's time, and each stretch between two passes
        is adjusted by them.
        """
        if traced:
            self.layers.install(self.tracer)
            self.tracer.unit = f"rep{rep}"
        segments, kernels, cpu = [], [kernel], [0.0]
        mark = [time.perf_counter(), time.process_time()]

        def pause():
            segments.append(time.perf_counter() - mark[0])
            cpu[0] += time.process_time() - mark[1]
            kernels.append(self.speed.kernel_s())
            mark[:] = time.perf_counter(), time.process_time()

        if traced:
            self.tracer.open(self.layers.ROOT_SPAN, mark[0])
        try:
            return runner.run(rep, pause if kernel is not None else None)
        finally:
            end = time.perf_counter()
            segments.append(end - mark[0])
            cpu[0] += time.process_time() - mark[1]
            entry["seconds"] = sum(segments)
            entry["cpu_seconds"] = cpu[0]
            if traced:
                self.tracer.close(end)
                self.tracer.remove_hooks()
            if kernel is not None:
                kernels.append(self.speed.kernel_s())
                entry["segments_s"] = segments
                entry["kernel_s"] = kernels
                entry["adjusted_s"] = sum(
                    self.speed.adjusted(seg, before, after) for seg, before,
                    after in zip(segments, kernels, kernels[1:]))

    def _calibrate(self):
        start = time.perf_counter()
        self.wl.calibrate(self.workload, self.seed)
        return time.perf_counter() - start

    def _setup_sample(self):
        """Import plus one cold calibration, timed in a fresh process.

        The reference kernel runs here right before the probe starts and
        in the probe right after its set-up; the two bracket it.
        """
        kernel_before = self.speed.kernel_s()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             self.workload.name, str(self.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        sample["wall_s"] = sample["import_s"] + sample["calibrate_s"]
        sample["kernel_s"] = [kernel_before, sample["kernel_after_s"]]
        sample["adjusted_s"] = self.speed.adjusted(sample["wall_s"],
                                                   *sample["kernel_s"])
        return sample

    def _timed(self, runner):
        """Measure units; returns the set-up samples.

        The machine's speed drifts over seconds, so the set-up samples
        are spread over the run: one before the units, one after the
        first unit that ends past half of --seconds, one after the last.

        The first unit a process runs pays for growing its heap, so one
        untimed unit (the first fixed index) runs and is checked before
        the timed ones; it counts only if it fails.  The reference kernel
        runs between units, so each unit is bracketed by the pass before
        it and the one after.
        """
        setup = [self._setup_sample()]
        warm_up = self._unit(runner, 0)
        self.warm_up_s = warm_up["seconds"]
        if not warm_up["failures"]:
            self.units.remove(warm_up)
        start = time.perf_counter()
        rep = 0
        kernel = self.speed.kernel_s()
        while rep < self.workload.units or (
                time.perf_counter() - start < self.seconds):
            if time.perf_counter() - start > MEASURE_CAP_S:
                break
            kernel = self._unit(runner, rep, kernel=kernel)["kernel_s"][-1]
            rep += 1
            if (len(setup) == 1
                    and time.perf_counter() - start >= self.seconds / 2):
                setup.append(self._setup_sample())
        while len(setup) < SETUP_REPEATS:
            setup.append(self._setup_sample())
        return setup

    def _timed_units(self):
        return [u for u in self.units
                if u["adjusted_s"] is not None and not u["failures"]]

    def _end_to_end(self, setup):
        """The end-to-end metrics, in adjusted seconds (see speed.py)."""
        times = [u["adjusted_s"] for u in self._timed_units()]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (median(s["adjusted_s"] for s in setup), "s"),
            "rep_adj_s_p50": (median(times) if times else None, "s"),
            "reps_per_adj_s": (len(times) / sum(times) if times else None,
                               "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def _wall_figures(self, setup):
        """The same figures in wall seconds, unadjusted; printed, not gated."""
        walls = [u["seconds"] for u in self._timed_units()]
        kernels = [k for u in self._timed_units() for k in u["kernel_s"]]
        figures = {
            "setup_wall_s": (median(s["wall_s"] for s in setup), "s"),
            "rep_wall_s_p50": (median(walls) if walls else None, "s"),
            "reps_per_wall_s": (len(walls) / sum(walls) if walls else None,
                                "1/s"),
            "kernel_s_p50": (median(kernels) if kernels else None, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}

    def _traced(self, runner):
        rep = 0
        before = self._unit(runner, rep)
        traced = self._unit(runner, rep, traced=True)
        after = self._unit(runner, rep)
        untraced = [u["seconds"] for u in (before, after)
                    if u["seconds"] is not None]
        ctx = {
            "untraced_s": sum(untraced) / len(untraced) if untraced else 0.0,
            "fits": traced["fits"],
            "unconverged": traced["unconverged"],
            "bytes_written": traced.get("record", {}).get("bytes_written", 0),
        }
        return self.layers.per_layer(self.tracer, f"rep{rep}", ctx)


def environment(workload, seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "workload": workload.name,
        "kind": workload.kind,
        "scenario": workload.scenario,
        "rule_variant": workload.rule_variant,
        "config": workload.config,
        "fixed_units": workload.units,
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the package sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((SRC / "linkcov").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def report(result, stem):
    """Human-readable summary; every metric by name and unit."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  units {result['attempted']}")
    rows = dict(result["metrics"])
    if not result["trace"]:
        rows["failed_frac"] = {"value": result["failed_frac"],
                               "unit": "ratio"}
        rows["unconverged_frac"] = {"value": result["unconverged_frac"],
                                    "unit": "ratio"}
        rows.update(result["wall"])
    for name, m in rows.items():
        value = "absent: " + m["absent"] if "absent" in m else m["value"]
        print(f"  {name:36s} {value} {m['unit']}")
    env = result["environment"]
    print(f"  environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, commit "
          f"{env['git_commit']}, seed {env['seed']}")
    print(f"  full result: {OUT / (stem + '.json')}")


if __name__ == "__main__":
    sys.exit(main())
