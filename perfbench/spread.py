"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload s1-20k --seeds 1,2,3,4,5

Each seed gets one fresh ``run.py`` process, one after another.  For
every end-to-end metric it prints the median of the runs and the
quartile spread (Q3 - Q1) / median, with the quartiles that
``statistics.quantiles(values, n=4)`` gives, next to the metric's bound
from ``BENCHMARK.json``.  The runs' values are kept in
``perfbench/out/spread-<workload>.json``.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from spans import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one run each")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=240)
        wall = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        runs.append({"seed": seed, "exit": done.returncode, "wall_s": wall,
                     **result})
        values = {k: round(v["value"], 4)
                  for k, v in result.get("metrics", {}).items()}
        print(f"seed {seed}: exit {done.returncode}, wall {wall:.1f} s, "
              f"correct {result.get('correct')}, {values}", flush=True)
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)

    ok = [r for r in runs if r.get("correct")]
    print(f"{args.workload}: {len(ok)}/{len(runs)} runs correct")
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in ok]
        if len(values) < 2:
            continue
        spread = quartile_spread(values)
        summary[name] = {"median": median(values), "spread": spread,
                         "bound": metric["bound"], "values": values}
        print(f"  {name:12s} median {median(values):.4f} "
              f"{metric['unit']:4s} spread {spread:.3f} "
              f"(bound {metric['bound']}, a third {metric['bound'] / 3:.3f})")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n",
        encoding="utf-8")
    return 0 if len(ok) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
