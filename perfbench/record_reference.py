"""Record the reference outputs that run.py compares at the default seed.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload's fixed replication indices at the default seed and
writes their population digests, linkage counts, UN/MN estimates and
Racinskij log-likelihoods to ``perfbench/reference.json``.  Run it only
on a commit whose outputs are known to be right: the file pins them.
Workloads not named keep their recorded entries.
"""

import json
import os
import sys

from run import BLAS_VARS, HERE, SRC


def main(argv):
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    path = workloads.REFERENCE_PATH
    doc = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
           else {"seed": workloads.DEFAULT_SEED, "workloads": {}})
    for name in argv or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        entries = {}
        with Tracer() as capture:
            runner = workloads.units_for(workload, workloads.DEFAULT_SEED,
                                         capture, HERE / "out" / "work")
            try:
                for rep in range(workload.units):
                    seen = runner.inspect(rep, runner.run(rep))
                    if seen.failures:
                        raise SystemExit(f"{name} unit {rep}: "
                                         f"{seen.failures}")
                    seen.record.pop("bytes_written", None)
                    entries[str(rep)] = seen.record
                    print(f"{name} unit {rep}: {seen.record}", flush=True)
            finally:
                runner.close()
        doc["workloads"][name] = entries
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
