"""One set-up sample, taken in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports ``linkcov`` (and ``linkcov.cli``) and calibrates the workload's
tables once, which is what every CLI command and every harness worker
pays before its first unit of work.  Then it runs the reference kernel
of ``speed.py`` once, so that ``run.py`` can bracket the set-up with the
kernel pass it ran just before starting the probe.  Prints one JSON
object with the three times in seconds.  ``run.py`` starts it with BLAS
already pinned.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    name, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import linkcov  # noqa: F401
    import linkcov.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import workloads

    start = time.perf_counter()
    workloads.calibrate(workloads.WORKLOADS[name], seed)
    calibrate_s = time.perf_counter() - start

    import speed

    print(json.dumps({"import_s": import_s, "calibrate_s": calibrate_s,
                      "kernel_after_s": speed.kernel_s()}))


if __name__ == "__main__":
    main(sys.argv[1:])
