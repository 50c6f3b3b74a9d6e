"""One set-up, timed in a fresh interpreter: import lexeu and its CLI from
the checkout's src/, then make and write the first job inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints {"setup_s": ...} as its last line.  run.py starts it several times
and reports the median.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FIRST_JOBS = 4


def main() -> int:
    workload_name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import lexeu.cli  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=HERE / "work"))
    try:
        for i in range(FIRST_JOBS):
            workload.make(seed, i, workdir).write()
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
