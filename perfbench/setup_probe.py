"""One set-up sample: a fresh interpreter up to the first possible job.

``python3 perfbench/setup_probe.py <workload> <seed>`` imports the
program, builds the workload's inputs (for ``serve-jobs`` it also starts
the job server and waits for its ``/healthz``), prints ``ready`` and
then tears down.  :func:`perfbench.measure.setup_seconds` times it.
"""

import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]


def main() -> int:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    workload = WORKLOADS[name](ROOT, seed, tmp, Tracer(False))
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
