"""Benchmark entry point.

    python3 perfbench/run.py --workload track-drift --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the program under test is the
checkout's `src/iontrack`.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "iontrack", "cli.py")):
        sys.exit(f"perfbench: no program to measure: {SRC}/iontrack/cli.py is missing")
    # One client, one thread: pin the BLAS pools before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[0:1] = [SRC, ROOT]     # in place of this script's directory
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:]))
