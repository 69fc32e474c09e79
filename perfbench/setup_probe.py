"""Time one benchmark set-up in a fresh interpreter.

Set-up is what a run pays before its first sweep: importing cvlab (numpy
and scipy included) and generating the workload's seeded inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
Prints the elapsed seconds, then the median of five reference kernel
timings taken right after in the same interpreter (see calibrate.py);
removes workdir.
"""

from time import perf_counter

START = perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cvlab.cli  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    try:
        workloads.generate(workload, seed, workdir)
        elapsed = perf_counter() - START
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import calibrate

    kernel = sorted(calibrate.kernel_seconds() for _ in range(5))[2]
    print(repr(elapsed), repr(kernel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
