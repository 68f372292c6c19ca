"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken to import pairtrack, generate the run's scenes and
build the noise schedule and denoiser. ``run.py`` starts this several times
per run and reports the median as ``setup_s``; BLAS thread settings are
inherited from its environment.
"""

import sys
import time

from workloads import WORKLOADS, build_inputs, import_pairtrack


def main(argv: list[str]) -> None:
    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    t0 = time.perf_counter()
    pt = import_pairtrack()
    build_inputs(pt, workload, seed)
    print(f"{time.perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main(sys.argv[1:])
