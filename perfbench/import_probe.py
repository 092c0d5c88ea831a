"""Time `import fcir, fcir.cli` in this fresh process and print the seconds.

    python3 perfbench/import_probe.py <directory that holds the fcir package>

Prints two numbers: the wall time of the import, and the same time rescaled
to a host that runs the interpreter kernel below in KERNEL_S seconds.  The
host's speed drifts from minute to minute (see `reference.py`) and import time
follows it, so the kernel is timed just before and just after the import.  The
probe itself imports nothing fcir needs but `math`, so the import stays cold.
"""

import math
import sys
import time

# Nominal kernel time, about what a 2-core Xeon VM takes.
KERNEL_S = 0.02


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(300_000):
        total += math.sqrt(i)
    return time.perf_counter() - start


def main() -> None:
    sys.path[0] = sys.argv[1]  # in place of this script's own directory
    before = kernel_seconds()
    start = time.perf_counter()
    import fcir  # noqa: F401
    import fcir.cli  # noqa: F401

    wall = time.perf_counter() - start
    after = kernel_seconds()
    print(wall, wall * 2.0 * KERNEL_S / (before + after))


if __name__ == "__main__":
    main()
