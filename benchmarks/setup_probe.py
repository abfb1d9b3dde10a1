"""Times one benchmark set-up in a fresh process, as a user pays it: importing
igsaft (with numpy and scipy) and making a workload's inputs. Prints the
seconds.

    python3 benchmarks/setup_probe.py <workload> <seed> <rows>
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import workloads  # noqa: E402  (imports numpy, scipy and igsaft)


def main(argv: list[str]) -> None:
    name, seed, rows = argv
    workloads.prepare(replace(workloads.WORKLOADS[name], n=int(rows)), int(seed))
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main(sys.argv[1:])
