"""Measure one set-up: import bandflow and write the seeded configs.

Prints the elapsed seconds on its last line.  Run in a fresh process so the
import is paid in full, as every CLI invocation pays it.

With ``--reference`` it instead imports only what bandflow's import rests on
(numpy and the standard modules the package uses) and writes nothing.  That
work never changes with bandflow, so its time reads how fast the machine
runs imports right now (see ``run.measure_setup``).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="where to write configs")
    parser.add_argument("--reference", action="store_true",
                        help="time the reference imports instead")
    args = parser.parse_args()
    if args.reference:
        import concurrent.futures  # noqa: F401
        import csv  # noqa: F401
        import dataclasses  # noqa: F401
        import json  # noqa: F401
        import warnings  # noqa: F401

        import numpy  # noqa: F401
    else:
        sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
        import bandflow.cli  # noqa: F401
        import workloads
        workloads.write_configs(workloads.build(args.workload, args.seed),
                                Path(args.dir))
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
