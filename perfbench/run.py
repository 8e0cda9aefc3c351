"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload catalog-200 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  A
run is a fixed amount of work set by its workload, about ``run_seconds`` of
``BENCHMARK.json`` on a 2-vCPU machine; ``--seconds`` is checked but does not
change it, so that every run makes the same operations.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  The line before it
gives attempted and failed operations per phase.  Reports, and the spans of a
traced run, go to ``perfbench_out/``.
"""

import os

# Fixed here, before numpy loads, rather than inherited from the environment:
# one BLAS thread keeps runs comparable on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"


def main(argv=None) -> int:
    if not (SRC / "hsrec" / "__init__.py").is_file():
        print(f"perfbench: no hsrec package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import run
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal run length; checked, not used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    result = run(WORKLOADS[args.workload], args.seed, bool(args.trace), OUT)
    for problem in result.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("phases " + json.dumps(result.pop("phases"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
