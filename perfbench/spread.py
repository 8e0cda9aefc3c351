"""Run-to-run spread of the end-to-end metrics, and the bounds it supports.

    python3 perfbench/spread.py --runs 10 --first-seed 100
    python3 perfbench/spread.py --runs 3 --first-seed 100 --trace 1   # tracing overhead

Runs ``perfbench/run.py`` once per seed and workload, one run at a time, and
prints for every end-to-end metric its median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), then the same for the
unscaled times.  A bound is proposed at three times the largest spread over
the workloads, rounded up to 0.05 and capped at 0.25.  Timings (units s, ms
and 1/s) get the cap whatever their spread: rescaled to a fixed speed they
still follow the machine's state in part (see README.md), so a set of runs
made while the machine is slow reads worse than a set made while it is fast.
The end-to-end figures are read from the run's report, so a traced run gives
the traced figures.  Everything is also written to
``perfbench_out/spread-trace<0|1>.json``.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

TIMING_UNITS = {"s", "ms", "1/s"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / "perfbench_out"


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    table = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads((OUT / f"report-{name}-trace{args.trace}.json").read_text())
            runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"], "metrics": report["end_to_end"],
                         "unscaled": report["end_to_end_unscaled"], "wall_s": report["wall_s"]})
            print(f"{name} seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']}",
                  file=sys.stderr, flush=True)
        table[name] = {
            "runs": runs,
            "spread": {m: spread([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]},
            "spread_unscaled": {m: spread([r["unscaled"][m] for r in runs]) for m in runs[0]["unscaled"]},
        }

    bounds = {}
    for key in ("spread", "spread_unscaled"):
        print(f"{key:28s} " + " ".join(f"{n:>36s}" for n in table) + "   bound")
        for metric, unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            cells, worst = [], 0.0
            for name in table:
                med, q1, q3, s = table[name][key][metric]
                worst = max(worst, s)
                cells.append(f"{med:12.5g} [{q1:.4g}, {q3:.4g}] {s:5.3f}")
            bound = 0.25 if unit in TIMING_UNITS else min(0.25, math.ceil(3 * worst * 20) / 20)
            if key == "spread":
                bounds[metric] = bound
            print(f"{metric:28s} " + " ".join(f"{c:>36s}" for c in cells) + f"   {bound:.2f}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-trace{args.trace}.json").write_text(json.dumps({"bounds": bounds, "table": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
