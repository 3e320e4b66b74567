"""Run the benchmark on several seeds and print each metric's quartile spread.

    python3 bench/steadiness.py [--first-seed 1] [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) this runs bench/run.py
untraced for BENCHMARK.json's run_seconds, once for each of RUNS seeds,
sequentially, and prints per end-to-end metric the median, the quartiles and
the spread (Q3 - Q1) / median, as statistics.quantiles(n=4) gives them, next
to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    for workload in args.workloads:
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"## {workload}: {RUNS} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {bounds[name]:>6}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
