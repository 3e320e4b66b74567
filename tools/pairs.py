"""Run the benchmark in two checkouts, alternately, and compare their end-to-end metrics.

    python3 tools/pairs.py PARENT CHANGE --workload W [--workload W2 ...] --seeds A-B --seconds N

PARENT and CHANGE are checkout roots (they may be the same).  For each
workload and each seed in A..B (or the one seed A) it runs the command of
this checkout's ``BENCHMARK.json`` (``python3 bench/run.py``) with
``--workload W --seed S --seconds N --trace 0`` in each checkout, one run at
a time: the parent first on odd seeds, the change first on even ones.  Each
run uses its own checkout's benchmark code.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it prints
both sides' runs, their medians, the parent's quartiles and IQR
(``statistics.quantiles(values, n=4)``, the default exclusive method; Q3 - Q1,
absent with one run) and the number of pairs in which the change was
better, in the metric's direction ("better": "higher" or "lower"; a tie
counts for neither side).  The last line of stdout is one JSON object with
every run and every comparison, in the layout of the ``workloads`` field of
a ``BENCH_<pr>.json``.  Stdlib only.

It exits 1 at the first run that fails, or whose jobs fail or miss their
oracle (bench/run.py's exit code 1 or 2, or "correct": false), after
printing that run's output; 0 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The end-to-end metrics, by name, with "higher" or "lower" for the better direction.
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}


class RunFailed(Exception):
    """A benchmark run failed or was incorrect."""


def seed_range(text):
    """The seeds of "A-B" (inclusive) or of "A"."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_once(tree, workload, seed, seconds):
    """The result object of one untraced benchmark run in `tree`; RunFailed if it failed or was incorrect."""
    command = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                                      "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):  # no result line: the run could not be made
        result = None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        raise RunFailed(f"{workload} seed {seed} in {tree}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return result


def quartiles(values):
    """(Q1, median, Q3) of `values`; Q1 and Q3 are None for a single value."""
    if len(values) < 2:
        return None, statistics.median(values), None
    return tuple(statistics.quantiles(values, n=4))


def compare(name, parent, change):
    """The comparison of one metric's paired runs, parent[i] against change[i]."""
    better = BETTER[name]
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    (p1, p_median, p3), (c1, c_median, c3) = quartiles(parent), quartiles(change)
    iqr = None if p1 is None else p3 - p1
    return {
        "better": better,
        "pairs": len(parent),
        "change_better": wins,
        "parent_median": p_median,
        "change_median": c_median,
        "parent_quartiles": [p1, p_median, p3],
        "change_quartiles": [c1, c_median, c3],
        "relative": (c_median - p_median) / p_median,
        "parent_iqr": iqr,
        "median_gain_over_iqr": abs(c_median - p_median) / iqr if iqr else None,
    }


def pairs(trees, workload, seeds, seconds):
    """{"seeds", "runs", "comparison"} of one workload: one run per side and seed, alternating which goes first."""
    runs = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], workload, seed, seconds)
            row = {"workload": workload, "seed": seed, "side": side, "first": order[0],
                   "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}
            row.update((name, metric["value"]) for name, metric in result["metrics"].items())
            runs[side].append(row)
            print(f"{workload} seed {seed} {side}: " + " ".join(f"{name}={row[name]:.6g}" for name in BETTER),
                  flush=True)
    comparison = {name: compare(name, [row[name] for row in runs["parent"]], [row[name] for row in runs["change"]])
                  for name in BETTER}
    return {"seeds": list(seeds), "runs": runs, "comparison": comparison}


def summary(workload, name, values, comparison):
    """One printed line: a metric's runs on both sides, medians, parent IQR and pairs won."""
    iqr = comparison["parent_iqr"]
    return (f"{workload} {name} ({comparison['better']} is better): "
            f"parent {[round(v, 6) for v in values['parent']]} median {comparison['parent_median']:.6g}, "
            f"change {[round(v, 6) for v in values['change']]} median {comparison['change_median']:.6g} "
            f"({comparison['relative']:+.2%}); parent IQR {'n/a' if iqr is None else f'{iqr:.6g}'}; "
            f"change better in {comparison['change_better']} of {comparison['pairs']} pairs")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        choices=[workload["name"] for workload in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {}
    try:
        for workload in args.workload:
            report[workload] = pairs(trees, workload, args.seeds, args.seconds)
    except RunFailed as exc:
        print(f"pairs: failed run: {exc}", file=sys.stderr)
        return 1
    for workload, found in report.items():
        for name, comparison in found["comparison"].items():
            values = {side: [row[name] for row in rows] for side, rows in found["runs"].items()}
            print(summary(workload, name, values, comparison))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
