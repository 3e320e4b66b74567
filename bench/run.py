"""Benchmark driver: one workload, one seed, a closed loop with one client.

    python3 bench/run.py --workload segre-verify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the checkout root is this file's
parent directory's parent.  The driver writes the seeded inputs
(inputs.py), starts a metronome process (metronome.py) and a fresh worker
process (worker.py), and alternates them: a reference slice, one job step, a
reference slice, ...  Only one of them computes at a time.  Each timed
interval t is reported at reference speed, t * R_nominal / R_now, where R_now
is the mean duration of the slices just before and after it and R_nominal the
frozen nominal slice duration: on a machine running fast right now the
slices are short, and t is scaled up accordingly.  A slice has a library
part and an argparse part (see metronome.py); each part's duration is
measured in units of its frozen nominal duration (PART_NOMINAL) and the
parts are weighted by REFERENCE_MIX, so R_nominal is 1.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (spans.py).  Diagnostics come first; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A job that
raises or misses its known answer (oracles.py) is counted as failed, never
retried, and makes the exit code 1.  Exit code 2: the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

WORKLOADS = ("segre-verify", "segre-kernel", "cli-batch", "cocycle-tables")

#: Nominal seconds of the library and the parser part of a reference slice,
#: which define "reference speed".  Frozen: the same on every commit compared.
PART_NOMINAL = (0.0085, 0.0075)
#: Weights of the two slice parts per workload, after where the workload spends
#: its time: cli-batch spends 56% of it in argparse (building the parser and
#: parsing argv), which speeds up less than the library work when the machine
#: speeds up.  The other workloads do not use argparse.
REFERENCE_MIX = {"segre-verify": (1.0, 0.0), "segre-kernel": (1.0, 0.0),
                 "cli-batch": (0.44, 0.56), "cocycle-tables": (1.0, 0.0)}
#: Set-up is importing modules, library-like work on every workload.
SETUP_MIX = (1.0, 0.0)
#: Fresh workers whose set-up is timed, besides the measured one.
SETUP_RUNS = 9
#: Jobs per pass in a traced run: each pass runs these jobs untraced, then traced.
TRACE_JOBS = {"segre-verify": 1, "segre-kernel": 6, "cli-batch": 2, "cocycle-tables": 6}
#: job_ms.p90 needs ten samples beyond it.
P90_MIN_SAMPLES = 100
WATCHDOG_SECONDS = 170

END_TO_END = (("jobs_per_s", "1/s"), ("job_ms.p50", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("scalars", "monoids", "cocycles", "algebras", "segre", "cli")
PER_LAYER_COUNTS = (
    "scalars.unit_ops", "scalars.poly_ops", "scalars.specializations", "scalars.literals",
    "monoids.vector_adds", "monoids.morphism_applies", "monoids.vectors_enumerated",
    "cocycles.evaluations", "cocycles.table_pairs", "cocycles.table_lookups",
    "cocycles.triples_checked", "algebras.multiplies", "algebras.term_pairs",
    "segre.image_calls", "segre.pairs_checked", "segre.kernel_columns", "segre.kernel_dim",
    "cli.invocations", "cli.report_bytes",
)
PER_LAYER = (tuple((f"{layer}.self_ms", "ms") for layer in LAYERS)
             + tuple((name, "count/job") for name in PER_LAYER_COUNTS)
             + (("segre.image_hit_ratio", "ratio"), ("trace.overhead_ratio", "ratio")))


class BenchError(Exception):
    """The run could not be made (exit code 2, no result line)."""


def reference_factor(before, after):
    """R_nominal / R_now for an interval between slices of `before` and `after`
    nominal durations (R_nominal is 1 in these units)."""
    return 2.0 / (before + after)


class Child:
    """A child process spoken to in lines; closed and waited for on exit."""

    def __init__(self, argv):
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        # Set-up is timed with qtwist's bytecode cached, as an installed package
        # has it; the untimed primer writes it.  Without this, an inherited
        # PYTHONDONTWRITEBYTECODE would make every import compile the source.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
        return line

    def ask(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Clock:
    """Normalizes intervals by the metronome slices that bracket them."""

    def __init__(self, metronome, mix):
        self.metronome = metronome
        self.mix = mix
        self.slices = [self.slice()]
        self.factors = []

    def slice(self):
        """One slice's part durations, each in units of its nominal duration."""
        parts = map(float, self.metronome.ask("slice").split())
        return [t / nominal for t, nominal in zip(parts, PART_NOMINAL)]

    def normalize(self, seconds, mix=None):
        """Reference-speed seconds of an interval that just ended, by the workload's
        mix of slice parts or by `mix`."""
        self.slices.append(self.slice())
        weights = mix or self.mix
        before, after = (sum(w * t for w, t in zip(weights, parts)) for parts in self.slices[-2:])
        factor = reference_factor(before, after)
        self.factors.append(factor)
        return seconds * factor

    def restart(self):
        """Forget the last slice: the next interval starts after a fresh one."""
        self.slices.append(self.slice())


def start_worker(workload, directory, setup_only=False):
    argv = [str(BENCH / "worker.py"), workload, str(directory)]
    return Child(argv + (["--setup-only"] if setup_only else []))


def setup_probes(clock, workload, directory):
    """Reference-speed set-up times of SETUP_RUNS fresh workers."""
    with start_worker(workload, directory, setup_only=True) as primer:
        primer.read()  # the first import in a fresh checkout writes bytecode; untimed
    clock.restart()
    values = []
    for _ in range(SETUP_RUNS):
        with start_worker(workload, directory, setup_only=True) as probe:
            seconds = json.loads(probe.read())["setup_s"]
        values.append(clock.normalize(seconds, SETUP_MIX))
    return values


class Session:
    """The measured worker and the clock, running whole jobs step by step."""

    def __init__(self, worker, clock):
        self.worker = worker
        self.clock = clock
        self.steps = json.loads(worker.read())["steps"]

    def request(self, **message):
        return json.loads(self.worker.ask(json.dumps(message)))

    def job(self, job_id):
        """Run one job; returns (reference seconds, raw seconds, last reply)."""
        ref = raw = 0.0
        for i in range(self.steps):
            reply = self.request(op="step", job=job_id, step=i)
            raw += reply["seconds"]
            ref += self.clock.normalize(reply["seconds"])
        return ref, raw, reply


def measure(session, seconds):
    """Untraced closed loop over the job pool for `seconds` of wall-clock time."""
    deadline = time.perf_counter() + seconds
    ref, raw, errors = [], [], []
    job_id = 0
    while job_id == 0 or time.perf_counter() < deadline:
        t_ref, t_raw, reply = session.job(job_id)
        ref.append(t_ref)
        raw.append(t_raw)
        if reply["error"]:
            errors.append(f"job {job_id}: {reply['error']}")
        job_id += 1
    return ref, raw, errors


def measure_traced(session, workload, seconds):
    """Passes of TRACE_JOBS[workload] jobs, untraced then traced, for `seconds`."""
    deadline = time.perf_counter() + seconds
    plain, traced, errors = [], [], []
    counts = dict.fromkeys(PER_LAYER_COUNTS + ("segre.image_hits",), 0)
    self_ms = {layer: [] for layer in LAYERS}
    while not traced or time.perf_counter() < deadline:
        for tracing in (False, True):
            session.request(op="trace", on=tracing)
            session.clock.restart()
            for job_id in range(TRACE_JOBS[workload]):
                t_ref, t_raw, reply = session.job(job_id)
                (traced if tracing else plain).append(t_ref)
                if reply["error"]:
                    errors.append(f"job {job_id}: {reply['error']}")
                if tracing:
                    factor = t_ref / t_raw
                    for layer in LAYERS:
                        self_ms[layer].append(reply["self_s"][layer] * factor * 1000)
                    for name in counts:
                        counts[name] += reply["counts"][name]
    n = len(traced)
    metrics = {f"{layer}.self_ms": statistics.median(self_ms[layer]) for layer in LAYERS}
    metrics.update({name: counts[name] / n for name in PER_LAYER_COUNTS})
    calls = counts["segre.image_calls"]
    metrics["segre.image_hit_ratio"] = counts["segre.image_hits"] / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = (n / sum(traced)) / (len(plain) / sum(plain))
    return metrics, len(plain) + n, errors


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "qtwist" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        raise BenchError(f"{ROOT} is not a qtwist checkout (src/qtwist and tests/golden are needed)")
    directory = OUT / f"{workload}-{seed}"
    lines = [f"workload={workload} seed={seed} seconds={seconds} trace={trace}"]
    if hasattr(os, "sched_setaffinity"):
        # The metronome and the worker inherit this, so the slices time the CPU
        # that the jobs run on.
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        lines.append(f"pinned to cpu {cpu}")
    try:
        inputs.write_inputs(workload, seed, directory)
        with Child([str(BENCH / "metronome.py")]) as metronome:
            clock = Clock(metronome, REFERENCE_MIX[workload])
            setups = [] if trace else setup_probes(clock, workload, directory)
            with start_worker(workload, directory) as worker:
                setups.append(clock.normalize(json.loads(worker.read())["setup_s"], SETUP_MIX))
                session = Session(worker, clock)
                if trace:
                    metrics, attempted, errors = measure_traced(session, workload, seconds)
                else:
                    ref, raw, errors = measure(session, seconds)
                    attempted = len(ref)
                rss = session.request(op="finish")["peak_rss_mb"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    units = dict(PER_LAYER if trace else END_TO_END)
    if not trace:
        metrics = {"jobs_per_s": len(ref) / sum(ref),
                   "job_ms.p50": statistics.median(ref) * 1000,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": rss}
        lines.append(f"jobs={len(ref)} steps/job={session.steps} failed={len(errors)} "
                     f"setup_runs={len(setups)}")
        if len(ref) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(ref, n=10)[-1] * 1000
            lines.append(f"job_ms.p90={p90:.4f} ms (n={len(ref)})")
        else:
            lines.append(f"job_ms.p90 not reported: n={len(ref)}, needs {P90_MIN_SAMPLES}")
        lines.append(f"raw wall clock: jobs_per_s={len(raw) / sum(raw):.4f} "
                     f"job_ms.p50={statistics.median(raw) * 1000:.4f} ms")
    lines.append("speed factor R_nominal/R_now quartiles: "
                 + " ".join(f"{q:.4f}" for q in statistics.quantiles(clock.factors, n=4))
                 + f" (n={len(clock.factors)} intervals)")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.extend(errors[:20])
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def expire(signum, frame):
        raise BenchError(f"run did not finish within {WATCHDOG_SECONDS} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
