"""Benchmark worker: a fresh process that imports qtwist and runs one workload's jobs.

    python3 bench/worker.py WORKLOAD INPUT_DIR [--setup-only]

run.py starts it with src/ on PYTHONPATH and a fixed PYTHONHASHSEED.  The
worker times its import of qtwist and qtwist.cli (the set-up), reports it,
and with --setup-only exits.  Otherwise it answers one JSON request per line
on stdin, on the original stdout; anything the library prints goes to an
in-memory buffer instead.

Requests:
  {"op": "step", "job": k, "step": i}  run step i of job k, reply its seconds;
                                       the last step also replies the job's
                                       verdict, and when tracing its per-layer
                                       self times and counts
  {"op": "trace", "on": bool}          install or remove the tracing wrappers
  {"op": "finish"}                     reply peak RSS, write spans, exit
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracles

ROOT = Path(__file__).resolve().parent.parent


class SegreVerify:
    """One job builds and verifies a Segre map for each of the nine (n, m), one step each."""

    steps = len(inputs.SEGRE_PAIRS)

    def step(self, job, i):
        import qtwist
        item = job[i]
        mu = qtwist.BimultiplicativeCocycle.from_json(item["cocycle"])
        smap = qtwist.build_quantum_segre(item["n"], item["m"], mu)
        report = qtwist.verify_homomorphism(smap.homomorphism, samples=inputs.VERIFY_SAMPLES,
                                            seed=item["seed"])
        return report.passed, report.pairs_checked

    def check(self, job, results):
        return oracles.check_segre_verify(job, results, inputs.VERIFY_SAMPLES)


class SegreKernel:
    """One job builds the (2, 2) map fresh and probes its kernel at degrees 2 and 3."""

    steps = 1

    def step(self, job, i):
        import qtwist
        mu = qtwist.BimultiplicativeCocycle.from_json(job["cocycle"])
        smap = qtwist.build_quantum_segre(*inputs.KERNEL_SHAPE, mu)
        values = {name: Fraction(text) for name, text in job["specialization"].items()}
        return [len(qtwist.kernel_basis(smap, d, values)) for d in inputs.KERNEL_DEGREES]

    def check(self, job, results):
        return oracles.check_segre_kernel(inputs.KERNEL_SHAPE, inputs.KERNEL_DEGREES, results[0])


class CliBatch:
    """One job runs the CLI in process on every golden and seeded config, in a seeded order.

    The 38 invocations run as steps of CASES_PER_STEP, so each step is
    normalized by the reference slices right around it.
    """

    CASES_PER_STEP = 4
    steps = -(-2 * len(inputs.GOLDEN_CASES) // CASES_PER_STEP)

    def __init__(self, directory):
        self.directory = directory
        self.golden = {name: (ROOT / "tests" / "golden" / f"{name}.json").read_bytes()
                       for name, _, _ in inputs.GOLDEN_CASES}

    def step(self, job, i):
        import qtwist.cli
        results = []
        for case in job[i * self.CASES_PER_STEP:(i + 1) * self.CASES_PER_STEP]:
            base = ROOT if case["golden"] else self.directory
            out = io.StringIO()
            code = qtwist.cli.main(case["argv"] + ["--config", str(base / case["config"]), "--json"],
                                   out=out)
            results.append((code, out.getvalue()))
        return results

    def check(self, job, results):
        outputs = [result for step in results for result in step]
        for case, (code, output) in zip(job, outputs, strict=True):
            error = oracles.check_cli_case(case, code, output.encode(), self.golden[case["name"]])
            if error:
                return error
        return None


class CocycleTables:
    """One job truncates and exhaustively checks a cocycle, then trivializes a rank-1
    and a product coboundary: three steps."""

    steps = 3

    def step(self, job, i):
        import qtwist
        if i == 0:
            mu = qtwist.BimultiplicativeCocycle.from_json(job["cocycle"])
            table = qtwist.TruncatedCocycle.truncate(mu, job["degree_bound"])
            return len(table.table), bool(qtwist.verify_cocycle_equation(table))
        if i == 1:
            spec = job["rank1"]
            coboundary = qtwist.TruncatedCocycle.from_json(1, spec["degree_bound"], spec["table"])
            h = qtwist.trivialize_rank1(coboundary)
        else:
            spec = job["product"]
            split = qtwist.ProductSplit(*spec["split"])
            coboundary = qtwist.TruncatedCocycle.from_json(split.rank, spec["degree_bound"],
                                                           spec["table"])
            h = qtwist.yamazaki_trivialize(coboundary, split)
        return h, qtwist.coboundary(h) == coboundary

    def check(self, job, results):
        (pairs, passed), (h1, match1), (h2, match2) = results
        return oracles.check_cocycle_tables(job, pairs, passed, [h1.to_json(), h2.to_json()],
                                            [match1, match2])


def peak_rss_kb():
    """The peak resident set of this process's own address space, in KiB.

    ru_maxrss is not that on Linux: it keeps the peak of the address space
    the process was forked with, the parent's, across exec.  VmHWM starts
    afresh at exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {"segre-verify": SegreVerify, "segre-kernel": SegreKernel,
             "cli-batch": CliBatch, "cocycle-tables": CocycleTables}


class Worker:
    def __init__(self, workload, directory, channel):
        cls = WORKLOADS[workload]
        self.runner = cls(directory) if cls is CliBatch else cls()
        # Jobs stay JSON text until their turn, so the pool adds little to peak RSS.
        with open(directory / "inputs.jsonl") as fh:
            self.jobs = list(fh)
        self.job = None
        self.channel = channel
        self.tracer = None
        self.tracing = False
        self.results = []
        self.error = None

    def send(self, message):
        self.channel.write(json.dumps(message) + "\n")
        self.channel.flush()

    def step(self, job_id, i):
        if i == 0:
            self.job = json.loads(self.jobs[job_id % len(self.jobs)])
            self.results, self.error = [], None
            if self.tracing:
                self.tracer.begin(job_id)
        job = self.job
        start = time.perf_counter()
        try:
            result = self.runner.step(job, i)
        except Exception as exc:  # a failed job is counted, never retried
            result = None
            self.error = self.error or f"step {i}: {type(exc).__name__}: {exc}"
        reply = {"seconds": time.perf_counter() - start}
        self.results.append(result)
        if i == self.runner.steps - 1:
            if self.tracing:
                reply["self_s"], reply["counts"] = self.tracer.end()
            reply["error"] = self.error or self.runner.check(job, self.results)
        return reply

    def set_tracing(self, on):
        if self.tracer is None:
            import spans
            self.tracer = spans.Tracer()
        if on and not self.tracing:
            self.tracer.install()
        elif not on and self.tracing:
            self.tracer.uninstall()
        self.tracing = on

    def serve(self, requests, spans_path):
        self.send({"steps": self.runner.steps})
        for line in requests:
            request = json.loads(line)
            if request["op"] == "step":
                self.send(self.step(request["job"], request["step"]))
            elif request["op"] == "trace":
                self.set_tracing(request["on"])
                self.send({"tracing": self.tracing})
            elif request["op"] == "finish":
                if self.tracer is not None:
                    self.tracer.write(spans_path)
                self.send({"peak_rss_mb": peak_rss_kb() / 1024})
                return
            else:
                raise SystemExit(f"worker: unknown request {request!r}")


def main(argv):
    workload, directory = argv[0], Path(argv[1])
    channel = sys.stdout
    sys.stdout = io.StringIO()
    start = time.perf_counter()
    import qtwist  # noqa: F401
    import qtwist.cli  # noqa: F401
    setup = time.perf_counter() - start
    channel.write(json.dumps({"setup_s": setup}) + "\n")
    channel.flush()
    if "--setup-only" in argv:
        return
    Worker(workload, directory, channel).serve(sys.stdin, directory.parent / f"spans-{directory.name}.jsonl")


if __name__ == "__main__":
    main(sys.argv[1:])
