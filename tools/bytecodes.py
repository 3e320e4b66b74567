"""Count the bytecodes one benchmark job executes, per workload.

For each workload of ``bench/worker.WORKLOADS`` it writes the seed-1 inputs
into a temporary directory with ``bench/inputs.write_inputs``, runs job 0
through the workload's class, step by step, under a `sys.settrace` opcode
hook, and checks the job's results with the class's own oracle.  Every
Python frame that the steps run is counted, the standard library's
included; the oracle check and the imports of qtwist and qtwist.cli are
not.  Run from anywhere:

    python3 tools/bytecodes.py

It prints one JSON line per workload: its name, the bytecodes executed, the
Python frames entered (calls and generator resumptions), the bytecodes split
by the module whose code ran them (the six library layers, and "other" for
the standard library, the benchmark's own code and qtwist/__init__) and the
oracle's error, null when the results are right.  The split shows which
layer gained or lost work.  The counts are deterministic for a
given interpreter version, whatever PYTHONHASHSEED is, so two trees can be
compared by one run each where wall time needs many alternating runs.  A
count does not see the cost of a call into C.  It exits 1 if a job's
results miss their oracle, and 0 otherwise.  The traced run takes about 6
seconds for all four workloads on 2 cores and Python 3.11.
"""

import json
import sys
import tempfile
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
#: The library layers, bottom up; bytecodes run by any other code count as "other".
MODULES = ("scalars", "monoids", "cocycles", "algebras", "segre", "cli")

import inputs  # noqa: E402  (bench/inputs.py)
import worker  # noqa: E402  (bench/worker.py)


@cache
def layer(filename):
    """The library layer whose source file is `filename`, or "other"."""
    path = Path(filename)
    return path.stem if path.parent == ROOT / "src" / "qtwist" and path.stem in MODULES else "other"


def traced_job(runner, job):
    """(results, frames entered, bytecodes per layer) of running every step of `job` under an opcode hook."""
    frames = [0]
    split = dict.fromkeys(MODULES + ("other",), 0)

    def counter(name):
        def local(frame, event, arg):
            if event == "opcode":
                split[name] += 1
            return local
        return local

    count_into = {name: counter(name) for name in split}

    def hook(frame, event, arg):
        frames[0] += 1
        frame.f_trace_opcodes = True
        return count_into[layer(frame.f_code.co_filename)]

    results = []
    # Python 3.12 turns opcode events on at settrace only once a frame has asked for them.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(hook)
    try:
        for i in range(runner.steps):
            results.append(runner.step(job, i))
    finally:
        sys.settrace(None)
    return results, frames[0], split


def main():
    import qtwist  # noqa: F401  imported before tracing starts, as the worker imports it
    import qtwist.cli  # noqa: F401

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in worker.WORKLOADS:
            directory = Path(tmp) / name
            inputs.write_inputs(name, 1, directory)
            served = worker.Worker(name, directory, None)  # builds the runner and reads the jobs
            runner, job = served.runner, json.loads(served.jobs[0])
            results, frames, split = traced_job(runner, job)
            error = runner.check(job, results)
            print(json.dumps({"workload": name, "bytecodes": sum(split.values()), "frames": frames,
                              "modules": split, "error": error}), flush=True)
            if error is not None:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
