"""Reference clock: a frozen, stdlib-only slice of work, timed on request.

run.py keeps one metronome process per run and asks it for a slice between
job steps, never while the worker computes, so at most one core is busy.
How long the slice takes measures how fast the machine runs right now.

The slice has two parts, timed separately, because they respond differently
when the machine changes speed:
  library  Fraction arithmetic and small dict/tuple churn (unit coefficients
           and exponent maps), a json round trip and a small file read;
  parser   building argparse parsers with subcommands and parsing an argv,
           which is most of what the CLI does besides the library work.
run.py weighs the parts by where each workload spends its time.  Do not edit
the slice: its cost defines the reference speed that PART_NOMINAL in run.py is
frozen against.

Protocol: one line "slice" on stdin -> one line "LIBRARY_SECONDS PARSER_SECONDS".
"""

import argparse
import json
import sys
import time
from fractions import Fraction

_SOURCE = __file__
_DOC = json.dumps({"parameters": ["q", "r", "s"],
                   "cocycle": [[f"{i - j}/{i + j + 1}*q^{i}*r^-{j}" for j in range(6)] for i in range(6)],
                   "table": [{"u": [i, 6 - i], "v": [i % 3, i // 3], "value": f"-{i + 1}/7*s^{i}"}
                             for i in range(24)]})


def _fractions():
    acc = Fraction(1)
    total = Fraction(0)
    for i in range(1, 160):
        a = Fraction((i % 13) - 6 or 1, i % 7 + 1)
        acc = acc * a / Fraction(i % 5 + 1, (i % 11) - 5 or 3)
        total += a ** (i % 4) - acc
        if acc.numerator > 10 ** 12:
            acc = Fraction(1)
    return total


def _exponent_churn():
    names = ("q", "r", "s", "t")
    table = {}
    for i in range(500):
        exps = {names[i % 4]: i % 5 - 2, names[(i + 1) % 4]: 1}
        for name, e in ((names[(i * 7) % 4], i % 3), (names[(i * 3) % 4], -(i % 2))):
            exps[name] = exps.get(name, 0) + e
        key = tuple(sorted((n, e) for n, e in exps.items() if e))
        table[key] = table.get(key, 0) + 1
    return len(table)


def _parser():
    parser = argparse.ArgumentParser(prog="reference")
    groups = parser.add_subparsers(dest="group", required=True)
    for group in ("cocycle", "algebra", "segre"):
        sub = groups.add_parser(group).add_subparsers(dest="command", required=True)
        for name in ("check", "build", "verify", "kernel"):
            cp = sub.add_parser(name)
            cp.add_argument("--config")
            cp.add_argument("--json", action="store_true")
            cp.add_argument("--seed", type=int, default=None)
            cp.add_argument("--degree", type=int, default=None)
            cp.add_argument("--set", action="append", default=None)
    return parser.parse_args(["segre", "kernel", "--config", "x.json", "--json", "--degree", "2"])


def _json_and_file():
    with open(_SOURCE, "rb") as fh:
        size = len(fh.read())
    doc = json.loads(_DOC)
    return size + len(json.dumps(doc, indent=2, sort_keys=True))


def reference_slice():
    """One slice; returns the elapsed seconds of its library part and its parser part."""
    start = time.perf_counter()
    for _ in range(2):
        _fractions()
        _exponent_churn()
    _json_and_file()
    middle = time.perf_counter()
    for _ in range(2):
        _parser()
    return middle - start, time.perf_counter() - middle


def main():
    for _ in range(2):
        reference_slice()
    for line in sys.stdin:
        if line.strip() != "slice":
            raise SystemExit(f"metronome: unknown request {line!r}")
        print("%r %r" % reference_slice(), flush=True)


if __name__ == "__main__":
    main()
