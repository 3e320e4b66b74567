"""Print what `import qtwist, qtwist.cli` costs, per module, by `python -X importtime`.

The import runs twice in fresh interpreters (this one, `sys.executable`),
with src/ on the path and PYTHONDONTWRITEBYTECODE dropped: the first run
writes the bytecode, the second is measured, so no module is compiled
while it is timed.  Run from anywhere:

    python3 tools/import_time.py

It prints the self and cumulative microseconds of each `qtwist` module,
then the most expensive other modules that importing them loads (modules
the interpreter loaded at start-up are not counted), then the total.  It
never fails on a time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STATEMENT = "import qtwist, qtwist.cli"
TOP = 10


def importtime_rows():
    """(name, depth, self µs, cumulative µs) per import, in the order `-X importtime` reports them."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-X", "importtime", "-c", STATEMENT]
    for _ in range(2):  # the first run only warms the bytecode
        stderr = subprocess.run(command, env=env, capture_output=True, text=True, check=True).stderr
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header, or anything else on stderr
        name = fields[2].rstrip()
        rows.append((name.strip(), (len(name) - len(name.lstrip()) - 1) // 2,
                     int(fields[0]), int(fields[1])))
    return rows


def qtwist_subtrees(rows):
    """The rows of each top-level `qtwist` import: the import itself and everything it loaded first."""
    subtrees, pending = [], []
    for row in rows:
        pending.append(row)
        if row[1] == 0:
            if row[0].split(".")[0] == "qtwist":
                subtrees.append(pending)
            pending = []
    return subtrees


def main():
    rows = [row for subtree in qtwist_subtrees(importtime_rows()) for row in subtree]
    ours = [row for row in rows if row[0].split(".")[0] == "qtwist"]
    others = sorted((row for row in rows if row[0].split(".")[0] != "qtwist"), key=lambda row: -row[2])
    width = max(len(name) for name in [row[0] for row in rows] + [f"top {TOP} other imports"])
    print(f"{sys.executable} -X importtime -c {STATEMENT!r} (warm bytecode)")
    for title, table in (("qtwist module", ours), (f"top {TOP} other imports", others[:TOP])):
        print(f"{title:<{width}} {'self us':>10} {'cumul. us':>10}")
        for name, _, self_us, cumulative_us in table:
            print(f"{name:<{width}} {self_us:>10,} {cumulative_us:>10,}")
    print(f"{'total':<{width}} {'':>10} {sum(row[3] for row in rows if row[1] == 0):>10,}")
    print(f"other modules loaded: {len(others)}")


if __name__ == "__main__":
    main()
