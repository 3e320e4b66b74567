"""Run every CLI refusal of tests/refusals.json as its own process, and check how each one ends.

    python3 tools/refusals.py

Each row of tests/refusals.json (a JSON array, one row object per line) is a
config and an argv that the CLI must refuse: exit 2, empty stdout, and the
row's "stderr", exactly one line.  A row's config is one of:

- "config": the name of a tests/configs file, edited by "set" (a list of
  [JSON Pointer, value] pairs; a last token "-" appends to an array) and then
  by "drop" (a list of pointers);
- "text": the config file's exact contents, written as latin-1, so that "ÿ"
  is the byte 0xFF;
- neither: the row's "argv" gives its own --config, or none.

`row_argv` is the one body that turns a row into an argv.  tests/test_cli.py
runs every row through it in-process, with ``cli.main``; this script runs
each row as ``python -W error -m qtwist.cli`` in this interpreter, one child
at a time, under a timeout and under the child's own address-space and CPU
limits (``resource.setrlimit`` in the child before it starts the CLI;
nothing else is limited).  It prints each row whose exit code, stdout or
stderr differs from the row, then a count, and exits 1 if any row differs
and 0 otherwise.  Stdlib only; it takes no options.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "tests" / "configs"
#: Each child's wall-clock seconds, CPU seconds and bytes of address space.
TIMEOUT, CPU_SECONDS, ADDRESS_SPACE = 20, 20, 2 * 1024 ** 3


def rows():
    """The rows of tests/refusals.json, in file order."""
    return json.loads((ROOT / "tests" / "refusals.json").read_text())


def _target(document, pointer):
    """(container, key) that a JSON Pointer (RFC 6901) names in `document`; key None is an array's "-"."""
    *path, last = (token.replace("~1", "/").replace("~0", "~") for token in pointer.split("/")[1:])
    for token in path:
        document = document[int(token) if isinstance(document, list) else token]
    if isinstance(document, list):
        return document, None if last == "-" else int(last)
    return document, last


def row_argv(row, directory):
    """The CLI argv of a row, with --json; a row's config is written into `directory` and passed as --config."""
    argv = row["argv"] + ["--json"]
    if "config" in row:
        config = json.loads((CONFIGS / f"{row['config']}.json").read_text())
        for pointer, value in row.get("set", ()):
            container, key = _target(config, pointer)
            if key is None:
                container.append(value)
            else:
                container[key] = value
        for pointer in row.get("drop", ()):
            container, key = _target(config, pointer)
            del container[key]
        text = json.dumps(config)
    elif "text" in row:
        text = row["text"]
    else:
        return argv
    path = Path(directory) / "config.json"
    path.write_bytes(text.encode("latin-1"))
    return argv + ["--config", str(path)]


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run(row, directory):
    """(exit code, stdout, stderr) of a row run as its own process; exit code None if it outlived TIMEOUT."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = [sys.executable, "-W", "error", "-m", "qtwist.cli"] + row_argv(row, directory)
    try:
        proc = subprocess.run(command, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=TIMEOUT, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired:
        return None, "", f"(no exit within {TIMEOUT} s)"
    return proc.returncode, proc.stdout, proc.stderr


def main():
    corpus, differing = rows(), 0
    with tempfile.TemporaryDirectory() as directory:
        for row in corpus:
            code, out, err = run(row, directory)
            if (code, out, err) != (2, "", row["stderr"] + "\n"):
                differing += 1
                print(f"{row['name']}: exit {code}, stdout {out!r}, stderr {err!r}; "
                      f"expected exit 2, no stdout and stderr {row['stderr']!r}")
    print(f"{len(corpus) - differing} of {len(corpus)} refusal rows end as their row says")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
