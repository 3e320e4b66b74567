"""Print the statement lines of src/qtwist that the tier-1 tests never run.

It runs the tier-1 suite in this interpreter, without the acceptance gate
(tests/test_acceptance.py), under a `sys.settrace` line hook that records
only frames of src/qtwist.  Then it reads every module with ``ast``.  A
statement is one ``ast`` statement node, docstrings excluded.  It counts as
run if any line of its own ran: its whole span for a simple statement, the
lines before its body for a compound one, decorators included.  Run from
anywhere:

    python3 tools/line_coverage.py [extra pytest arguments]

It prints one row per module (statements, never run, and those lines), the
never-run lines of each module with their text, and a total row.  It exits
1 if a never-run statement is not in ``ALLOWED``, naming each one, and 0
otherwise, whatever the tests themselves do.  The traced run is slower than
a plain one: about 2.5 times, on 2 cores and Python 3.11.

Every statement is either reached by a test, deleted, or in ``ALLOWED``.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtwist"

#: The only statements allowed to stay unreached, as (module, first line of the statement, stripped).
#: cli.py's two lines of ``except ImportError:`` after ``import tomllib``: ``tomllib`` is in the
#: standard library from Python 3.11, so only a 3.10 interpreter reaches them; tests/test_cli.py
#: pins that branch's message there and skips on 3.11+.
ALLOWED = {
    ("cli.py", "except ImportError:"),
    ("cli.py", 'raise InputError("TOML configs need Python 3.11+; use JSON instead") from None'),
}


def own_lines(node):
    """The lines whose execution means `node` ran: all of a simple statement, a compound one's header."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    children = [child for field in ("body", "orelse", "finalbody", "handlers", "cases")
                for child in getattr(node, field, ()) if isinstance(child, ast.AST)]
    last = min(child.lineno for child in children) - 1 if children else node.end_lineno
    return range(first, max(first, last) + 1)


def is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(tree):
    """(line, own lines) of every statement of a module, docstrings excluded, by line."""
    found = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.stmt, ast.ExceptHandler)) and not is_docstring(node, parent):
                found.append((node.lineno, own_lines(node)))
    return sorted(found)


def traced_run(pytest_args):
    """The {file name: lines run} of src/qtwist while pytest runs `pytest_args` in this process."""
    import pytest  # imported before tracing starts, so its own import is not traced

    prefix = str(PACKAGE) + "/"
    ran = {}
    mine = {}  # code object -> its file's line set, or None for code outside the package

    def local(frame, event, arg):
        if event == "line":
            mine[frame.f_code].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in mine:
            name = code.co_filename
            mine[code] = ran.setdefault(Path(name).name, set()) if name.startswith(prefix) else None
        return None if mine[code] is None else local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(hook)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return ran, status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--ignore", str(ROOT / "tests" / "test_acceptance.py"), str(ROOT / "tests"), *argv]
    ran, status = traced_run(args)
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = ran.get(path.name, set())
        found = statements(ast.parse(text))
        missed = [line for line, span in found if lines.isdisjoint(span)]
        rows.append((path.name, len(found), missed, text.splitlines()))
    print(f"\npytest exit status {status}; statement lines never run, per module of src/qtwist:")
    width = max(len(name) for name, *_ in rows)
    for name, total, missed, _ in rows:
        print(f"{name:<{width}} {total:>6,} statements {len(missed):>4} never run  "
              + ",".join(map(str, missed)))
    for name, _, missed, text in rows:
        for line in missed:
            print(f"  {name}:{line}: {text[line - 1].strip()}")
    print(f"{'total':<{width}} {sum(r[1] for r in rows):>6,} statements "
          f"{sum(len(r[2]) for r in rows):>4} never run")
    unexpected = [f"{name}:{line}" for name, _, missed, text in rows for line in missed
                  if (name, text[line - 1].strip()) not in ALLOWED]
    if unexpected:
        print("never run and not allowed to stay unreached: " + ", ".join(unexpected))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
