"""Count blank, comment, docstring and code lines per module of src/qtwist.

A line is blank if it is empty after stripping; else a docstring line if it
lies inside the docstring of a module, class or function (by ``ast``); else
a comment line if it starts with ``#`` after stripping; else a code line.
Run from anywhere:

    python3 tools/code_lines.py [package directory]

It prints one row per module and a total row; it never fails on a count.
"""

import ast
import sys
from pathlib import Path

KINDS = ("blank", "comment", "docstring", "code")
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "qtwist"


def docstring(node):
    """The docstring statement of a module, class or function node; None for any other node."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            return body[0]
    return None


def docstring_lines(tree):
    """The 1-based line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        doc = docstring(node)
        if doc is not None:
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path):
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else DEFAULT
    rows = [(path.name, count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))


if __name__ == "__main__":
    main()
