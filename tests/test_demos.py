"""Demo output is pinned: each demo's stdout is byte-compared with demos/expected/<name>.txt.

After an intentional change to a demo's output, rewrite its expected file with:

    PYTHONPATH=src python3 demos/<name>.py > demos/expected/<name>.txt

The README's Quick tour block runs the same way, and must finish without an
error or a warning.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_expected_output():
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert expected == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("\n## Quick tour\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-W", "error", "-c", tour], env=env, cwd=ROOT,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
