"""Demo output is pinned: each demo's stdout is byte-compared with demos/expected/<name>.txt.

After an intentional change to a demo's output, rewrite its expected file with:

    PYTHONPATH=src python3 demos/<name>.py > demos/expected/<name>.txt
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
