"""Self-tests of the benchmark: oracles, generator, normalization, traced counts, names.

    python3 -m pytest bench
"""

import json
import random
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import inputs
import oracles
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qtwist  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of one workload with one seed, and one untraced run."""
    runs = [bench("--workload", "segre-kernel", "--seed", "3", "--seconds", "1", "--trace", "1")
            for _ in range(2)]
    runs.append(bench("--workload", "segre-kernel", "--seed", "3", "--seconds", "1", "--trace", "0"))
    for code, stdout in runs:
        assert code == 0, stdout
    return [result_of(stdout) for _, stdout in runs]


@pytest.mark.parametrize("n,m,degree", [(1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 3), (2, 2, 2)])
def test_kernel_formula_matches_kernel_basis(n, m, degree):
    rng = random.Random(f"kernel:{n}:{m}:{degree}")
    mu = qtwist.BimultiplicativeCocycle.from_json(inputs.unit_matrix(rng, n + m + 2))
    smap = qtwist.build_quantum_segre(n, m, mu)
    values = {p: inputs.rand_rational(rng) for p in inputs.PARAMS}
    basis = qtwist.kernel_basis(smap, degree, values)
    assert len(basis) == oracles.segre_kernel_dim(n, m, degree)


def test_pair_count_formula_matches_verify_homomorphism():
    rng = random.Random("pairs")
    for n, m in [(1, 1), (1, 3), (2, 2)]:
        mu = qtwist.BimultiplicativeCocycle.from_json(inputs.unit_matrix(rng, n + m + 2))
        report = qtwist.verify_homomorphism(qtwist.build_quantum_segre(n, m, mu).homomorphism,
                                            samples=7, seed=1)
        assert report.passed
        assert report.pairs_checked == oracles.segre_pairs_checked(n, m, 7)


def test_generated_witnesses_are_the_library_witnesses():
    job = inputs.cocycle_tables_job(random.Random("tables"))
    rank1 = qtwist.TruncatedCocycle.from_json(1, job["rank1"]["degree_bound"], job["rank1"]["table"])
    assert qtwist.trivialize_rank1(rank1).to_json() == job["rank1"]["witness"]
    split = qtwist.ProductSplit(*job["product"]["split"])
    product = qtwist.TruncatedCocycle.from_json(split.rank, job["product"]["degree_bound"],
                                                job["product"]["table"])
    assert qtwist.yamazaki_trivialize(product, split).to_json() == job["product"]["witness"]


def test_oracles_reject_wrong_answers():
    assert oracles.check_segre_kernel((2, 2), (2, 3), [9, 65]) is None
    assert oracles.check_segre_kernel((2, 2), (2, 3), [9, 64]) is not None
    job = [{"n": 1, "m": 1}]
    assert oracles.check_segre_verify(job, [(True, 116)], 100) is None
    assert oracles.check_segre_verify(job, [(True, 115)], 100) is not None
    assert oracles.check_segre_verify(job, [(False, 116)], 100) is not None
    case = {"name": "x", "code": 0, "golden": True}
    golden = b'{"command": "c", "payload": {"a": 1}, "status": "pass"}\n'
    assert oracles.check_cli_case(case, 0, golden, golden) is None
    assert oracles.check_cli_case(case, 0, golden.replace(b"1", b"2"), golden) is not None
    assert oracles.check_cli_case(case, 1, golden, golden) is not None
    seeded = dict(case, golden=False)
    assert oracles.check_cli_case(seeded, 0, golden.replace(b"1", b"2"), golden) is None
    assert oracles.check_cli_case(seeded, 0, golden.replace(b'"a"', b'"b"'), golden) is not None


def test_generator_is_deterministic(tmp_path):
    for workload in run.WORKLOADS:
        first, second, other = (tmp_path / f"{workload}-{k}" for k in range(3))
        inputs.write_inputs(workload, 5, first)
        inputs.write_inputs(workload, 5, second)
        inputs.write_inputs(workload, 6, other)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "inputs.jsonl").read_bytes() != (other / "inputs.jsonl").read_bytes()


def test_normalization_arithmetic():
    # slice durations are in nominal units: slices of the nominal length leave
    # an interval unchanged
    assert run.reference_factor(1.0, 1.0) == 1.0
    # a machine running at half speed: slices take twice as long, times count half
    assert run.reference_factor(2.0, 2.0) == 0.5
    # R_now is the mean of the two bracketing slices
    assert run.reference_factor(0.5, 1.5) == 1.0

    class Metronome:
        def __init__(self, slices):
            self.slices = iter(slices)

        def ask(self, line):
            assert line == "slice"
            return "%r %r" % next(self.slices)

    lib, parser = run.PART_NOMINAL
    # library-only weights: the parser part is ignored
    clock = run.Clock(Metronome([(lib, 9.0), (2 * lib, 9.0), (lib / 2, 9.0)]), (1.0, 0.0))
    assert clock.normalize(3.0) == pytest.approx(3.0 / 1.5)
    assert clock.normalize(2.0) == pytest.approx(2.0 / 1.25)
    assert clock.factors == pytest.approx([2 / 3, 0.8])
    # an even mix: each part counts in units of its own nominal duration
    clock = run.Clock(Metronome([(lib, parser), (lib, 3 * parser), (lib, parser)]), (0.5, 0.5))
    assert clock.slices == [pytest.approx([1.0, 1.0])]
    assert clock.normalize(1.0) == pytest.approx(1 / 1.5)
    # an explicit mix overrides the workload's
    assert clock.normalize(1.0, (1.0, 0.0)) == pytest.approx(1.0)


def test_traced_counts_repeat_exactly(traced_runs):
    first, second, _ = traced_runs
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count/job"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["segre.kernel_dim"]["value"] == sum(
        oracles.segre_kernel_dim(2, 2, d) for d in inputs.KERNEL_DEGREES)
    # one column per source monomial of each degree, in N = 9 variables
    assert first["metrics"]["segre.kernel_columns"]["value"] == sum(
        comb(9 + d - 1, d) for d in inputs.KERNEL_DEGREES)


def test_printed_names_match_benchmark_json(traced_runs):
    traced, _, plain = traced_runs
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "segre-kernel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
