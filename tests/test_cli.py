"""CLI tests: golden-file determinism for every subcommand, exit codes, schemas.

Golden files live in tests/golden/ and are byte-compared against the JSON
reports.  Regenerate them (after an intentional output change) with:

    python3 tests/test_cli.py --regen
"""

import io
import json
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtwist import (AntisymmetricMatrix, BimultiplicativeCocycle, ExponentVector, GradedHomomorphism,
                    TruncatedCocycle, UnitScalar, algebras)
from qtwist.cli import _KEYS, main

from helpers import doubled_from_degree_3

HERE = pathlib.Path(__file__).parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# (name, argv tail, expected exit code); every subcommand appears at least once
CASES = [
    ("cocycle_check", ["cocycle", "check"], 0),
    ("cocycle_check_table", ["cocycle", "check"], 0),
    ("cocycle_check_table_bad", ["cocycle", "check"], 1),
    ("cocycle_antisym", ["cocycle", "antisym"], 0),
    ("cocycle_factorize", ["cocycle", "factorize"], 0),
    ("cocycle_reconstruct", ["cocycle", "reconstruct"], 0),
    ("cocycle_pullback", ["cocycle", "pullback"], 0),
    ("cocycle_trivialize_rank1", ["cocycle", "trivialize"], 0),
    ("cocycle_trivialize_split", ["cocycle", "trivialize"], 0),
    ("cocycle_trivialize_obstructed", ["cocycle", "trivialize"], 1),
    ("algebra_mul", ["algebra", "mul"], 0),
    ("algebra_relations", ["algebra", "relations"], 0),
    ("algebra_twist", ["algebra", "twist"], 0),
    ("segre_build", ["segre", "build"], 0),
    ("segre_verify", ["segre", "verify"], 0),
    ("segre_matrix", ["segre", "matrix"], 0),
    ("segre_kronecker", ["segre", "kronecker"], 0),
    ("segre_kernel", ["segre", "kernel", "--degree", "2", "--set", "q=1", "--set", "r=1"], 0),
    ("segre_kernel_quantum", ["segre", "kernel", "--degree", "2"], 0),
]


def argv_for(name, tail):
    return tail + ["--config", str(CONFIGS / f"{name}.json"), "--json"]


@pytest.mark.parametrize("name,tail,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, tail, expected_code):
    code, output = run_cli(argv_for(name, tail))
    assert code == expected_code
    golden = (GOLDEN / f"{name}.json").read_text()
    assert output == golden


@pytest.mark.parametrize("name,tail,expected_code", CASES, ids=[c[0] for c in CASES])
def test_reports_reparse_and_are_stable(name, tail, expected_code):
    code1, out1 = run_cli(argv_for(name, tail))
    code2, out2 = run_cli(argv_for(name, tail))
    assert (code1, out1) == (code2, out2)
    report = json.loads(out1)
    assert report["status"] in ("pass", "fail", "report")
    assert set(report) <= {"command", "status", "payload", "counterexample"}



def test_flag_values_do_not_leak_between_calls():
    # the parser is built once per process, so each call must start from its defaults
    golden = {name: (GOLDEN / f"{name}.json").read_text()
              for name in ("segre_kernel", "segre_kernel_quantum", "segre_verify")}
    kernel_tail = ["segre", "kernel", "--degree", "2"]
    assert run_cli(argv_for("segre_kernel", kernel_tail + ["--set", "q=1", "--set", "r=1"])) == (
        0, golden["segre_kernel"])
    assert run_cli(argv_for("segre_kernel_quantum", kernel_tail)) == (0, golden["segre_kernel_quantum"])
    assert run_cli(argv_for("segre_verify", ["segre", "verify", "--seed", "8"])) == (
        0, golden["segre_verify"].replace('"seed": 7', '"seed": 8'))
    assert run_cli(argv_for("segre_verify", ["segre", "verify"])) == (0, golden["segre_verify"])

def test_human_output_runs():
    name, tail, _ = CASES[0]
    code, output = run_cli(tail + ["--config", str(CONFIGS / f"{name}.json")])
    assert code == 0
    assert output.startswith("cocycle.check: pass")


def test_missing_config_is_input_error():
    code, _ = run_cli(["cocycle", "check", "--json"])
    assert code == 2


def test_nonexistent_config_is_input_error():
    code, _ = run_cli(["cocycle", "check", "--config", "/nonexistent.json"])
    assert code == 2


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["cocycle", "check", "--config", str(bad)])
    assert code == 2


def test_undeclared_parameter_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parameters": [], "cocycle": [["q"]]}))
    code, _ = run_cli(["cocycle", "antisym", "--config", str(cfg)])
    assert code == 2


def test_bad_matrix_shape_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parameters": [], "cocycle": [["1", "1"], ["1"]]}))
    code, _ = run_cli(["cocycle", "antisym", "--config", str(cfg)])
    assert code == 2


def test_non_string_matrix_entry_is_input_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parameters": [], "cocycle": [[1]]}))
    code, _ = run_cli(["cocycle", "antisym", "--config", str(cfg)])
    assert code == 2


def test_kernel_needs_degree(tmp_path):
    cfg = json.loads((CONFIGS / "segre_kernel.json").read_text())
    cfg.pop("degree", None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cli(["segre", "kernel", "--config", str(path),
                       "--set", "q=1", "--set", "r=1"])
    assert code == 2


def test_kernel_zero_specialization_is_input_error():
    code, _ = run_cli(["segre", "kernel", "--config", str(CONFIGS / "segre_kernel.json"),
                       "--degree", "2", "--set", "q=0", "--set", "r=1"])
    assert code == 2


def _config_with(name, drop=(), **changes):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg.update(changes)
    for key in drop:
        del cfg[key]
    return cfg


def _table_with(index, **changes):
    """The exhaustive-check table config with entry `index` of its "table" changed."""
    cfg = _config_with("cocycle_check_table")
    cfg["table"][index].update(changes)
    return cfg


def _specialization(value):
    return _config_with("segre_kernel", specialization={"q": value, "r": "1"})


def _morphism(*images):
    """The pullback config along the morphism with these generator images instead of "segre"."""
    return _config_with("cocycle_pullback", drop=["segre"], morphism=list(images))


#: The images of segre_morphism(1, 1): z_ij goes to the vector with ones at i and 2 + j.
SEGRE_1_1 = ([1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1])


# (argv tail, config, text the error message must contain)
BAD_INPUTS = [
    (["cocycle", "check"], [], "object"),
    (["cocycle", "check"], _config_with("cocycle_check", seed="abc"), '"seed"'),
    (["cocycle", "trivialize"], {"parameters": [], "cocycle": [["2"]], "degree_bound": "x"},
     '"degree_bound"'),
    (["cocycle", "trivialize"], {"parameters": [], "cocycle": [["2"]], "degree_bound": -1},
     '"degree_bound"'),
    (["segre", "kernel", "--degree", "2"], _config_with("segre_kernel", specialization=[1]),
     '"specialization"'),
    (["cocycle", "check"], _config_with("cocycle_check", samples=-5), '"samples"'),
    (["cocycle", "check", "--samples", "-5"], _config_with("cocycle_check"), '"samples"'),
    (["segre", "kernel"], _config_with("segre_kernel_quantum", degree=2.7), '"degree"'),
    (["cocycle", "check"], _config_with("cocycle_check", samples=True), '"samples"'),
    (["cocycle", "check"], _config_with("cocycle_check", seed=1.9), '"seed"'),
    (["segre", "build"], _config_with("segre_build", n=True), '"n"'),
    (["segre", "build"], _config_with("segre_build", m=0), '"m"'),
    (["cocycle", "check"], _config_with("cocycle_check_table", rank=True), '"rank"'),
    (["cocycle", "check"], _config_with("cocycle_check_table", rank=0), '"rank"'),
    (["cocycle", "trivialize"], _config_with("cocycle_trivialize_split", split=[True, 1]),
     '"split"'),
    (["cocycle", "pullback"], _config_with("cocycle_pullback", segre=["a", 1]), '"segre"'),
    (["algebra", "mul"], _config_with("algebra_mul", x=5), '"x"'),
    (["cocycle", "antisym"], _config_with("cocycle_antisym", cocycle=[]), '"cocycle"'),
    (["algebra", "relations"],
     _config_with("algebra_relations",
                  algebra=dict(_config_with("algebra_relations")["algebra"], generators="abc")),
     '"generators"'),
    (["cocycle", "trivialize"], _config_with("cocycle_trivialize_split", split=[1, 2]), '"split"'),
    (["cocycle", "antisym"], _config_with("cocycle_antisym", seed=1), '"seed"'),
    (["segre", "kernel", "--degree", "2"], _specialization(0.5), '"specialization"'),
    (["segre", "kernel", "--degree", "2"], _specialization(True), '"specialization"'),
    (["segre", "kernel", "--degree", "2"], _specialization("0.5"), '"specialization"'),
    (["segre", "kernel", "--degree", "2"], _specialization("1e-2"), '"specialization"'),
    (["segre", "kernel", "--degree", "2"], _specialization("1_0"), '"specialization"'),
    (["segre", "kernel", "--degree", "2", "--set", "q=0.5", "--set", "r=1"],
     _config_with("segre_kernel"), '"specialization"'),
    (["cocycle", "check"], _table_with(0, u=["0"]), '"table"'),
    (["cocycle", "check"], _table_with(0, v=[0.5]), '"table"'),
    (["cocycle", "check"], _table_with(4, u=[True]), '"table"'),
    (["cocycle", "check"], _table_with(0, u=[9]), '"table"'),
    (["cocycle", "check"], _config_with("cocycle_check_table", table=_table_with(0)["table"][1:]),
     '"table"'),
    (["cocycle", "check"], _table_with(2, value=5), '"table"'),
    (["cocycle", "check"], _config_with("cocycle_check_table", table=[5]), '"table"'),
    (["cocycle", "pullback"], _config_with("cocycle_pullback", drop=["segre"], morphism=[]),
     '"morphism"'),
    (["cocycle", "antisym"], _config_with("cocycle_antisym", cocycle=[["3/00"]]), '"cocycle"'),
    (["cocycle", "pullback"], _morphism([1, 0, 1, 0], [1, 0, "1", 1]), '"morphism"'),
    (["cocycle", "pullback"], _morphism([1, 0, 1, 0], [1, -1, 0, 1]), '"morphism"'),
    (["cocycle", "pullback"], _morphism([1, 0, 1]), '"morphism"'),
    (["cocycle", "trivialize"],
     {"parameters": [], "rank": 2, "degree_bound": 1,
      "table": TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), 1).to_json()},
     '"split"'),
    (["cocycle", "check"], _table_with(2, value=["1"]),
     """bad "table": unit literal must be a string, got ['1']"""),
    (["cocycle", "check"], _table_with(0, value=1), 'bad "table": unit literal must be a string, got 1'),
]


@pytest.mark.parametrize("tail,config,message", BAD_INPUTS,
                         ids=["list-config", "seed", "degree-bound", "negative-degree-bound",
                              "specialization",
                              "samples-key", "samples-flag",
                              "float-degree", "bool-samples", "float-seed", "bool-n", "zero-m",
                              "bool-rank", "zero-rank", "bool-split", "string-segre",
                              "non-string-element", "empty-cocycle", "string-generators",
                              "split-rank-mismatch", "unread-key",
                              "float-specialization", "bool-specialization",
                              "decimal-specialization", "exponent-specialization",
                              "underscore-specialization", "decimal-set",
                              "string-table-u", "float-table-v", "bool-table-u",
                              "table-pair-over-bound", "missing-table-pair",
                              "numeric-table-value", "non-object-table-item",
                              "empty-morphism", "zero-denominator",
                              "string-morphism-entry", "negative-morphism-entry",
                              "short-morphism-image", "rank-2-table-without-split",
                              "list-table-value", "numeric-one-table-value"])
def test_bad_input_exits_2_naming_the_key(tmp_path, capsys, tail, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, output = run_cli(tail + ["--config", str(path), "--json"])
    assert (code, output) == (2, "")
    assert message in capsys.readouterr().err


def run_config(tmp_path, tail, config, as_json=True):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return run_cli(tail + ["--config", str(path)] + (["--json"] if as_json else []))


def test_pullback_along_a_morphism_matches_the_segre_golden(tmp_path):
    code, output = run_config(tmp_path, ["cocycle", "pullback"], _morphism(*SEGRE_1_1))
    assert (code, output) == (0, (GOLDEN / "cocycle_pullback.json").read_text())


def test_trivialize_reads_a_rank_1_table(tmp_path):
    code, output = run_config(tmp_path, ["cocycle", "trivialize"], _config_with("cocycle_check_table"))
    report = json.loads(output)
    assert (code, report["command"], report["status"]) == (0, "cocycle.trivialize", "pass")
    assert report["payload"]["coboundary_matches"] is True


def test_table_off_normalization_fails_with_an_identity_violation(tmp_path):
    config = _table_with(1, value="2")  # the pair ([0], [1])
    code, output = run_config(tmp_path, ["cocycle", "check"], config)
    assert code == 1
    assert json.loads(output)["counterexample"] == {"identity_violation": [1]}
    code, output = run_config(tmp_path, ["cocycle", "check"], config, as_json=False)
    lines = output.splitlines()
    assert (code, lines[0], lines[-1]) == (
        1, "cocycle.check: fail", '  counterexample: {"identity_violation": [1]}')


# -- failure reports, reached by injecting a fault ---------------------------------

def test_sampled_cocycle_check_reports_a_failing_triple(monkeypatch, capsys):
    real = BimultiplicativeCocycle.evaluate

    def faulty(mu, u, v):  # not a cocycle: the extra factor depends on the first argument only
        return real(mu, u, v) * UnitScalar(2) ** u[0]

    monkeypatch.setattr(BimultiplicativeCocycle, "evaluate", faulty)
    code, output = run_cli(argv_for("cocycle_check", ["cocycle", "check"]))
    report = json.loads(output)
    assert (code, report["status"], report["payload"], capsys.readouterr().err) == (
        1, "fail", {"rank": 3, "samples": 50}, "")
    assert list(report["counterexample"]) == ["triple"]
    config = json.loads((CONFIGS / "cocycle_check.json").read_text())
    mu = BimultiplicativeCocycle.from_json(config["cocycle"])
    x, y, z = map(ExponentVector, report["counterexample"]["triple"])
    assert faulty(mu, x, y + z) * faulty(mu, y, z) != faulty(mu, x, y) * faulty(mu, x + y, z)


def test_algebra_relations_report_the_first_failing_pair(monkeypatch, capsys):
    monkeypatch.setattr(algebras, "deformation_matrix", lambda a: AntisymmetricMatrix.trivial(a.rank))
    code, output = run_cli(argv_for("algebra_relations", ["algebra", "relations"]))
    assert (code, json.loads(output), capsys.readouterr().err) == (
        1, {"command": "algebra.relations", "status": "fail", "payload": {},
            "counterexample": {"pair": ["X0", "X1"]}}, "")


def test_segre_verify_reports_a_failing_random_pair(monkeypatch, capsys):
    monkeypatch.setattr(GradedHomomorphism, "apply", doubled_from_degree_3(GradedHomomorphism.apply))
    code, output = run_cli(argv_for("segre_verify", ["segre", "verify"]))
    report = json.loads(output)
    assert (code, report["status"], capsys.readouterr().err) == (1, "fail", "")
    payload = report["payload"]
    assert (payload["n"], payload["m"], payload["pass"], payload["seed"]) == (1, 1, False, 7)
    assert 16 < payload["pairs_checked"] <= 16 + 25  # past the generator pairs, within the samples
    assert list(report["counterexample"]) == ["pair"] and len(report["counterexample"]["pair"]) == 2


def test_set_without_a_value_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["segre", "kernel", "--degree", "2", "--set", "q",
              "--config", str(CONFIGS / "segre_kernel.json")])
    assert exc.value.code == 2
    assert "expected NAME=RATIONAL, got 'q'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cocycle", "frobnicate"])
    assert exc.value.code == 2


# Each flag is registered only on the subcommands that read its config key.
@pytest.mark.parametrize("tail,flag,value", [
    (["cocycle", "antisym"], "--seed", "1"),
    (["algebra", "mul"], "--samples", "1"),
    (["segre", "verify"], "--degree", "1"),
    (["cocycle", "check"], "--set", "q=1"),
], ids=["antisym-seed", "mul-samples", "verify-degree", "check-set"])
def test_unregistered_flag_exits_2(capsys, tail, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(tail + [flag, value, "--config", str(CONFIGS / "cocycle_antisym.json")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML configs need tomllib (Python 3.11+)")
def test_toml_config_matches_json_golden(tmp_path):
    cfg = json.loads((CONFIGS / "segre_verify.json").read_text())
    path = tmp_path / "segre_verify.toml"
    # JSON arrays of strings and integers are also TOML inline arrays
    path.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in cfg.items()))
    code, output = run_cli(["segre", "verify", "--config", str(path), "--json"])
    assert (code, output) == (0, (GOLDEN / "segre_verify.json").read_text())


# Arbitrary JSON with small integers and short strings: the work a config may ask
# for is not bounded before it starts, so large values could run for a long time.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), data=st.data())
def test_mutated_golden_config_ends_in_an_exit_code(tmp_path, case, data):
    name, tail, _ = case
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        cfg[data.draw(st.sampled_from(sorted(_KEYS)) | st.text(max_size=6))] = data.draw(JSON_VALUES)
    else:
        key = data.draw(st.sampled_from(sorted(cfg)))
        if action == "delete":
            del cfg[key]
        else:
            cfg[key] = data.draw(JSON_VALUES)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        code, output = run_cli(tail + ["--config", str(path), "--json"])
    except SystemExit as exc:  # argparse rejecting the command line
        assert exc.code == 2
        return
    assert code in (0, 1, 2)
    if code == 1:
        assert "counterexample" in json.loads(output)


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, tail, expected_code in CASES:
        code, output = run_cli(argv_for(name, tail))
        if code != expected_code:
            raise SystemExit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(output)
        print(f"wrote golden/{name}.json")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
