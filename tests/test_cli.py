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

from qtwist.cli import main

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


def _config_with(name, **changes):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg.update(changes)
    return cfg


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
]


@pytest.mark.parametrize("tail,config,message", BAD_INPUTS,
                         ids=["list-config", "seed", "degree-bound", "negative-degree-bound",
                              "specialization",
                              "samples-key", "samples-flag"])
def test_bad_input_exits_2_naming_the_key(tmp_path, capsys, tail, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, output = run_cli(tail + ["--config", str(path), "--json"])
    assert (code, output) == (2, "")
    assert message in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cocycle", "frobnicate"])
    assert exc.value.code == 2


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
