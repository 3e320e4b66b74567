"""CLI tests: golden-file determinism for every subcommand, exit codes, schemas.

Golden files live in tests/golden/ and are byte-compared against the JSON
reports.  Regenerate them (after an intentional output change) with:

    python3 tests/test_cli.py --regen
"""

import io
import json
import pathlib
import runpy
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtwist import (AntisymmetricMatrix, BimultiplicativeCocycle, ExponentVector, GradedHomomorphism, algebras,
                    cocycles)
from qtwist.cli import _KEYS, main

from helpers import doubled_from_degree_3

HERE = pathlib.Path(__file__).parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


#: (name, argv tail, expected exit code) of every golden; every subcommand appears at least once.
#: The one table is the benchmark's (bench/inputs.py, stdlib only), read without importing it.
CASES = [(name, list(tail), code)
         for name, tail, code in runpy.run_path(str(HERE.parent / "bench" / "inputs.py"))["GOLDEN_CASES"]]


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


#: The refusal corpus and its one argv body, from tools/refusals.py (stdlib only), which runs the same
#: rows as processes.
REFUSALS = runpy.run_path(str(HERE.parent / "tools" / "refusals.py"))
REFUSAL_ROWS = REFUSALS["rows"]()


@pytest.mark.parametrize("row", REFUSAL_ROWS, ids=[row["name"] for row in REFUSAL_ROWS])
def test_refusal_row_exits_2_with_its_one_line(tmp_path, capsys, row):
    code, output = run_cli(REFUSALS["row_argv"](row, tmp_path))
    assert (code, output, capsys.readouterr().err) == (2, "", row["stderr"] + "\n")


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


def run_config(tmp_path, tail, config, as_json=True):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return run_cli(tail + ["--config", str(path)] + (["--json"] if as_json else []))


def test_pullback_along_a_morphism_matches_the_segre_golden(tmp_path):
    code, output = run_config(tmp_path, ["cocycle", "pullback"], _morphism(*SEGRE_1_1))
    assert (code, output) == (0, (GOLDEN / "cocycle_pullback.json").read_text())


#: A literal integer longer than the interpreter's 4,300-digit int-string limit.
LONG = "7" * 5001
#: algebra mul configs whose literals or exact product are longer than that limit.
LONG_PRODUCTS = [
    # the product's coefficient is 2^40000, 12,042 digits
    {"parameters": [], "algebra": {"antisym": [["1", "2"], ["1/2", "1"]], "generators": ["X0", "X1"]},
     "x": "X0^200", "y": "X1^200"},
    {"parameters": ["q"], "algebra": {"antisym": [["1", "q"], ["q^-1", "1"]], "generators": ["X0", "X1"]},
     "x": f"-{LONG}/{LONG[:-1]}3*q^{LONG}*X0", "y": f"(q^-{LONG} + {LONG}*q)*X1"},
]


@pytest.mark.parametrize("config", LONG_PRODUCTS, ids=["long-product", "long-literals"])
def test_a_product_longer_than_the_int_string_limit_reads_back(tmp_path, config):
    code, output = run_config(tmp_path, ["algebra", "mul"], config)
    assert code == 0
    algebra = algebras.TwistedMonoidAlgebra(
        cocycles.canonical_from_antisym(AntisymmetricMatrix.from_json(config["algebra"]["antisym"])),
        config["algebra"]["generators"])
    x, y = (algebras.parse_element(algebra, config[key]) for key in "xy")
    assert algebras.parse_element(algebra, json.loads(output)["payload"]["product"]) == x * y


@pytest.mark.parametrize("value,echoed", [(2, "2"), ("-6/4", "-3/2"), (f"-{LONG}/2", f"-{LONG}/2")],
                         ids=["int", "unreduced", "longer-than-the-int-string-limit"])
def test_a_specialization_value_is_echoed_as_its_canonical_literal(tmp_path, value, echoed):
    code, output = run_config(tmp_path, ["segre", "kernel", "--degree", "2"], _specialization(value))
    assert code == 0
    assert json.loads(output)["payload"]["specialization"] == {"q": echoed, "r": "1"}


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
    real = cocycles._bilinear_power

    def faulty(matrix, u, v):  # not a cocycle: the extra factor 2^u[0] depends on the first argument only
        num, den, exps = real(matrix, u, v)
        return num * 2 ** dict(u).get(0, 0), den, exps  # u, v are sparse (index, entry) pairs

    monkeypatch.setattr(cocycles, "_bilinear_power", faulty)
    code, output = run_cli(argv_for("cocycle_check", ["cocycle", "check"]))
    assert (code, json.loads(output), capsys.readouterr().err) == (
        1, {"command": "cocycle.check", "status": "fail",
            "payload": {"rank": 3, "samples": 50, "exhaustive": False},
            "counterexample": {"triple": [[1, 4, 4], [1, 2, 4], [3, 5, 4]]}}, "")
    # evaluation carries the same fault, and its unit arithmetic agrees that the triple fails
    mu = BimultiplicativeCocycle.from_json(json.loads((CONFIGS / "cocycle_check.json").read_text())["cocycle"])
    x, y, z = map(ExponentVector, ([1, 4, 4], [1, 2, 4], [3, 5, 4]))
    assert mu.evaluate(x, y + z) * mu.evaluate(y, z) != mu.evaluate(x, y) * mu.evaluate(x + y, z)


def test_algebra_relations_report_the_first_failing_pair(monkeypatch, capsys):
    monkeypatch.setattr(algebras, "deformation_matrix", lambda a: AntisymmetricMatrix.trivial(a.rank))
    code, output = run_cli(argv_for("algebra_relations", ["algebra", "relations"]))
    assert (code, json.loads(output), capsys.readouterr().err) == (
        1, {"command": "algebra.relations", "status": "fail", "payload": {},
            "counterexample": {"pair": ["X0", "X1"]}}, "")


def test_segre_verify_reports_a_failing_random_pair(monkeypatch, capsys):
    monkeypatch.setattr(GradedHomomorphism, "_apply", doubled_from_degree_3(GradedHomomorphism._apply))
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML configs need tomllib (Python 3.11+)")
@pytest.mark.parametrize("raw,reason", [
    (b"n = [1,\n", None),  # tomllib's own text, which is not the same on every interpreter
    # these two once ended in a traceback: the bytes were decoded outside the try, and int() refused the seed
    (b'parameters = ["\xff"]\n', "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
    (b"seed = " + b"7" * 5000 + b"\n", f"an integer has more than {sys.get_int_max_str_digits()} digits"),
], ids=["unclosed-array", "not-utf-8", "integer-past-the-digit-limit"])
def test_malformed_toml_config_is_input_error(tmp_path, capsys, raw, reason):
    path = tmp_path / "bad.toml"
    path.write_bytes(raw)
    code, output = run_cli(["segre", "verify", "--config", str(path)])
    err = capsys.readouterr().err
    assert (code, output) == (2, "")
    assert err.startswith("error: malformed TOML config: ") and err.count("\n") == 1
    assert reason is None or err == f"error: malformed TOML config: {reason}\n"


@pytest.mark.skipif(sys.version_info >= (3, 11), reason="Python 3.11+ reads TOML configs")
def test_toml_config_needs_python_3_11(tmp_path, capsys):
    path = tmp_path / "cfg.toml"
    path.write_text("n = 1\n")
    code, output = run_cli(["segre", "verify", "--config", str(path)])
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == "error: TOML configs need Python 3.11+; use JSON instead\n"


@pytest.mark.parametrize("name,tail,expected", [CASES[3], CASES[2]], ids=["pass", "fail"])
def test_running_the_module_exits_with_mains_code(monkeypatch, capsys, name, tail, expected):
    # the module runs afresh as __main__, as `python -m qtwist.cli` runs it
    monkeypatch.delitem(sys.modules, "qtwist.cli")
    monkeypatch.setattr(sys, "argv", ["qtwist"] + argv_for(name, tail))
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qtwist.cli", run_name="__main__")
    assert exc.value.code == expected
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


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
