"""The four immutable records, every JSON form, and what `import qtwist` loads.

`ProductSplit`, `CheckReport`, `FactorTwistReport` and `SegreMap` share one
slotted record base (`monoids._Record`): built by position or keyword, equal
only to a record of their own type, hashed and repr'd by their fields,
read-only, and copied and pickled through their constructor.  Every type
with both `to_json` and `from_json` reads its JSON back equal, and equally
hashed.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtwist import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    ExponentVector,
    FactorTwistReport,
    FunctionOnMonoid,
    Pairing,
    ProductSplit,
    SegreMap,
    TruncatedCocycle,
    TwistedMonoidAlgebra,
    UnitScalar,
    build_quantum_segre,
    factor_twist,
    parse_unit,
)
from qtwist.cocycles import CheckReport

SRC = Path(__file__).resolve().parent.parent / "src"


def _factor_report():
    mu = BimultiplicativeCocycle([[parse_unit(s) for s in row]
                                  for row in [["1", "q", "1"], ["q^-1", "1", "r"], ["1", "1", "1"]]])
    left = TwistedMonoidAlgebra(BimultiplicativeCocycle.trivial(2), ["x0", "x1"])
    right = TwistedMonoidAlgebra(BimultiplicativeCocycle.trivial(1), ["y0"])
    return factor_twist(left, right, mu)


def _segre_map():
    return build_quantum_segre(1, 1, BimultiplicativeCocycle.trivial(4))


def _record(kind):
    """A record of each kind, built the way the library builds it."""
    if kind == "split":
        return ProductSplit(2, 1)
    if kind == "report":
        return CheckReport(False, 12, 3, ("pair", 1))
    return _factor_report() if kind == "factor" else _segre_map()


FIELDS = {
    "split": ("left_rank", "right_rank"),
    "report": ("passed", "pairs_checked", "seed", "counterexample"),
    "factor": ("twisted_classical", "tensor_of_twists", "cohomologous", "identical", "factorizable"),
    "segre": ("n", "m", "ambient_cocycle", "homomorphism"),
}
KINDS = list(FIELDS)


def _fields(kind, record):
    return [getattr(record, name) for name in FIELDS[kind]]


def test_construction_by_position_and_by_keyword():
    assert ProductSplit(left_rank=2, right_rank=1) == ProductSplit(2, right_rank=1) == ProductSplit(2, 1)
    report = _factor_report()
    fields = _fields("factor", report)
    assert FactorTwistReport(*fields) == report
    assert FactorTwistReport(**dict(zip(FIELDS["factor"], fields))) == report
    smap = _segre_map()
    assert SegreMap(n=1, m=1, ambient_cocycle=smap.ambient_cocycle, homomorphism=smap.homomorphism) == smap
    for bad in [lambda: SegreMap(1, 1, smap.ambient_cocycle),
                lambda: SegreMap(1, 1, smap.ambient_cocycle, smap.homomorphism, None),
                lambda: SegreMap(1, n=1, m=1, ambient_cocycle=None, homomorphism=None),
                lambda: ProductSplit(2, 1, 0)]:
        with pytest.raises(TypeError):
            bad()


def test_check_report_defaults_and_truth():
    report = CheckReport(True)
    assert (report.passed, report.pairs_checked, report.seed, report.counterexample) == (True, None, None, None)
    assert report and report.ok
    failed = CheckReport(passed=False, counterexample=("identity", ExponentVector((1,))))
    assert not failed and not failed.ok and failed.pairs_checked is None


@pytest.mark.parametrize("kind", KINDS)
def test_equality_is_by_type_and_fields(kind):
    record = _record(kind)
    fields = _fields(kind, record)
    assert record == type(record)(*fields) and not record != type(record)(*fields)
    assert record != tuple(fields) and tuple(fields) != record
    assert all(record != _record(other) for other in KINDS if other != kind)


def test_a_split_is_not_its_tuple():
    assert ProductSplit(2, 1) != (2, 1) and (2, 1) != ProductSplit(2, 1)
    assert ProductSplit(2, 1) != ProductSplit(1, 2)
    assert CheckReport(True) != CheckReport(True, 0)


def test_equal_records_hash_equal():
    assert hash(ProductSplit(2, 1)) == hash(ProductSplit(left_rank=2, right_rank=1))
    assert hash(CheckReport(True, 4, 1)) == hash(CheckReport(True, pairs_checked=4, seed=1))
    smap = _segre_map()
    assert hash(smap) == hash(SegreMap(1, 1, smap.ambient_cocycle, smap.homomorphism))
    assert len({ProductSplit(2, 1), ProductSplit(2, 1), ProductSplit(1, 2)}) == 2


def test_repr_is_the_field_list():
    assert repr(ProductSplit(2, 1)) == "ProductSplit(left_rank=2, right_rank=1)"
    assert repr(CheckReport(True)) == "CheckReport(passed=True, pairs_checked=None, seed=None, counterexample=None)"
    assert (repr(CheckReport(False, 12, 3, ("pair", 1)))
            == "CheckReport(passed=False, pairs_checked=12, seed=3, counterexample=('pair', 1))")
    report = _factor_report()
    assert repr(report) == (
        "FactorTwistReport(twisted_classical=TwistedMonoidAlgebra(rank=3, generators=['x0', 'x1', 'y0']), "
        "tensor_of_twists=TwistedMonoidAlgebra(rank=3, generators=['x0', 'x1', 'y0']), "
        "cohomologous=True, identical=False, factorizable=False)")
    smap = _segre_map()
    assert repr(smap) == (f"SegreMap(n=1, m=1, ambient_cocycle={smap.ambient_cocycle!r}, "
                          f"homomorphism={smap.homomorphism!r})")


@pytest.mark.parametrize("kind", KINDS)
def test_fields_cannot_be_assigned_or_deleted(kind):
    record = _record(kind)
    name = FIELDS[kind][0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(kind, round_trip):
    record = _record(kind)
    back = round_trip(record)
    assert back == record and _fields(kind, back) == _fields(kind, record)
    assert hash(back) == hash(record)
    if kind == "split":
        assert back.split(ExponentVector((1, 2, 3))) == ((1, 2), (3,))
        with pytest.raises(ValueError):
            type(back)(0, back.right_rank)


units = st.builds(UnitScalar, st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(bool),
                  st.dictionaries(st.sampled_from(("q", "r")), st.integers(-3, 3), max_size=2))


def unit_rows(rows, columns):
    return st.lists(st.lists(units, min_size=columns, max_size=columns), min_size=rows, max_size=rows)


def _json_form(kind, draw):
    """(a drawn value of `kind`, the function that reads its JSON back)."""
    rank = draw(st.integers(1, 3))
    if kind == "cocycle":
        return BimultiplicativeCocycle(draw(unit_rows(rank, rank))), BimultiplicativeCocycle.from_json
    if kind == "antisym":
        upper = {(i, j): draw(units) for i in range(rank) for j in range(i + 1, rank)}
        return AntisymmetricMatrix.from_upper(rank, upper), AntisymmetricMatrix.from_json
    if kind == "pairing":
        return Pairing(draw(unit_rows(rank, draw(st.integers(1, 3))))), Pairing.from_json
    if kind == "segre":
        n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        mu = BimultiplicativeCocycle(draw(unit_rows(n + m + 2, n + m + 2)))
        return build_quantum_segre(n, m, mu), SegreMap.from_json
    rank, bound, one = min(rank, 2), draw(st.integers(0, 3)), UnitScalar.one()
    if kind == "truncated":
        table = TruncatedCocycle.from_function(rank, bound, lambda u, v: draw(units))
    else:
        table = FunctionOnMonoid.from_function(rank, bound, lambda u: draw(units) if any(u) else one)
    return table, lambda data: type(table).from_json(rank, bound, data)


JSON_KINDS = ["cocycle", "antisym", "pairing", "truncated", "function", "segre"]


@given(kind=st.sampled_from(JSON_KINDS), data=st.data())
def test_every_json_form_reads_back_equal_and_equally_hashed(kind, data):
    value, read = _json_form(kind, data.draw)
    back = read(json.loads(json.dumps(value.to_json())))
    assert back == value and hash(back) == hash(value)


def test_importing_the_cli_loads_no_dataclasses_inspect_typing_or_ast():
    probe = ("import sys; before = set(sys.modules); import qtwist, qtwist.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = set(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert {"qtwist", "qtwist.cli", "qtwist.segre"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast"}
