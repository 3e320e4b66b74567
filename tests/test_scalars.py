import json
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtwist import (
    BimultiplicativeCocycle,
    LaurentPolynomial,
    TruncatedCocycle,
    TwistedMonoidAlgebra,
    UnitScalar,
    parse_element,
    parse_poly,
    parse_unit,
    render_poly,
    render_unit,
    specialize,
)

import qtwist.algebras
import qtwist.scalars
from qtwist.scalars import _add_product, _integer_unit, _polynomial, _unit_of, _unit_reader

from helpers import PARAMS, rand_poly, rand_unit

# -- hypothesis strategies ---------------------------------------------------

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=7)
nonzero_rationals = rationals.filter(lambda c: c != 0)
exponent_maps = st.dictionaries(st.sampled_from(PARAMS), st.integers(-3, 3), max_size=3)
units = st.builds(UnitScalar, nonzero_rationals, exponent_maps)
polys = st.lists(units, max_size=4).map(
    lambda us: sum((LaurentPolynomial.from_unit(u) for u in us), LaurentPolynomial.zero()))


# -- UnitScalar --------------------------------------------------------------

def test_unit_mul_inverse_pair():
    q = UnitScalar.param("q")
    assert q * q.inv() == UnitScalar.one()
    assert (q * UnitScalar.param("q", -1)).is_one()


def test_unit_mul_arithmetic():
    u = UnitScalar(2, {"q": 2})
    v = UnitScalar(3, {"q": -1})
    assert u * v == UnitScalar(6, {"q": 1})


def test_unit_pow_zero_and_negative():
    q = UnitScalar.param("q")
    assert (q ** 0).is_one()
    assert UnitScalar(2, {"q": 1}) ** -1 == UnitScalar(Fraction(1, 2), {"q": -1})


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        UnitScalar(0)


@pytest.mark.parametrize("build", [
    lambda: UnitScalar(0.1),
    lambda: UnitScalar(True),
    lambda: UnitScalar("1/2"),
    lambda: UnitScalar(1, {"q": 1.0}),
    lambda: UnitScalar(1, {"q": True}),
    lambda: LaurentPolynomial({(): 0.1}),
    lambda: LaurentPolynomial({(): "3"}),
    lambda: LaurentPolynomial({(("q", 0.5),): 1}),
    lambda: LaurentPolynomial.from_rational(0.5),
    lambda: UnitScalar.param("q").specialize({"q": 0.1}),
    lambda: UnitScalar.param("q").specialize({"q": True}),
    lambda: specialize(parse_poly("q + 1"), {"q": "2"}),
], ids=["unit-float", "unit-bool", "unit-str", "unit-float-exponent", "unit-bool-exponent",
        "poly-float", "poly-str", "poly-float-exponent", "from-rational-float",
        "specialize-float", "specialize-bool", "specialize-str"])
def test_public_constructors_take_only_ints_and_fractions(build):
    with pytest.raises(TypeError):
        build()


def test_repeated_parameter_names_add():
    assert UnitScalar(2, [("q", 1), ("r", 1), ("q", 2)]) == UnitScalar(2, {"q": 3, "r": 1})
    assert UnitScalar(2, [("q", 1), ("q", -1)]).exps == ()
    assert LaurentPolynomial({(("q", 1), ("q", 1)): 1}) == LaurentPolynomial.from_param("q", 2)


@pytest.mark.parametrize("build,error,message", [
    (lambda: UnitScalar(3, {"q^2": 1}), ValueError, "parameter name 'q^2' is not a name of the literal grammar"),
    (lambda: UnitScalar(1, {"q q": 1}), ValueError, "parameter name 'q q' is not a name of the literal grammar"),
    (lambda: UnitScalar(1, {"": 2}), ValueError, "parameter name '' is not a name of the literal grammar"),
    (lambda: UnitScalar(1, {"2": 1}), ValueError, "parameter name '2' is not a name of the literal grammar"),
    (lambda: UnitScalar(1, {1: 1}), TypeError, "parameter names must be strings, got 1"),
    (lambda: LaurentPolynomial({(("a b", 1),): 1}), ValueError,
     "parameter name 'a b' is not a name of the literal grammar"),
    (lambda: UnitScalar.param("q^2"), ValueError, "parameter name 'q^2' is not a name of the literal grammar"),
    (lambda: LaurentPolynomial.from_param("_q"), ValueError,
     "parameter name '_q' is not a name of the literal grammar"),
    (lambda: UnitScalar(1, [("q",)]), TypeError, "parameter exponents must be (name, exponent) pairs, got ('q',)"),
    (lambda: UnitScalar(1, [("q", 1, 2)]), TypeError,
     "parameter exponents must be (name, exponent) pairs, got ('q', 1, 2)"),
    (lambda: UnitScalar(1, ["q1"]), TypeError, "parameter exponents must be (name, exponent) pairs, got 'q1'"),
    (lambda: LaurentPolynomial({("q",): 1}), TypeError,
     "parameter exponents must be (name, exponent) pairs, got 'q'"),
], ids=["power", "space", "empty", "digit", "int", "poly-space", "param-power", "poly-underscore",
        "short-pair", "long-pair", "string-pair", "poly-short-key"])
def test_parameter_names_are_grammar_names_in_pairs(build, error, message):
    # a unit or polynomial literal must read back as the same value, so its names are refused at construction
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


CONFIGS = pathlib.Path(__file__).parent / "configs"


def _matrices(value):
    """The unit matrices (lists of rows of literals) anywhere in a config value."""
    if isinstance(value, dict):
        return [m for v in value.values() for m in _matrices(v)]
    if isinstance(value, list) and value and all(
            isinstance(row, list) and all(isinstance(a, str) for a in row) for row in value):
        return [value]
    return []


def _golden_literal_readers():
    """One call per unit, polynomial, element, matrix and table literal of the golden configs."""
    calls = []
    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text())
        for matrix in _matrices(config):
            calls.append(lambda m=matrix: BimultiplicativeCocycle.from_json(m))
            units = [a for row in matrix for a in row]
            calls += [lambda a=a: parse_unit(a) for a in units] + [lambda a=a: parse_poly(a) for a in units]
        if "table" in config:
            calls.append(lambda c=config: TruncatedCocycle.from_json(c["rank"], c["degree_bound"], c["table"]))
            calls += [lambda a=item["value"]: parse_unit(a) for item in config["table"]]
        if "x" in config:
            algebra = TwistedMonoidAlgebra(BimultiplicativeCocycle.trivial(2), config["algebra"]["generators"])
            for text in (config["x"], config["y"]):
                calls += [lambda t=text, A=algebra: parse_element(A, t), lambda t=text: parse_poly(t)]
    return calls


def test_literal_names_are_checked_once_by_the_grammar(monkeypatch):
    # _FACTOR_RE has matched every name of a literal, so reading one makes no second name check
    calls = _golden_literal_readers()
    expected = [read() for read in calls]
    assert any(isinstance(v, UnitScalar) and v.exps for v in expected)

    def checked_again(name, what):
        raise AssertionError(f"{what} {name!r} of a literal was checked again")

    monkeypatch.setattr(qtwist.scalars, "_name_arg", checked_again)
    assert [read() for read in calls] == expected
    with pytest.raises(AssertionError):
        UnitScalar(3, {"q^2": 1})  # a Python object's names still go through the check


@given(units, units, units)
def test_unit_group_laws(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert (u * u.inv()).is_one()


@given(units, st.integers(-5, 5), st.integers(-5, 5))
def test_unit_pow_additivity(u, a, b):
    assert u ** (a + b) == (u ** a) * (u ** b)


def test_unit_pow_property_random():
    rng = random.Random(11)
    for _ in range(50):
        u = rand_unit(rng)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert u ** (a + b) == (u ** a) * (u ** b)


def test_unit_inverse_property_random():
    rng = random.Random(12)
    for _ in range(50):
        u = rand_unit(rng)
        assert (u * u.inv()).is_one()


# -- LaurentPolynomial -------------------------------------------------------

def test_poly_add_zero():
    p = parse_poly("q + 1")
    assert p + LaurentPolynomial.zero() == p


def test_poly_mul_difference_of_squares():
    assert parse_poly("q + 1") * parse_poly("q - 1") == parse_poly("q^2 - 1")


def test_poly_times_scalars_from_both_sides():
    p = parse_poly("q^2 - 3/2*r")
    u = parse_unit("-2*q^-1")
    assert p * u == u * p == parse_poly("-2*q + 3*q^-1*r")
    assert p * 3 == 3 * p == parse_poly("3*q^2 - 9/2*r")
    assert p * Fraction(2, 3) == Fraction(2, 3) * p == parse_poly("2/3*q^2 - r")
    for zero in (0, Fraction(0)):
        assert (p * zero).is_zero() and (zero * p).is_zero()
    assert all(type(x) is LaurentPolynomial for x in (p * u, u * p, p * 3, 3 * p, p * 0, 0 * p))


def test_poly_scale_roundtrip_random():
    rng = random.Random(13)
    for _ in range(50):
        p = rand_poly(rng)
        u = rand_unit(rng)
        assert p.scaled(u).scaled(u.inv()) == p
        assert p * u == u * p == p.scaled(u)  # the accumulator's product against `scaled`'s own


@given(polys, polys, polys)
def test_poly_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_poly_additive_inverse(p):
    assert (p - p).is_zero()


def reference_terms(items):
    """{canonical exponents: Fraction} of (exponent pairs, coefficient) items, summed by plain Fractions."""
    out = {}
    for pairs, c in items:
        exps = {}
        for name, e in pairs:
            exps[name] = exps.get(name, 0) + e
        key = tuple(sorted((name, e) for name, e in exps.items() if e))
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def assert_canonical_poly(p):
    assert all(isinstance(c, Fraction) and c for c in p.terms.values())
    assert all(key == tuple(sorted(key)) and all(e for _, e in key) for key in p.terms)


def test_poly_arithmetic_matches_a_fraction_reference():
    rng = random.Random(18)
    dropped = 0
    for _ in range(200):
        items = []
        for _ in range(rng.randint(0, 6)):
            pairs = [(rng.choice(PARAMS), rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))]
            c = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 4))])
            items.append((pairs, c))
            if rng.random() < 0.5:  # the same key again, in another order, often cancelling
                items.append((pairs[::-1], -c if rng.random() < 0.5 else Fraction(1, 3)))
        p = LaurentPolynomial(items)
        assert_canonical_poly(p)
        assert p.terms == reference_terms(items)
        dropped += len(reference_terms(items)) < len({tuple(sorted(k)) for k, _ in items})
        q, r = rand_poly(rng), rand_poly(rng)
        for got, want in [(q + r, list(q.terms.items()) + list(r.terms.items())),
                          (q * r, [(ka + kb, a * b) for ka, a in q.terms.items()
                                   for kb, b in r.terms.items()])]:
            assert_canonical_poly(got)
            assert got.terms == reference_terms(want)
        assert (q - q).terms == {}
    assert dropped > 30


def test_add_product_is_the_sum_of_its_term_products():
    # c*p*q added into one accumulator, against the checked constructor's sum of the explicit
    # term products; p and q are left out (the polynomial 1) at random, and -c undoes some steps
    rng = random.Random(25)
    one = LaurentPolynomial.one()
    zeros = 0
    for _ in range(200):
        acc, items = {}, []
        for _ in range(rng.randint(1, 4)):
            c = rng.choice([UnitScalar.one(), rand_unit(rng, ("q", "r"), max_exp=1)])
            factors = {side: rand_poly(rng, ("q", "r")) for side in ("left", "right") if rng.random() < 0.7}
            for d in ([c, -c] if rng.random() < 0.3 else [c]):
                form = None if d.is_one() else (d.coeff.numerator, d.coeff.denominator, d.exps)
                _add_product(acc, form, **{side: p.forms.items() for side, p in factors.items()})
                left, right = (factors.get(side, one).terms.items() for side in ("left", "right"))
                items += [(list(ka) + list(d.exps) + list(kb), a * d.coeff * b)
                          for ka, a in left for kb, b in right]
        got = _polynomial(acc)
        assert_canonical_poly(got)
        assert got == LaurentPolynomial(items)
        zeros += got.is_zero() and bool(items)
    assert zeros > 10
    # the twisted product, map images and element sums merge exponents only through it
    assert "_merge_exps" not in vars(qtwist.algebras)


def test_integer_unit_and_unit_of_are_inverse():
    # a unit's integer form is (numerator, denominator, exps) of its reduced coefficient, None exactly for
    # the unit 1, and _unit_of makes the unit back, None included
    rng = random.Random(36)
    q = UnitScalar.param("q")
    units = [UnitScalar.one(), UnitScalar(Fraction(4, 4)), UnitScalar(1, {"q": 0}), UnitScalar(-1), UnitScalar(2),
             q, -q, q.inv(), UnitScalar(Fraction(-3, 2), {"q": 2, "r": -1})]
    units += [rand_unit(rng) for _ in range(300)]
    for a in units:
        form = _integer_unit(a)
        assert (form is None) == (a.coeff == 1 and not a.exps)
        if form is not None:
            assert form == (a.coeff.numerator, a.coeff.denominator, a.exps)
        back = _unit_of(form)
        assert back == a and type(back.coeff) is Fraction and back.exps == a.exps
    assert _unit_of(None) == UnitScalar.one()
    # a kernel product's form is unreduced, and its denominator may be negative
    assert _unit_of((-4, -6, (("q", 1),))) == UnitScalar(Fraction(2, 3), {"q": 1})
    # the one reduction against the standard library's: every unit stores its Fraction's integer ratio, so
    # den > 0 and gcd(num, den) == 1, whichever operation made it; coeff is that Fraction, and read-only
    def assert_reduced(u, value):
        assert (u.num, u.den) == value.as_integer_ratio() and u.den > 0 and gcd(u.num, u.den) == 1
        assert type(u.coeff) is Fraction and u.coeff == value

    nonzero = [n for n in range(-9, 10) if n]
    seen = {"common factor": 0, "negative denominator": 0}
    for _ in range(300):
        k = rng.randint(1, 6)
        num, den, other = k * rng.choice(nonzero), k * rng.choice(nonzero), rng.choice(units)
        seen["common factor"] += gcd(num, den) > 1
        seen["negative denominator"] += den < 0
        a, value = _unit_of((num, den, rand_unit(rng).exps)), Fraction(num, den)
        assert_reduced(a, value)
        assert_reduced(a * other, value * other.coeff)
        assert_reduced(a / other, value / other.coeff)
        assert_reduced(a.inv(), 1 / value)
        for e in (-3, -1, 0, 1, 2):
            assert_reduced(a ** e, value ** e)
        assert_reduced(-a, -value)
        assert_reduced(parse_unit(f"{num * (den // abs(den))}/{abs(den)}*q"), value)
        assert_reduced(UnitScalar(value, a.exps), value)
        with pytest.raises(AttributeError):
            a.coeff = value
    assert min(seen.values()) > 50, seen


# -- specialize --------------------------------------------------------------

def test_specialize_forced_value():
    p = LaurentPolynomial.from_param("q") + LaurentPolynomial.from_param("q", -1)
    assert specialize(p, {"q": 2}) == Fraction(5, 2)


def test_specialize_constant():
    assert specialize(LaurentPolynomial.one(), {}) == 1


def test_specialize_missing_parameter():
    with pytest.raises(ValueError, match="no value assigned"):
        specialize(LaurentPolynomial.from_param("q"), {})


def test_specialize_zero_assignment():
    with pytest.raises(ValueError, match="nonzero"):
        specialize(LaurentPolynomial.from_param("q"), {"q": 0})


def test_specialize_is_ring_homomorphism():
    rng = random.Random(14)
    assignment = {"q": Fraction(3, 2), "r": Fraction(-1, 5), "s": Fraction(7)}
    for _ in range(50):
        p, r = rand_poly(rng), rand_poly(rng)
        assert (p * r).specialize(assignment) == p.specialize(assignment) * r.specialize(assignment)
        assert (p + r).specialize(assignment) == p.specialize(assignment) + r.specialize(assignment)


# -- literals ----------------------------------------------------------------

def test_parse_unit_one():
    u = parse_unit("1")
    assert u == UnitScalar.one()


def test_parse_unit_full_literal():
    u = parse_unit("-3/2*q^2*r^-1")
    assert u.coeff == Fraction(-3, 2)
    assert dict(u.exps) == {"q": 2, "r": -1}


def test_render_parse_identity_on_canonical():
    for text in ["1", "-1", "q", "-3/2*q^2*r^-1", "2/7*s", "q^-3*r^3"]:
        assert render_unit(parse_unit(text)) == text


def test_parse_canonicalizes():
    assert render_unit(parse_unit("q*q")) == "q^2"
    assert render_unit(parse_unit("+2/4*q^0")) == "1/2"
    assert render_unit(parse_unit("r^-1*q^2")) == "q^2*r^-1"


def test_parse_unit_errors():
    bad_literals = ["", "  ", "q**2", "2q", "q^", "3/0*q", "0", "0/5",
                    "*q", "q*", "q^2.5", "2*3", "--1", "+-2*q", "3/00*q"]
    for bad in bad_literals:
        with pytest.raises(ValueError):
            parse_unit(bad)


def test_parse_unit_refuses_non_strings():
    reader = _unit_reader()
    for value in (["1"], 1, None, Fraction(1, 2), {"q": 1}):
        # the reader's memo never sees a non-string, so no "unhashable type"; parse_poly, whose sum
        # splitter once took a non-string ('int' object is not iterable), refuses it by the same rule
        for parse, what in ((parse_unit, "unit"), (reader, "unit"), (parse_poly, "polynomial")):
            with pytest.raises(TypeError) as exc:
                parse(value)
            assert str(exc.value) == f"{what} literal must be a string, got {value!r}"


def test_parse_unit_folds_the_sign_into_the_rational():
    cases = {"-q": UnitScalar(-1, {"q": 1}), "- 2/4*q^2": UnitScalar(Fraction(-1, 2), {"q": 2}),
             "+3": UnitScalar(3), "-1": UnitScalar(-1), "q*q^-1": UnitScalar.one(),
             "-3*r*q^2*r": UnitScalar(-3, {"q": 2, "r": 2})}
    reader = _unit_reader()
    for text, unit in cases.items():
        for parse in (parse_unit, reader, reader):
            u = parse(text)
            assert (u, type(u.coeff), u.exps) == (unit, Fraction, unit.exps)


def test_unit_roundtrip_corpus():
    rng = random.Random(15)
    for _ in range(100):
        u = rand_unit(rng)
        assert parse_unit(render_unit(u)) == u


def test_render_parse_canonicalizes_corpus():
    # non-canonical literals (unreduced coefficient, shuffled and split factors,
    # explicit ^1) normalize to the canonical rendering of the same unit
    rng = random.Random(17)
    for _ in range(100):
        u = rand_unit(rng)
        k = rng.randint(1, 3)
        parts = [f"{u.coeff.numerator * k}/{u.coeff.denominator * k}"]
        factors = []
        for name, e in u.exps:
            if abs(e) >= 2 and rng.random() < 0.5:
                step = 1 if e > 0 else -1
                factors += [f"{name}^{e - step}", f"{name}^{step}"]
            elif e == 1 and rng.random() < 0.5:
                factors.append(f"{name}^1")
            else:
                factors.append(f"{name}^{e}" if e != 1 else name)
        rng.shuffle(factors)
        assert render_unit(parse_unit("*".join(parts + factors))) == render_unit(u)


def test_poly_roundtrip_corpus():
    rng = random.Random(16)
    for _ in range(100):
        p = rand_poly(rng)
        assert parse_poly(render_poly(p)) == p


def test_render_poly_zero():
    assert render_poly(LaurentPolynomial.zero()) == "0"
    assert parse_poly("0").is_zero()


def test_parse_poly_zero_term_takes_one_sign():
    # a "0" term adds nothing after at most one sign; a second sign is an error as for "--1"
    assert parse_poly("-0").is_zero()
    assert parse_poly("q - 0") == parse_poly("q")
    for bad in ["--0", "- -0", "q +-0", "q - -0"]:
        with pytest.raises(ValueError, match="double sign"):
            parse_poly(bad)


def test_unit_pow_refuses_bool_exponents():
    with pytest.raises(TypeError):
        UnitScalar(2) ** True
    with pytest.raises(TypeError):
        UnitScalar.param("q") ** False


def test_bools_compare_as_the_ints_they_are():
    # bool is an int: every cross-type __eq__ answers for it as for 0 and 1, and agrees with hash.
    P, U = LaurentPolynomial.one(), UnitScalar.one()
    assert P == True and U == True and Fraction(1) == True  # noqa: E712
    assert P != False and LaurentPolynomial.zero() == False  # noqa: E712
    assert LaurentPolynomial.from_param("q") != True and UnitScalar.param("q") != True  # noqa: E712
    assert {P: "one"}.get(True) == "one" and len({P, U, True, 1}) == 1


def test_other_types_are_not_scalars():
    u, p = UnitScalar.param("q"), parse_poly("q + 1")
    for op in (lambda: u / 2, lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: p - u, lambda: p + u):
        with pytest.raises(TypeError):
            op()
    assert p != "q + 1" and not p == [1] and p.__eq__("q") is NotImplemented


def test_str_and_repr_are_the_literal():
    u, p = parse_unit("-3/2*q^2*r^-1"), parse_poly("q - 2 + q^-1")
    assert str(u) == "-3/2*q^2*r^-1" and repr(u) == "UnitScalar('-3/2*q^2*r^-1')"
    assert str(p) == "-2 + q^-1 + q" and repr(p) == "LaurentPolynomial('-2 + q^-1 + q')"
    assert repr(LaurentPolynomial.zero()) == "LaurentPolynomial('0')"


def test_parameters_are_the_names_with_nonzero_exponents():
    assert parse_poly("q^-1*r + 2*s - q").parameters() == {"q", "r", "s"}
    assert parse_poly("q*q^-1 + 3").parameters() == set() == LaurentPolynomial.zero().parameters()
    assert parse_unit("-q^2*r^-1").parameters() == {"q", "r"}


def test_equal_values_hash_equally():
    assert len({LaurentPolynomial.one(), 1}) == 1
    # equality is transitive across units, polynomials and rationals, so no set depends on order
    P, U = LaurentPolynomial.one(), UnitScalar.one()
    assert U == 1 and 1 == U and len({P, U, 1}) == len({U, 1, P}) == 1
    assert UnitScalar(2) == Fraction(2) and UnitScalar(Fraction(-3, 2)) != -1
    assert UnitScalar.param("q") != 1 and UnitScalar.param("q", 0) == 1
    assert len({LaurentPolynomial.zero(), 0, Fraction(0)}) == 1
    for c in (Fraction(1), Fraction(-3, 2)):
        p = LaurentPolynomial.from_unit(UnitScalar(c))
        assert p == c and p == UnitScalar(c)
        assert hash(p) == hash(c) == hash(UnitScalar(c))
    # a polynomial stores int pairs: constants still equal and hash like their int, Fraction and unit
    for c, same in [(Fraction(-3, 4), [Fraction(-3, 4), UnitScalar(Fraction(-3, 4))]),
                    (5, [5, Fraction(5), UnitScalar(5)])]:
        p = LaurentPolynomial.from_rational(c)
        for value in same:
            assert p == value and value == p and hash(p) == hash(value), value
        assert {Fraction(c): "c"}.get(p) == "c" and {p: "p"}.get(Fraction(c)) == "p"
    u = UnitScalar(Fraction(-3, 4), {"q": 2, "r": -1})
    p = parse_poly("-3/4*q^2*r^-1")
    assert p == u and u == p and hash(p) == hash(u) and p != UnitScalar(Fraction(3, 4), {"q": 2, "r": -1})
    assert LaurentPolynomial.one() == True  # noqa: E712
    rng = random.Random(14)
    for _ in range(50):
        u = rand_unit(rng)
        p = LaurentPolynomial.from_unit(u)
        assert p == u and hash(p) == hash(u)
        q = rand_poly(rng)
        shuffled = list(q.terms.items())
        rng.shuffle(shuffled)
        assert LaurentPolynomial(shuffled) == q and hash(LaurentPolynomial(shuffled)) == hash(q)
