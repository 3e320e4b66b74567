import importlib
import json
import random
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtwist import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    CocycleCheck,
    ExponentVector,
    FunctionOnMonoid,
    HomomorphismReport,
    MultiplicativityReport,
    Pairing,
    ProductSplit,
    TruncatedCocycle,
    UnitScalar,
    antisymmetrize,
    canonical_from_antisym,
    coboundary,
    cohomologous,
    is_factorizable,
    parse_unit,
    pullback,
    segre_morphism,
    symmetric_trivializer,
    trivialize_rank1,
    vectors_up_to_degree,
    verify_cocycle_equation,
    yamazaki_factorize,
    yamazaki_reconstruct,
    yamazaki_trivialize,
)
from qtwist import cocycles, monoids, scalars
from qtwist.algebras import GradedHomomorphism, TwistedMonoidAlgebra
from qtwist.scalars import _integer_unit, _unit_of
from qtwist.monoids import MonoidMorphism, _nonzero, graded_count, graded_pairs

from helpers import (
    rand_antisym,
    rand_cocycle,
    rand_function,
    rand_pairing,
    rand_symmetric_cocycle,
    rand_unit,
    rand_vector,
)

ONE = UnitScalar.one()


def cocycle_equation_holds(mu, x, y, z):
    """Direct substitution into mu(x,y+z) mu(y,z) = mu(x,y) mu(x+y,z)."""
    return mu.evaluate(x, y + z) * mu.evaluate(y, z) == mu.evaluate(x, y) * mu.evaluate(x + y, z)


units_st = st.builds(
    UnitScalar,
    st.fractions(min_value=-7, max_value=7, max_denominator=7).filter(lambda c: c != 0),
    st.dictionaries(st.sampled_from(("q", "r")), st.integers(-3, 3), max_size=2))
cocycles3_st = st.builds(
    BimultiplicativeCocycle,
    st.lists(st.lists(units_st, min_size=3, max_size=3), min_size=3, max_size=3))
vectors3_st = st.lists(st.integers(0, 5), min_size=3, max_size=3).map(ExponentVector)


@given(cocycles3_st, vectors3_st, vectors3_st, vectors3_st)
def test_cocycle_equation_property(mu, x, y, z):
    assert cocycle_equation_holds(mu, x, y, z)


@given(cocycles3_st, cocycles3_st)
def test_antisymmetrize_is_multiplicative(mu, nu):
    left = antisymmetrize(mu * nu)
    for i in range(3):
        for j in range(3):
            assert left.entry(i, j) == antisymmetrize(mu).entry(i, j) * antisymmetrize(nu).entry(i, j)


# -- evaluate ----------------------------------------------------------------

def test_trivial_cocycle_evaluates_to_one():
    mu = BimultiplicativeCocycle.trivial(3)
    rng = random.Random(31)
    for _ in range(20):
        assert mu.evaluate(rand_vector(rng, 3), rand_vector(rng, 3)).is_one()


def test_canonical_cocycle_on_generators():
    rng = random.Random(32)
    q = rand_antisym(rng, 4)
    mu = canonical_from_antisym(q)
    for i in range(4):
        for j in range(4):
            gi, gj = ExponentVector.unit(4, i), ExponentVector.unit(4, j)
            expected = q.entry(i, j) if i < j else ONE
            assert mu.evaluate(gi, gj) == expected


def test_identity_normalization():
    rng = random.Random(33)
    mu = rand_cocycle(rng, 3)
    zero = ExponentVector.zero(3)
    u = rand_vector(rng, 3)
    assert mu.evaluate(u, zero).is_one()
    assert mu.evaluate(zero, u).is_one()


def test_cocycle_equation_random_triples():
    rng = random.Random(34)
    mu = rand_cocycle(rng, 4)
    for _ in range(100):
        x, y, z = (rand_vector(rng, 4) for _ in range(3))
        assert cocycle_equation_holds(mu, x, y, z)


@pytest.mark.parametrize("build,error,message", [
    (lambda: BimultiplicativeCocycle.trivial(-2), ValueError, "trivial rank must be >= 0, got -2"),
    (lambda: AntisymmetricMatrix.from_upper(-1, {}), ValueError, "from_upper rank must be >= 0, got -1"),
    (lambda: Pairing.trivial(2, -1), ValueError, "trivial right rank must be >= 0, got -1"),
    (lambda: BimultiplicativeCocycle.trivial(True), TypeError, "trivial rank must be an int, got True"),
    (lambda: Pairing.trivial(True, 2), TypeError, "trivial rank must be an int, got True"),
    (lambda: Pairing.trivial(2, True), TypeError, "trivial right rank must be an int, got True"),
    (lambda: BimultiplicativeCocycle.trivial(2.0), TypeError, "trivial rank must be an int, got 2.0"),
    (lambda: AntisymmetricMatrix.from_upper(True, {}), TypeError, "from_upper rank must be an int, got True"),
    (lambda: AntisymmetricMatrix.from_upper(2, {(False, True): UnitScalar.param("q")}), TypeError,
     "upper-triangle index must be an int, got False"),
    (lambda: AntisymmetricMatrix.from_upper(2, {(0, 1.0): UnitScalar.param("q")}), TypeError,
     "upper-triangle index must be an int, got 1.0"),
    (lambda: AntisymmetricMatrix.from_upper(2, {(0, 1): "q"}), TypeError,
     "upper-triangle value 'q' at (0,1) is not a UnitScalar"),
    (lambda: AntisymmetricMatrix.from_upper(2, {1: UnitScalar.param("q")}), TypeError,
     "upper-triangle key 1 is not an index pair (i, j)"),
    (lambda: AntisymmetricMatrix.from_upper(3, {(0, 1, 2): UnitScalar.param("q")}), TypeError,
     "upper-triangle key (0, 1, 2) is not an index pair (i, j)"),
    (lambda: AntisymmetricMatrix.from_upper(2, [((0, 1), UnitScalar.param("q"))]), TypeError,
     "upper triangle must be a mapping (i, j) -> UnitScalar, got list"),
], ids=["trivial-negative", "from-upper-negative", "pairing-right-negative", "trivial-bool",
        "pairing-bool", "pairing-right-bool", "trivial-float", "from-upper-bool", "from-upper-bool-index",
        "from-upper-float-index", "from-upper-str-value", "from-upper-int-key", "from-upper-triple-key",
        "from-upper-list"])
def test_unit_form_constructors_check_their_ranks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
    assert BimultiplicativeCocycle.trivial(0).rank == AntisymmetricMatrix.from_upper(0, {}).rank == 0


def test_evaluate_rank_mismatch():
    mu = BimultiplicativeCocycle.trivial(2)
    with pytest.raises(ValueError):
        mu.evaluate(ExponentVector((1,)), ExponentVector((1, 0)))
    v2, v3 = ExponentVector((1, 2)), ExponentVector((1, 0, 1))
    for u, v in [(v2, v3), (v3, v2), (v3, v3)]:
        with pytest.raises(ValueError, match="rank mismatch"):
            mu.evaluate(u, v)
    alpha = rand_pairing(random.Random(64), 2, 3)
    a = alpha.entry
    assert alpha.evaluate(v2, v3) == a(0, 0) * a(0, 2) * a(1, 0) ** 2 * a(1, 2) ** 2
    for u, v in [(v3, v2), (v2, v2), (v3, v3)]:
        with pytest.raises(ValueError, match="rank mismatch"):
            alpha.evaluate(u, v)


# -- canonical form and antisymmetrization ------------------------------------

def test_canonical_of_identity_matrix_is_trivial():
    q = AntisymmetricMatrix.trivial(3)
    assert canonical_from_antisym(q).is_trivial()


def test_canonical_rank2_shape():
    q = AntisymmetricMatrix.from_upper(2, {(0, 1): UnitScalar.param("q")})
    mu = canonical_from_antisym(q)
    assert mu.to_json() == [["1", "q"], ["1", "1"]]


def test_antisymmetrize_canonical_roundtrip():
    rng = random.Random(35)
    for _ in range(20):
        q = rand_antisym(rng, rng.randint(2, 5))
        assert antisymmetrize(canonical_from_antisym(q)) == q


def test_antisymmetrize_symmetric_is_trivial():
    rng = random.Random(36)
    mu = rand_symmetric_cocycle(rng, 3)
    assert antisymmetrize(mu).is_trivial()


def test_antisymmetrize_rank2_example():
    q = UnitScalar.param("q")
    mu = BimultiplicativeCocycle([[ONE, q], [ONE, ONE]])
    beta = antisymmetrize(mu)
    assert beta.entry(0, 1) == q
    assert beta.entry(1, 0) == q.inv()


def test_antisymmetrize_invariants_random():
    rng = random.Random(37)
    for _ in range(20):
        beta = antisymmetrize(rand_cocycle(rng, 3))
        for i in range(3):
            assert beta.entry(i, i).is_one()
            for j in range(3):
                assert (beta.entry(i, j) * beta.entry(j, i)).is_one()


def test_antisym_matrix_validation():
    q = UnitScalar.param("q")
    with pytest.raises(ValueError):
        AntisymmetricMatrix([[q, ONE], [ONE, ONE]])
    with pytest.raises(ValueError):
        AntisymmetricMatrix([[ONE, q], [q, ONE]])


# -- cohomologous ------------------------------------------------------------

def test_cohomologous_reflexive():
    rng = random.Random(38)
    mu = rand_cocycle(rng, 3)
    assert cohomologous(mu, mu)


def test_canonical_vs_lower_triangular_variant():
    # same antisymmetrization from the upper- and lower-triangular placements
    rng = random.Random(39)
    q = rand_antisym(rng, 3)
    upper = canonical_from_antisym(q)
    lower = BimultiplicativeCocycle(
        [[q.entry(i, j) if i > j else ONE for j in range(3)] for i in range(3)])
    assert antisymmetrize(lower) == q
    assert cohomologous(upper, lower)


def test_cohomologous_mod_symmetric_factor():
    rng = random.Random(40)
    for _ in range(20):
        mu = rand_cocycle(rng, 3)
        sym = rand_symmetric_cocycle(rng, 3)
        assert cohomologous(mu, mu * sym)


def test_cohomologous_rank_mismatch():
    with pytest.raises(ValueError):
        cohomologous(BimultiplicativeCocycle.trivial(2), BimultiplicativeCocycle.trivial(3))


def test_cohomologous_iff_quotient_is_coboundary():
    # constructive direction: quotient by a symmetric factor is delta(h) with
    # h from symmetric_trivializer; negative direction: an asymmetric quotient
    # cannot be a coboundary since coboundaries are symmetric functions.
    rng = random.Random(41)
    bound = 8
    for rank in (2, 3):
        mu = rand_cocycle(rng, rank)
        sym = rand_symmetric_cocycle(rng, rank)
        nu = mu * sym
        assert cohomologous(mu, nu)
        quotient = TruncatedCocycle.truncate(mu, bound).quotient(
            TruncatedCocycle.truncate(nu, bound))
        h = symmetric_trivializer(mu * nu.inverse())
        assert coboundary(h.truncate(bound)) == quotient

        other = rand_cocycle(rng, rank)
        assert not cohomologous(mu, other)
        bad_quotient = TruncatedCocycle.truncate(mu, 4).quotient(
            TruncatedCocycle.truncate(other, 4))
        assert not bad_quotient.is_symmetric()


# -- Yamazaki factorization ---------------------------------------------------

def test_factorize_trivial():
    split = ProductSplit(2, 2)
    left, right, alpha = yamazaki_factorize(BimultiplicativeCocycle.trivial(4), split)
    assert left.is_trivial() and right.is_trivial() and alpha.is_trivial()


def test_factorize_canonical_pairing_is_upper_right_block():
    rng = random.Random(42)
    split = ProductSplit(2, 3)
    q = rand_antisym(rng, 5)
    mu = canonical_from_antisym(q)
    _, _, alpha = yamazaki_factorize(mu, split)
    for i in range(2):
        for j in range(3):
            assert alpha.entry(i, j) == q.entry(i, 2 + j)


def test_factorize_is_group_homomorphism():
    rng = random.Random(43)
    split = ProductSplit(2, 2)
    for _ in range(20):
        mu, nu = rand_cocycle(rng, 4), rand_cocycle(rng, 4)
        l1, r1, a1 = yamazaki_factorize(mu, split)
        l2, r2, a2 = yamazaki_factorize(nu, split)
        l, r, a = yamazaki_factorize(mu * nu, split)
        assert (l, r, a) == (l1 * l2, r1 * r2, a1 * a2)


def test_reconstruct_trivial():
    mu = yamazaki_reconstruct(BimultiplicativeCocycle.trivial(2),
                              BimultiplicativeCocycle.trivial(2),
                              Pairing.trivial(2, 2))
    assert mu.is_trivial()


def test_reconstruct_sigma_from_pairing():
    # sigma((s,t),(s',t')) = alpha(s,t'), and Y(sigma) = (1, 1, alpha)
    rng = random.Random(44)
    alpha = rand_pairing(rng, 2, 3)
    sigma = yamazaki_reconstruct(BimultiplicativeCocycle.trivial(2),
                                 BimultiplicativeCocycle.trivial(3), alpha)
    split = ProductSplit(2, 3)
    for _ in range(50):
        s, t = rand_vector(rng, 2), rand_vector(rng, 3)
        sp, tp = rand_vector(rng, 2), rand_vector(rng, 3)
        u = split.inject_left(s) + split.inject_right(t)
        v = split.inject_left(sp) + split.inject_right(tp)
        assert sigma.evaluate(u, v) == alpha.evaluate(s, tp)
    left, right, a = yamazaki_factorize(sigma, split)
    assert left.is_trivial() and right.is_trivial() and a == alpha


def test_factorize_reconstruct_roundtrip():
    rng = random.Random(45)
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        nu, xi = rand_cocycle(rng, a), rand_cocycle(rng, b)
        alpha = rand_pairing(rng, a, b)
        mu = yamazaki_reconstruct(nu, xi, alpha)
        assert yamazaki_factorize(mu, ProductSplit(a, b)) == (nu, xi, alpha)


def test_reconstruct_factorize_lands_in_same_class():
    rng = random.Random(46)
    split = ProductSplit(2, 2)
    for _ in range(20):
        mu = rand_cocycle(rng, 4)
        nu, xi, alpha = yamazaki_factorize(mu, split)
        back = yamazaki_reconstruct(nu, xi, alpha)
        assert cohomologous(mu, back)


def test_factorize_bad_split():
    with pytest.raises(ValueError):
        yamazaki_factorize(BimultiplicativeCocycle.trivial(4), ProductSplit(2, 3))


# -- factorizability ----------------------------------------------------------

def test_direct_product_is_factorizable():
    rng = random.Random(47)
    nu, xi = rand_cocycle(rng, 2), rand_cocycle(rng, 2)
    mu = yamazaki_reconstruct(nu, xi, Pairing.trivial(2, 2))
    assert is_factorizable(mu, ProductSplit(2, 2))


def test_sigma_with_nontrivial_pairing_not_factorizable():
    alpha = Pairing([[UnitScalar.param("q")]])
    sigma = yamazaki_reconstruct(BimultiplicativeCocycle.trivial(1),
                                 BimultiplicativeCocycle.trivial(1), alpha)
    assert not is_factorizable(sigma, ProductSplit(1, 1))


def test_factorizability_is_class_invariant():
    rng = random.Random(48)
    split = ProductSplit(2, 2)
    for _ in range(20):
        mu = rand_cocycle(rng, 4)
        sym = rand_symmetric_cocycle(rng, 4)
        assert is_factorizable(mu, split) == is_factorizable(mu * sym, split)


# -- pullback ----------------------------------------------------------------

def test_pullback_along_identity():
    rng = random.Random(49)
    mu = rand_cocycle(rng, 3)
    assert pullback(mu, MonoidMorphism.identity(3)) == mu


def test_pullback_of_trivial_is_trivial():
    f = segre_morphism(1, 1)
    assert pullback(BimultiplicativeCocycle.trivial(4), f).is_trivial()


def test_pullback_evaluation_identity():
    rng = random.Random(50)
    f = segre_morphism(1, 1)
    mu = rand_cocycle(rng, 4)
    pulled = pullback(mu, f)
    for _ in range(100):
        u, v = rand_vector(rng, 4), rand_vector(rng, 4)
        assert pulled.evaluate(u, v) == mu.evaluate(f(u), f(v))


def entrywise_pullback(mu, f):
    """The pullback's reference: entry (k, l) is mu.evaluate(f(e_k), f(e_l))."""
    images = f.generator_images
    return tuple(tuple(mu.evaluate(a, b) for b in images) for a in images)


@st.composite
def cocycles_and_morphisms(draw):
    target, source = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(units_st, min_size=target, max_size=target)
    mu = BimultiplicativeCocycle(draw(st.lists(row, min_size=target, max_size=target)))
    image = st.lists(st.integers(0, 3), min_size=target, max_size=target).map(ExponentVector)
    return mu, MonoidMorphism(source, target, draw(st.lists(image, min_size=source, max_size=source)))


@given(cocycles_and_morphisms())
def test_pullback_equals_entrywise_evaluation(pair):
    mu, f = pair
    assert pullback(mu, f).matrix == entrywise_pullback(mu, f)


@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
def test_pullback_along_every_segre_shape_equals_entrywise_evaluation(n, m):
    rng = random.Random(52 + 3 * n + m)
    f = segre_morphism(n, m)
    for mu in (rand_cocycle(rng, n + m + 2), BimultiplicativeCocycle.trivial(n + m + 2)):
        assert pullback(mu, f).matrix == entrywise_pullback(mu, f)


def test_pullback_rank_mismatch():
    with pytest.raises(ValueError):
        pullback(BimultiplicativeCocycle.trivial(3), segre_morphism(1, 1))


def test_pullback_antisymmetrization_is_class_invariant():
    rng = random.Random(51)
    f = segre_morphism(1, 1)
    for _ in range(10):
        mu = rand_cocycle(rng, 4)
        sym = rand_symmetric_cocycle(rng, 4)
        assert antisymmetrize(pullback(mu, f)) == antisymmetrize(pullback(mu * sym, f))


# -- coboundaries and truncated verification ----------------------------------

def test_coboundary_of_constant_one():
    h = FunctionOnMonoid.constant_one(2, 5)
    delta = coboundary(h)
    assert all(v.is_one() for v in delta.table.values())


def test_coboundary_of_character_is_trivial():
    c = rand_unit(random.Random(52))
    h = FunctionOnMonoid.from_function(1, 8, lambda u: c ** u[0])
    assert all(v.is_one() for v in coboundary(h).table.values())


def test_coboundary_is_symmetric():
    rng = random.Random(53)
    h = rand_function(rng, 2, 6)
    assert coboundary(h).is_symmetric()


def test_verify_accepts_coboundary():
    rng = random.Random(54)
    h = rand_function(rng, 2, 6)
    assert verify_cocycle_equation(coboundary(h))


def test_verify_accepts_truncated_bimultiplicative():
    rng = random.Random(55)
    mu = rand_cocycle(rng, 2)
    assert verify_cocycle_equation(TruncatedCocycle.truncate(mu, 6))


def test_verify_reports_perturbed_entry():
    rng = random.Random(56)
    h = rand_function(rng, 2, 6)
    table = coboundary(h)
    u = ExponentVector((1, 0))
    v = ExponentVector((0, 1))
    broken = table.perturbed(u, v, UnitScalar(7))
    check = verify_cocycle_equation(broken)
    assert not check and check.passed is False and check.ok is False
    assert check.counterexample is not None
    kind = check.counterexample[0]
    if kind != "identity":
        x, y, z = check.counterexample
        lhs = broken.value(x, y + z) * broken.value(y, z)
        rhs = broken.value(x, y) * broken.value(x + y, z)
        assert lhs != rhs
    check = verify_cocycle_equation(table.perturbed(u, ExponentVector.zero(2), UnitScalar(7)))
    assert not check and check.counterexample == ("identity", u)
    check = verify_cocycle_equation(table)
    assert check and check.passed is True and check.ok is True and check.counterexample is None


def test_sampled_check_draws_seeded_triples_and_reports_the_first_failure(monkeypatch):
    mu = rand_cocycle(random.Random(58), 3)
    assert cocycles.sample_cocycle_equation(mu, 40, 5) == cocycles.CheckReport(True)
    assert cocycles.sample_cocycle_equation(mu, 0) == cocycles.CheckReport(True)
    real = cocycles._bilinear_power

    def faulty(matrix, u, v):  # not a cocycle: an extra factor 3^u[1] (u is sparse)
        num, den, exps = real(matrix, u, v)
        return num * 3 ** dict(u).get(1, 0), den, exps

    monkeypatch.setattr(cocycles, "_bilinear_power", faulty)
    rng = random.Random(5)
    draws = [ExponentVector([rng.randint(0, 5) for _ in range(3)]) for _ in range(120)]
    first = next(k for k in range(0, 120, 3) if draws[k][1])  # the first x with x[1] != 0 fails
    assert cocycles.sample_cocycle_equation(mu, 40, 5) == cocycles.CheckReport(
        False, counterexample=tuple(draws[first:first + 3]))
    assert cocycles.sample_cocycle_equation(mu, first // 3, 5) == cocycles.CheckReport(True)


def test_sampled_check_takes_one_sparse_form_per_vector_and_adds_unchecked(monkeypatch):
    # each triple reads the sparse forms of x, y, z, y+z and x+y once, and adds the two sums
    # through ExponentVector._trusted: the reports stay those of the checked sums
    mu = rand_cocycle(random.Random(84), 3)
    real = cocycles._bilinear_power

    def faulty(matrix, u, v):  # not a cocycle: an extra factor 2^u[2] (u is sparse)
        num, den, exps = real(matrix, u, v)
        return num * 2 ** dict(u).get(2, 0), den, exps

    passing = cocycles.sample_cocycle_equation(mu, 100, 3)
    with monkeypatch.context() as patch:
        patch.setattr(cocycles, "_bilinear_power", faulty)
        failing = cocycles.sample_cocycle_equation(mu, 100, 3)
    assert passing and not failing and failing.counterexample is not None
    calls = []
    monkeypatch.setattr(cocycles, "_nonzero", lambda u: calls.append(u) or _nonzero(u))

    def refuse(self, other):
        raise AssertionError("the sampled check added through the checked ExponentVector.__add__")

    monkeypatch.setattr(ExponentVector, "__add__", refuse)
    assert cocycles.sample_cocycle_equation(mu, 100, 3) == passing
    assert len(calls) == 500
    monkeypatch.setattr(cocycles, "_bilinear_power", faulty)
    assert cocycles.sample_cocycle_equation(mu, 100, 3) == failing


@pytest.mark.parametrize("samples,error,message", [
    (-1, ValueError, "samples must be >= 0, got -1"),
    (True, TypeError, "samples must be an int, got True"),
    (2.0, TypeError, "samples must be an int, got 2.0"),
], ids=["negative", "bool", "float"])
def test_sampled_check_checks_samples(samples, error, message):
    with pytest.raises(error) as exc:
        cocycles.sample_cocycle_equation(BimultiplicativeCocycle.trivial(2), samples)
    assert str(exc.value) == message


def test_truncated_table_must_be_complete():
    with pytest.raises(ValueError, match="missing"):
        TruncatedCocycle(1, 3, {})


def test_truncated_product_is_entrywise_on_the_smaller_domain():
    rng = random.Random(57)
    mu, nu = rand_cocycle(rng, 2), rand_cocycle(rng, 2)
    product = TruncatedCocycle.truncate(mu, 3) * TruncatedCocycle.truncate(nu, 2)
    assert product == TruncatedCocycle.truncate(mu * nu, 2)
    assert TruncatedCocycle.truncate(mu, 2).__mul__(mu) is NotImplemented
    with pytest.raises(ValueError) as exc:
        TruncatedCocycle.truncate(mu, 2) * TruncatedCocycle.truncate(rand_cocycle(rng, 1), 2)
    assert str(exc.value) == "rank mismatch in truncated cocycle product"


# -- rank-1 trivialization ----------------------------------------------------

def test_trivialize_rank1_of_trivial():
    mu_t = TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(1), 8)
    h = trivialize_rank1(mu_t)
    assert all(v.is_one() for v in h.table.values())


def test_trivialize_rank1_roundtrip():
    rng = random.Random(57)
    for _ in range(20):
        h0 = rand_function(rng, 1, 12, normalize_generators=True)
        recovered = trivialize_rank1(coboundary(h0))
        assert recovered == h0


def test_trivialize_rank1_closed_form():
    # independent oracle: unroll the recurrence h(g^{p+1}) = h(g^p)/mu(g, g^p)
    # by hand for the bimultiplicative [[c]], giving h(g^p) = c^(-p(p-1)/2)
    c = UnitScalar(Fraction(5, 3), {"q": 1})
    mu = BimultiplicativeCocycle([[c]])
    bound = 10
    mu_t = TruncatedCocycle.truncate(mu, bound)
    h = trivialize_rank1(mu_t)
    expected = UnitScalar.one()
    for p in range(bound + 1):
        assert h.value(ExponentVector((p,))) == expected
        assert expected == c ** (-(p * (p - 1) // 2))
        expected = expected / (c ** p)
    assert coboundary(h) == mu_t


def test_trivialize_rank1_rejects_bad_rank_and_non_cocycle():
    with pytest.raises(ValueError, match="rank 1"):
        trivialize_rank1(TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), 4))
    rng = random.Random(58)
    h = rand_function(rng, 1, 6)
    broken = coboundary(h).perturbed(ExponentVector((1,)), ExponentVector((1,)), UnitScalar(3))
    with pytest.raises(ValueError, match="cocycle equation"):
        trivialize_rank1(broken)


# -- Yamazaki trivialization --------------------------------------------------

def product_form_function(rng, split, bound):
    """Random h on N^(a+b) with h = 1 on each factor (so delta(h) qualifies)."""
    one = UnitScalar.one()

    def value(w):
        s, t = split.split(w)
        if s.degree() == 0 or t.degree() == 0:
            return one
        return rand_unit(rng)

    return FunctionOnMonoid.from_function(split.rank, bound, value)


def test_yamazaki_trivialize_trivial():
    mu_t = TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), 6)
    h = yamazaki_trivialize(mu_t, ProductSplit(1, 1))
    assert all(v.is_one() for v in h.table.values())


def test_yamazaki_trivialize_roundtrip():
    rng = random.Random(59)
    for a, b in [(1, 1), (2, 1), (2, 2)]:
        split = ProductSplit(a, b)
        bound = 6
        h0 = product_form_function(rng, split, bound)
        mu_t = coboundary(h0)
        h = yamazaki_trivialize(mu_t, split)
        assert coboundary(h) == mu_t


def test_yamazaki_trivialize_rejects_nontrivial_pairing():
    alpha = Pairing([[UnitScalar.param("q")]])
    sigma = yamazaki_reconstruct(BimultiplicativeCocycle.trivial(1),
                                 BimultiplicativeCocycle.trivial(1), alpha)
    mu_t = TruncatedCocycle.truncate(sigma, 6)
    with pytest.raises(ValueError, match="cross pairing"):
        yamazaki_trivialize(mu_t, ProductSplit(1, 1))


def test_yamazaki_trivialize_rejects_nontrivial_restriction():
    q = AntisymmetricMatrix.from_upper(2, {(0, 1): UnitScalar.param("q")})
    mu = canonical_from_antisym(q)
    big = yamazaki_reconstruct(mu, BimultiplicativeCocycle.trivial(1), Pairing.trivial(2, 1))
    mu_t = TruncatedCocycle.truncate(big, 6)
    with pytest.raises(ValueError, match="left factor"):
        yamazaki_trivialize(mu_t, ProductSplit(2, 1))


def test_yamazaki_trivialize_checks_the_split_and_the_normalization():
    mu_t = TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), 3)
    with pytest.raises(ValueError) as exc:
        yamazaki_trivialize(mu_t, ProductSplit(1, 2))
    assert str(exc.value) == "split rank 3 does not match cocycle rank 2"
    g, e = ExponentVector((0, 1)), ExponentVector((0, 0))
    off = mu_t.perturbed(g, e, UnitScalar(2)).perturbed(e, g, UnitScalar(2))
    with pytest.raises(ValueError) as exc:
        yamazaki_trivialize(off, ProductSplit(1, 1))
    assert str(exc.value) == "identity normalization fails: mu([0, 0], [0, 1]) = 2"


# -- symmetric trivializer ----------------------------------------------------

def test_symmetric_trivializer_all_ones():
    h = symmetric_trivializer(BimultiplicativeCocycle.trivial(3))
    rng = random.Random(60)
    for _ in range(20):
        assert h(rand_vector(rng, 3)).is_one()


def test_symmetric_trivializer_rank1_closed_form():
    # oracle: (a+b)(a+b-1)/2 - a(a-1)/2 - b(b-1)/2 = ab, so with
    # h(g^p) = c^(-p(p-1)/2) the coboundary is delta(h)(g^a, g^b) = c^(ab)
    c = UnitScalar(Fraction(2, 7), {"q": -1})
    sigma = BimultiplicativeCocycle([[c]])
    h = symmetric_trivializer(sigma)
    for p in range(9):
        assert h(ExponentVector((p,))) == c ** (-(p * (p - 1) // 2))
    for a in range(5):
        for b in range(5):
            ga, gb = ExponentVector((a,)), ExponentVector((b,))
            assert h(ga) * h(gb) / h(ga + gb) == c ** (a * b)


def test_symmetric_trivializer_coboundary_identity():
    rng = random.Random(61)
    sigma = rand_symmetric_cocycle(rng, 3)
    h = symmetric_trivializer(sigma)
    for _ in range(100):
        u, v = rand_vector(rng, 3), rand_vector(rng, 3)
        assert h(u) * h(v) / h(u + v) == sigma.evaluate(u, v)


def test_symmetric_trivializer_rejects_asymmetric():
    q = UnitScalar.param("q")
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_trivializer(BimultiplicativeCocycle([[ONE, q], [ONE, ONE]]))


# -- the integer unit kernel against the definition ---------------------------

def reference_power(pairs):
    """prod a^e computed with UnitScalar's own __pow__ and __mul__."""
    out = ONE
    for a, e in pairs:
        out = out * a ** e
    return out


def reference_bilinear(matrix, u, v):
    return reference_power((matrix[i][j], u[i] * v[j])
                           for i in range(len(u)) for j in range(len(v)))


def negative_unit(rng):
    """A unit with a negative coefficient and a denominator > 1 more often than not."""
    u = rand_unit(rng)
    return u if u.coeff < 0 else -u


def test_bilinear_kernel_is_the_power_of_its_pairs():
    # _bilinear_power(M, su, sv) is _power over the pairs (M_ij, u_i v_j) of the two sparse forms, triple for triple
    rng = random.Random(35)
    q, r = UnitScalar.param("q"), UnitScalar.param("r")

    def units(rows, columns):  # about a third of the entries are 1, which the integer form holds as None
        return [[ONE if rng.random() < 0.35 else rand_unit(rng) for _ in range(columns)] for _ in range(rows)]

    # a square form whose parameter exponents cancel at u = v = (1, 1), with a 1 entry
    cancel = BimultiplicativeCocycle([[UnitScalar(Fraction(-2, 3), {"q": 1}), q.inv() * r], [r.inv(), ONE]])
    forms = [cancel] + [BimultiplicativeCocycle(units(rank, rank)) for rank in (1, 2, 3, 4)]
    forms += [Pairing(units(rows, columns)) for rows, columns in ((1, 3), (3, 1), (2, 4), (4, 3))]
    one = ExponentVector((1, 1))
    assert cocycles._bilinear_power(cancel._integer, _nonzero(one), _nonzero(one)) == (-2, 3, ())
    seen = {"none": 0, "empty": 0, "cancelled": 0}
    for form in forms:
        rows, columns = form._shape
        matrix = form._integer
        vectors = [(rand_vector(rng, rows, 3), rand_vector(rng, columns, 3)) for _ in range(25)]
        vectors += [(ExponentVector.zero(rows), rand_vector(rng, columns)),
                    (rand_vector(rng, rows), ExponentVector.zero(columns)), (one, one)][:3 if (rows, columns) == (2, 2) else 2]
        for u, v in vectors:
            su, sv = _nonzero(u), _nonzero(v)
            got = cocycles._bilinear_power(matrix, su, sv)
            assert got == scalars._power([(matrix[i][j], ui * vj) for i, ui in su for j, vj in sv])
            assert UnitScalar._trusted(Fraction(got[0], got[1]), got[2]) == form.evaluate(u, v)
            seen["none"] += any(matrix[i][j] is None for i, _ in su for j, _ in sv)
            seen["empty"] += not su or not sv
            seen["cancelled"] += bool(su and sv) and got[2] == () and form.parameters() != frozenset()
    assert min(seen.values()) > 0, seen


def test_integer_kernel_matches_unit_arithmetic():
    rng = random.Random(64)
    q, r = UnitScalar.param("q"), UnitScalar.param("r")
    # entries whose parameter exponents cancel in every product below
    cancel = BimultiplicativeCocycle([[UnitScalar(Fraction(-2, 3), {"q": 1}), q.inv() * r],
                                      [r.inv(), UnitScalar(-5)]])
    assert cancel.evaluate(ExponentVector((1, 1)), ExponentVector((1, 1))) == UnitScalar(Fraction(10, 3))
    assert cancel.evaluate(ExponentVector((1, 1)), ExponentVector((1, 1))).exps == ()
    for rank in (1, 2, 3, 4):
        for _ in range(8):
            mu = BimultiplicativeCocycle(
                [[negative_unit(rng) for _ in range(rank)] for _ in range(rank)])
            alpha = Pairing([[negative_unit(rng) for _ in range(rank + 1)] for _ in range(rank)])
            sym = rand_symmetric_cocycle(rng, rank)
            sym = BimultiplicativeCocycle([[-a for a in row] for row in sym.matrix])
            h = symmetric_trivializer(sym)
            nu = rand_cocycle(rng, rank)
            source, target = TwistedMonoidAlgebra(mu), TwistedMonoidAlgebra(nu)
            images = [negative_unit(rng) for _ in range(rank)]
            phi = GradedHomomorphism(source, target, MonoidMorphism.identity(rank),
                                     [target.basis_element(ExponentVector.unit(rank, k), s)
                                      for k, s in enumerate(images)])
            ratio = [[nu.entry(k, l) / mu.entry(k, l) for l in range(rank)] for k in range(rank)]
            for _ in range(10):
                u, v, w = rand_vector(rng, rank), rand_vector(rng, rank), rand_vector(rng, rank + 1)
                assert mu.evaluate(u, v) == reference_bilinear(mu.matrix, u, v)
                assert alpha.evaluate(u, w) == reference_bilinear(alpha.matrix, u, w)
                assert h(u) == reference_power(
                    [(sym.entry(i, i), -(u[i] * (u[i] - 1) // 2)) for i in range(rank)]
                    + [(sym.entry(i, j), -u[i] * u[j])
                       for i in range(rank) for j in range(i + 1, rank)])
                unit, degree = phi.image_of_basis(u)
                assert degree == u
                assert unit == reference_power(
                    [(images[k], u[k]) for k in range(rank)]
                    + [(ratio[k][k], u[k] * (u[k] - 1) // 2) for k in range(rank)]
                    + [(ratio[k][l], u[k] * u[l]) for k in range(rank) for l in range(k + 1, rank)])
            # negative exponents: the sign of a negative coefficient moves out of the denominator
            entries = [*map(_integer_unit, mu.matrix[0])]
            exponents = [rng.randint(-4, 4) for _ in range(rank)]
            assert (_unit_of(scalars._power(zip(entries, exponents)))
                    == reference_power(zip(mu.matrix[0], exponents)))
            bigger = ExponentVector((1,) * (rank + 1))
            with pytest.raises(ValueError):
                mu.evaluate(bigger, bigger)
            with pytest.raises(ValueError):
                alpha.evaluate(bigger, bigger)
            with pytest.raises(ValueError):
                h(bigger)
            with pytest.raises(ValueError):
                phi.image_of_basis(bigger)
    assert _unit_of(scalars._power([((-2, 3, ()), -3)])).coeff == Fraction(-27, 8)
    for _ in range(200):
        a, b = rand_unit(rng), rand_unit(rng)
        exps = dict(a.exps)
        for name, e in b.exps:
            exps[name] = exps.get(name, 0) + e
        product = UnitScalar(a.coeff * b.coeff, exps)
        assert (a * b).exps == tuple(sorted((n, e) for n, e in exps.items() if e))
        assert a * b == product and hash(a * b) == hash(product)
        assert hash(a * b * b.inv()) == hash(UnitScalar(a.coeff, dict(a.exps)))


# -- serialization ------------------------------------------------------------

def test_cocycle_json_roundtrip():
    rng = random.Random(62)
    mu = rand_cocycle(rng, 3)
    assert BimultiplicativeCocycle.from_json(mu.to_json()) == mu
    q = rand_antisym(rng, 3)
    assert AntisymmetricMatrix.from_json(q.to_json()) == q
    alpha = rand_pairing(rng, 2, 3)
    assert Pairing.from_json(alpha.to_json()) == alpha
    assert BimultiplicativeCocycle.from_json([]) == BimultiplicativeCocycle([])  # rank 0 is no shape fault


@pytest.mark.parametrize("cls,data", [
    (BimultiplicativeCocycle, ["qr", "rq"]),
    (Pairing, "ab"),
    (AntisymmetricMatrix, {"1": 0}),
    (Pairing, [["q"], "r"]),
    (BimultiplicativeCocycle, 5),
    (BimultiplicativeCocycle, [["3/0"], "1"]),
], ids=["string-rows", "string", "object", "string-row", "int", "bad-literal-before-string-row"])
def test_from_json_refuses_a_matrix_that_is_not_a_list_of_lists(cls, data):
    # the first four once built a matrix of one-character literals; the shape is checked before any literal
    with pytest.raises(TypeError) as exc:
        cls.from_json(data)
    assert str(exc.value) == "a unit matrix must be a list of rows, each a list of unit literals"


# -- the body shared by cocycles, antisymmetric matrices and pairings ----------

def test_unit_forms_keep_their_behaviour():
    q = UnitScalar.param("q")
    empty = BimultiplicativeCocycle([])
    assert empty.rank == 0 and empty * empty == empty and empty.inverse() == empty
    with pytest.raises(ValueError):
        BimultiplicativeCocycle.trivial(2) * BimultiplicativeCocycle.trivial(3)
    with pytest.raises(ValueError):
        Pairing.trivial(2, 3) * Pairing.trivial(3, 2)
    anti = AntisymmetricMatrix.from_upper(2, {(0, 1): q})
    same_entries = BimultiplicativeCocycle(anti.matrix)
    assert same_entries != anti and anti != same_entries and len({anti, same_entries}) == 2
    alpha = Pairing([[q, ONE, q.inv()]])
    assert Pairing.from_json(alpha.to_json()) == alpha
    assert hash(Pairing.from_json(alpha.to_json())) == hash(alpha)
    assert len({alpha, Pairing(alpha.matrix), alpha * Pairing.trivial(1, 3)}) == 1
    assert repr(canonical_from_antisym(anti)) == "BimultiplicativeCocycle([['1', 'q'], ['1', '1']])"
    assert repr(anti) == "AntisymmetricMatrix([['1', 'q'], ['q^-1', '1']])"
    assert repr(alpha) == "Pairing([['q', '1', 'q^-1']])"


@pytest.mark.parametrize("cls", [BimultiplicativeCocycle, AntisymmetricMatrix])
@pytest.mark.parametrize("rows", [[[ONE, ONE]], [[ONE], [ONE]]], ids=["1x2", "2x1"])
def test_square_forms_refuse_a_non_square_matrix(cls, rows):
    with pytest.raises(ValueError) as exc:
        cls(rows)
    assert str(exc.value) == "matrix must be square"


@pytest.mark.parametrize("cls", [BimultiplicativeCocycle, AntisymmetricMatrix, Pairing])
def test_unit_forms_refuse_entries_that_are_not_units(cls):
    with pytest.raises(TypeError) as exc:
        cls([[ONE, 2], [1, ONE]])
    assert str(exc.value) == "matrix entries must be UnitScalar, got 2"
    with pytest.raises(ValueError) as exc:
        cls([[ONE, ONE], [ONE]])
    assert str(exc.value) == "matrix rows must have equal length"


@pytest.mark.parametrize("build", [lambda: Pairing([]), lambda: Pairing([[]]), lambda: Pairing([[], []]),
                                   lambda: Pairing.trivial(0, 2), lambda: Pairing.trivial(2, 0)],
                         ids=["no-rows", "empty-row", "empty-rows", "trivial-0x2", "trivial-2x0"])
def test_pairings_need_a_generator_on_each_side(build):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == "pairings need at least one generator on each side"


@pytest.mark.parametrize("left,right,shape", [(2, 1, (1, 2)), (2, 1, (2, 2)), (1, 3, (3, 1))])
def test_reconstruct_needs_the_pairing_shape_of_its_factors(left, right, shape):
    nu, xi = BimultiplicativeCocycle.trivial(left), BimultiplicativeCocycle.trivial(right)
    with pytest.raises(ValueError) as exc:
        yamazaki_reconstruct(nu, xi, Pairing.trivial(*shape))
    assert str(exc.value) == f"pairing shape {shape[0]}x{shape[1]} does not match ranks {left}, {right}"


def test_check_reports_are_one_type():
    assert CocycleCheck is MultiplicativityReport is HomomorphismReport
    report = HomomorphismReport(False, 3, 7, ("X0", "X1"))
    assert (report.passed, report.pairs_checked, report.seed, report.counterexample) == (
        False, 3, 7, ("X0", "X1"))
    assert bool(report) is report.passed is report.ok is False
    assert bool(HomomorphismReport(True, 3, 7)) is HomomorphismReport(True, 3, 7).ok is True


#: The public names of each module before its three matrix classes shared one
#: body; every one of them still resolves.
PUBLIC_NAMES = {
    "qtwist": """AlgebraElement AntisymmetricMatrix BimultiplicativeCocycle ClosedFormFunction
        CocycleCheck DiagonalScaling ExponentVector FactorTwistReport FunctionOnMonoid
        GradedHomomorphism HomomorphismReport LaurentPolynomial MonoidMorphism
        MultiplicativityReport Pairing ProductSplit SegreMap TruncatedCocycle TwistedMonoidAlgebra
        UnitScalar antisymmetrize build_quantum_segre canonical_from_antisym coboundary
        coboundary_isomorphism cohomologous deformation_matrix embed_left embed_right factor_twist
        is_factorizable kernel_basis kronecker parse_element parse_poly parse_unit pullback
        quantum_projective_space random_element random_homogeneous random_unit random_vector
        render_element render_poly render_unit segre_morphism source_deformation_matrix specialize
        symmetric_trivializer trivialize_rank1 twist_by twisted_tensor_product vectors_of_degree
        vectors_up_to_degree verify_cocycle_equation verify_homomorphism yamazaki_factorize
        yamazaki_reconstruct yamazaki_trivialize""",
    "qtwist.cocycles": """AntisymmetricMatrix BimultiplicativeCocycle ClosedFormFunction CocycleCheck
        DEFAULT_DEGREE_BOUND ExponentVector FunctionOnMonoid Pairing TruncatedCocycle UnitScalar
        antisymmetrize canonical_from_antisym coboundary cohomologous is_factorizable parse_unit
        pullback render_unit symmetric_trivializer trivialize_rank1 vectors_up_to_degree
        verify_cocycle_equation yamazaki_factorize yamazaki_reconstruct yamazaki_trivialize""",
    "qtwist.algebras": """AlgebraElement BimultiplicativeCocycle DiagonalScaling ExponentVector
        FactorTwistReport GradedHomomorphism HomomorphismReport LaurentPolynomial MonoidMorphism
        MultiplicativityReport Pairing ProductSplit TwistedMonoidAlgebra UnitScalar antisymmetrize
        canonical_from_antisym coboundary_isomorphism cohomologous deformation_matrix embed_left
        embed_right factor_twist parse_element parse_poly pullback quantum_projective_space
        random_element random_homogeneous random_unit random_vector render_element render_poly
        twist_by twisted_tensor_product verify_homomorphism yamazaki_factorize""",
    "qtwist.segre": """AlgebraElement AntisymmetricMatrix BimultiplicativeCocycle GradedHomomorphism
        HomomorphismReport LaurentPolynomial ProductSplit SegreMap TwistedMonoidAlgebra
        antisymmetrize build_quantum_segre kernel_basis kronecker segre_morphism
        source_deformation_matrix vectors_of_degree verify_homomorphism""",
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_still_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in PUBLIC_NAMES[module].split() if not hasattr(mod, name)] == []


def test_traced_methods_are_in_their_class_namespace(monkeypatch):
    # The benchmark tracer (bench/spans.py) patches Class.attr through vars(Class),
    # so an inherited method would make it fail at install time.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    spans = importlib.import_module("spans")
    missing = []
    for layer, entries in spans.LAYERS.items():
        module = importlib.import_module(f"qtwist.{layer}")
        for path in entries:
            if "." in path:
                cls_name, attr = path.split(".")
                if attr not in vars(getattr(module, cls_name)):
                    missing.append(f"{layer}.{path}")
    assert missing == []


def test_unit_forms_multiply_only_their_own_type():
    with pytest.raises(TypeError):
        BimultiplicativeCocycle.trivial(2) * Pairing.trivial(2, 2)
    with pytest.raises(TypeError):
        AntisymmetricMatrix.from_upper(2, {}) * BimultiplicativeCocycle.trivial(2)


@pytest.mark.parametrize("key", [(1, 0), (0, 0), (0, 2), (-1, 1)])
def test_from_upper_takes_only_strict_upper_indices(key):
    with pytest.raises(ValueError) as exc:
        AntisymmetricMatrix.from_upper(2, {key: UnitScalar.param("q")})
    assert str(exc.value) == f"upper-triangle index out of range: ({key[0]},{key[1]})"


def test_symmetric_trivializer_takes_a_plain_matrix():
    rng = random.Random(64)
    c = rand_symmetric_cocycle(rng, 3)
    h = symmetric_trivializer([list(row) for row in c.matrix])
    assert h.truncate(3) == symmetric_trivializer(c).truncate(3)
    assert coboundary(h.truncate(3)) == TruncatedCocycle.truncate(c, 3)


def test_tables_look_up_only_their_domain():
    mu_t = TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(1), 2)
    h = FunctionOnMonoid.constant_one(2, 1)
    u, v = ExponentVector((2,)), ExponentVector((1,))
    assert mu_t.value(u, ExponentVector((0,))) == ONE and h.value(ExponentVector((0, 1))) == ONE
    for lookup, message in [
            (lambda: mu_t.value(u, v),
             "pair (ExponentVector([2]), ExponentVector([1])) is outside the truncated domain"),
            (lambda: mu_t.value(ExponentVector((0, 0)), ExponentVector((0, 0))),
             "pair (ExponentVector([0, 0]), ExponentVector([0, 0])) is outside the truncated domain"),
            (lambda: h.value(ExponentVector((1, 1))), "ExponentVector([1, 1]) is outside the truncated domain"),
            (lambda: h.value(ExponentVector((0,))), "ExponentVector([0]) is outside the truncated domain")]:
        with pytest.raises(ValueError) as exc:
            lookup()
        assert str(exc.value) == message


def test_tables_compare_within_their_type_and_repr_their_shape():
    mu_t = TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), 3)
    h = FunctionOnMonoid.constant_one(2, 3)
    assert mu_t != h and h != mu_t and mu_t != mu_t.table and not h == 1
    assert mu_t == TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), 3)
    assert len({mu_t, coboundary(h), h, FunctionOnMonoid.constant_one(2, 3)}) == 2
    assert repr(mu_t) == "TruncatedCocycle(rank=2, degree_bound=3)"
    assert repr(h) == "FunctionOnMonoid(rank=2, degree_bound=3)"


def test_truncated_json_roundtrip():
    rng = random.Random(63)
    mu_t = TruncatedCocycle.truncate(rand_cocycle(rng, 2), 4)
    data = mu_t.to_json()
    assert TruncatedCocycle.from_json(2, 4, data) == mu_t


def test_truncate_is_evaluate_on_the_domain():
    rng = random.Random(34)
    for rank in range(1, 5):
        mu = rand_cocycle(rng, rank)
        for bound in range(6):
            expected = {(u, v): mu.evaluate(u, v) for u, v in graded_pairs(rank, bound)}
            table = TruncatedCocycle.truncate(mu, bound).table
            assert table == expected and list(table) == list(expected)
            assert all(type(w) is ExponentVector for pair in table for w in pair)
    h = rand_function(rng, 3, 3)
    assert all(type(w) is ExponentVector for pair in coboundary(h).table for w in pair)


# -- reading tables: each distinct literal is parsed once ----------------------

#: Literals with repeats and with two spellings of one unit ("2/4*q", "1/2*q").
LITERALS = ("1", "1", "q", "-3/2*q^2*r^-1", "2/4*q", "1/2*q", "q", "1")


def repeated_literal_data(rank, bound, arity):
    """JSON items of the truncated domain whose values cycle through LITERALS (h(e) = "1")."""
    if arity == 2:
        keys = [{"u": list(u), "v": list(v)} for u, v in reference_pairs(rank, bound)]
    else:
        keys = [{"u": list(u)} for u in vectors_up_to_degree(rank, bound)]
    return [{**key, "value": LITERALS[i % len(LITERALS)]} for i, key in enumerate(keys)]


def table_key(item):
    u = ExponentVector(item["u"])
    return (u, ExponentVector(item["v"])) if "v" in item else u


@pytest.mark.parametrize("cls,arity", [(TruncatedCocycle, 2), (FunctionOnMonoid, 1)])
def test_from_json_parses_each_distinct_literal_once(monkeypatch, cls, arity):
    data = repeated_literal_data(2, 3, arity)
    expected = {table_key(item): parse_unit(item["value"]) for item in data}
    parsed = []
    monkeypatch.setattr(scalars, "parse_unit", lambda text: parsed.append(text) or parse_unit(text))
    table = cls.from_json(2, 3, data).table
    assert table == expected and list(table) == list(expected)
    assert sorted(parsed) == sorted(set(LITERALS))
    by_literal = {}
    for item in data:
        unit = table[table_key(item)]
        assert by_literal.setdefault(item["value"], unit) is unit


@pytest.mark.parametrize("cls,arity", [(TruncatedCocycle, 2), (FunctionOnMonoid, 1)])
def test_from_json_names_the_first_bad_item(cls, arity):
    def build(changes):
        data = repeated_literal_data(2, 3, arity)
        for index, change in changes.items():
            data[index].update(change)
        return lambda: cls.from_json(2, 3, data)

    # a bad literal that repeats is named at its first occurrence, before a later bad one
    with pytest.raises(ValueError, match=r"malformed factor: 'q\^' in 'q\^'"):
        build({2: {"value": "q^"}, 3: {"value": "3/0"}, 5: {"value": "q^"}})()
    with pytest.raises(ValueError, match="zero denominator in '3/0'"):
        build({2: {"value": "3/0"}, 3: {"value": "q^"}, 5: {"value": "3/0"}})()
    for value in (["1"], 1):
        with pytest.raises(TypeError) as exc:
            build({2: {"value": value}, 3: {"value": "q^"}, 5: {"value": value}})()
        assert str(exc.value) == f"unit literal must be a string, got {value!r}"
    # a bad key is reported before a bad value in the same item, and after one in an earlier item
    with pytest.raises(TypeError, match="exponent vector entries must be ints, got '0'"):
        build({2: {"u": ["0", 1], "value": "q^"}})()
    with pytest.raises(ValueError, match="zero denominator"):
        build({2: {"value": "3/0"}, 3: {"u": ["0", 1]}})()


# -- reading table keys: each distinct key is checked once ---------------------

def rank1_data_with_key(arity, key):
    """Rank-1, bound-2 JSON items whose last key holding [1] (or [2], for a function) is `key`.

    An earlier item already holds [1], so a bad key comes after an equal or
    equally hashing good one.
    """
    data = repeated_literal_data(1, 2, arity)
    data[-2 if arity == 2 else -1]["u"] = key
    return data


@pytest.mark.parametrize("cls,arity", [(TruncatedCocycle, 2), (FunctionOnMonoid, 1)])
@pytest.mark.parametrize("key,error,message", [
    ([True], TypeError, "exponent vector entries must be ints, got True"),
    ([1.0], TypeError, "exponent vector entries must be ints, got 1.0"),
    ([-1], ValueError, "exponent vectors have nonnegative entries: (-1,)"),
    ([[1]], TypeError, "exponent vector entries must be ints, got [1]"),
    (5, TypeError, "exponent vector must be an iterable of ints, got 5"),
    (None, TypeError, "exponent vector must be an iterable of ints, got None"),
    (["1"], TypeError, "exponent vector entries must be ints, got '1'"),
], ids=["bool", "float", "negative", "unhashable", "not-iterable", "null", "string"])
def test_from_json_checks_a_bad_key_after_a_good_one(cls, arity, key, error, message):
    with pytest.raises(error) as exc:
        cls.from_json(1, 2, rank1_data_with_key(arity, key))
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("cls,arity", [(TruncatedCocycle, 2), (FunctionOnMonoid, 1)])
def test_from_json_reads_int_subclass_entries_as_the_plain_vector(cls, arity):
    exponent = IntEnum("Exponent", {"ONE": 1, "TWO": 2})
    plain = cls.from_json(1, 2, repeated_literal_data(1, 2, arity))
    enum = cls.from_json(1, 2, rank1_data_with_key(arity, [exponent.ONE if arity == 2 else exponent.TWO]))
    assert enum == plain and list(enum.table) == list(plain.table)


def test_from_json_shares_one_vector_per_distinct_key_within_a_call():
    data = repeated_literal_data(2, 3, 2)
    first, second = (TruncatedCocycle.from_json(2, 3, data).table for _ in range(2))
    vectors = [w for pair in first for w in pair]
    shared = {}
    assert all(shared.setdefault(w, w) is w for w in vectors) and len(shared) == graded_count(2, 3)
    assert not {*map(id, vectors)} & {id(w) for pair in second for w in pair}


# -- the truncated layer's integer kernel against public unit arithmetic -------

def reference_pairs(rank, bound):
    """The truncated domain in table order: u by degree, then v by degree."""
    return [(u, v) for u in vectors_up_to_degree(rank, bound)
            for v in vectors_up_to_degree(rank, bound - u.degree())]


def reference_verify(mu_t):
    """The exhaustive ordered scan in UnitScalar * and ==: (passed, first counterexample)."""
    n, bound = mu_t.rank, mu_t.degree_bound
    zero = ExponentVector.zero(n)
    for u in vectors_up_to_degree(n, bound):
        if mu_t.value(u, zero) != ONE or mu_t.value(zero, u) != ONE:
            return False, ("identity", u)
    for x in vectors_up_to_degree(n, bound):
        for y in vectors_up_to_degree(n, bound - x.degree()):
            for z in vectors_up_to_degree(n, bound - x.degree() - y.degree()):
                lhs = mu_t.value(x, y + z) * mu_t.value(y, z)
                rhs = mu_t.value(x, y) * mu_t.value(x + y, z)
                if lhs != rhs:
                    return False, (x, y, z)
    return True, None


#: Perturbing factors: a pure rational, a pure monomial, and a general unit.
FACTORS = (UnitScalar(-1), UnitScalar.param("q"), UnitScalar(Fraction(3, 5), {"r": -2}))


def oracle_tables(rng, count):
    """Seeded (kind, table) pairs of rank 1-4 and D <= 6: truncations, coboundaries and perturbations.

    A table is perturbed at one pair: with |u|, |v| >= 1 ("inner"), on an
    axis ("axis"), or with |u|, |v| >= 2 ("deep"), off the generator rows, so
    that no triple with a generator x reads the perturbed entry directly as
    mu(x, .).
    """
    for i in range(count):
        kind = ("truncation", "coboundary", "inner", "axis", "deep")[i % 5]
        rank, bound = rng.randint(1, 4), rng.randint(4 if kind == "deep" else 1, 6)
        if kind == "truncation":
            table = TruncatedCocycle.truncate(rand_cocycle(rng, rank), bound)
        else:
            table = coboundary(rand_function(rng, rank, bound))
        pairs = reference_pairs(rank, bound)
        if kind in ("inner", "deep") and bound >= 2:
            least = 1 if kind == "inner" else 2
            inside = [(u, v) for u, v in pairs if min(u.degree(), v.degree()) >= least]
            table = table.perturbed(*rng.choice(inside), FACTORS[i % 3])
        elif kind == "axis":
            axes = [(u, v) for u, v in pairs if (u.degree() == 0) != (v.degree() == 0)]
            table = table.perturbed(*rng.choice(axes), FACTORS[i % 3])
        yield kind, table


def test_verify_matches_the_reference_scan():
    # The full scan stays here as the oracle: the library checks generator-first triples only.
    rng = random.Random(64)
    outcomes = {"pass": 0, "identity": 0, "triple": 0, "deep": 0}
    for kind, table in oracle_tables(rng, 60):
        check = verify_cocycle_equation(table)
        assert (check.passed, check.counterexample) == reference_verify(table)
        outcome = "pass" if check else "identity" if check.counterexample[0] == "identity" else "triple"
        outcomes[outcome] += 1
        if kind == "deep":
            assert outcome == "triple" and check.counterexample[0].degree() == 1
            outcomes["deep"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_coboundary_matches_public_arithmetic():
    rng = random.Random(65)
    for _ in range(12):
        rank, bound = rng.randint(1, 3), rng.randint(0, 5)
        h = rand_function(rng, rank, bound)
        delta = coboundary(h)
        assert list(delta.table) == reference_pairs(rank, bound)
        for (u, v), val in delta.table.items():
            assert val == h.value(u) * h.value(v) / h.value(u + v)


def cancelling_function(rng, rank, bound, split=None):
    """A seeded h with values 1, -c*q^|u| and c*q^|u| times a random unit, so q often cancels in delta(h).

    With a `split` (a, b), h is 1 on both factors: on every u whose first a
    or last b entries are all 0.
    """
    def value(u):
        kind = rng.randrange(3)
        if kind == 0 or not any(u) or (split and not (any(u[:split[0]]) and any(u[split[0]:]))):
            return ONE
        c = UnitScalar(-rng.randint(1, 7), {"q": sum(u)})
        return c if kind == 1 else c * rand_unit(rng, ("r", "s"))

    return FunctionOnMonoid.from_function(rank, bound, value)


def test_coboundary_values_are_the_unit_arithmetic_of_h():
    # each value is h(u) h(v) / h(u+v), by == and by its literal: h = 1 values, negative
    # coefficients, q exponents that cancel, and a rank-3, D = 6 h that is 1 on both factors
    rng = random.Random(39)
    shapes = [(1, 6, None), (2, 5, None), (3, 4, None), (3, 6, (1, 2))]
    seen = {"one": 0, "negative": 0, "cancelled": 0}
    for rank, bound, split in shapes:
        h = cancelling_function(rng, rank, bound, split)
        delta = coboundary(h)
        assert list(delta.table) == reference_pairs(rank, bound)
        for (u, v), val in delta.table.items():
            hu, hv, huv = h.value(u), h.value(v), h.value(u + v)
            expected = hu * hv / huv
            assert (val, str(val)) == (expected, str(expected))
            # the checked constructor sums the exponents with no _merge_exps, and drops the zeros itself
            assert val == UnitScalar(hu.coeff * hv.coeff / huv.coeff,
                                     [*hu.exps, *hv.exps, *((name, -e) for name, e in huv.exps)])
            seen["one"] += val.is_one()
            seen["negative"] += val.coeff < 0
            seen["cancelled"] += "q" in (hu * hv).parameters() and "q" not in val.parameters()
    assert min(seen.values()) >= 50, seen


def test_coboundary_makes_no_power_product(monkeypatch):
    # coboundary values come from the three-form kernel; _power keeps the other products
    h = cancelling_function(random.Random(40), 3, 6, (1, 2))
    expected = TruncatedCocycle.from_function(3, 6, lambda u, v: h.value(u) * h.value(v) / h.value(u + v))

    def faulty(pairs):
        raise AssertionError("coboundary called _power")

    monkeypatch.setattr(cocycles, "_power", faulty)
    monkeypatch.setattr(scalars, "_power", faulty)
    assert coboundary(h) == expected


# -- table validation ----------------------------------------------------------

def test_table_keys_must_be_exponent_vectors():
    plain = {((u,), (v,)): ONE for u in range(3) for v in range(3 - u)}
    with pytest.raises(TypeError) as exc:
        TruncatedCocycle(1, 2, plain)
    assert str(exc.value) == "table key ((0,), (0,)) is not a pair of exponent vectors"
    table = TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(1), 2).table
    g = ExponentVector((1,))
    mixed = {pair: val for pair, val in table.items() if pair != (g, g)}
    mixed[(g, (1,))] = ONE
    with pytest.raises(TypeError, match=r"table key \(ExponentVector\(\[1\]\), \(1,\)\)"):
        TruncatedCocycle(1, 2, mixed)
    with pytest.raises(TypeError, match=r"table key ExponentVector\(\[1\]\) is not a pair"):
        TruncatedCocycle(1, 2, {**table, g: ONE})
    with pytest.raises(TypeError) as exc:
        FunctionOnMonoid(1, 2, {ExponentVector((0,)): ONE, g: ONE, (2,): ONE})
    assert str(exc.value) == "table key (2,) is not an exponent vector"


def function_table(rank, bound):
    return {u: ONE for u in vectors_up_to_degree(rank, bound)}


def cocycle_table(rank, bound):
    return {pair: ONE for pair in reference_pairs(rank, bound)}


def test_table_validation_names_the_bad_key():
    e, g, g2, g3 = (ExponentVector((k,)) for k in range(4))
    full = cocycle_table(1, 2)
    missing = {pair: val for pair, val in full.items() if pair != (g, g)}
    swapped = {**missing, (g2, g): ONE}
    cases = [
        (missing, "table is missing the pair (ExponentVector([1]), ExponentVector([1]))"),
        ({**full, (g2, g): ONE},
         "table pair (ExponentVector([2]), ExponentVector([1])) exceeds the degree bound 2"),
        (swapped, "table pair (ExponentVector([2]), ExponentVector([1])) exceeds the degree bound 2"),
        ({**full, (ExponentVector((0, 0)), ExponentVector((0, 1))): ONE},
         "table pair (ExponentVector([0, 0]), ExponentVector([0, 1])) does not have rank 1"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError) as exc:
            TruncatedCocycle(1, 2, table)
        assert str(exc.value) == message
        data = [{"u": list(u), "v": list(v), "value": "1"} for u, v in table]
        with pytest.raises(ValueError) as exc:
            TruncatedCocycle.from_json(1, 2, data)
        assert str(exc.value) == message
    full = function_table(1, 2)
    cases = [
        ({e: ONE, g: ONE}, "table is missing ExponentVector([2])"),
        ({**full, g3: ONE}, "table entry ExponentVector([3]) is outside the domain"),
        ({e: ONE, g: ONE, g3: ONE}, "table entry ExponentVector([3]) is outside the domain"),
        ({**full, ExponentVector((0, 1)): ONE}, "table entry ExponentVector([0, 1]) is outside the domain"),
        ({**full, e: UnitScalar(2)}, "functions on the monoid must satisfy h(e) = 1"),
        ({g: ONE, g2: ONE}, "functions on the monoid must satisfy h(e) = 1"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError) as exc:
            FunctionOnMonoid(1, 2, table)
        assert str(exc.value) == message
        data = [{"u": list(u), "value": str(val)} for u, val in table.items()]
        with pytest.raises(ValueError) as exc:
            FunctionOnMonoid.from_json(1, 2, data)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        FunctionOnMonoid.from_function(1, 2, lambda u: UnitScalar(2))
    assert str(exc.value) == "functions on the monoid must satisfy h(e) = 1"
    assert TruncatedCocycle(1, 2, cocycle_table(1, 2)) == TruncatedCocycle.from_function(1, 2, lambda u, v: ONE)
    assert FunctionOnMonoid(2, 3, function_table(2, 3)) == FunctionOnMonoid.constant_one(2, 3)


def test_tables_accept_item_lists():
    e, g = ExponentVector((0,)), ExponentVector((1,))
    items = [(e, ONE), (g, ONE)]
    assert FunctionOnMonoid(1, 1, items) == FunctionOnMonoid.constant_one(1, 1)
    assert TruncatedCocycle(1, 0, [((e, e), ONE)]) == TruncatedCocycle.from_function(1, 0, lambda u, v: ONE)
    with pytest.raises(ValueError) as exc:
        FunctionOnMonoid(1, 1, [(e, UnitScalar(2)), (g, ONE)])
    assert str(exc.value) == "functions on the monoid must satisfy h(e) = 1"


def test_table_values_must_be_units():
    e, g = ExponentVector((0,)), ExponentVector((1,))
    with pytest.raises(TypeError) as exc:
        TruncatedCocycle(1, 0, {(e, e): 5})
    assert str(exc.value) == "table value 5 at (ExponentVector([0]), ExponentVector([0])) is not a UnitScalar"
    with pytest.raises(TypeError) as exc:
        FunctionOnMonoid(1, 1, {e: ONE, g: "q"})
    assert str(exc.value) == "table value 'q' at ExponentVector([1]) is not a UnitScalar"
    with pytest.raises(TypeError, match="at ExponentVector"):
        FunctionOnMonoid(1, 1, {e: 1, g: ONE})
    with pytest.raises(ValueError, match=r"h\(e\) = 1"):
        FunctionOnMonoid(1, 1, {e: 5, g: ONE})
    with pytest.raises(TypeError) as exc:
        TruncatedCocycle.from_function(1, 1, lambda u, v: 5)
    assert str(exc.value) == "table value 5 at (ExponentVector([0]), ExponentVector([0])) is not a UnitScalar"
    with pytest.raises(TypeError) as exc:
        FunctionOnMonoid.from_function(1, 1, lambda u: ONE if u == e else "q")
    assert str(exc.value) == "table value 'q' at ExponentVector([1]) is not a UnitScalar"


@pytest.mark.parametrize("rank,bound", [(0, 2), (0, 0), (1, -1), (2, -3)])
def test_truncated_domains_need_rank_and_bound(rank, bound):
    mu = BimultiplicativeCocycle.trivial(rank)
    zero = ExponentVector.zero(rank)
    builds = [
        lambda: TruncatedCocycle(rank, bound, {}),
        lambda: TruncatedCocycle(rank, bound, {(zero, zero): ONE}),
        lambda: TruncatedCocycle.from_json(rank, bound, []),
        lambda: TruncatedCocycle.from_function(rank, bound, lambda u, v: ONE),
        lambda: TruncatedCocycle.truncate(mu, bound),
        lambda: FunctionOnMonoid(rank, bound, {zero: ONE}),
        lambda: FunctionOnMonoid.from_json(rank, bound, [{"u": list(zero), "value": "1"}]),
        lambda: FunctionOnMonoid.from_function(rank, bound, lambda u: ONE),
        lambda: FunctionOnMonoid.constant_one(rank, bound),
        lambda: symmetric_trivializer(mu).truncate(bound),
    ]
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == (
            f"truncated domains need rank >= 1 and degree bound >= 0, got {rank} and {bound}")


def test_function_tables_check_each_key_before_building_any_vector():
    # a rank of 10**30 once built the zero vector for h(e) = 1 first (OverflowError)
    for build, message in [
            (lambda: FunctionOnMonoid(10 ** 30, 2, {ExponentVector((0,)): ONE}),
             "table entry ExponentVector([0]) is outside the domain"),
            (lambda: FunctionOnMonoid(-1, 2, {}),
             "truncated domains need rank >= 1 and degree bound >= 0, got -1 and 2")]:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_a_key_listed_twice_is_refused():
    e, g = ExponentVector((0,)), ExponentVector((1,))
    # the last value once won silently: h(g) = 2 here
    with pytest.raises(ValueError) as exc:
        FunctionOnMonoid(1, 1, [(e, ONE), (g, ONE), (g, UnitScalar(2))])
    assert str(exc.value) == "table key ExponentVector([1]) is listed more than once"
    with pytest.raises(ValueError) as exc:
        FunctionOnMonoid.from_json(1, 1, [{"u": [0], "value": "1"}, {"u": [1], "value": "q"},
                                          {"u": [1], "value": "q"}])
    assert str(exc.value) == "table key ExponentVector([1]) is listed more than once"
    items = [((e, e), ONE), ((e, g), ONE), ((g, e), ONE), ((e, g), UnitScalar(7))]
    with pytest.raises(ValueError) as exc:
        TruncatedCocycle(1, 1, items)
    assert str(exc.value) == "table key (ExponentVector([0]), ExponentVector([1])) is listed more than once"
    data = [{"u": list(u), "v": list(v), "value": str(val)} for (u, v), val in items]
    with pytest.raises(ValueError) as exc:
        TruncatedCocycle.from_json(1, 1, data)
    assert str(exc.value) == "table key (ExponentVector([0]), ExponentVector([1])) is listed more than once"
    assert TruncatedCocycle(1, 1, items[:3]) == TruncatedCocycle.from_function(1, 1, lambda u, v: ONE)


def test_a_key_is_checked_before_it_is_stored():
    # a list key once failed in the dict of every item, before its check ("unhashable type: 'list'")
    for build, message in [
            (lambda: TruncatedCocycle(1, 0, [([[0], [0]], ONE)]),
             "table key [[0], [0]] is not a pair of exponent vectors"),
            (lambda: FunctionOnMonoid(1, 0, [([0], ONE)]), "table key [0] is not an exponent vector")]:
        with pytest.raises(TypeError) as exc:
            build()
        assert str(exc.value) == message


def test_a_repeat_is_refused_before_a_later_fault():
    # a repeat was once named only after every later item passed its checks
    e, g, g2 = (ExponentVector((k,)) for k in range(3))
    items = [(e, ONE), (g, ONE), (g, ONE), (g2, ONE)]
    for build in (lambda: FunctionOnMonoid(1, 1, items),
                  lambda: FunctionOnMonoid.from_json(1, 1, [{"u": list(u), "value": "1"} for u, _ in items])):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "table key ExponentVector([1]) is listed more than once"
    pairs = [((e, e), ONE), ((e, g), ONE), ((e, g), ONE), ((g, g), ONE)]
    for build in (lambda: TruncatedCocycle(1, 1, pairs),
                  lambda: TruncatedCocycle(1, 1, pairs[:3] + [((g, e), 5)]),
                  lambda: TruncatedCocycle.from_json(
                      1, 1, [{"u": list(u), "v": list(v), "value": "1"} for (u, v), _ in pairs])):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "table key (ExponentVector([0]), ExponentVector([1])) is listed more than once"


def test_a_json_table_is_refused_at_its_first_faulty_item():
    # from_json once read every item into a list first, so a later item missing "u" was named
    # before an earlier over-bound pair, and by Python's own KeyError text
    first, over, no_u = ({"u": [0], "v": [0], "value": "1"}, {"u": [9], "v": [0], "value": "1"},
                         {"v": [0], "value": "1"})
    fields = 'is not an object with the fields "u", "v", "value"'
    cases = [
        ([first, over, no_u], ValueError,
         "table pair (ExponentVector([9]), ExponentVector([0])) exceeds the degree bound 3"),
        ([first, no_u, over], TypeError, f"table item 1 {fields}"),
        ([5], TypeError, f"table item 0 {fields}"),
        ([first, [[0], [1], "1"]], TypeError, f"table item 1 {fields}"),
        ([first, {"u": [0], "v": [1]}], TypeError, f"table item 1 {fields}"),
        (first, TypeError, "table must be a list of items, got dict"),
        ("[]", TypeError, "table must be a list of items, got str"),
        # the readers of the fields keep their own messages
        ([first, {"u": [True], "v": [0], "value": "1"}], TypeError, "exponent vector entries must be ints, got True"),
        ([first, {"u": [1], "v": [0], "value": 1}], TypeError, "unit literal must be a string, got 1"),
    ]
    for data, error, message in cases:
        with pytest.raises(error) as exc:
            TruncatedCocycle.from_json(1, 3, data)
        assert str(exc.value) == message
    for data, message in [([{"u": [0], "value": "1"}, {"value": "q"}],
                           'table item 1 is not an object with the fields "u", "value"'),
                          ("[]", "table must be a list of items, got str")]:
        with pytest.raises(TypeError) as exc:
            FunctionOnMonoid.from_json(1, 3, data)
        assert str(exc.value) == message


@pytest.mark.parametrize("build", [
    lambda: TruncatedCocycle(10 ** 30, 2, []),
    lambda: TruncatedCocycle(10 ** 30, 10 ** 30, []),
    lambda: FunctionOnMonoid(10 ** 30, 2, {}),
    lambda: TruncatedCocycle.from_json(10 ** 30, 2, []),
], ids=["rank", "rank-and-bound", "function-rank", "from-json-rank"])
def test_an_empty_table_is_missing_its_whole_domain(build):
    # with no key to refuse, a rank of 10**30 once failed building a missing vector (OverflowError),
    # and a bound of 10**30 beside it failed counting the domain in math.comb (OverflowError)
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == "table is missing every key of its domain"


def test_trusted_tables_are_tables_the_checked_constructor_accepts():
    rng = random.Random(38)
    mu_t, nu_t = TruncatedCocycle.truncate(rand_cocycle(rng, 2), 3), TruncatedCocycle.truncate(rand_cocycle(rng, 2), 2)
    g = ExponentVector((1, 0))
    trusted = [mu_t, coboundary(rand_function(rng, 2, 3)), mu_t * nu_t, mu_t.quotient(nu_t),
               mu_t.perturbed(g, g, UnitScalar.param("q"))]
    for table in trusted:
        rebuilt = type(table)(table.rank, table.degree_bound, table.table.items())
        assert rebuilt == table and list(rebuilt.table) == list(table.table)


def test_an_accepted_table_enumerates_nothing(monkeypatch):
    data = json.loads((Path(__file__).parent / "configs" / "cocycle_check_table.json").read_text())
    full = function_table(2, 3)
    expected = (TruncatedCocycle.from_json(data["rank"], data["degree_bound"], data["table"]),
                FunctionOnMonoid(2, 3, full))

    def walk(*args):
        raise AssertionError("an accepted table enumerated its domain")

    monkeypatch.setattr(monoids, "_vectors", walk)
    for name in ("graded_pairs", "graded_vectors", "vectors_up_to_degree"):
        monkeypatch.setattr(cocycles, name, walk)
    assert (TruncatedCocycle.from_json(data["rank"], data["degree_bound"], data["table"]),
            FunctionOnMonoid(2, 3, full)) == expected


def test_yamazaki_trivialize_reports_the_first_fault_in_table_order():
    q, r = UnitScalar.param("q"), UnitScalar.param("r")
    right_fault = (ExponentVector((0, 1)), ExponentVector((0, 1)))
    left_fault = (ExponentVector((1, 0)), ExponentVector((1, 0)))
    table = {**cocycle_table(2, 4), right_fault: q, left_fault: r}
    right_first = "restriction to the right factor is not trivial: mu([0, 1], [0, 1]) = q"
    left_first = "restriction to the left factor is not trivial: mu([1, 0], [1, 0]) = r"
    for order, message in [(list(table), right_first), (list(reversed(table)), left_first)]:
        mu_t = TruncatedCocycle(2, 4, {pair: table[pair] for pair in order})
        with pytest.raises(ValueError) as exc:
            yamazaki_trivialize(mu_t, ProductSplit(1, 1))
        assert str(exc.value) == message
    # the cross fault (u = (1, 0)) precedes the right fault (u = (0, 2)) in table order
    cross, later = (ExponentVector((1, 0)), ExponentVector((0, 1))), (ExponentVector((0, 2)), ExponentVector((0, 1)))
    mu_t = TruncatedCocycle(2, 4, {**cocycle_table(2, 4), cross: q, later: r})
    with pytest.raises(ValueError) as exc:
        yamazaki_trivialize(mu_t, ProductSplit(1, 1))
    assert str(exc.value) == "cross pairing is not trivial: mu([1, 0], [0, 1]) != mu([0, 1], [1, 0])"
