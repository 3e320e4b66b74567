import importlib
import random
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
    pullback,
    segre_morphism,
    symmetric_trivializer,
    trivialize_rank1,
    verify_cocycle_equation,
    yamazaki_factorize,
    yamazaki_reconstruct,
    yamazaki_trivialize,
)
from qtwist.algebras import GradedHomomorphism, TwistedMonoidAlgebra
from qtwist.cocycles import _integer_form, _unit_power
from qtwist.monoids import MonoidMorphism

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


def test_evaluate_rank_mismatch():
    mu = BimultiplicativeCocycle.trivial(2)
    with pytest.raises(ValueError):
        mu.evaluate(ExponentVector((1,)), ExponentVector((1, 0)))


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


def test_truncated_table_must_be_complete():
    with pytest.raises(ValueError, match="missing"):
        TruncatedCocycle(1, 3, {})


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
            entries = _integer_form(mu.matrix[0])
            exponents = [rng.randint(-4, 4) for _ in range(rank)]
            assert _unit_power(zip(entries, exponents)) == reference_power(zip(mu.matrix[0], exponents))
            bigger = ExponentVector((1,) * (rank + 1))
            with pytest.raises(ValueError):
                mu.evaluate(bigger, bigger)
            with pytest.raises(ValueError):
                alpha.evaluate(bigger, bigger)
            with pytest.raises(ValueError):
                h(bigger)
            with pytest.raises(ValueError):
                phi.image_of_basis(bigger)
    assert _unit_power([((-2, 3, ()), -3)]).coeff == Fraction(-27, 8)
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


def test_truncated_json_roundtrip():
    rng = random.Random(63)
    mu_t = TruncatedCocycle.truncate(rand_cocycle(rng, 2), 4)
    data = mu_t.to_json()
    assert TruncatedCocycle.from_json(2, 4, data) == mu_t
