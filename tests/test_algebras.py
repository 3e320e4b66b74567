import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from qtwist import (
    AlgebraElement,
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    DiagonalScaling,
    ExponentVector,
    GradedHomomorphism,
    LaurentPolynomial,
    MonoidMorphism,
    Pairing,
    ProductSplit,
    SegreMap,
    TwistedMonoidAlgebra,
    UnitScalar,
    build_quantum_segre,
    coboundary_isomorphism,
    deformation_matrix,
    embed_left,
    embed_right,
    factor_twist,
    kernel_basis,
    parse_element,
    parse_poly,
    quantum_projective_space,
    random_element,
    random_homogeneous,
    random_unit,
    random_vector,
    render_element,
    render_poly,
    render_unit,
    segre_morphism,
    symmetric_trivializer,
    twist_by,
    twisted_tensor_product,
    verify_homomorphism,
    yamazaki_factorize,
    yamazaki_reconstruct,
)

from helpers import (
    PARAMS,
    rand_antisym,
    rand_cocycle,
    rand_pairing,
    rand_poly,
    rand_symmetric_cocycle,
    rand_unit,
    rand_vector,
)

ZERO = LaurentPolynomial.zero()

ONE = UnitScalar.one()


def polynomial_algebra(rank, names=None):
    return TwistedMonoidAlgebra(BimultiplicativeCocycle.trivial(rank), names)


# -- multiplication -----------------------------------------------------------

@pytest.mark.parametrize("k", [-1, 3])
def test_generator_index_out_of_range_is_refused(k):
    with pytest.raises(ValueError, match=rf"index in 0..2, got {k}"):
        polynomial_algebra(3).generator(k)


def test_untwisted_product_is_commutative():
    A = polynomial_algebra(3)
    x0, x1 = A.generator(0), A.generator(1)
    assert x0 * x1 == x1 * x0
    assert render_element(x0 * x1) == "X0*X1"


def test_generator_products_pick_up_cocycle_values():
    rng = random.Random(70)
    q = rand_antisym(rng, 3)
    A = quantum_projective_space(q)
    for i in range(3):
        for j in range(i + 1, 3):
            gi = ExponentVector.unit(3, i)
            gj = ExponentVector.unit(3, j)
            assert A.generator(j) * A.generator(i) == A.basis_element(gi + gj)
            assert A.generator(i) * A.generator(j) == A.basis_element(gi + gj, q.entry(i, j))


def test_q_commutation_relations():
    rng = random.Random(71)
    q = rand_antisym(rng, 4)
    A = quantum_projective_space(q)
    beta = deformation_matrix(A)
    for i in range(4):
        for j in range(i + 1, 4):
            lhs = A.generator(j) * A.generator(i)
            rhs = (A.generator(i) * A.generator(j)).scaled(beta.entry(j, i))
            assert (lhs - rhs).is_zero()


def test_associativity_on_random_triples():
    rng = random.Random(72)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    for _ in range(100):
        x, y, z = (random_element(A, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_unitality():
    rng = random.Random(73)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    one = A.one()
    for _ in range(20):
        x = random_element(A, rng)
        assert one * x == x
        assert x * one == x


def test_grading_of_products():
    rng = random.Random(74)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    for _ in range(50):
        u, v = rand_vector(rng, 3), rand_vector(rng, 3)
        x = A.basis_element(u, rand_unit(rng))
        y = A.basis_element(v, rand_unit(rng))
        assert (x * y).homogeneous_degree() == u + v


def test_algebra_mismatch_rejected():
    A = polynomial_algebra(2)
    B = polynomial_algebra(3)
    with pytest.raises(ValueError):
        A.generator(0) * B.generator(0)


# -- quantum projective space --------------------------------------------------

def test_trivial_q_gives_polynomial_algebra():
    A = quantum_projective_space(AntisymmetricMatrix.trivial(3))
    assert A.cocycle.is_trivial()


def test_n1_commutation():
    q = UnitScalar.param("q")
    A = quantum_projective_space(AntisymmetricMatrix.from_upper(2, {(0, 1): q}))
    x0, x1 = A.generator(0), A.generator(1)
    assert x1 * x0 == (x0 * x1).scaled(q.inv())


def test_deformation_matrix_roundtrip():
    rng = random.Random(75)
    for _ in range(10):
        q = rand_antisym(rng, rng.randint(2, 5))
        assert deformation_matrix(quantum_projective_space(q)) == q


def test_deformation_matrix_trivial():
    assert deformation_matrix(polynomial_algebra(4)).is_trivial()


def test_deformation_matrix_invariant_under_symmetric_twist():
    rng = random.Random(76)
    for _ in range(10):
        A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
        sym = rand_symmetric_cocycle(rng, 3)
        assert deformation_matrix(twist_by(A, sym)) == deformation_matrix(A)


# -- twisting -----------------------------------------------------------------

def test_twist_by_trivial_is_identity():
    rng = random.Random(77)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    assert twist_by(A, BimultiplicativeCocycle.trivial(3)) == A


def test_twist_of_polynomial_algebra_is_quantum_space():
    rng = random.Random(78)
    q = rand_antisym(rng, 4)
    from qtwist import canonical_from_antisym
    assert twist_by(polynomial_algebra(4), canonical_from_antisym(q)) == quantum_projective_space(q)


def test_twist_by_inverse_undoes():
    rng = random.Random(79)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    nu = rand_cocycle(rng, 3)
    assert twist_by(twist_by(A, nu), nu.inverse()) == A


def test_twist_rank_mismatch():
    with pytest.raises(ValueError):
        twist_by(polynomial_algebra(2), BimultiplicativeCocycle.trivial(3))


# -- twisted tensor products ----------------------------------------------------

def test_classical_tensor_of_polynomial_algebras():
    B = polynomial_algebra(2, ["x0", "x1"])
    C = polynomial_algebra(2, ["y0", "y1"])
    T = twisted_tensor_product(B, C, Pairing.trivial(2, 2))
    assert T.cocycle.is_trivial()
    assert T.generator_names == ("x0", "x1", "y0", "y1")
    assert T.generator(0) * T.generator(2) == T.generator(2) * T.generator(0)


def test_single_generator_exchange():
    rng = random.Random(80)
    B = polynomial_algebra(2, ["x0", "x1"])
    C = polynomial_algebra(2, ["y0", "y1"])
    alpha = rand_pairing(rng, 2, 2)
    T = twisted_tensor_product(B, C, alpha)
    x = T.generator(0)   # x0 (x) 1
    y = T.generator(2)   # 1 (x) y0
    assert y * x == (x * y).scaled(alpha.entry(0, 0))


def test_block_cocycle_matches_tau():
    # with trivial factors the tensor cocycle is exactly tau((s,t),(s',t')) = alpha(s',t)
    rng = random.Random(81)
    B = polynomial_algebra(2, ["x0", "x1"])
    C = polynomial_algebra(3, ["y0", "y1", "y2"])
    alpha = rand_pairing(rng, 2, 3)
    T = twisted_tensor_product(B, C, alpha)
    split = ProductSplit(B.rank, C.rank)
    for _ in range(50):
        s, t = rand_vector(rng, 2), rand_vector(rng, 3)
        sp, tp = rand_vector(rng, 2), rand_vector(rng, 3)
        u = split.inject_left(s) + split.inject_right(t)
        v = split.inject_left(sp) + split.inject_right(tp)
        assert T.cocycle.evaluate(u, v) == alpha.evaluate(sp, t)


def test_tensor_cocycle_is_the_opposite_of_a_reconstruction():
    # tau((s,t),(s',t')) = alpha(s',t) is Yamazaki's sigma over the opposite factors, read backwards
    rng = random.Random(87)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 3), ["y0", "y1", "y2"])
    alpha = rand_pairing(rng, 2, 3)
    T = twisted_tensor_product(B, C, alpha)

    def opposite(mu):
        return BimultiplicativeCocycle(zip(*mu.matrix))

    factors = yamazaki_factorize(opposite(T.cocycle), ProductSplit(B.rank, C.rank))
    assert factors == (opposite(B.cocycle), opposite(C.cocycle), alpha)
    for _ in range(30):
        u, v = rand_vector(rng, 5), rand_vector(rng, 5)
        assert opposite(T.cocycle).evaluate(v, u) == T.cocycle.evaluate(u, v)


def test_interchange_law():
    rng = random.Random(82)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
    alpha = rand_pairing(rng, 2, 2)
    T = twisted_tensor_product(B, C, alpha)
    split = ProductSplit(B.rank, C.rank)
    for _ in range(50):
        u, v = rand_vector(rng, 2), rand_vector(rng, 2)
        cb, cc = rand_unit(rng), rand_unit(rng)
        b = embed_left(T, B.basis_element(u, cb))
        c = embed_right(T, C.basis_element(v, cc))
        # (b (x) 1) * (1 (x) c) is literally b (x) c ...
        bc = b * c
        assert bc == T.basis_element(split.inject_left(u) + split.inject_right(v), cb * cc)
        # ... and the reversed product pays the pairing
        assert c * b == bc.scaled(alpha.evaluate(u, v))


def test_embeddings_are_algebra_maps():
    rng = random.Random(83)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
    T = twisted_tensor_product(B, C, rand_pairing(rng, 2, 2))
    for _ in range(25):
        x1, x2 = random_element(B, rng), random_element(B, rng)
        assert embed_left(T, x1 * x2) == embed_left(T, x1) * embed_left(T, x2)
        y1, y2 = random_element(C, rng), random_element(C, rng)
        assert embed_right(T, y1 * y2) == embed_right(T, y1) * embed_right(T, y2)


def test_tensor_shape_mismatch():
    B, C = polynomial_algebra(2, ["a0", "a1"]), polynomial_algebra(1, ["b0"])
    for shape in [(3, 1), (1, 2), (2, 2)]:
        with pytest.raises(ValueError) as exc:
            twisted_tensor_product(B, C, Pairing.trivial(*shape))
        assert str(exc.value) == f"pairing shape {shape[0]}x{shape[1]} does not match ranks 2, 1"
    # the shape is checked before the generator names
    with pytest.raises(ValueError, match="pairing shape 2x2"):
        twisted_tensor_product(B, polynomial_algebra(1, ["a0"]), Pairing.trivial(2, 2))


def test_tensor_generator_name_collision():
    with pytest.raises(ValueError, match="generator names must be distinct"):
        twisted_tensor_product(polynomial_algebra(2), polynomial_algebra(2),
                               Pairing.trivial(2, 2))


# -- factorization of twisted tensor squares ------------------------------------

def test_factor_twist_trivial():
    B = polynomial_algebra(2, ["x0", "x1"])
    C = polynomial_algebra(2, ["y0", "y1"])
    report = factor_twist(B, C, BimultiplicativeCocycle.trivial(4))
    assert report.identical and report.cohomologous and report.factorizable
    assert report.twisted_classical.cocycle.is_trivial()


def test_factor_twist_sigma_case():
    rng = random.Random(84)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
    alpha = rand_pairing(rng, 2, 2)
    sigma = yamazaki_reconstruct(BimultiplicativeCocycle.trivial(2),
                                 BimultiplicativeCocycle.trivial(2), alpha)
    report = factor_twist(B, C, sigma)
    assert report.cohomologous
    assert not report.factorizable


def test_factor_twist_factorizable_is_classical_tensor_of_twists():
    rng = random.Random(85)
    nu, xi = rand_cocycle(rng, 2), rand_cocycle(rng, 2)
    mu = yamazaki_reconstruct(nu, xi, Pairing.trivial(2, 2))
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
    report = factor_twist(B, C, mu)
    assert report.factorizable and report.identical
    classical = twisted_tensor_product(twist_by(B, nu), twist_by(C, xi), Pairing.trivial(2, 2))
    assert report.tensor_of_twists == classical


def test_factor_twist_sides_are_isomorphic_twists():
    rng = random.Random(86)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
    mu = rand_cocycle(rng, 4)
    report = factor_twist(B, C, mu)
    assert report.cohomologous
    # both sides are twists of the classical tensor product by cohomologous
    # cocycles, so the diagonal scaling isomorphism connects them
    classical = twisted_tensor_product(B, C, Pairing.trivial(2, 2))
    residual = report.tensor_of_twists.cocycle * classical.cocycle.inverse()
    phi, verification = coboundary_isomorphism(classical, mu, residual, samples=25, seed=3)
    assert verification.passed
    assert phi.source == report.twisted_classical
    assert phi.target == report.tensor_of_twists


# -- scaling isomorphisms --------------------------------------------------------

def test_coboundary_isomorphism_identity_case():
    rng = random.Random(87)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    mu = rand_cocycle(rng, 3)
    phi, report = coboundary_isomorphism(A, mu, mu, samples=10, seed=0)
    assert report.passed
    x = random_element(phi.source, rng)
    assert phi(x).terms == x.terms


def test_coboundary_isomorphism_rank1_scaling():
    # mu = [[c]], nu = [[1]]: the scaling is h(g^p) = c^(-p(p-1)/2), the
    # closed form of the symmetric trivializer (checked against the
    # recurrence h(g^(p+1)) = h(g^p)/c^p)
    c = UnitScalar(Fraction(3, 4), {"q": 2})
    A = polynomial_algebra(1)
    phi, report = coboundary_isomorphism(A, BimultiplicativeCocycle([[c]]),
                                         BimultiplicativeCocycle.trivial(1),
                                         samples=25, seed=1)
    assert report.passed
    expected = UnitScalar.one()
    for p in range(8):
        assert phi.scale(ExponentVector((p,))) == expected
        expected = expected / (c ** p)


def test_coboundary_isomorphism_random_pairs():
    rng = random.Random(88)
    for _ in range(10):
        rank = rng.randint(2, 4)
        A = TwistedMonoidAlgebra(rand_cocycle(rng, rank))
        mu = rand_cocycle(rng, rank)
        nu = mu * rand_symmetric_cocycle(rng, rank)
        phi, report = coboundary_isomorphism(A, mu, nu, samples=50, seed=rng.randint(0, 999))
        assert report.passed
        inv = phi.inverse()
        x = random_element(phi.source, rng)
        assert inv(phi(x)) == x


def test_coboundary_isomorphism_requires_cohomologous():
    rng = random.Random(89)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 2))
    mu, nu = rand_cocycle(rng, 2), rand_cocycle(rng, 2)
    if not (deformation_matrix(TwistedMonoidAlgebra(mu)) ==
            deformation_matrix(TwistedMonoidAlgebra(nu))):
        with pytest.raises(ValueError, match="cohomologous"):
            coboundary_isomorphism(A, mu, nu)


# -- the integer kernel of multiply and apply -------------------------------------

def reference_product(x, y):
    """x * y term pair by term pair through public unit and polynomial arithmetic."""
    out = {}
    for u, p in x.terms.items():
        for v, q in y.terms.items():
            w = u + v
            out[w] = out.get(w, ZERO) + (p * q).scaled(x.algebra.cocycle.evaluate(u, v))
    return {w: c for w, c in out.items() if not c.is_zero()}


def reference_image(phi, x):
    """phi(x) through public polynomial arithmetic on the basis images."""
    out = {}
    for u, p in x.terms.items():
        c, w = phi.image_of_basis(u)
        out[w] = out.get(w, ZERO) + p.scaled(c)
    return {w: c for w, c in out.items() if not c.is_zero()}


def assert_canonical(x):
    for u, p in x.terms.items():
        assert u.rank == x.algebra.rank and p.terms
        assert all(c != 0 and isinstance(c, Fraction) for c in p.terms.values())
        assert all(key == tuple(sorted(key)) and all(e for _, e in key) for key in p.terms)


def poly_element(rng, algebra, max_terms=3):
    """Random element whose coefficients are multi-term polynomials with negative exponents."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rand_vector(rng, algebra.rank, 3)] = rand_poly(rng, max_terms=4)
    return algebra.element(terms)


def cancelling_pair(rng, algebra):
    """(x, y) with x = a e_u + b e_u', y = c e_v + d e_v', u + v' = u' + v, and d making that term 0."""
    rank = algebra.rank
    u, u2, s = (rand_vector(rng, rank, 2) for _ in range(3))
    v, v2 = u + s, u2 + s
    a, b, c = (rand_unit(rng) for _ in range(3))
    mu = algebra.cocycle.evaluate
    d = -(b * c * mu(u2, v) / (a * mu(u, v2)))
    x = algebra.element({u: LaurentPolynomial.from_unit(a), u2: LaurentPolynomial.from_unit(b)})
    y = algebra.element({v: LaurentPolynomial.from_unit(c), v2: LaurentPolynomial.from_unit(d)})
    return x, y, u + v2


def test_multiply_matches_public_arithmetic():
    rng = random.Random(801)
    multi_term = cancelled = 0
    for _ in range(40):
        A = TwistedMonoidAlgebra(rand_cocycle(rng, rng.randint(1, 4)))
        x, y = poly_element(rng, A), poly_element(rng, A)
        multi_term += any(len(p.terms) > 1 for p in x.terms.values())
        z = x * y
        assert_canonical(z)
        assert z.terms == reference_product(x, y)
        x, y, w = cancelling_pair(rng, A)
        z = x * y
        assert_canonical(z)
        assert z.terms == reference_product(x, y)
        if len(x.terms) == 2:  # u != u': the two contributions to e_w cancel
            cancelled += 1
            assert w not in z.terms
    assert multi_term > 20 and cancelled > 20


def test_multiply_cancels_parameter_exponents():
    # mu(e0, e0) = q^-1*r^2: (q*r^-1*X0) * (-3*r^-1*X0) = -3*X0^2, a key with no parameters
    A = TwistedMonoidAlgebra(BimultiplicativeCocycle([[UnitScalar(1, {"q": -1, "r": 2})]]))
    x = A.basis_element(ExponentVector((1,)), UnitScalar(1, {"q": 1, "r": -1}))
    y = A.basis_element(ExponentVector((1,)), UnitScalar(-3, {"r": -1}))
    z = x * y
    assert z.terms == {ExponentVector((2,)): LaurentPolynomial({(): -3})}
    assert list(z.terms[ExponentVector((2,))].terms) == [()]
    assert (x * (y - y)).terms == {}


def test_apply_matches_public_arithmetic():
    rng = random.Random(802)
    for _ in range(30):
        rank, trank = rng.randint(1, 4), rng.randint(1, 3)
        A = TwistedMonoidAlgebra(rand_cocycle(rng, rank))
        B = TwistedMonoidAlgebra(rand_cocycle(rng, trank))
        f = MonoidMorphism(rank, trank, [rand_vector(rng, trank, 2) for _ in range(rank)])
        phi = GradedHomomorphism(A, B, f, [B.basis_element(w, rand_unit(rng))
                                           for w in f.generator_images])
        for x in (poly_element(rng, A), random_element(A, rng)):
            image = phi(x)
            assert_canonical(image)
            assert image.terms == reference_image(phi, x)


def test_apply_cancels_within_a_fiber():
    # e0 and e1 both go to a unit times X0, so a e0 + b e1 with b = -a*s0/s1 maps to 0
    rng = random.Random(803)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 2))
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 1))
    s0, s1, a = rand_unit(rng), rand_unit(rng), rand_unit(rng)
    g = ExponentVector((1,))
    phi = GradedHomomorphism(A, B, MonoidMorphism(2, 1, [g, g]),
                             [B.basis_element(g, s0), B.basis_element(g, s1)])
    x = A.element({ExponentVector((1, 0)): LaurentPolynomial.from_unit(a),
                   ExponentVector((0, 1)): LaurentPolynomial.from_unit(-(a * s0 / s1))})
    assert phi(x).terms == {} == reference_image(phi, x)
    y = x + A.generator(0) * A.generator(1)
    assert phi(y).terms == reference_image(phi, y) != {}


def negative_unit_segre(rng):
    """A (1, 2) Segre map whose generator images carry the units -2/3 and 5*q^-1 in turn.

    Its source is the pulled-back twist, so the map stays multiplicative;
    a monomial with an odd number of -2/3 factors has a negative c_u, so a
    kernel ratio c_u / c_u0 is a `_power` form whose denominator is < 0.
    """
    segre = build_quantum_segre(1, 2, rand_cocycle(rng, 5))
    units = [UnitScalar(Fraction(-2, 3)), UnitScalar(5, {"q": -1})]
    phi = GradedHomomorphism(segre.source, segre.target, segre.morphism,
                             [segre.target.basis_element(w, units[k % 2])
                              for k, w in enumerate(segre.morphism.generator_images)])
    return SegreMap(1, 2, segre.ambient_cocycle, phi)


def assert_canonical_forms(*polys):
    for p in polys:
        for key, (num, den) in p.forms.items():
            assert num != 0 and den > 0 and gcd(num, den) == 1, (key, num, den)
            assert key == tuple(sorted(key)) and all(e for _, e in key)


def test_stored_forms_are_canonical_after_every_producer():
    # every producer stores reduced (num, den) pairs with den > 0 and num != 0, the kernel ratios of units
    # with negative numerators included
    rng = random.Random(842)
    values = {name: Fraction(k + 2, 3) for k, name in enumerate(PARAMS)}
    checked = [LaurentPolynomial({(("q", 1),): Fraction(4, -6), (): 6, (("r", -2),): Fraction(-9, 12)}),
               LaurentPolynomial([((("q", 1),), 2), ((("q", 1), ("r", 0)), Fraction(-5, 10))])]
    assert checked[0].terms == {(("q", 1),): Fraction(-2, 3), (): 6, (("r", -2),): Fraction(-3, 4)}
    with pytest.raises(AttributeError):  # `terms` is made from the stored pairs on each read
        checked[0].terms = {}
    polys = [rand_poly(rng) for _ in range(30)] + checked
    for p, q in zip(polys, polys[1:]):
        assert_canonical_forms(p, p + q, p - q, p * q, -p, p * UnitScalar(Fraction(-3, 9), {"r": 1}), p * -4)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    segre = negative_unit_segre(rng)
    phi = segre.homomorphism
    drawn = [random_element(A, rng) for _ in range(30)]
    sources = [random_element(segre.source, rng) for _ in range(30)] + [poly_element(rng, segre.source)]
    elements = drawn + [A.multiply(x, y) for x, y in zip(drawn, drawn[1:])] + sources + [phi.apply(x) for x in sources]
    kernel = kernel_basis(segre, 2, values) + kernel_basis(segre, 3, values)
    elements += kernel
    elements.append(parse_element(A, "-4/6*q^-1*X0 + (6/4 - 2/8*r)*X1 - 12/18*X0"))
    for x in elements:
        assert_canonical_forms(*x.terms.values())
    for x in elements:
        assert_canonical_forms(*parse_element(x.algebra, render_element(x)).terms.values())
    # some fibers start at a c_u0 < 0, so their ratio's `_power` form has a negative denominator
    assert any(phi._unit(min(x.terms))[0] < 0 for x in kernel)


def test_the_element_path_makes_no_fraction(monkeypatch):
    # a polynomial stores reduced int pairs, so sampling, products, images through a map with negative and
    # parameter units, element == and !=, rendering and a whole Segre verification with samples make no Fraction
    rng = random.Random(843)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    phi = negative_unit_segre(rng).homomorphism
    square = build_quantum_segre(2, 2, rand_cocycle(rng, 6)).homomorphism

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} made on the element path")

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", refuse)
        xs = [random_element(A, rng) for _ in range(12)]
        products = [A.multiply(x, y) for x, y in zip(xs, xs[1:])]
        assert products == [A.multiply(x, y) for x, y in zip(xs, xs[1:])]
        assert all(z != w for z, w in zip(products, products[1:]))
        sources = [random_element(phi.source, rng) for _ in range(12)]
        for x, y in zip(sources, sources[1:]):
            assert phi._apply(x * y) == phi.target.multiply(phi._apply(x), phi._apply(y)) != phi._apply(x)
        literals = [render_element(z) for z in xs + products + sources]
        report = verify_homomorphism(square, samples=20, seed=7)
    assert report and report.pairs_checked == 9 ** 2 + 20  # nine source generators
    assert all(parse_element(z.algebra, text) == z for z, text in zip(xs + products + sources, literals))
    assert any(c.den > 1 or c.num < 0 for z in products for p in z.terms.values() for c in p.units())


def test_rank_rules_are_reported_by_the_callee():
    A = polynomial_algebra(2)
    with pytest.raises(ValueError) as exc:
        A.basis_element(ExponentVector((1, 0, 0)))
    assert str(exc.value) == "rank mismatch: term must have rank 2, got 3"
    with pytest.raises(ValueError) as exc:
        factor_twist(A, polynomial_algebra(1, ["Y0"]), BimultiplicativeCocycle.trivial(2))
    assert str(exc.value) == "cocycle rank 2 does not match algebra rank 3"


def test_graded_homomorphism_rejects_bad_generator_images():
    A, B = polynomial_algebra(2), polynomial_algebra(1)
    g = ExponentVector((1,))
    f = MonoidMorphism(2, 1, [g, g])
    X = B.generator(0)
    not_a_unit = X.scaled(LaurentPolynomial.one() + LaurentPolynomial.from_param("q"))
    cases = [
        (MonoidMorphism.identity(2), [X, X], "monoid morphism ranks do not match the algebras"),
        (f, [X], "expected 2 generator images, got 1"),
        (f, [X, polynomial_algebra(1, ["Y"]).generator(0)],
         "generator image 1 does not live in the target algebra"),
        (f, [X, X + X * X], "generator image 1 must be a scalar multiple of a basis monomial"),
        (f, [X, X * X], "generator image 1 has degree ExponentVector([2]), expected ExponentVector([1])"),
        (f, [X, not_a_unit], "generator image 1 must have an invertible (single-term) coefficient"),
    ]
    for morphism, images, message in cases:
        with pytest.raises(ValueError) as exc:
            GradedHomomorphism(A, B, morphism, images)
        assert str(exc.value) == message


def test_a_source_parameter_is_not_a_target_generator_name():
    # the ratio matrix would carry q onto the target's generator q: e_2 |-> q^-1*q^2, unreadable
    S = TwistedMonoidAlgebra(BimultiplicativeCocycle.from_json([["q"]]), ["a"])
    T = polynomial_algebra(1, ["q"])
    with pytest.raises(ValueError) as exc:
        GradedHomomorphism(S, T, MonoidMorphism.identity(1), [T.generator(0)])
    assert str(exc.value) == "source cocycle parameter 'q' is a generator name of the target algebra"
    T = polynomial_algebra(1, ["b"])
    phi = GradedHomomorphism(S, T, MonoidMorphism.identity(1), [T.generator(0)])
    x = phi(S.basis_element(ExponentVector((2,))))
    assert render_element(x) == "q^-1*b^2" and parse_element(T, render_element(x)) == x


def test_apply_refuses_a_coefficient_parameter_that_is_a_target_generator_name():
    # X0*a on ["a"] would map to X0*X0 on ["X0"], which reads back as X0^2
    S, T = polynomial_algebra(1, ["a"]), polynomial_algebra(1, ["X0"])
    phi = GradedHomomorphism(S, T, MonoidMorphism.identity(1), [T.generator(0)])
    e = ExponentVector((1,))
    with pytest.raises(ValueError) as exc:
        phi(S.basis_element(e, LaurentPolynomial.from_param("X0")))
    assert str(exc.value) == "coefficient parameter 'X0' is a generator name of the target algebra"
    x = phi(S.basis_element(e, LaurentPolynomial.from_param("q")))
    assert render_element(x) == "q*X0" and parse_element(T, render_element(x)) == x


def test_embeddings_refuse_a_coefficient_parameter_that_is_a_generator_of_the_other_factor():
    # b*a of L would embed as b*a, whose b is R's generator, and the literal would read back as a*b
    L, R = polynomial_algebra(1, ["a"]), polynomial_algebra(1, ["b"])
    tensor = twisted_tensor_product(L, R, Pairing.trivial(1, 1))
    e = ExponentVector((1,))
    for embed, x, name in ((embed_left, L.basis_element(e, LaurentPolynomial.from_param("b")), "b"),
                           (embed_right, R.basis_element(e, LaurentPolynomial.from_param("a")), "a")):
        with pytest.raises(ValueError) as exc:
            embed(tensor, x)
        assert str(exc.value) == f"coefficient parameter {name!r} is a generator name of the target algebra"


def test_elements_times_scalars_from_both_sides():
    A = polynomial_algebra(2)
    x = parse_element(A, "q*X0 - X1^2")
    u = UnitScalar(2, {"r": 1})
    assert x * u == u * x == parse_element(A, "2*q*r*X0 - 2*r*X1^2")
    assert x * 3 == 3 * x == parse_element(A, "3*q*X0 - 3*X1^2")
    assert x * Fraction(1, 2) == Fraction(1, 2) * x == parse_element(A, "1/2*q*X0 - 1/2*X1^2")
    p = parse_poly("1 + r")
    assert x * p == p * x == x.scaled(p) == parse_element(A, "(1 + r)*q*X0 - (1 + r)*X1^2")
    assert (x * 0).is_zero() and (0 * x).is_zero()


@pytest.mark.parametrize("c,literal", [
    (2, "2*X0*X1^2"),
    (Fraction(-3, 5), "-3/5*X0*X1^2"),
    (0, "0"),
    (UnitScalar(2, {"q": -1}), "2*q^-1*X0*X1^2"),
    (parse_poly("1 - q"), "(1 - q)*X0*X1^2"),
], ids=["int", "fraction", "zero", "unit", "polynomial"])
def test_coefficients_coerce_alike_on_every_path(c, literal):
    A = polynomial_algebra(2)
    u = ExponentVector((1, 2))
    expected = parse_element(A, literal)
    assert A.basis_element(u, c) == A.basis_element(u).scaled(c) == expected
    assert A.zero().scaled(c).is_zero()
    assert AlgebraElement(A, {u: c}) == A.element({u: c}) == expected


@pytest.mark.parametrize("c", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_coefficients_refuse_floats_bools_and_strings(c):
    A = polynomial_algebra(2)
    u = ExponentVector((1, 0))
    builds = [lambda: A.basis_element(u, c), lambda: A.basis_element(u).scaled(c),
              lambda: A.zero().scaled(c), lambda: AlgebraElement(A, {u: c})]
    for build in builds:
        with pytest.raises(TypeError):
            build()


def test_element_sums_cancel_whole_and_partial_coefficients():
    rng = random.Random(805)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 1))
    overlapping = 0
    for _ in range(60):
        x, y = poly_element(rng, B), poly_element(rng, B)
        assert (x + (-x)).terms == {} and (x - x).is_zero()
        expected = {}
        for u, p in list(x.terms.items()) + list(y.terms.items()):
            expected[u] = expected.get(u, ZERO) + p
        z = x + y
        assert_canonical(z)
        assert z.terms == {u: p for u, p in expected.items() if not p.is_zero()}
        overlapping += bool(set(x.terms) & set(y.terms))
    assert overlapping > 15
    A = polynomial_algebra(2)
    x = parse_element(A, "(1 + q)*X0 + 2*X1")
    y = parse_element(A, "-q*X0 - 2*X1 + X0*X1")
    assert (x + y).terms == {ExponentVector((1, 0)): LaurentPolynomial.one(),
                             ExponentVector((1, 1)): LaurentPolynomial.one()}


def test_segre_kernel_elements_map_to_no_terms():
    rng = random.Random(804)
    for n, m in ((1, 1), (1, 2), (2, 2)):
        smap = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
        phi = smap.homomorphism
        values = {name: Fraction(2) for name in phi.source.parameters() | phi.target.parameters()}
        for degree in (2, 3):
            for k in kernel_basis(smap, degree, values):
                assert phi.apply(k).terms == {}
                assert reference_image(phi, k) == {}
                x = random_element(phi.source, rng)
                assert phi.apply(k + x) == phi.apply(x)


def test_random_element_stream_is_pinned():
    # the literals the sampler drew before its integer kernel: every seed draws the same samples
    A = TwistedMonoidAlgebra(BimultiplicativeCocycle.from_json(
        [["q", "-2/3*r^-1", "1"], ["5*q^-2*r", "1", "r^2"], ["-1", "7/4*q", "q^-1*r^-1"]]))
    rng = random.Random(2024)
    assert [render_element(random_element(A, rng)) for _ in range(8)] + [rng.randint(0, 10**9)] == [
        "-2/3*X2^3 + 4/7*r*X0*X1^3*X2^3",
        "3/2*X2^2 - 4*X1^2 - 2/7*q*r^2*X0^4*X1^3*X2^3",
        "r*X1^3*X2 + 2/7*r^2*X0^3*X2^4",
        "7/2*q^-1*r^-2 - r^-1*X1^2*X2^2",
        "1/4*r^-2*X0^3*X1^4",
        "-2*r^-1*X0*X1^3 - 3*q^-1*X0*X1^4",
        "1/2*q^2",
        "2*X0^2",
        872395752,
    ]
    # one generator and entries <= 1: repeated monomials, whose coefficients add
    A1 = TwistedMonoidAlgebra(BimultiplicativeCocycle.from_json([["q^-1*r"]]))
    rng = random.Random(7)
    drawn = [random_element(A1, rng, max_terms=6, max_entry=1) for _ in range(8)]
    assert [render_element(x) for x in drawn] + [rng.randint(0, 10**9)] == [
        "6/5*q^-1 - 1/4*q^-2*X0 - 6/7*r^-2*X0",
        "2/5*q^-1*r^-1 + 5/3*X0 + 5/3*q*r^-1*X0 - 2*r^-2*X0",
        "-7/2*r^-1 - 1/6*X0 + 7/6*q*r^2*X0 + 1/2*r^-2*X0 - 6/5*r*X0",
        "-61/12*X0 - 5/2*r^2*X0",
        "X0 - q*r^-2*X0 - 2*r^2*X0",
        "-2/5*q^-1 + 2/3*q^-2*X0",
        "-1/2*X0 - 4/5*q^2*X0 + 1/3*r^-1*X0",
        "24/5*X0",
        391524801,
    ]
    for x in drawn:
        assert_canonical(x)


# -- element literals -------------------------------------------------------------

def test_parse_identity_and_zero():
    A = polynomial_algebra(3)
    assert parse_element(A, "1") == A.one()
    assert parse_element(A, "0").is_zero()


def test_parse_two_term_element():
    A = polynomial_algebra(3)
    x = parse_element(A, "3/2*q*X0^2*X1 + X2")
    u = ExponentVector((2, 1, 0))
    v = ExponentVector((0, 0, 1))
    assert x == A.basis_element(u, UnitScalar(Fraction(3, 2), {"q": 1})) + A.basis_element(v)


def test_parse_polynomial_coefficient():
    A = polynomial_algebra(2)
    x = parse_element(A, "(1 + q)*X0")
    expected = A.basis_element(ExponentVector((1, 0)),
                               LaurentPolynomial.one() + LaurentPolynomial.from_param("q"))
    assert x == expected
    # rendering expands the polynomial coefficient into unit-coefficient terms
    assert render_element(x) == "X0 + q*X0"
    assert parse_element(A, render_element(x)) == x


def test_parse_element_reads_other_names_as_parameters():
    # declared parameters are the CLI's check (cli._check_declared), not the parser's
    A = polynomial_algebra(2)
    assert parse_element(A, "X0*Y1") == A.basis_element(ExponentVector((1, 0)), UnitScalar.param("Y1"))
    with pytest.raises(ValueError, match="positive"):
        parse_element(A, "X0^0")


def test_parse_element_errors():
    A = polynomial_algebra(2)
    bad_literals = ["", "-", "X0 +", "- -3*X0", "0*X0*%%", "+ - X1", "X0*2", "X0^0", "()*X0",
                    "X0**X1", "2X0", "(1 + q)X0", "(1 + q", "X0)", "3/0*X0", "q - -1*X0"]
    for bad in bad_literals:
        with pytest.raises(ValueError):
            parse_element(A, bad)


def test_parse_element_refuses_a_non_string_by_the_literal_rule():
    # a non-string once reached the sum splitter: 'int' object is not iterable
    A = polynomial_algebra(2)
    for value in (5, None, ["X0"]):
        with pytest.raises(TypeError) as exc:
            parse_element(A, value)
        assert str(exc.value) == f"element literal must be a string, got {value!r}"


def test_a_coefficient_ends_at_its_first_closing_parenthesis():
    # the coefficient grammar has no parentheses, so a nested one is an unbalanced coefficient
    A = polynomial_algebra(2)
    for literal in ["((q))*X0", "-((q))*X0", "X1 + ((q + 1))"]:
        with pytest.raises(ValueError) as exc:
            parse_element(A, literal)
        assert str(exc.value) in ("unbalanced parentheses in '(q'", "unbalanced parentheses in '(q + 1'")
    assert parse_element(A, "(q + 1)*X0 - (2*r)") == parse_element(A, "X0 + q*X0 - 2*r")


def test_parse_element_rejects_empty_product_and_signed_zero():
    A = polynomial_algebra(2)
    with pytest.raises(ValueError):
        parse_element(A, "(1 + q)*")
    for bad in ["X0 +-0", "X0 + -0", "X0 --0", "X0 + -0*X1"]:
        with pytest.raises(ValueError, match="double sign"):
            parse_element(A, bad)
    # one sign before "0" stays accepted; a negative rational after '+' is a second sign
    assert parse_element(A, "X0 - 0") == parse_element(A, "X0")
    assert parse_element(A, "0*X0 + X1") == parse_element(A, "X1") == A.generator(1)
    with pytest.raises(ValueError, match="double sign"):
        parse_element(A, "X0 + -3*X1")


def test_degree0_element_renders_as_its_coefficient():
    A = polynomial_algebra(2)
    rng = random.Random(92)
    for _ in range(100):
        p = rand_poly(rng)
        assert render_element(A.basis_element(ExponentVector.zero(2), p)) == render_poly(p)


def test_render_parse_roundtrip_corpus():
    rng = random.Random(90)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    for _ in range(100):
        x = random_element(A, rng)
        assert parse_element(A, render_element(x)) == x
    assert render_element(A.zero()) == "0"


def test_parse_element_canonicalizes_shuffled_literals():
    rng = random.Random(91)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    for _ in range(100):
        x = random_element(A, rng)
        pieces = []
        for u, p in x.terms.items():
            for unit in p.units():
                gens = [f"X{i}^{u[i]}" if u[i] > 1 else f"X{i}" for i in u.support()]
                params = [f"{n}^{e}" if e != 1 else n for n, e in unit.exps]
                sign = "- " if unit.coeff < 0 else "+ "
                pieces.append(sign + "*".join([str(abs(unit.coeff))] + params + gens))
        rng.shuffle(pieces)
        assert parse_element(A, " ".join(pieces)) == x


def test_element_json_terms():
    A = polynomial_algebra(2)
    x = parse_element(A, "2*X0 - X1")
    # canonical term order: by (degree, exponent tuple)
    assert x.to_json() == [
        {"exponents": [0, 1], "coefficient": "-1"},
        {"exponents": [1, 0], "coefficient": "2"},
    ]
    assert render_element(x) == "-X1 + 2*X0"


# -- every input check and small path, pinned ----------------------------------------

def test_generator_names_are_counted_and_distinct():
    mu = BimultiplicativeCocycle.trivial(2)
    for names, message in [(["a"], "expected 2 generator names, got 1"),
                           (["a", "b", "c"], "expected 2 generator names, got 3"),
                           (["a", "a"], "generator names must be distinct")]:
        with pytest.raises(ValueError) as exc:
            TwistedMonoidAlgebra(mu, names)
        assert str(exc.value) == message


def _cocycle(rows):
    return BimultiplicativeCocycle.from_json(rows)


@pytest.mark.parametrize("names,error,message", [
    ([1, 2], TypeError, "generator names must be strings, got 1"),
    ("X0", TypeError, "generator names must be a sequence of names, got the string 'X0'"),
    ("XY", TypeError, "generator names must be a sequence of names, got the string 'XY'"),
    (["a b", "c"], ValueError, "generator name 'a b' is not a name of the literal grammar"),
    (["1", "y"], ValueError, "generator name '1' is not a name of the literal grammar"),
    (["x^2", "y"], ValueError, "generator name 'x^2' is not a name of the literal grammar"),
    (["q", "y"], ValueError, "generator name 'q' is a parameter of the cocycle"),
], ids=["ints", "string", "letters-string", "space", "digit", "power", "parameter"])
def test_generator_names_are_grammar_names_that_are_not_parameters(names, error, message):
    mu = _cocycle([["1", "q"], ["1", "1"]])
    with pytest.raises(error) as exc:
        TwistedMonoidAlgebra(mu, names)
    assert str(exc.value) == message


def _object_argument_calls():
    """(argument, call, expected type name) for each object argument of the value-type constructors."""
    S, T = polynomial_algebra(1, ["a"]), polynomial_algebra(1, ["b"])
    f = MonoidMorphism.identity(1)
    return [
        ("cocycle", lambda bad: TwistedMonoidAlgebra(bad), "BimultiplicativeCocycle"),
        ("source", lambda bad: GradedHomomorphism(bad, T, f, [T.generator(0)]), "TwistedMonoidAlgebra"),
        ("target", lambda bad: GradedHomomorphism(S, bad, f, [T.generator(0)]), "TwistedMonoidAlgebra"),
        ("monoid morphism", lambda bad: GradedHomomorphism(S, T, bad, [T.generator(0)]), "MonoidMorphism"),
        ("source", lambda bad: DiagonalScaling(bad, T), "TwistedMonoidAlgebra"),
        ("target", lambda bad: DiagonalScaling(S, bad), "TwistedMonoidAlgebra"),
        ("algebra", lambda bad: AlgebraElement(bad, {}), "TwistedMonoidAlgebra"),
        ("algebra", lambda bad: AlgebraElement(bad, {ExponentVector((1,)): 1}), "TwistedMonoidAlgebra"),
    ]


@pytest.mark.parametrize("bad", [None, True, 1.5, "q"], ids=["none", "bool", "float", "str"])
@pytest.mark.parametrize("index", range(8), ids=["cocycle", "source", "target", "monoid-morphism", "scaling-source",
                                                 "scaling-target", "element-algebra", "element-algebra-with-terms"])
def test_value_type_constructors_refuse_object_arguments_of_the_wrong_type(index, bad):
    argument, call, kind = _object_argument_calls()[index]
    with pytest.raises(TypeError) as exc:
        call(bad)
    assert str(exc.value) == f"{argument} must be a {kind}, got {bad!r}"


def test_a_coefficient_parameter_is_not_a_generator_name():
    A = polynomial_algebra(2)
    e0 = ExponentVector((1, 0))
    x_1 = A.generator(1)
    for build in (lambda: A.basis_element(e0, LaurentPolynomial.from_param("X0")),
                  lambda: A.element({e0: UnitScalar.param("X0", 2)}),
                  lambda: x_1.scaled(UnitScalar.param("X0")),
                  lambda: x_1 * LaurentPolynomial.from_param("X0"),
                  lambda: parse_element(A, "(X0 + 1)*X1")):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == "coefficient parameter 'X0' is a generator name of the algebra"
    assert render_element(x_1.scaled(UnitScalar.param("q"))) == "q*X1"


def test_generator_names_round_trip_through_the_literal_grammar():
    A = TwistedMonoidAlgebra(_cocycle([["1", "q"], ["1", "1"]]), ["x_1", "Y2"])
    x = A.generator(0) * A.generator(1) - A.generator(1) * A.generator(1)
    assert render_element(x) == "-Y2^2 + q*x_1*Y2"
    assert parse_element(A, render_element(x)) == x


def _vector_sites():
    """(id, rank, call) for every public entry point that takes an exponent vector."""
    A_mu = TwistedMonoidAlgebra(_cocycle([["1", "2"], ["3", "1"]]))
    A_nu = TwistedMonoidAlgebra(_cocycle([["1", "6"], ["1", "1"]]))
    mu, alpha, split = A_mu.cocycle, Pairing.trivial(2, 1), ProductSplit(2, 1)
    e2, e1 = ExponentVector((0, 0)), ExponentVector((0,))
    phi = build_quantum_segre(1, 1, BimultiplicativeCocycle.trivial(4)).homomorphism
    return [
        ("MonoidMorphism.__init__", 2, lambda u: MonoidMorphism(1, 2, [u])),
        ("MonoidMorphism.__call__", 4, segre_morphism(1, 1)),
        ("ProductSplit.inject_left", 2, split.inject_left),
        ("ProductSplit.inject_right", 1, split.inject_right),
        ("ProductSplit.split", 3, split.split),
        ("cocycle.evaluate left", 2, lambda u: mu.evaluate(u, e2)),
        ("cocycle.evaluate right", 2, lambda u: mu.evaluate(e2, u)),
        ("Pairing.evaluate left", 2, lambda u: alpha.evaluate(u, e1)),
        ("Pairing.evaluate right", 1, lambda u: alpha.evaluate(e2, u)),
        ("ClosedFormFunction.__call__", 1, symmetric_trivializer(BimultiplicativeCocycle.trivial(1))),
        ("basis_element", 2, A_mu.basis_element),
        ("element", 2, lambda u: A_mu.element({u: 1})),
        ("image_of_basis", 4, phi.image_of_basis),
        ("DiagonalScaling.scale", 2, DiagonalScaling(A_mu, A_nu).scale),
    ]


_NOT_VECTORS = {
    "tuple": lambda rank: (1,) + (0,) * (rank - 1),
    "list": lambda rank: [1] + [0] * (rank - 1),
    "negative": lambda rank: (-1,) + (2,) * (rank - 1),
    "float": lambda rank: (1.5,) + (0,) * (rank - 1),
}


@pytest.mark.parametrize("name,rank,call", [pytest.param(*site, id=site[0]) for site in _vector_sites()])
@pytest.mark.parametrize("kind", [*_NOT_VECTORS, "wrong rank"])
def test_every_exponent_vector_argument_is_checked_by_one_rule(name, rank, call, kind):
    if kind == "wrong rank":
        with pytest.raises(ValueError, match=f"rank mismatch: .* must have rank {rank}, got {rank + 1}"):
            call(ExponentVector((1,) * (rank + 1)))
        return
    # A list is no dict key, so Python refuses it as a term before the term check runs.
    unhashable = kind == "list" and name in ("basis_element", "element")
    with pytest.raises(TypeError, match="unhashable type" if unhashable else "must be an ExponentVector, got"):
        call(_NOT_VECTORS[kind](rank))


@pytest.mark.parametrize("samples,error,message", [
    (-1, ValueError, "samples must be >= 0, got -1"),
    (True, TypeError, "samples must be an int, got True"),
], ids=["negative", "bool"])
def test_verify_homomorphism_checks_samples(samples, error, message):
    phi = build_quantum_segre(1, 1, BimultiplicativeCocycle.trivial(4)).homomorphism
    mu = BimultiplicativeCocycle.trivial(2)
    for run in (lambda: verify_homomorphism(phi, samples),
                lambda: coboundary_isomorphism(polynomial_algebra(2), mu, mu, samples)):
        with pytest.raises(error) as exc:
            run()
        assert str(exc.value) == message
    assert verify_homomorphism(phi, 0).pairs_checked == 16


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_sums_need_one_algebra(op):
    with pytest.raises(ValueError) as exc:
        op(polynomial_algebra(2).generator(0), polynomial_algebra(3).generator(0))
    assert str(exc.value) == "elements live in different algebras"


def test_other_types_are_not_algebras_or_elements():
    A = polynomial_algebra(2)
    x = A.generator(0)
    assert A != "A" and A != A.cocycle and not A == 2
    assert x != "X0" and x != A and not x == 2
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, None)
    with pytest.raises(TypeError):
        x * 0.5


def test_element_str_and_repr_are_its_literal():
    A = polynomial_algebra(2)
    x = parse_element(A, "X0 - 3/2*q*X1^2")
    assert str(x) == "X0 - 3/2*q*X1^2"
    assert repr(x) == "AlgebraElement('X0 - 3/2*q*X1^2')"
    assert str(A.zero()) == "0" and repr(A.zero()) == "AlgebraElement('0')"


def test_homogeneous_degree_is_none_for_zero_and_for_mixed_degrees():
    A = polynomial_algebra(2)
    assert A.zero().homogeneous_degree() is None
    assert parse_element(A, "X0 + X1").homogeneous_degree() is None
    assert parse_element(A, "X0 + q*X0").homogeneous_degree() == ExponentVector((1, 0))
    assert A.one().homogeneous_degree() == ExponentVector((0, 0))


def test_embeddings_take_any_algebra_whose_block_pulls_back_to_the_factor():
    # the rule: a block of the target's generators, with the factor's cocycle and names
    B, C = polynomial_algebra(2, ["x0", "x1"]), polynomial_algebra(1, ["y0"])
    T = twisted_tensor_product(B, C, Pairing.trivial(2, 1))
    assert embed_left(T, B.generator(1)) == T.generator(1)
    assert embed_right(T, C.generator(0)) == T.generator(2)
    for embed, zero in [(embed_left, B.zero()), (embed_right, C.zero())]:
        assert embed(T, zero) == T.zero()
    # so is an algebra built from any cocycle whose blocks are B's and C's
    mu = BimultiplicativeCocycle.from_json([["1", "1", "q"], ["1", "1", "1"], ["r", "1", "1"]])
    plain = TwistedMonoidAlgebra(mu, ["x0", "x1", "y0"])
    assert embed_left(plain, B.generator(0)) == plain.generator(0)
    assert embed_right(plain, C.generator(0)) == plain.generator(2)
    # a block must leave the other factor at least one generator
    for embed, x in [(embed_left, polynomial_algebra(5).zero()), (embed_right, T.generator(0))]:
        with pytest.raises(ValueError) as exc:
            embed(T, x)
        assert str(exc.value) == "both factors of a product split must have rank >= 1"


def test_embeddings_refuse_elements_of_other_algebras():
    rng = random.Random(84)
    B, C = polynomial_algebra(2, ["x0", "x1"]), polynomial_algebra(1, ["y0"])
    T = twisted_tensor_product(B, C, Pairing.trivial(2, 1))
    Q = quantum_projective_space(rand_antisym(rng, 2), ["a0", "a1"])
    foreign = [
        (embed_left, Q.generator(0)),                              # the right rank, other names and cocycle
        (embed_left, Q.zero()),                                    # zero of a foreign algebra
        (embed_left, polynomial_algebra(2, ["y0", "x1"]).zero()),  # the right rank, other names
        (embed_left, twist_by(B, Q.cocycle).generator(1)),         # B's names, another cocycle
        (embed_left, C.generator(0)),                              # the wrong rank: the block is x0 alone
        (embed_right, B.generator(0)),                             # the wrong rank: the block is x1, y0
        (embed_right, polynomial_algebra(1, ["x1"]).zero()),       # a block name, but not the trailing one
    ]
    for embed, x in foreign:
        with pytest.raises(ValueError) as exc:
            embed(T, x)
        assert str(exc.value) == "element does not belong to the source algebra"


def test_a_rebuilt_tensor_algebra_embeds_as_the_tensor_algebra_does():
    rng = random.Random(85)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
    T = twisted_tensor_product(B, C, rand_pairing(rng, 2, 2))
    rebuilt = TwistedMonoidAlgebra(T.cocycle, T.generator_names)
    assert rebuilt == T and hash(rebuilt) == hash(T)
    for _ in range(10):
        x, y = random_element(B, rng), random_element(C, rng)
        assert embed_left(rebuilt, x).terms == embed_left(T, x).terms
        assert embed_right(rebuilt, y).terms == embed_right(T, y).terms


def test_nested_tensor_products_embed_through_each_level():
    rng = random.Random(86)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 1), ["y0"])
    D = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["z0", "z1"])
    BC = twisted_tensor_product(B, C, rand_pairing(rng, 2, 1))
    T = twisted_tensor_product(BC, D, rand_pairing(rng, 3, 2))
    for _ in range(10):
        x, y, z = random_element(B, rng), random_element(C, rng), random_element(D, rng)
        # B is the leading block of B (x) C and of (B (x) C) (x) D alike
        assert embed_left(T, embed_left(BC, x)) == embed_left(T, x)
        yz = embed_left(T, embed_right(BC, y)) * embed_right(T, z)
        assert yz.terms == {ExponentVector((0, 0) + tuple(u) + tuple(v)): p * q
                            for u, p in y.terms.items() for v, q in z.terms.items()}
    # C sits in the middle of T: as a right factor it is a block of B (x) C only
    with pytest.raises(ValueError, match="does not belong to the source algebra"):
        embed_right(T, C.generator(0))


def test_equal_algebras_hash_alike():
    rng = random.Random(88)
    mu = rand_cocycle(rng, 3)
    A = TwistedMonoidAlgebra(mu, ["a", "b", "c"])
    same = TwistedMonoidAlgebra(BimultiplicativeCocycle(mu.matrix), ("a", "b", "c"))
    assert A is not same and A == same and hash(A) == hash(same)
    assert len({A, same, twist_by(A, BimultiplicativeCocycle.trivial(3))}) == 1
    assert A != TwistedMonoidAlgebra(mu, ["a", "c", "b"])
    q = BimultiplicativeCocycle.from_json([["q", "1", "1"], ["1", "1", "1"], ["1", "1", "1"]])
    assert A != twist_by(A, q)


def test_apply_takes_only_elements_of_the_source():
    A, B = polynomial_algebra(2), polynomial_algebra(1)
    g = ExponentVector((1,))
    phi = GradedHomomorphism(A, B, MonoidMorphism(2, 1, [g, g]), [B.generator(0), B.generator(0)])
    assert phi(A.generator(1)) == B.generator(0)
    for x in (B.generator(0), polynomial_algebra(2, ["a", "b"]).generator(0)):
        with pytest.raises(ValueError) as exc:
            phi(x)
        assert str(exc.value) == "element does not belong to the source algebra"


def test_coboundary_isomorphism_leaves_the_rank_to_twist_by():
    A, good, bad = polynomial_algebra(2), BimultiplicativeCocycle.trivial(2), BimultiplicativeCocycle.trivial(3)
    for mu, nu in [(bad, good), (good, bad), (bad, bad)]:
        with pytest.raises(ValueError) as exc:
            coboundary_isomorphism(A, mu, nu)
        assert str(exc.value) == "cocycle rank 3 does not match algebra rank 2"


def test_random_element_is_the_sum_of_its_draws():
    # one generator and entries <= 1: repeated monomials, whose coefficients may cancel; the sampler's
    # integer-form draws must equal random_unit's, on cocycle parameters too
    for A in (polynomial_algebra(1), TwistedMonoidAlgebra(BimultiplicativeCocycle.from_json([["r*q^-1"]]))):
        params = sorted(A.parameters())
        cancelled = with_parameters = 0
        for seed in range(200):
            rng, replay = random.Random(seed), random.Random(seed)
            x = random_element(A, rng, max_terms=4, max_entry=1)
            total, drawn = A.zero(), set()
            for _ in range(replay.randint(1, 4)):
                u = random_vector(replay, 1, 1, 3)
                total = total + A.basis_element(u, random_unit(replay, params))
                drawn.add(u)
            assert x == total and rng.random() == replay.random()
            assert_canonical(x)
            cancelled += set(x.terms) != drawn
            with_parameters += any(p.parameters() for p in x.terms.values())
        if params:
            assert with_parameters  # the draws carry the cocycle's parameters
        else:
            assert cancelled and not with_parameters  # some seeds draw a sum that cancels


def test_random_unit_stream_is_pinned():
    # parameters out of order: they are drawn in the order given, and only the result is sorted
    rng = random.Random(2027)
    assert [render_unit(random_unit(rng, ["r", "q"])) for _ in range(10)] + [rng.randint(0, 10**9)] == [
        "-3/2", "3/7*q^-1*r^-1", "-1", "-3*q^-1", "-5/6", "-r^-1", "-1/3", "-6/7*q^-2", "-1/2*q*r^-2",
        "-1/5*q^-2*r^-1", 84401114,
    ]


def test_random_homogeneous_is_a_unit_times_one_monomial():
    A = TwistedMonoidAlgebra(BimultiplicativeCocycle.from_json([["q", "r^2"], ["1", "-1"]]))
    rng = random.Random(5)
    drawn = [random_homogeneous(A, rng) for _ in range(6)]
    assert [render_element(x) for x in drawn] + [rng.randint(0, 10**9)] == [
        "3*r*X0^2*X1^4",
        "q^-1*r^-1*X1",
        "-5/2*q^-2*r^-1*X0^2*X1^4",
        "-X0^3",
        "7/4*r^-1*X0^2",
        "1/3*X0^3*X1",
        878877094,
    ]
    for x in drawn:
        (u, p), = x.terms.items()
        assert len(p.terms) == 1 and p.parameters() <= {"q", "r"}
        assert x.homogeneous_degree() == u


def _trusted_outputs(seed):
    """{producer: elements} for every producer that builds its result through `AlgebraElement._trusted`."""
    rng = random.Random(seed)

    def draw(algebra, count=25):
        return [random_element(algebra, rng) for _ in range(count)]

    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["a", "b"])
    f = MonoidMorphism(3, 2, [ExponentVector(w) for w in ((1, 0), (0, 1), (2, 1))])
    checked = GradedHomomorphism(A, B, f, [B.basis_element(w, rand_unit(rng)) for w in f.generator_images])
    P = polynomial_algebra(3)
    mu = rand_cocycle(rng, 3)
    scaling, _ = coboundary_isomorphism(P, mu, mu * rand_symmetric_cocycle(rng, 3), samples=0)
    segre = build_quantum_segre(1, 2, rand_cocycle(rng, 5))
    scaled = GradedHomomorphism(segre.source, segre.target, segre.morphism,
                                [segre.target.basis_element(w, rand_unit(rng))
                                 for w in segre.morphism.generator_images])
    L = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["a0", "a1"])
    R = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["b0", "b1"])
    tensor = twisted_tensor_product(L, R, rand_pairing(rng, 2, 2))
    values = {name: Fraction(k + 2, 3) for k, name in enumerate(PARAMS)}
    scaled_segre = SegreMap(1, 2, segre.ambient_cocycle, scaled)
    return {
        "multiply": [x * y for x, y in zip(draw(A), draw(A))],
        "checked apply": [checked(x) for x in draw(A)],
        "DiagonalScaling": [scaling(x) for x in draw(scaling.source)],
        "Segre map": [segre.homomorphism(x) for x in draw(segre.source)],
        "scaled Segre map": [scaled(x) for x in draw(segre.source)],
        "embed_left": [embed_left(tensor, x) for x in draw(L)],
        "embed_right": [embed_right(tensor, x) for x in draw(R)],
        "kernel_basis": kernel_basis(segre, 3, values) + kernel_basis(scaled_segre, 3, values),
    }


@pytest.mark.parametrize("seed", [141, 142, 143])
def test_trusted_path_outputs_read_back(seed):
    # these results skip the checked element constructor, so each must still render to a literal
    # that parse_element reads back as the same element
    for producer, outputs in _trusted_outputs(seed).items():
        assert any(p.parameters() for z in outputs for p in z.terms.values()), producer
        for z in outputs:
            assert parse_element(z.algebra, render_element(z)) == z, (producer, render_element(z))
