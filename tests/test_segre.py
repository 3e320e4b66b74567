import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qtwist import algebras
from qtwist import (
    AlgebraElement,
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    DiagonalScaling,
    ExponentVector,
    GradedHomomorphism,
    HomomorphismReport,
    LaurentPolynomial,
    MonoidMorphism,
    Pairing,
    SegreMap,
    TruncatedCocycle,
    TwistedMonoidAlgebra,
    UnitScalar,
    build_quantum_segre,
    canonical_from_antisym,
    coboundary_isomorphism,
    embed_left,
    embed_right,
    kernel_basis,
    kronecker,
    parse_element,
    parse_unit,
    pullback,
    random_element,
    render_element,
    segre_morphism,
    source_deformation_matrix,
    symmetric_trivializer,
    twist_by,
    twisted_tensor_product,
    vectors_of_degree,
    vectors_up_to_degree,
    verify_homomorphism,
    yamazaki_reconstruct,
)

from helpers import (
    PARAMS,
    doubled_from_degree_3,
    rand_antisym,
    rand_cocycle,
    rand_nonzero_rational,
    rand_pairing,
    rand_symmetric_cocycle,
    rand_unit,
    rand_vector,
)


def classical_segre(n, m):
    return build_quantum_segre(n, m, BimultiplicativeCocycle.trivial(n + m + 2))


# -- homomorphism application ---------------------------------------------------

def test_apply_sends_identity_to_identity():
    s = classical_segre(1, 1)
    phi = s.homomorphism
    assert phi(s.source.one()) == s.target.one()


def test_classical_segre_on_quadratic_monomial():
    s = classical_segre(1, 1)
    phi = s.homomorphism
    z00, z11 = s.source.generator(0), s.source.generator(3)
    image = phi(z00 * z11)
    assert image == s.target.basis_element(ExponentVector((1, 1, 1, 1)))


def test_homomorphism_on_random_pairs():
    rng = random.Random(100)
    s = build_quantum_segre(2, 1, rand_cocycle(rng, 5))
    phi = s.homomorphism
    for _ in range(100):
        x = random_element(s.source, rng)
        y = random_element(s.source, rng)
        assert phi(x * y) == phi(x) * phi(y)


def test_apply_preserves_grading():
    rng = random.Random(101)
    s = build_quantum_segre(1, 2, rand_cocycle(rng, 5))
    phi = s.homomorphism
    f = s.morphism
    for _ in range(50):
        u = rand_vector(rng, s.source.rank, max_entry=3)
        image = phi(s.source.basis_element(u))
        assert image.homogeneous_degree() == f(u)


def test_identity_homomorphism():
    rng = random.Random(102)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    f = MonoidMorphism.identity(3)
    phi = GradedHomomorphism(A, A, f, [A.generator(i) for i in range(3)])
    x = random_element(A, rng)
    assert phi(x) == x


def test_graded_morphism_survives_twisting():
    # a graded morphism keeps literally the same generator-image data when both
    # sides are twisted by the same cocycle, and stays multiplicative
    rng = random.Random(112)
    from qtwist import twist_by
    from helpers import rand_unit
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    scalars = [rand_unit(rng) for _ in range(3)]
    f = MonoidMorphism.identity(3)

    def images(algebra):
        return [algebra.basis_element(ExponentVector.unit(3, k), scalars[k])
                for k in range(3)]

    phi = GradedHomomorphism(A, A, f, images(A))
    assert verify_homomorphism(phi, samples=30, seed=2).passed
    twisted = twist_by(A, rand_cocycle(rng, 3))
    phi_twisted = GradedHomomorphism(twisted, twisted, f, images(twisted))
    assert verify_homomorphism(phi_twisted, samples=30, seed=3).passed


# -- construction ----------------------------------------------------------------

def test_classical_source_is_commutative():
    s = classical_segre(1, 1)
    assert s.source.cocycle.is_trivial()
    assert s.source.generator_names == ("z00", "z01", "z10", "z11")
    assert s.target.generator_names == ("x0", "x1", "y0", "y1")


def test_generator_images_have_compatible_degrees():
    rng = random.Random(103)
    s = build_quantum_segre(2, 2, rand_cocycle(rng, 6))
    f = s.morphism
    for k, image in enumerate(s.homomorphism.generator_images):
        assert image.homogeneous_degree() == f(ExponentVector.unit(s.source.rank, k))


def test_corrupted_generator_image_rejected():
    mu = BimultiplicativeCocycle.trivial(4)
    from qtwist import pullback
    f = segre_morphism(1, 1)
    source = TwistedMonoidAlgebra(pullback(mu, f), ["z00", "z01", "z10", "z11"])
    target = TwistedMonoidAlgebra(mu, ["x0", "x1", "y0", "y1"])
    images = [target.basis_element(w) for w in f.generator_images]
    images[1], images[2] = images[2], images[1]  # wrong degrees
    with pytest.raises(ValueError, match="degree"):
        GradedHomomorphism(source, target, f, images)


def test_build_rejects_bad_ranks():
    # the shape rule n, m >= 1 is segre_morphism's, and build_quantum_segre leaves it there
    for n, m in ((0, 1), (1, 0), (-2, 3)):
        with pytest.raises(ValueError) as exc:
            build_quantum_segre(n, m, BimultiplicativeCocycle.trivial(3))
        assert str(exc.value) == "segre_morphism requires n >= 1 and m >= 1"
    with pytest.raises(ValueError) as exc:
        build_quantum_segre(1, 1, BimultiplicativeCocycle.trivial(3))
    assert str(exc.value) == "ambient cocycle must have rank 4, got 3"


# -- verification ------------------------------------------------------------------

def test_verify_classical_2_2():
    s = classical_segre(2, 2)
    report = verify_homomorphism(s.homomorphism, samples=100, seed=5)
    assert report.passed
    assert report.pairs_checked == 100 + s.source.rank ** 2


def test_verify_quantum_random_cocycles():
    rng = random.Random(104)
    for _ in range(5):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        s = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
        assert verify_homomorphism(s.homomorphism, samples=25, seed=rng.randint(0, 999)).passed


def test_generator_images_satisfy_source_relations():
    # the image generators q-commute with the source's deformation data
    rng = random.Random(114)
    from qtwist import deformation_matrix
    s = build_quantum_segre(1, 2, rand_cocycle(rng, 5))
    phi = s.homomorphism
    beta = deformation_matrix(s.source)
    for i in range(s.source.rank):
        for j in range(i + 1, s.source.rank):
            lhs = phi(s.source.generator(j)) * phi(s.source.generator(i))
            rhs = (phi(s.source.generator(i)) * phi(s.source.generator(j))).scaled(beta.entry(j, i))
            assert lhs == rhs


def test_verify_detects_broken_map():
    # an artificial map with inconsistent images: x (x) y with a wrong cocycle
    rng = random.Random(105)
    mu = rand_cocycle(rng, 4)
    f = segre_morphism(1, 1)
    from qtwist import pullback
    source = TwistedMonoidAlgebra(pullback(mu, f), ["z00", "z01", "z10", "z11"])
    wrong_target = TwistedMonoidAlgebra(rand_cocycle(rng, 4), ["x0", "x1", "y0", "y1"])
    images = [wrong_target.basis_element(w) for w in f.generator_images]
    phi = GradedHomomorphism(source, wrong_target, f, images)
    report = verify_homomorphism(phi, samples=20, seed=0)
    assert not report.passed
    assert report.counterexample is not None


def test_verify_reports_a_failing_random_pair(monkeypatch):
    rng = random.Random(121)
    phi = build_quantum_segre(1, 2, rand_cocycle(rng, 5)).homomorphism
    real = GradedHomomorphism._apply
    monkeypatch.setattr(GradedHomomorphism, "_apply", doubled_from_degree_3(real))
    report = verify_homomorphism(phi, samples=40, seed=9)
    assert not report.passed and report.seed == 9
    assert 36 < report.pairs_checked <= 36 + 40  # all 6 x 6 generator pairs passed
    x, y = (parse_element(phi.source, text) for text in report.counterexample)
    assert phi(x * y) != phi(x) * phi(y)
    assert real(phi, x * y) == real(phi, x) * real(phi, y)


# -- the generator-pair theorem ------------------------------------------------------

def ratio_matrix(phi):
    """R_kl = mu_target(f e_k, f e_l) / mu_source(e_k, e_l), from the definition."""
    f, rank = phi.monoid_morphism, phi.source.rank
    gens = [ExponentVector.unit(rank, k) for k in range(rank)]
    return [[phi.target.cocycle.evaluate(f(a), f(b)) / phi.source.cocycle.evaluate(a, b)
             for b in gens] for a in gens]


def test_multiplicative_exactly_when_ratio_is_symmetric():
    # half the targets are cohomologous to the source (symmetric R), half random;
    # a failure is always the first generator pair (k, l), l < k, with R_kl != R_lk
    rng = random.Random(116)
    seen = set()
    for trial in range(24):
        rank = rng.randint(2, 4)
        source = TwistedMonoidAlgebra(rand_cocycle(rng, rank))
        target = TwistedMonoidAlgebra(source.cocycle * rand_symmetric_cocycle(rng, rank)
                                      if trial % 2 else rand_cocycle(rng, rank))
        images = [target.basis_element(ExponentVector.unit(rank, k), rand_unit(rng))
                  for k in range(rank)]
        phi = GradedHomomorphism(source, target, MonoidMorphism.identity(rank), images)
        R = ratio_matrix(phi)
        asymmetric = [(k, l) for k in range(rank) for l in range(k) if R[k][l] != R[l][k]]
        report = verify_homomorphism(phi, samples=20, seed=trial)
        assert report.passed == (not asymmetric)
        if asymmetric:
            k, l = asymmetric[0]
            assert report.pairs_checked == k * rank + l + 1 <= rank ** 2
            assert report.counterexample == (source.generator_names[k], source.generator_names[l])
        seen.add(report.passed)
    assert seen == {True, False}


def test_scaling_isomorphism_is_the_symmetric_trivializer():
    rng = random.Random(117)
    for _ in range(6):
        rank = rng.randint(2, 4)
        A = TwistedMonoidAlgebra(rand_cocycle(rng, rank))
        mu = rand_cocycle(rng, rank)
        nu = mu * rand_symmetric_cocycle(rng, rank)
        phi, report = coboundary_isomorphism(A, mu, nu, samples=5, seed=rng.randint(0, 999))
        assert isinstance(phi, GradedHomomorphism)
        assert report.passed and report.pairs_checked == rank ** 2 + 5
        h = symmetric_trivializer(mu * nu.inverse())
        for u in vectors_up_to_degree(rank, 4):
            assert phi.scale(u) == h(u)
            assert phi.inverse().scale(u) == h(u).inv()


def reference_generator_pairs(phi, seed=0):
    """verify_homomorphism's report with no samples, from the element loop phi(x_i x_j) != phi(x_i) phi(x_j)."""
    source = phi.source
    generators = [source.generator(k) for k in range(source.rank)]
    images = [phi(x) for x in generators]
    checked = 0
    for i, xi in enumerate(generators):
        for j, xj in enumerate(generators):
            checked += 1
            if phi(xi * xj) != images[i] * images[j]:
                names = source.generator_names
                return HomomorphismReport(False, checked, seed, (names[i], names[j]))
    return HomomorphismReport(True, checked, seed)


def perturbed(cocycle, rng):
    """`cocycle` with one random entry multiplied by a random unit."""
    rows = [list(row) for row in cocycle.matrix]
    k, l = rng.randrange(cocycle.rank), rng.randrange(cocycle.rank)
    rows[k][l] = rows[k][l] * rand_unit(rng)
    return BimultiplicativeCocycle(rows)


def random_map(kind, rng):
    """A map of one of four kinds; about half of each kind are multiplicative.

    checked: the public constructor along the identity or a random f with
    image entries 0..2, with random units; scaling: a DiagonalScaling;
    pullback: a bare-image map along a random f; segre: a bare-image map
    along a Segre morphism.  The good half of the last two is
    `_from_pullback`, which builds its source as the pullback; the other
    half is the public constructor with bare images, from a twist by the
    pullback with one entry perturbed.
    """
    good = rng.random() < 0.5
    if kind == "segre":
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        s = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
        target, f = s.target, s.morphism
    else:
        rank, target_rank = rng.randint(1, 3), rng.randint(1, 3)
        if kind == "scaling":
            mu = rand_cocycle(rng, rank)
            nu = mu * rand_symmetric_cocycle(rng, rank) if good else rand_cocycle(rng, rank)
            return DiagonalScaling(TwistedMonoidAlgebra(mu), TwistedMonoidAlgebra(nu))
        target = TwistedMonoidAlgebra(rand_cocycle(rng, target_rank), [f"y{i}" for i in range(target_rank)])
        if kind == "checked" and rng.random() < 0.5:
            f = MonoidMorphism.identity(target_rank)
        else:
            f = MonoidMorphism(rank, target_rank, [rand_vector(rng, target_rank, max_entry=2) for _ in range(rank)])
    mu = pullback(target.cocycle, f)
    if kind == "checked":
        mu = mu * rand_symmetric_cocycle(rng, f.source_rank) if good else rand_cocycle(rng, f.source_rank)
        images = [target.basis_element(w, rand_unit(rng)) for w in f.generator_images]
        return GradedHomomorphism(TwistedMonoidAlgebra(mu), target, f, images)
    if good:
        return GradedHomomorphism._from_pullback(target, f, [f"X{k}" for k in range(f.source_rank)])
    images = [target.basis_element(w) for w in f.generator_images]
    return GradedHomomorphism(TwistedMonoidAlgebra(perturbed(mu, rng)), target, f, images)


@pytest.mark.parametrize("kind", ["checked", "scaling", "pullback", "segre"])
def test_generator_pairs_agree_with_the_element_loop(kind):
    # each generator pair compares R_kl with R_lk; the element loop it replaced decides the same
    rng = random.Random(f"generator pairs {kind}")
    seen = Counter()
    for trial in range(40):
        phi = random_map(kind, rng)
        report = verify_homomorphism(phi, 0, seed=trial)
        assert report == reference_generator_pairs(phi, trial)
        seen[report.passed] += 1
    assert seen[True] >= 5 and seen[False] >= 5, seen


def test_generator_pairs_build_no_element(monkeypatch):
    # with no samples, verification multiplies and applies nothing, and reports as before
    rng = random.Random(138)
    s = build_quantum_segre(2, 1, rand_cocycle(rng, 5))
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    mu = rand_cocycle(rng, 3)
    maps = [s.homomorphism, DiagonalScaling(twist_by(A, mu), twist_by(A, mu * rand_symmetric_cocycle(rng, 3))),
            scaled_images(s, rng), random_map("checked", random.Random(141))]
    expected = [verify_homomorphism(phi, 0, seed=7) for phi in maps]
    assert [report.passed for report in expected] == [True, True, True, False]

    def refuse(*args):
        raise AssertionError("an element was multiplied or applied")

    with monkeypatch.context() as patch:
        patch.setattr(TwistedMonoidAlgebra, "multiply", refuse)
        patch.setattr(GradedHomomorphism, "_apply", refuse)
        assert [verify_homomorphism(phi, 0, seed=7) for phi in maps] == expected
    assert expected == [reference_generator_pairs(phi, 7) for phi in maps]


def test_the_sample_loop_repeats_no_check_of_apply(monkeypatch):
    # the random pairs are drawn in the source, so they map through the unchecked _apply; apply still checks
    rng = random.Random(144)
    s = build_quantum_segre(2, 1, rand_cocycle(rng, 5))
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    mu = rand_cocycle(rng, 3)
    maps = [s.homomorphism, DiagonalScaling(twist_by(A, mu), twist_by(A, mu * rand_symmetric_cocycle(rng, 3))),
            scaled_images(s, rng)]
    expected = [verify_homomorphism(phi, 30, seed=5) for phi in maps]
    assert expected == [HomomorphismReport(True, phi.source.rank ** 2 + 30, 5) for phi in maps]
    elements = [random_element(phi.source, rng) for phi in maps]
    assert all(x.algebra.parameters() for x in elements)

    def refuse(*args):
        raise AssertionError("a generator-name check was made")

    with monkeypatch.context() as patch:
        patch.setattr(TwistedMonoidAlgebra, "_refuse_generator_names", refuse)
        assert [verify_homomorphism(phi, 30, seed=5) for phi in maps] == expected
        for phi, x in zip(maps, elements):
            with pytest.raises(AssertionError, match="a generator-name check was made"):
                phi.apply(x)


def test_generator_pairs_read_only_the_ratio_matrix(monkeypatch):
    # with no samples, each generator pair compares two entries of phi._ratio: no unit product is made
    rng = random.Random(142)
    s = build_quantum_segre(2, 1, rand_cocycle(rng, 5))
    maps = [s.homomorphism, scaled_images(s, rng), random_map("checked", random.Random(141))]
    expected = [reference_generator_pairs(phi, 7) for phi in maps]
    assert [report.passed for report in expected] == [True, True, False]

    def refuse(*args):
        raise AssertionError("a unit product was made")

    with monkeypatch.context() as patch:
        patch.setattr(algebras, "_power", refuse)
        patch.setattr(algebras, "_bilinear_power", refuse)
        assert [verify_homomorphism(phi, 0, seed=7) for phi in maps] == expected



def ordered_product_unit(algebra, u, factors):
    """c with prod_k factors[k]^(u_k) = c e_w (ordered product, public arithmetic)."""
    x = algebra.one()
    for k, uk in enumerate(u):
        for _ in range(uk):
            x = x * factors[k]
    (w, coeff), = x.terms.items()
    unit, = coeff.units()
    return unit, w


@pytest.mark.parametrize("n,m,seed,kind", [(1, 1, 118, "bare"), (1, 2, 119, "bare"), (2, 2, 120, "bare"),
                                           (2, 1, 122, "scaled"), (1, 1, 123, "wide")],
                         ids=["1-1-118", "1-2-119", "2-2-120", "scaled-2-1-122", "wide-123"])
def test_unit_one_shortcut_agrees_with_the_general_path(n, m, seed, kind):
    # a Segre map's generator-image units and ratio matrix are all 1, so
    # image_of_basis skips the unit product; the public constructor recomputes
    # R from the cocycles and must decide the same.  A scaled Segre map has
    # units s_k != 1, and a wide map also has R != 1 along a morphism that is
    # not the identity, so both take the unit product.  All must agree with
    # phi(e_u) = phi(x_0)^u_0 ... phi(x_r)^u_r / c_u, e_u = x_0^u_0 ... x_r^u_r / c_u
    rng = random.Random(seed)
    if kind == "wide":
        s = wide_image_map(seed)
    else:
        s = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
        if kind == "scaled":
            s = SegreMap(n, m, s.ambient_cocycle, scaled_images(s, rng))
    phi, f = s.homomorphism, s.morphism
    gens = [s.source.generator(k) for k in range(s.source.rank)]
    images = [phi(x) for x in gens]
    if kind == "bare":
        assert images == [s.target.basis_element(w) for w in f.generator_images]
    general = GradedHomomorphism(s.source, s.target, f, images)
    # the images read back are the elements the public constructor was given
    assert general.generator_images == phi.generator_images == tuple(images)
    assert phi._all_ones == general._all_ones == (kind == "bare")
    assert all(r.is_one() for row in ratio_matrix(general) for r in row) == (kind != "wide")
    for u in vectors_up_to_degree(s.source.rank, 3):
        c_u, v = ordered_product_unit(s.source, u, gens)
        c_image, w = ordered_product_unit(s.target, u, images)
        assert v == u and w == f(u)
        assert phi.image_of_basis(u) == general.image_of_basis(u) == (c_image / c_u, w)


def test_scaling_between_distinct_cohomologous_cocycles_takes_the_general_path():
    rng = random.Random(121)
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    mu = rand_cocycle(rng, 3)
    nu = mu * rand_symmetric_cocycle(rng, 3)
    assert mu != nu
    phi, report = coboundary_isomorphism(A, mu, nu, samples=5, seed=0)
    assert report.passed and not phi._all_ones
    h = symmetric_trivializer(mu * nu.inverse())
    scales = [phi.scale(u) for u in vectors_up_to_degree(3, 3)]
    assert scales == [h(u) for u in vectors_up_to_degree(3, 3)]
    assert not all(c.is_one() for c in scales)


def test_all_ones_maps_take_their_unit_1_from_the_one_rule(monkeypatch):
    # every s_k and R_kl of a Segre map, and of a scaling between equal cocycles, is 1, so `_unit`
    # returns None before any c_u product: image_of_basis and scale build the unit 1 without it
    def refuse(*args):
        raise AssertionError("c_u computed on an all-ones map")

    rng = random.Random(131)
    s = build_quantum_segre(2, 2, rand_cocycle(rng, 6))
    A = TwistedMonoidAlgebra(rand_cocycle(rng, 3))
    scaling = DiagonalScaling(A, A)
    monkeypatch.setattr(algebras, "_quadratic_pairs", refuse)
    for u in vectors_up_to_degree(s.source.rank, 2):
        c, w = s.homomorphism.image_of_basis(u)
        assert c == UnitScalar.one() and w == s.morphism(u)
    for u in vectors_up_to_degree(3, 2):
        assert scaling.scale(u).is_one()

# -- deformation matrices ------------------------------------------------------------

def test_source_deformation_trivial():
    s = classical_segre(2, 1)
    assert source_deformation_matrix(s).is_trivial()


def test_kronecker_trivial_and_diagonal():
    g = kronecker(AntisymmetricMatrix.trivial(2), AntisymmetricMatrix.trivial(3))
    assert g.is_trivial()
    rng = random.Random(106)
    q, qp = rand_antisym(rng, 2), rand_antisym(rng, 3)
    g = kronecker(q, qp)
    for idx in range(g.rank):
        assert g.entry(idx, idx).is_one()


def test_kronecker_explicit_entries():
    q = AntisymmetricMatrix.from_upper(2, {(0, 1): UnitScalar.param("q")})
    r = AntisymmetricMatrix.from_upper(2, {(0, 1): UnitScalar.param("r")})
    g = kronecker(q, r)
    # row-major index pairs: (i,j) -> 2*i + j
    qr = UnitScalar.param("q") * UnitScalar.param("r")
    assert g.entry(0, 3) == qr                                    # ((0,0),(1,1))
    assert g.entry(1, 2) == UnitScalar.param("q") * UnitScalar.param("r", -1)  # ((0,1),(1,0))


def test_factorizable_deformation_is_kronecker():
    rng = random.Random(107)
    for _ in range(5):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        q, qp = rand_antisym(rng, n + 1), rand_antisym(rng, m + 1)
        mu = yamazaki_reconstruct(canonical_from_antisym(q), canonical_from_antisym(qp),
                                  Pairing.trivial(n + 1, m + 1))
        s = build_quantum_segre(n, m, mu)
        assert source_deformation_matrix(s) == kronecker(q, qp)


def test_source_deformation_is_class_invariant():
    rng = random.Random(108)
    mu = rand_cocycle(rng, 4)
    sym = rand_symmetric_cocycle(rng, 4)
    s1 = build_quantum_segre(1, 1, mu)
    s2 = build_quantum_segre(1, 1, mu * sym)
    assert source_deformation_matrix(s1) == source_deformation_matrix(s2)


# -- kernel probe ----------------------------------------------------------------------

def minors_count(n, m):
    return math.comb(n + 1, 2) * math.comb(m + 1, 2)


def test_classical_kernel_n1_m1():
    s = classical_segre(1, 1)
    basis = kernel_basis(s, 2, {})
    assert len(basis) == 1
    element = basis[0]
    z00z11 = s.source.basis_element(ExponentVector((1, 0, 0, 1)))
    z01z10 = s.source.basis_element(ExponentVector((0, 1, 1, 0)))
    quadric = z00z11 - z01z10
    # spanned by the Segre quadric up to scalar
    scalars = set()
    for u, p in element.terms.items():
        q = quadric.coefficient(u)
        assert not q.is_zero()
        (ke, ce), = p.terms.items()
        (kq, cq), = q.terms.items()
        assert ke == kq == ()
        scalars.add(ce / cq)
    assert len(scalars) == 1


def test_classical_kernel_dimensions():
    for n, m in [(1, 2), (2, 2)]:
        s = classical_segre(n, m)
        basis = kernel_basis(s, 2, {})
        assert len(basis) == minors_count(n, m)


def test_kernel_soundness_at_random_specializations():
    rng = random.Random(109)
    s = build_quantum_segre(1, 2, rand_cocycle(rng, 5))
    params = sorted(s.ambient_cocycle.parameters())
    for _ in range(3):
        values = {name: rand_nonzero_rational(rng) for name in params}
        basis = kernel_basis(s, 2, values)
        phi = s.homomorphism
        for element in basis:
            image = phi(element)
            assert all(p.specialize(values) == 0 for p in image.terms.values())


def test_kernel_quantum_dimension_matches_classical_grid():
    # the map sends distinct degree-2 monomials with equal grading image to
    # proportional targets, so the reported dimension matches the minor count
    rng = random.Random(110)
    s = build_quantum_segre(2, 2, rand_cocycle(rng, 6))
    params = sorted(s.ambient_cocycle.parameters())
    values = {name: rand_nonzero_rational(rng) for name in params}
    assert len(kernel_basis(s, 2, values)) == minors_count(2, 2)


@pytest.mark.parametrize("n,m,seed", [(1, 2, 114), (2, 2, 115)])
def test_degree3_kernel_is_fiberwise_binomials(n, m, seed):
    # degree 3 gives fibers of up to 6 monomials; each later monomial u of a
    # fiber pairs with the fiber's first monomial u0 as e_u - r e_u0
    rng = random.Random(seed)
    s = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
    values = {name: rand_nonzero_rational(rng) for name in sorted(s.ambient_cocycle.parameters())}
    phi = s.homomorphism
    first, expected = {}, []
    for u in vectors_of_degree(s.source.rank, 3):
        u0 = first.setdefault(s.morphism(u), u)
        if u0 != u:
            expected.append((u0, u))
    assert max(Counter(u0 for u0, _ in expected).values()) > 1
    basis = kernel_basis(s, 3, values)
    big = (n + 1) * (m + 1)
    assert len(basis) == math.comb(big + 2, 3) - math.comb(n + 3, 3) * math.comb(m + 3, 3)
    assert len(basis) == len(expected)
    for element, (u0, u) in zip(basis, expected):
        assert set(element.terms) == {u0, u}
        assert element.coefficient(u) == LaurentPolynomial.one()
        (key, minus_r), = element.coefficient(u0).terms.items()
        assert key == () and minus_r != 0
        image_u = phi(s.source.basis_element(u)).coefficient(s.morphism(u)).specialize(values)
        image_u0 = phi(s.source.basis_element(u0)).coefficient(s.morphism(u)).specialize(values)
        assert -minus_r == image_u / image_u0


@pytest.mark.parametrize("n,m,degree", [(1, 2, 2), (1, 2, 3), (2, 2, 2), (2, 2, 3)])
def test_kernel_ratios_of_non_unit_generator_images(n, m, degree):
    # build_quantum_segre's images are bare monomials, so each of its ratios is 1;
    # images s_k e_f(e_k) with distinct s_k != 1 make c_u / c_u0 vary over the fibers
    rng = random.Random(122)
    s = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
    f = s.morphism
    scales = [UnitScalar(Fraction(k + 2, 3), {PARAMS[k % 3]: k + 1}) for k in range(s.source.rank)]
    phi = GradedHomomorphism(s.source, s.target, f,
                             [s.target.basis_element(w, c) for w, c in zip(f.generator_images, scales)])
    values = {name: rand_nonzero_rational(rng) for name in sorted(s.ambient_cocycle.parameters())}
    basis = kernel_basis(SegreMap(n, m, s.ambient_cocycle, phi), degree, values)
    assert len(basis) == len(kernel_basis(s, degree, values))
    ratios = set()
    for element in basis:
        u0, u = sorted(element.terms)  # u0 is the first of its fiber in lexicographic order
        (c_u, w), (c_u0, w0) = phi.image_of_basis(u), phi.image_of_basis(u0)
        assert w == w0
        assert element.coefficient(u) == LaurentPolynomial.one()
        assert element.coefficient(u0) == -LaurentPolynomial.from_unit(c_u / c_u0)
        assert phi.apply(element).terms == {}
        assert element == AlgebraElement(s.source, dict(element.terms))
        ratios.add(c_u / c_u0)
    assert len(ratios) > 1 and UnitScalar.one() not in ratios


def reference_kernel(phi, degree):
    """The kernel binomials, grouping the degree-d monomials by f(u) and reading c_u off phi(e_u)."""
    source, first, basis = phi.source, {}, []
    for u in vectors_of_degree(source.rank, degree):
        w = phi.monoid_morphism(u)
        (c,) = phi(source.basis_element(u)).coefficient(w).units()
        if w not in first:
            first[w] = (u, c)
            continue
        u0, c0 = first[w]
        basis.append(source.basis_element(u) - source.basis_element(u0, c / c0))
    return basis


def scaled_images(s, rng):
    """s's homomorphism with generator images c_k e_f(e_k), random units c_k, so c_u varies."""
    f = s.morphism
    return GradedHomomorphism(s.source, s.target, f,
                              [s.target.basis_element(w, rand_unit(rng)) for w in f.generator_images])


def wide_image_map(seed):
    """A graded map N^5 -> N^4 whose generator images have entries up to 3 and collide in degree 2.

    f(e_2) + f(e_3) = f(e_0) + f(e_1), so the degree-d fibers are not all points.
    """
    rng = random.Random(seed)
    target = TwistedMonoidAlgebra(rand_cocycle(rng, 4))
    images = [(3, 0, 1, 0), (0, 3, 0, 2), (1, 2, 0, 1), (2, 1, 1, 1), (0, 0, 3, 0)]
    f = MonoidMorphism(5, 4, [ExponentVector(w) for w in images])
    phi = GradedHomomorphism(TwistedMonoidAlgebra(rand_cocycle(rng, 5)), target, f,
                             [target.basis_element(w, rand_unit(rng)) for w in f.generator_images])
    return SegreMap(1, 1, target.cocycle, phi)


@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
def test_kernel_matches_the_fiber_reference(n, m):
    rng = random.Random(130 + 3 * n + m)
    s = build_quantum_segre(n, m, rand_cocycle(rng, n + m + 2))
    values = {name: rand_nonzero_rational(rng) for name in sorted(s.ambient_cocycle.parameters())}
    for degree in range(1, 5):
        got = [render_element(x) for x in kernel_basis(s, degree, values)]
        assert got == [render_element(x) for x in reference_kernel(s.homomorphism, degree)]


def test_kernel_matches_the_fiber_reference_for_image_entries_above_one():
    # the packed fiber key uses base d * 3 + 1 here, and scaled images make the ratios vary
    smap = wide_image_map(131)
    values = {name: rand_nonzero_rational(random.Random(132)) for name in PARAMS}
    for degree in range(1, 5):
        got = kernel_basis(smap, degree, values)
        assert [render_element(x) for x in got] == [
            render_element(x) for x in reference_kernel(smap.homomorphism, degree)]
        assert all(smap.homomorphism.apply(x).is_zero() for x in got)
    assert len(kernel_basis(smap, 2, values)) > 0


def twin_maps(kind):
    """Two separately built copies of one bare, scaled or wide map."""
    def build():
        if kind == "wide":
            return wide_image_map(134)
        rng = random.Random(133)
        s = build_quantum_segre(2, 1, rand_cocycle(rng, 5))
        return s if kind == "bare" else SegreMap(2, 1, s.ambient_cocycle, scaled_images(s, rng))
    return build(), build()


@pytest.mark.parametrize("kind", ["bare", "scaled", "wide"])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_a_map_keeps_only_its_defining_data(kind, warm):
    # a map stores nothing per monomial: after the kernel probe (and, warm,
    # after verification and apply) every slot equals its twin's, built fresh
    smap, twin = twin_maps(kind)
    phi = smap.homomorphism
    assert phi._all_ones == (kind == "bare")
    rng = random.Random(135)
    if warm:
        verify_homomorphism(phi, samples=5)
        for _ in range(5):
            phi.apply(random_element(phi.source, rng))
    values = {name: rand_nonzero_rational(rng) for name in PARAMS}
    assert [len(kernel_basis(smap, degree, values)) > 0 for degree in (1, 2, 3)] == [False, True, True]
    slots = [name for cls in type(phi).__mro__ for name in getattr(cls, "__slots__", ())]
    assert "generator_images" not in slots and phi.generator_images == twin.homomorphism.generator_images
    for name in slots:
        assert getattr(phi, name) == getattr(twin.homomorphism, name), name


def test_segre_builds_and_embeddings_build_no_basis_element(monkeypatch):
    # a bare-image map is its monoid morphism and its units, so neither a
    # Segre build nor an embedding makes an element for a generator image
    rng = random.Random(137)
    B = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
    C = TwistedMonoidAlgebra(rand_cocycle(rng, 1), ["y0"])
    T = twisted_tensor_product(B, C, rand_pairing(rng, 2, 1))
    x, y, mu = random_element(B, rng), random_element(C, rng), rand_cocycle(rng, 5)
    expected = build_quantum_segre(2, 1, mu), embed_left(T, x), embed_right(T, y)

    def refuse(*args):
        raise AssertionError("basis_element called")

    with monkeypatch.context() as patch:
        patch.setattr(TwistedMonoidAlgebra, "basis_element", refuse)
        got = build_quantum_segre(2, 1, mu), embed_left(T, x), embed_right(T, y)
    assert got == expected


@pytest.mark.parametrize("kind", ["bare", "scaled", "wide"])
def test_maps_compare_and_hash_by_their_defining_data(kind):
    smap, twin = twin_maps(kind)
    phi, psi = smap.homomorphism, twin.homomorphism
    assert phi is not psi and phi == psi and hash(phi) == hash(psi)
    assert smap == twin and hash(smap) == hash(twin)
    assert phi != "phi" and phi != smap and not phi == 1


def test_maps_differ_when_one_defining_datum_differs():
    rng = random.Random(136)
    phi = build_quantum_segre(1, 1, rand_cocycle(rng, 4)).homomorphism
    A, B, f, images = phi.source, phi.target, phi.monoid_morphism, list(phi.generator_images)
    same = GradedHomomorphism(A, B, f, images)
    assert same == phi and hash(same) == hash(phi)
    B2 = TwistedMonoidAlgebra(rand_cocycle(rng, 4), B.generator_names)
    f2 = MonoidMorphism(4, 4, f.generator_images[::-1])
    others = [
        GradedHomomorphism(TwistedMonoidAlgebra(A.cocycle, ["a", "b", "c", "d"]), B, f, images),
        GradedHomomorphism(A, B2, f, [B2.basis_element(w) for w in f.generator_images]),
        GradedHomomorphism(A, B, f2, images[::-1]),
        GradedHomomorphism(A, B, f, [images[0].scaled(2)] + images[1:]),
    ]
    for other in others:
        assert other != phi and phi != other
    # a scaling is the graded homomorphism of its data, whichever class built it
    mu = rand_cocycle(rng, 3)
    C, D = TwistedMonoidAlgebra(mu), TwistedMonoidAlgebra(mu * rand_symmetric_cocycle(rng, 3))
    scaling = DiagonalScaling(C, D)
    general = GradedHomomorphism(C, D, MonoidMorphism.identity(3), [D.generator(k) for k in range(3)])
    assert scaling == general == scaling and hash(scaling) == hash(general)


def test_segre_map_json_roundtrip():
    rng = random.Random(113)
    s = build_quantum_segre(2, 1, rand_cocycle(rng, 5))
    data = s.to_json()
    assert data["split"] == [3, 2]
    back = SegreMap.from_json(data)
    assert back == s and hash(back) == hash(s) and back.homomorphism is not s.homomorphism
    for split in ([2, 3], [3], [3, 2, 1], "32", 5, None, {"n": 3, "m": 2}):
        with pytest.raises(ValueError) as exc:
            SegreMap.from_json({**data, "split": split})
        assert str(exc.value) == f"split {split!r} does not match n=2, m=1"
    assert SegreMap.from_json({**data, "split": [3, 2]}) == s
    assert SegreMap.from_json({key: value for key, value in data.items() if key != "split"}) == s


def test_segre_map_from_json_refuses_a_bad_shape():
    data = build_quantum_segre(1, 1, BimultiplicativeCocycle.trivial(4)).to_json()
    # string rows were once read as rows of one-character literals, and built a trivial map
    with pytest.raises(TypeError, match="a unit matrix must be a list of rows"):
        SegreMap.from_json({**data, "cocycle": ["1111"] * 4})
    # a missing field was once a KeyError naming it alone
    for bad in ({"n": 1, "m": 1}, {"m": 1, "cocycle": data["cocycle"]}, [1, 1, data["cocycle"]], "nm", None):
        with pytest.raises(TypeError) as exc:
            SegreMap.from_json(bad)
        assert str(exc.value) == 'Segre map JSON is not an object with the fields "n", "m", "cocycle"'


def test_kernel_reads_only_the_parameters_of_the_map():
    s = classical_segre(1, 1)
    expected = kernel_basis(s, 2, {})
    for other in ({"t": Fraction(0)}, {"t": 0.5}, {"t": "x", "q": True}):
        assert kernel_basis(s, 2, other) == expected
    squant = build_quantum_segre(1, 1, rand_cocycle(random.Random(111), 4))
    params = sorted(squant.ambient_cocycle.parameters())
    values = {name: Fraction(2) for name in params[:-1]}
    with pytest.raises(ValueError) as exc:
        kernel_basis(squant, 2, values)
    assert str(exc.value) == f"no value assigned to parameter {params[-1]!r}"
    assert len(kernel_basis(squant, 2, {**values, params[-1]: -1, "t": 0})) == 1


def test_kernel_refuses_the_first_bad_value_in_name_order():
    # the map's parameters are checked in sorted name order, each for a value, its type and nonzero
    s = build_quantum_segre(1, 1, BimultiplicativeCocycle.from_json(
        [["1", "q", "1", "1"], ["1", "1", "r", "1"], ["1"] * 4, ["1"] * 4]))
    cases = [
        ({}, ValueError, "no value assigned to parameter 'q'"),
        ({"r": 0}, ValueError, "no value assigned to parameter 'q'"),
        ({"q": 2}, ValueError, "no value assigned to parameter 'r'"),
        ({"q": 0, "r": "1"}, ValueError, "parameter 'q' must specialize to a nonzero rational"),
        ({"q": Fraction(1, 2), "r": Fraction(0)}, ValueError, "parameter 'r' must specialize to a nonzero rational"),
        ({"q": True, "r": 0}, TypeError, "value of parameter 'q' must be an int or a Fraction, got True"),
        ({"q": "2", "r": 1}, TypeError, "value of parameter 'q' must be an int or a Fraction, got '2'"),
        ({"q": -1, "r": "1/2"}, TypeError, "value of parameter 'r' must be an int or a Fraction, got '1/2'"),
    ]
    for values, error, message in cases:
        with pytest.raises(error) as exc:
            kernel_basis(s, 2, values)
        assert str(exc.value) == message
    assert len(kernel_basis(s, 2, {"q": -1, "r": Fraction(1, 2)})) == 1


def test_the_input_path_makes_no_fraction(monkeypatch):
    # unit literals are read as int pairs, and a specialization is checked without arithmetic, so
    # from a config's literals to a Segre kernel no Fraction is made
    mu = rand_cocycle(random.Random(43), 6)
    rows = mu.to_json()
    table = TruncatedCocycle.truncate(mu, 2)
    names = sorted(mu.parameters())
    halves = {name: Fraction(-1, 2) for name in names}
    units = [UnitScalar(Fraction(-1, 2), {"q": 2, "r": -1}), UnitScalar(Fraction(1, 2)), UnitScalar(7)]

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"Fraction{args} made on the input path")

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", refuse)
        assert [parse_unit(text) for text in ("-3/6*q^2*r^-1", "+2/4", "7")] == units
        assert BimultiplicativeCocycle.from_json(rows) == mu
        assert TruncatedCocycle.from_json(6, 2, table.to_json()) == table
        smap = build_quantum_segre(2, 2, BimultiplicativeCocycle.from_json(rows))
        by_ints = [kernel_basis(smap, d, {name: -2 for name in names}) for d in (2, 3)]
        by_fractions = [kernel_basis(smap, d, halves) for d in (2, 3)]
    assert by_ints == by_fractions and [len(basis) for basis in by_ints] == [45 - 36, 165 - 100]


def test_kernel_input_validation():
    s = classical_segre(1, 1)
    with pytest.raises(ValueError, match="degree"):
        kernel_basis(s, 0, {})
    for not_int in (True, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match="degree"):
            kernel_basis(s, not_int, {})
    rng = random.Random(111)
    squant = build_quantum_segre(1, 1, rand_cocycle(rng, 4))
    params = sorted(squant.ambient_cocycle.parameters())
    with pytest.raises(ValueError, match="no value assigned"):
        kernel_basis(squant, 2, {})
    values = {name: Fraction(1) for name in params}
    values[params[0]] = Fraction(0)
    with pytest.raises(ValueError, match="nonzero"):
        kernel_basis(squant, 2, values)
    for inexact in (0.5, True, "1/2"):
        values[params[0]] = inexact
        with pytest.raises(TypeError, match=params[0]):
            kernel_basis(squant, 2, values)
