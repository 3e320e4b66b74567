"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is exact (no tolerances); each criterion also carries a wall-clock
budget.  Run with

    pytest tests/test_acceptance.py -v -s

to get one PASS/FAIL line per criterion.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qtwist import (
    BimultiplicativeCocycle,
    ExponentVector,
    Pairing,
    ProductSplit,
    TruncatedCocycle,
    TwistedMonoidAlgebra,
    UnitScalar,
    antisymmetrize,
    build_quantum_segre,
    canonical_from_antisym,
    coboundary,
    coboundary_isomorphism,
    cohomologous,
    deformation_matrix,
    embed_left,
    embed_right,
    kernel_basis,
    kronecker,
    quantum_projective_space,
    random_element,
    random_homogeneous,
    segre_morphism,
    source_deformation_matrix,
    trivialize_rank1,
    twisted_tensor_product,
    verify_homomorphism,
    yamazaki_factorize,
    yamazaki_reconstruct,
    yamazaki_trivialize,
)
from qtwist.cocycles import FunctionOnMonoid

from helpers import (
    rand_antisym,
    rand_cocycle,
    rand_function,
    rand_nonzero_rational,
    rand_pairing,
    rand_symmetric_cocycle,
    rand_unit,
    rand_vector,
)

ONE = UnitScalar.one()


@contextmanager
def criterion(number, limit_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:>2} FAIL ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status} ({elapsed:6.2f}s < {limit_seconds:g}s): {description}")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s")


@pytest.fixture(scope="module")
def axiom_suite():
    """100 random bimultiplicative cocycles, ranks 2-6, unit entries with
    exponents in [-3, 3] and coefficients with numerator/denominator <= 7."""
    rng = random.Random(1001)
    return [rand_cocycle(rng, rng.randint(2, 6)) for _ in range(100)]


def test_criterion_01_cocycle_axiom_suite(axiom_suite):
    with criterion(1, 5.0, "cocycle identity on 100 cocycles x 100 random triples"):
        rng = random.Random(1002)
        for mu in axiom_suite:
            for _ in range(100):
                x, y, z = (rand_vector(rng, mu.rank) for _ in range(3))
                lhs = mu.evaluate(x, y + z) * mu.evaluate(y, z)
                rhs = mu.evaluate(x, y) * mu.evaluate(x + y, z)
                assert lhs == rhs


def test_criterion_02_antisymmetrization(axiom_suite):
    with criterion(2, 1.0, "antisymmetry invariants + canonical-form bijection"):
        for mu in axiom_suite:
            beta = antisymmetrize(mu)
            for i in range(mu.rank):
                assert beta.entry(i, i).is_one()
                for j in range(mu.rank):
                    assert (beta.entry(i, j) * beta.entry(j, i)).is_one()
        rng = random.Random(1003)
        for _ in range(20):
            q = rand_antisym(rng, rng.randint(2, 6))
            assert antisymmetrize(canonical_from_antisym(q)) == q


def test_criterion_03_yamazaki_roundtrip():
    with criterion(3, 1.0, "factorize/reconstruct roundtrips (ranks <= 4)"):
        rng = random.Random(1004)
        for _ in range(20):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            triple = (rand_cocycle(rng, a), rand_cocycle(rng, b), rand_pairing(rng, a, b))
            mu = yamazaki_reconstruct(*triple)
            assert yamazaki_factorize(mu, ProductSplit(a, b)) == triple
        for _ in range(20):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            mu = rand_cocycle(rng, a + b)
            back = yamazaki_reconstruct(*yamazaki_factorize(mu, ProductSplit(a, b)))
            assert cohomologous(mu, back)


def test_criterion_04_constructive_trivializations():
    with criterion(4, 5.0, "rank-1 recurrence at D=12; product trivialization at D=8"):
        rng = random.Random(1005)
        # (a) the rank-1 recurrence recovers h from its coboundary
        for _ in range(20):
            h0 = rand_function(rng, 1, 12, normalize_generators=True)
            assert trivialize_rank1(coboundary(h0)) == h0
        # (b) the product-monoid witness h((s,t)) = 1/mu(s,t) trivializes
        for a, b in [(1, 1), (2, 1), (2, 2)]:
            split = ProductSplit(a, b)

            def product_form(w, _split=split):
                s, t = _split.split(w)
                return ONE if s.degree() == 0 or t.degree() == 0 else rand_unit(rng)

            h0 = FunctionOnMonoid.from_function(split.rank, 8, product_form)
            mu_t = coboundary(h0)
            assert coboundary(yamazaki_trivialize(mu_t, split)) == mu_t

            # bimultiplicative family: trivial diagonal blocks, symmetric cross
            rows = [[ONE] * split.rank for _ in range(split.rank)]
            for i in range(a):
                for j in range(b):
                    rows[i][a + j] = rows[a + j][i] = rand_unit(rng)
            mu_t = TruncatedCocycle.truncate(BimultiplicativeCocycle(rows), 8)
            assert coboundary(yamazaki_trivialize(mu_t, split)) == mu_t


def test_criterion_05_quantum_projective_space():
    with criterion(5, 5.0, "q-commutation relations and associativity (N <= 5)"):
        rng = random.Random(1006)
        for _ in range(10):
            n_vars = rng.randint(2, 6)   # N + 1 with N <= 5
            q = rand_antisym(rng, n_vars)
            algebra = quantum_projective_space(q)
            beta = deformation_matrix(algebra)
            assert beta == q
            for i in range(n_vars):
                for j in range(i + 1, n_vars):
                    xi, xj = algebra.generator(i), algebra.generator(j)
                    assert (xj * xi - (xi * xj).scaled(beta.entry(j, i))).is_zero()
            for _ in range(10):
                x, y, z = (random_element(algebra, rng) for _ in range(3))
                assert (x * y) * z == x * (y * z)


def test_criterion_06_twisted_tensor_product():
    with criterion(6, 2.0, "interchange law for 10 random pairings"):
        rng = random.Random(1007)
        for _ in range(10):
            a, b = rng.randint(2, 3), rng.randint(2, 3)
            left = TwistedMonoidAlgebra(rand_cocycle(rng, a), [f"x{i}" for i in range(a)])
            right = TwistedMonoidAlgebra(rand_cocycle(rng, b), [f"y{j}" for j in range(b)])
            alpha = rand_pairing(rng, a, b)
            tensor = twisted_tensor_product(left, right, alpha)
            pairs = [(left.generator(i), right.generator(j))
                     for i in range(a) for j in range(b)]
            pairs += [(random_homogeneous(left, rng), random_homogeneous(right, rng))
                      for _ in range(50)]
            for x, y in pairs:
                bx = embed_left(tensor, x)
                cy = embed_right(tensor, y)
                value = alpha.evaluate(x.homogeneous_degree(), y.homogeneous_degree())
                assert cy * bx == (bx * cy).scaled(value)
        # alpha = 1 gives the classical tensor product on the nose
        rng = random.Random(1008)
        left = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["x0", "x1"])
        right = TwistedMonoidAlgebra(rand_cocycle(rng, 2), ["y0", "y1"])
        classical = twisted_tensor_product(left, right, Pairing.trivial(2, 2))
        expected = yamazaki_reconstruct(left.cocycle, right.cocycle, Pairing.trivial(2, 2))
        assert classical.cocycle == expected
        for _ in range(20):
            x = random_homogeneous(left, rng)
            y = random_homogeneous(right, rng)
            assert (embed_right(classical, y) * embed_left(classical, x)
                    == embed_left(classical, x) * embed_right(classical, y))


def test_criterion_07_cohomologous_twist_isomorphism():
    with criterion(7, 2.0, "scaling isomorphisms between cohomologous twists"):
        rng = random.Random(1009)
        for _ in range(10):
            rank = rng.randint(2, 4)
            base = TwistedMonoidAlgebra(rand_cocycle(rng, rank))
            mu = rand_cocycle(rng, rank)
            nu = mu * rand_symmetric_cocycle(rng, rank)
            _, report = coboundary_isomorphism(base, mu, nu, samples=50,
                                               seed=rng.randint(0, 9999))
            assert report.passed


def test_criterion_08_quantum_segre_homomorphy():
    with criterion(8, 30.0, "homomorphism verification, n,m in {1,2,3} x 20 cocycles"):
        rng = random.Random(1010)
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for _ in range(20):
                    mu = rand_cocycle(rng, n + m + 2)
                    smap = build_quantum_segre(n, m, mu)
                    report = verify_homomorphism(smap.homomorphism, samples=100,
                                                 seed=rng.randint(0, 9999))
                    assert report.passed, report.counterexample


def test_criterion_09_kronecker_proposition():
    with criterion(9, 5.0, "factorizable source deformation = Kronecker product"):
        rng = random.Random(1011)
        for _ in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            q = rand_antisym(rng, n + 1)
            qprime = rand_antisym(rng, m + 1)
            mu = yamazaki_reconstruct(canonical_from_antisym(q),
                                      canonical_from_antisym(qprime),
                                      Pairing.trivial(n + 1, m + 1))
            smap = build_quantum_segre(n, m, mu)
            assert source_deformation_matrix(smap) == kronecker(q, qprime)


def _independent_rank(matrix):
    """Row-echelon pivot count, kept separate from the nullspace routine."""
    rows = [list(r) for r in matrix if any(x != 0 for x in r)]
    rank = 0
    col = 0
    ncols = len(matrix[0]) if matrix else 0
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows[0]
        rows = [[x - (r[col] / head[col]) * y for x, y in zip(r, head)] if r[col] != 0 else r
                for r in rows[1:]]
        rows = [r for r in rows if any(x != 0 for x in r)]
        rank += 1
        col += 1
    return rank


def _assemble_specialized_matrix(smap, degree, values):
    from qtwist import vectors_of_degree
    phi = smap.homomorphism
    columns = list(vectors_of_degree(smap.source.rank, degree))
    row_index = {}
    entries = []
    for u in columns:
        c, w = phi.image_of_basis(u)
        row_index.setdefault(w, len(row_index))
        entries.append((row_index[w], c.specialize(values)))
    matrix = [[Fraction(0)] * len(columns) for _ in range(len(row_index))]
    for colno, (rowno, value) in enumerate(entries):
        matrix[rowno][colno] = value
    return matrix, len(columns)


def test_criterion_10_kernel_oracle():
    with criterion(10, 30.0, "degree-2 kernels: classical dimensions + quantum soundness"):
        for n, m in [(1, 1), (1, 2), (2, 2)]:
            smap = build_quantum_segre(n, m, BimultiplicativeCocycle.trivial(n + m + 2))
            basis = kernel_basis(smap, 2, {})
            assert len(basis) == math.comb(n + 1, 2) * math.comb(m + 1, 2)
            for x in basis:
                assert smap.homomorphism(x).is_zero()
            if (n, m) == (1, 1):
                from qtwist import ExponentVector
                quadric = (smap.source.basis_element(ExponentVector((1, 0, 0, 1)))
                           - smap.source.basis_element(ExponentVector((0, 1, 1, 0))))
                (element,) = basis
                ratios = set()
                for u, p in element.terms.items():
                    qcoeff = quadric.coefficient(u)
                    assert not qcoeff.is_zero()
                    ratios.add(p.specialize({}) / qcoeff.specialize({}))
                assert len(ratios) == 1

        rng = random.Random(1012)
        configs = [(1, 1), (1, 2), (2, 2), (2, 1), (1, 1)]
        for run, (n, m) in enumerate(configs):
            mu = rand_cocycle(rng, n + m + 2)
            smap = build_quantum_segre(n, m, mu)
            values = {name: rand_nonzero_rational(rng) for name in sorted(mu.parameters())}
            basis = kernel_basis(smap, 2, values)
            # soundness: exact zero image at the specialization
            for x in basis:
                image = smap.homomorphism(x)
                assert all(p.specialize(values) == 0 for p in image.terms.values())
            # completeness: dimension equals the nullity of the assembled matrix
            matrix, ncols = _assemble_specialized_matrix(smap, 2, values)
            assert len(basis) == ncols - _independent_rank(matrix)


def _quadratic_move_components(n, m, degree):
    """Union-find over the degree-d monomials in the z_ij, joined by the moves z_ij z_kl <-> z_il z_kj.

    A monomial is the sorted tuple of its variables' indices i * (m + 1) + j;
    the result maps each monomial to the root of its component.
    """
    width = m + 1
    monomials = list(itertools.combinations_with_replacement(range((n + 1) * width), degree))
    parent = {mono: mono for mono in monomials}

    def find(mono):
        while parent[mono] != mono:
            parent[mono] = mono = parent[parent[mono]]
        return mono

    for mono in monomials:
        for a, b in itertools.combinations(range(degree), 2):
            (i, j), (k, l) = divmod(mono[a], width), divmod(mono[b], width)
            moved = list(mono)
            moved[a], moved[b] = i * width + l, k * width + j
            parent[find(mono)] = find(tuple(sorted(moved)))
    return {mono: find(mono) for mono in monomials}


def test_degree_2_certificate_next_to_criterion_10():
    # The kernel of the Segre map up to degree D is generated in degree 2 exactly when
    # every fiber of f is connected under the quadratic moves (Diaconis & Sturmfels,
    # Ann. Statist. 1998).  Checked for criterion 10's shapes, up to D = 4.
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        f = segre_morphism(n, m)
        smap = build_quantum_segre(n, m, BimultiplicativeCocycle.trivial(n + m + 2))
        for degree in (2, 3, 4):
            roots = _quadratic_move_components(n, m, degree)
            fibers = {}
            for mono, root in roots.items():
                u = ExponentVector([mono.count(k) for k in range(f.source_rank)])
                fibers.setdefault(f(u), set()).add(root)
            # each fiber is one component, and no component spans two fibers
            assert all(len(fiber_roots) == 1 for fiber_roots in fibers.values())
            assert len(set(roots.values())) == len(fibers)
            # one kernel binomial per monomial beyond the first of its fiber
            assert len(kernel_basis(smap, degree, {})) == len(roots) - len(fibers)


def test_criterion_11_cli_determinism():
    with criterion(11, 10.0, "golden-file equality across the CLI config corpus"):
        from test_cli import CASES, GOLDEN, argv_for, run_cli
        for name, tail, expected_code in CASES:
            code, output = run_cli(argv_for(name, tail))
            assert code == expected_code
            assert output == (GOLDEN / f"{name}.json").read_text()
