"""Graded algebra homomorphisms and quantum Segre maps.

A :class:`GradedHomomorphism` is determined by generator images compatible
with a monoid morphism f between the grading monoids: the image of generator
k must be homogeneous of degree f(e_k).  The action on a general basis
monomial e_u is normalized through ordered generator products, which is the
unique linear extension that can be multiplicative (and provably is when the
source cocycle is the pullback of the target cocycle along f).

The quantum Segre map is the instance z_ij |-> x_i (x) y_j from a twist of the
big polynomial algebra (by the pulled-back cocycle) to a twisted tensor
product of two quantum projective spaces.  When the ambient cocycle
factorizes, the source deformation matrix is the Kronecker product of the two
factor matrices.

The map sends every basis monomial to a unit times one basis monomial, so
its degree-d kernel splits over the fibers of the grading morphism: each
fiber contributes the binomials e_u - (c_u / c_u0) e_u0 against its first
monomial u0.  The kernel probe specializes the parameters to nonzero
rationals and returns these binomials, with no linear algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    AlgebraElement,
    MultiplicativityReport,
    TwistedMonoidAlgebra,
    random_element,
    render_element,
)
from .cocycles import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    _quadratic_unit,
    antisymmetrize,
    pullback,
)
from .monoids import ExponentVector, ProductSplit, segre_morphism, vectors_of_degree
from .scalars import LaurentPolynomial


class GradedHomomorphism:
    """Algebra map given by generator images, compatible with a monoid morphism."""

    __slots__ = ("source", "target", "monoid_morphism", "generator_images",
                 "_image_units", "_ratio", "_cache")

    def __init__(self, source, target, monoid_morphism, generator_images):
        f = monoid_morphism
        if f.source_rank != source.rank or f.target_rank != target.rank:
            raise ValueError("monoid morphism ranks do not match the algebras")
        images = tuple(generator_images)
        if len(images) != source.rank:
            raise ValueError(f"expected {source.rank} generator images, got {len(images)}")
        units = []
        degrees = []
        for k, img in enumerate(images):
            if img.algebra != target:
                raise ValueError(f"generator image {k} does not live in the target algebra")
            if len(img.terms) != 1:
                raise ValueError(f"generator image {k} must be a scalar multiple of a basis monomial")
            (degree, coeff), = img.terms.items()
            if degree != f(ExponentVector.unit(source.rank, k)):
                raise ValueError(
                    f"generator image {k} has degree {degree!r}, expected {f(ExponentVector.unit(source.rank, k))!r}")
            coeff_units = coeff.units()
            if len(coeff_units) != 1:
                raise ValueError(f"generator image {k} must have an invertible (single-term) coefficient")
            units.append(coeff_units[0])
            degrees.append(degree)
        self.source = source
        self.target = target
        self.monoid_morphism = f
        self.generator_images = images
        self._image_units = tuple(units)
        # cocycle values of the image degrees over the source cocycle, entrywise
        self._ratio = tuple(
            tuple(target.cocycle.evaluate(dk, dl) / a for dl, a in zip(degrees, row))
            for dk, row in zip(degrees, source.cocycle.matrix))
        self._cache = {}

    def image_of_basis(self, u):
        """(unit, degree) with phi(e_u) = unit * e_degree in the target."""
        got = self._cache.get(u)
        if got is not None:
            return got
        value = (_quadratic_unit(self._ratio, u, self._image_units), self.monoid_morphism(u))
        self._cache[u] = value
        return value

    def apply(self, x):
        """Linear extension of the basis action; preserves grading along f."""
        if x.algebra != self.source:
            raise ValueError("element does not belong to the source algebra")
        out = {}
        for u, p in x.terms.items():
            c, w = self.image_of_basis(u)
            q = p if c.is_one() else p.scaled(c)
            if w in out:
                q = out[w] + q
            out[w] = q
        return AlgebraElement(self.target, out)

    def __call__(self, x):
        return self.apply(x)


HomomorphismReport = MultiplicativityReport


def verify_homomorphism(phi, samples=100, seed=0):
    """Check phi(x*y) = phi(x)*phi(y) exactly on all generator pairs plus random pairs.

    The generator pairs cover the q-commutation relations (the images must
    satisfy the same commutation data as the source generators).  Random pairs
    are <= 3-term elements with sparse exponents <= 4, deterministic given the
    seed.  Reports the first counterexample on failure.
    """
    source = phi.source
    checked = 0
    for i in range(source.rank):
        xi = source.generator(i)
        for j in range(source.rank):
            xj = source.generator(j)
            checked += 1
            if phi(xi * xj) != phi(xi) * phi(xj):
                names = source.generator_names
                return HomomorphismReport(False, checked, seed, (names[i], names[j]))
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(source, rng)
        y = random_element(source, rng)
        checked += 1
        if phi(x * y) != phi(x) * phi(y):
            return HomomorphismReport(False, checked, seed,
                                      (render_element(x), render_element(y)))
    return HomomorphismReport(True, checked, seed)


@dataclass(frozen=True)
class SegreMap:
    """Quantum Segre map data: ambient cocycle on N^(n+1) x N^(m+1) plus the homomorphism."""

    n: int
    m: int
    ambient_cocycle: BimultiplicativeCocycle
    homomorphism: GradedHomomorphism

    @property
    def source(self):
        return self.homomorphism.source

    @property
    def target(self):
        return self.homomorphism.target

    @property
    def morphism(self):
        return self.homomorphism.monoid_morphism

    def to_json(self):
        return {"n": self.n, "m": self.m,
                "cocycle": self.ambient_cocycle.to_json(),
                "split": [self.n + 1, self.m + 1]}

    @classmethod
    def from_json(cls, data):
        smap = build_quantum_segre(data["n"], data["m"],
                                   BimultiplicativeCocycle.from_json(data["cocycle"]))
        if "split" in data and list(data["split"]) != [smap.n + 1, smap.m + 1]:
            raise ValueError(f"split {data['split']} does not match n={smap.n}, m={smap.m}")
        return smap


def build_quantum_segre(n, m, mu):
    """Construct z_ij |-> x_i (x) y_j between the pulled-back twist and the mu-twist.

    Source: rank (n+1)(m+1) with cocycle mu^f (f the grading morphism),
    generators z_ij ordered row-major.  Target: rank n+m+2 with cocycle mu,
    generators x_0..x_n, y_0..y_m.  Generator images are the basis monomials
    of degree (alpha_i, beta_j), so compatibility holds by construction.
    """
    if n < 1 or m < 1:
        raise ValueError("build_quantum_segre requires n >= 1 and m >= 1")
    if mu.rank != n + m + 2:
        raise ValueError(f"ambient cocycle must have rank {n + m + 2}, got {mu.rank}")
    f = segre_morphism(n, m)
    source_names = [f"z{i}{j}" for i in range(n + 1) for j in range(m + 1)]
    target_names = [f"x{i}" for i in range(n + 1)] + [f"y{j}" for j in range(m + 1)]
    source = TwistedMonoidAlgebra(pullback(mu, f), source_names)
    target = TwistedMonoidAlgebra(mu, target_names, split=ProductSplit(n + 1, m + 1))
    images = [target.basis_element(w) for w in f.generator_images]
    return SegreMap(n, m, mu, GradedHomomorphism(source, target, f, images))


def source_deformation_matrix(segre_map):
    """The antisymmetric matrix presenting the source as a quantum projective space."""
    return antisymmetrize(segre_map.source.cocycle)


def kronecker(q, qprime):
    """Kronecker product of antisymmetric matrices, indexed row-major by pairs:

    entry ((i,j), (k,l)) = q_ik * q'_jl.  The result is again multiplicatively
    antisymmetric.
    """
    a, b = q.rank, qprime.rank
    rows = []
    for i in range(a):
        for j in range(b):
            row = []
            for k in range(a):
                for l in range(b):
                    row.append(q.entry(i, k) * qprime.entry(j, l))
            rows.append(row)
    return AntisymmetricMatrix(rows)


def kernel_basis(segre_map, degree, specialization):
    """Exact degree-d kernel of the map after specializing all parameters to Q.

    The map sends each source monomial e_u to a unit c_u times the single
    target monomial of degree f(u), so the kernel is the direct sum over the
    fibers of f.  Enumerating the degree-d monomials in order, the first
    monomial u0 of each fiber is kept and every later u in it contributes the
    binomial e_u - (c_u / c_u0) e_u0, with the units specialized.  This is the
    reduced-row-echelon nullspace basis of the map's matrix in that column
    order.  Every returned element is verified to map to zero exactly at the
    given specialization.
    """
    if degree < 1:
        raise ValueError("kernel degree must be >= 1")
    phi = segre_map.homomorphism
    assignment = {}
    for name, value in specialization.items():
        value = Fraction(value)
        if value == 0:
            raise ValueError(f"parameter {name!r} must specialize to a nonzero rational")
        assignment[name] = value
    needed = phi.source.parameters() | phi.target.parameters()
    missing = sorted(needed - set(assignment))
    if missing:
        raise ValueError(f"no value assigned to parameters: {', '.join(missing)}")

    first = {}
    basis = []
    for u in vectors_of_degree(phi.source.rank, degree):
        c, w = phi.image_of_basis(u)
        c = c.specialize(assignment)
        if w not in first:
            first[w] = (u, c)
            continue
        u0, c0 = first[w]
        element = AlgebraElement(phi.source, {u0: LaurentPolynomial.from_rational(-c / c0),
                                              u: LaurentPolynomial.one()})
        for p in phi(element).terms.values():
            if p.specialize(assignment) != 0:
                raise AssertionError(f"kernel element {render_element(element)} does not map to zero")
        basis.append(element)
    return basis
