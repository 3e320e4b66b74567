"""Quantum Segre maps and their kernels.

The quantum Segre map is the :class:`GradedHomomorphism` z_ij |-> x_i (x) y_j
from a twist of the big polynomial algebra (by the pulled-back cocycle) to a
twisted tensor product of two quantum projective spaces.  It is built by
`GradedHomomorphism._from_pullback`, which makes the source itself as the
twist by the ambient cocycle pulled back along f, the grading morphism.  So
its generator images are bare basis monomials and its ratio matrix is all
ones by construction: it sends every e_u to exactly e_f(u), and the quantum
content lives in the normal-form basis of each side.  When the ambient
cocycle factorizes, the source deformation matrix is the Kronecker product
of the two factor matrices.  :func:`verify_homomorphism` decides
multiplicativity on the generator pairs, each by comparing the two
symmetric entries of the ratio matrix, with no element built; its random
pairs are a self-test of `multiply` and `apply`.

The map sends every basis monomial to a unit times one basis monomial, so
its degree-d kernel splits over the fibers of f: each fiber contributes the
binomials e_u - (c_u / c_u0) e_u0 against its first monomial u0, with no
linear algebra and no specialization arithmetic.  The probe keys each fiber
by f(u) packed into one int and keeps no memory of its own.  It reads c_u
from the map's one rule, `GradedHomomorphism._unit`: for a Segre map (every
c_u is 1) that returns None and the probe does no unit arithmetic at all;
for any other map it makes c_u / c_u0 as one integer product per binomial.
"""

from __future__ import annotations

from operator import mul

from .algebras import (  # the homomorphism names stay importable from here
    AlgebraElement,
    GradedHomomorphism,
    HomomorphismReport,
    TwistedMonoidAlgebra,
    verify_homomorphism,
)
from .cocycles import AntisymmetricMatrix, BimultiplicativeCocycle, _json_items, antisymmetrize
# ProductSplit stays importable from here.
from .monoids import ProductSplit, _int_arg, _Record, _segre_target_rank, segre_morphism, vectors_of_degree
from .scalars import LaurentPolynomial, _check_value, _power, _unit_of


class SegreMap(_Record):
    """Quantum Segre map data: ints `n`, `m`, the `ambient_cocycle` on N^(n+1) x N^(m+1), the `homomorphism`."""

    __slots__ = ("n", "m", "ambient_cocycle", "homomorphism")

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
        n, m, cocycle = next(_json_items([data], ("n", "m", "cocycle"), "Segre map JSON"))
        smap = build_quantum_segre(n, m, BimultiplicativeCocycle.from_json(cocycle))
        split = [smap.n + 1, smap.m + 1]
        if data.get("split", split) != split:  # an optional field, refused unless it is this list
            raise ValueError(f"split {data['split']!r} does not match n={smap.n}, m={smap.m}")
        return smap


def build_quantum_segre(n, m, mu):
    """Construct z_ij |-> x_i (x) y_j between the pulled-back twist and the mu-twist.

    Source: rank (n+1)(m+1) with cocycle mu^f (f the grading morphism),
    generators z_ij ordered row-major, built by
    `GradedHomomorphism._from_pullback` from the target, f and these names.
    Target: rank n+m+2 with cocycle mu, generators x_0..x_n, y_0..y_m.
    Generator images are the basis monomials of degree (alpha_i, beta_j),
    so compatibility holds by construction.  n and m are checked as
    `segre_morphism` checks them, and then compared with mu's rank, before
    anything of their size is allocated.
    """
    if mu.rank != _segre_target_rank(n, m):
        raise ValueError(f"ambient cocycle must have rank {n + m + 2}, got {mu.rank}")
    f = segre_morphism(n, m)
    source_names = [f"z{i}{j}" for i in range(n + 1) for j in range(m + 1)]
    target_names = [f"x{i}" for i in range(n + 1)] + [f"y{j}" for j in range(m + 1)]
    target = TwistedMonoidAlgebra(mu, target_names)
    return SegreMap(n, m, mu, GradedHomomorphism._from_pullback(target, f, source_names))


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
    """Degree-d kernel of the map; the specialization must give every parameter a nonzero rational.

    The parameters are those of the map's two cocycles, checked in name
    order as `specialize` checks them; values of other names are ignored.

    The map sends each source monomial e_u to a unit c_u times the single
    target monomial of degree f(u), so the kernel is the direct sum over the
    fibers of f.  Enumerating the degree-d monomials in order, the first
    monomial u0 of each fiber is kept and every later u in it contributes the
    binomial e_u - (c_u / c_u0) e_u0, which maps to zero identically.  This is
    the reduced-row-echelon nullspace basis of the map's matrix in that column
    order, at every specialization.  The unit ratio is left unspecialized.

    A fiber is keyed by one int, never by f(u): with M the largest entry of
    any generator image f(e_k) and B = d*M + 1, code_k = sum_i f(e_k)_i B^i,
    and the key of u is sum_k u_k code_k = sum_i f(u)_i B^i.  Each entry
    f(u)_i = sum_k u_k f(e_k)_i is at most |u| M = d M < B, so the key is
    f(u) written in base B with every digit below B, and two degree-d
    monomials share a key exactly when they share f(u).  c_u comes from
    the map's one rule, `GradedHomomorphism._unit`, in integer form.  For
    the maps of :func:`build_quantum_segre` it is None (every c_u is 1), and
    every ratio is the constant 1; otherwise c_u / c_u0 is the unit of one
    `_power` of the two integer forms per binomial.
    """
    if _int_arg(degree, "kernel degree") < 1:
        raise ValueError("kernel degree must be >= 1")
    phi = segre_map.homomorphism
    for name in sorted(phi.source.parameters() | phi.target.parameters()):
        _check_value(name, specialization)

    images = phi.monoid_morphism._sparse
    base = degree * max((e for image in images for _, e in image), default=0) + 1
    codes = [sum(e * base ** i for i, e in image) for image in images]
    unit = phi._unit
    one = LaurentPolynomial.one()
    minus_one = -one
    first = {}
    basis = []
    for u in vectors_of_degree(phi.source.rank, degree):
        key = sum(map(mul, u, codes))
        found = first.get(key)
        if found is None:
            first[key] = (u, unit(u))
            continue
        u0, c0 = found  # c0 is None exactly when the map's c_u are all 1
        ratio = minus_one if c0 is None else -LaurentPolynomial.from_unit(_unit_of(_power(((unit(u), 1), (c0, -1)))))
        # Canonical as it stands: u0 != u, both of the source's rank, and both coefficients nonzero.
        basis.append(AlgebraElement._trusted(phi.source, {u0: ratio, u: one}))
    return basis
