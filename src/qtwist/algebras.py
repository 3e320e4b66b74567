"""Twisted monoid algebras: N^n-graded algebras with cocycle-twisted products.

An algebra here has basis monomials e_u indexed by exponent vectors and the
product e_u * e_v = mu(u, v) e_{u+v} for a bimultiplicative cocycle mu.  With
the trivial cocycle this is the commutative polynomial algebra; the canonical
cocycle of an antisymmetric matrix q gives the quantum projective space with
relations X_j X_i = q_ji X_i X_j.  Standard monomials are a basis by
construction, so no rewriting machinery is needed: products, twists, twisted
tensor products and the scaling isomorphisms between cohomologous twists are
all exact matrix/unit computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cocycles import (
    BimultiplicativeCocycle,
    Pairing,
    antisymmetrize,
    canonical_from_antisym,
    cohomologous,
    symmetric_trivializer,
    yamazaki_factorize,
)
from .monoids import ExponentVector, ProductSplit
from .scalars import (
    LaurentPolynomial,
    UnitScalar,
    _exponents,
    _parse_product,
    _parse_sum,
    _render_sum,
    _split_sign,
    parse_poly,
    render_poly,
)


class TwistedMonoidAlgebra:
    """N^rank-graded algebra with basis e_u and product e_u e_v = mu(u,v) e_{u+v}."""

    __slots__ = ("rank", "cocycle", "generator_names", "split")

    def __init__(self, cocycle, generator_names=None, split=None):
        self.rank = cocycle.rank
        self.cocycle = cocycle
        if generator_names is None:
            generator_names = [f"X{i}" for i in range(self.rank)]
        names = tuple(generator_names)
        if len(names) != self.rank:
            raise ValueError(f"expected {self.rank} generator names, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.generator_names = names
        self.split = split

    def parameters(self):
        return self.cocycle.parameters()

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return self.basis_element(ExponentVector.zero(self.rank))

    def generator(self, k):
        return self.basis_element(ExponentVector.unit(self.rank, k))

    def generator_index(self, name):
        try:
            return self.generator_names.index(name)
        except ValueError:
            raise ValueError(f"unknown generator name {name!r}") from None

    def basis_element(self, u, coeff=1):
        if u.rank != self.rank:
            raise ValueError(f"rank mismatch: algebra has rank {self.rank}, got {u.rank}")
        if isinstance(coeff, UnitScalar):
            coeff = LaurentPolynomial.from_unit(coeff)
        elif not isinstance(coeff, LaurentPolynomial):
            coeff = LaurentPolynomial.from_rational(coeff)
        return AlgebraElement(self, {u: coeff})

    def element(self, terms):
        return AlgebraElement(self, dict(terms))

    def multiply(self, x, y):
        if x.algebra != self or y.algebra != self:
            raise ValueError("elements do not belong to this algebra")
        out = {}
        for u, p in x.terms.items():
            for v, q in y.terms.items():
                c = self.cocycle.evaluate(u, v)
                pq = p * q
                if not c.is_one():
                    pq = pq.scaled(c)
                w = u + v
                if w in out:
                    pq = out[w] + pq
                out[w] = pq
        return AlgebraElement(self, out)

    def __eq__(self, other):
        if not isinstance(other, TwistedMonoidAlgebra):
            return NotImplemented
        return (self.rank == other.rank and self.cocycle == other.cocycle
                and self.generator_names == other.generator_names)

    def __repr__(self):
        return f"TwistedMonoidAlgebra(rank={self.rank}, generators={list(self.generator_names)})"


class AlgebraElement:
    """Sparse finite sum of Laurent-polynomial coefficients over basis monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        clean = {}
        for u, p in terms.items():
            if u.rank != algebra.rank:
                raise ValueError(f"term {u!r} does not match algebra rank {algebra.rank}")
            if not isinstance(p, LaurentPolynomial):
                p = LaurentPolynomial.from_rational(p)
            if not p.is_zero():
                clean[u] = p
        self.algebra = algebra
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        """The common degree of all terms, or None if not homogeneous (zero counts as homogeneous)."""
        degrees = set(self.terms)
        if len(degrees) > 1:
            return None
        return next(iter(degrees), None)

    def coefficient(self, u):
        return self.terms.get(u, LaurentPolynomial.zero())

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.algebra != self.algebra:
            raise ValueError("elements live in different algebras")
        out = dict(self.terms)
        for u, p in other.terms.items():
            s = out.get(u, LaurentPolynomial.zero()) + p
            if s.is_zero():
                out.pop(u, None)
            else:
                out[u] = s
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {u: -p for u, p in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        if isinstance(other, (int, Fraction, UnitScalar, LaurentPolynomial)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, UnitScalar, LaurentPolynomial)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c):
        if isinstance(c, UnitScalar):
            return AlgebraElement(self.algebra, {u: p.scaled(c) for u, p in self.terms.items()})
        if not isinstance(c, LaurentPolynomial):
            c = LaurentPolynomial.from_rational(c)
        return AlgebraElement(self.algebra, {u: p * c for u, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __str__(self):
        return render_element(self)

    def __repr__(self):
        return f"AlgebraElement({render_element(self)!r})"

    def to_json(self):
        return [{"exponents": u.to_json(), "coefficient": render_poly(p)}
                for u, p in sorted(self.terms.items(), key=lambda t: (t[0].degree(), t[0].entries))]


def quantum_projective_space(q, generator_names=None):
    """The algebra on X_0..X_N with relations X_j X_i = q_ji X_i X_j (i < j).

    Realized as the twist of the polynomial algebra by the canonical cocycle
    of q, so standard monomials are a basis by construction.
    """
    return TwistedMonoidAlgebra(canonical_from_antisym(q), generator_names)


def deformation_matrix(algebra):
    """The antisymmetric matrix of commutation data: entry (j,i) is the unit
    lambda with e_gj * e_gi = lambda * e_gi * e_gj."""
    return antisymmetrize(algebra.cocycle)


def twist_by(algebra, nu):
    """Twist by a further cocycle: the cocycles multiply."""
    if nu.rank != algebra.rank:
        raise ValueError(f"cocycle rank {nu.rank} does not match algebra rank {algebra.rank}")
    return TwistedMonoidAlgebra(algebra.cocycle * nu, algebra.generator_names, split=algebra.split)


def twisted_tensor_product(left, right, alpha):
    """The algebra factorization with c * b = alpha(deg b, deg c) b (x) c.

    Cocycle block form on rank a+b: (a,a) block = left's matrix, (b,b) block =
    right's matrix, (a,b) block all ones, and (b,a) block carrying alpha with
    entry (a+j, i) = alpha_ij.  That placement encodes the twisting cocycle
    tau((s,t),(s',t')) = alpha(s', t); with alpha trivial this is the classical
    tensor product, where the factors commute.
    """
    a, b = left.rank, right.rank
    if (alpha.left_rank, alpha.right_rank) != (a, b):
        raise ValueError(f"pairing shape {alpha.left_rank}x{alpha.right_rank} does not match ranks {a}, {b}")
    names = left.generator_names + right.generator_names
    if len(set(names)) != len(names):
        raise ValueError("generator names of the tensor factors collide")
    one = UnitScalar.one()
    rows = []
    for i in range(a):
        rows.append(list(left.cocycle.matrix[i]) + [one] * b)
    for j in range(b):
        rows.append([alpha.entry(i, j) for i in range(a)] + list(right.cocycle.matrix[j]))
    return TwistedMonoidAlgebra(BimultiplicativeCocycle(rows), names, split=ProductSplit(a, b))


def embed_left(tensor_algebra, x):
    """b |-> b (x) 1 along the split carried by a tensor-product algebra."""
    split = tensor_algebra.split
    if split is None:
        raise ValueError("algebra does not carry a product split")
    if x.algebra.rank != split.left_rank:
        raise ValueError("element rank does not match the left factor")
    return AlgebraElement(tensor_algebra,
                          {split.inject_left(u): p for u, p in x.terms.items()})


def embed_right(tensor_algebra, y):
    """c |-> 1 (x) c along the split carried by a tensor-product algebra."""
    split = tensor_algebra.split
    if split is None:
        raise ValueError("algebra does not carry a product split")
    if y.algebra.rank != split.right_rank:
        raise ValueError("element rank does not match the right factor")
    return AlgebraElement(tensor_algebra,
                          {split.inject_right(u): p for u, p in y.terms.items()})


@dataclass(frozen=True)
class FactorTwistReport:
    """Comparison of a twisted tensor-product square.

    ``twisted_classical`` is (B (x) C)_mu, the twist of the classical tensor
    product by mu; ``tensor_of_twists`` is B_nu (x)_alpha C_xi built from the
    Yamazaki factorization of mu (with the cross pairing inverted, since it
    governs c*b rather than b*c).  The two cocycles are always cohomologous;
    ``identical`` reports equality on the nose, and ``factorizable`` whether mu
    has trivial cross pairing, in which case the right-hand side is a classical
    tensor product of twists.
    """

    twisted_classical: TwistedMonoidAlgebra
    tensor_of_twists: TwistedMonoidAlgebra
    cohomologous: bool
    identical: bool
    factorizable: bool


def factor_twist(left, right, mu):
    """Compare (B (x) C)_mu with the twisted tensor product of the factor twists."""
    a, b = left.rank, right.rank
    if mu.rank != a + b:
        raise ValueError(f"cocycle rank {mu.rank} does not match ranks {a}+{b}")
    split = ProductSplit(a, b)
    classical = twisted_tensor_product(left, right, Pairing.trivial(a, b))
    lhs = twist_by(classical, mu)
    nu, xi, alpha_mu = yamazaki_factorize(mu, split)
    rhs = twisted_tensor_product(twist_by(left, nu), twist_by(right, xi), alpha_mu.inverse())
    return FactorTwistReport(
        twisted_classical=lhs,
        tensor_of_twists=rhs,
        cohomologous=cohomologous(lhs.cocycle, rhs.cocycle),
        identical=lhs.cocycle == rhs.cocycle,
        factorizable=alpha_mu.is_trivial(),
    )


class DiagonalScaling:
    """Graded linear map e_u |-> h(u) e_u between two twists of one algebra."""

    __slots__ = ("source", "target", "scale")

    def __init__(self, source, target, scale):
        self.source = source
        self.target = target
        self.scale = scale

    def __call__(self, x):
        if x.algebra != self.source:
            raise ValueError("element does not belong to the source algebra")
        return AlgebraElement(self.target,
                              {u: p.scaled(self.scale(u)) for u, p in x.terms.items()})

    def inverse(self):
        h = self.scale
        return DiagonalScaling(self.target, self.source, lambda u: h(u).inv())


@dataclass(frozen=True)
class MultiplicativityReport:
    """Outcome of an exact multiplicativity check on sampled element pairs."""

    passed: bool
    pairs_checked: int
    seed: int
    counterexample: tuple | None = None

    def __bool__(self):
        return self.passed


def coboundary_isomorphism(algebra, mu, nu, samples=50, seed=0):
    """The scaling isomorphism A_mu -> A_nu for cohomologous twisting cocycles.

    mu/nu is symmetric bimultiplicative, so `symmetric_trivializer` provides h
    with delta(h) = mu/nu; the map e_u |-> h(u) e_u then intertwines the two
    twisted products.  Returns the map and an exact verification report on
    `samples` random element pairs.
    """
    if mu.rank != algebra.rank or nu.rank != algebra.rank:
        raise ValueError("cocycle ranks do not match the algebra")
    if not cohomologous(mu, nu):
        raise ValueError("cocycles are not cohomologous; no scaling isomorphism exists")
    h = symmetric_trivializer(mu * nu.inverse())
    source = twist_by(algebra, mu)
    target = twist_by(algebra, nu)
    phi = DiagonalScaling(source, target, h)

    rng = random.Random(seed)
    counterexample = None
    for _ in range(samples):
        x = random_element(source, rng)
        y = random_element(source, rng)
        if phi(x * y) != phi(x) * phi(y):
            counterexample = (render_element(x), render_element(y))
            break
    report = MultiplicativityReport(counterexample is None, samples, seed, counterexample)
    return phi, report


# ---------------------------------------------------------------------------
# Seeded random elements (deterministic verification samples)
# ---------------------------------------------------------------------------


def random_unit(rng, parameters=(), max_num=7, max_exp=2):
    """A random unit: nonzero rational with |num|, den <= max_num, small parameter exponents."""
    num = 0
    while num == 0:
        num = rng.randint(-max_num, max_num)
    coeff = Fraction(num, rng.randint(1, max_num))
    exps = {}
    for name in parameters:
        if rng.random() < 0.5:
            e = rng.randint(-max_exp, max_exp)
            if e:
                exps[name] = e
    return UnitScalar(coeff, exps)


def random_vector(rng, rank, max_entry=4, max_support=3):
    """A sparse random exponent vector with entries in 1..max_entry."""
    entries = [0] * rank
    for i in rng.sample(range(rank), min(rng.randint(0, max_support), rank)):
        entries[i] = rng.randint(1, max_entry)
    return ExponentVector(entries)


def random_element(algebra, rng, max_terms=3, max_entry=4, max_support=3):
    """A random element with <= max_terms terms and sparse monomials."""
    params = sorted(algebra.parameters())
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        u = random_vector(rng, algebra.rank, max_entry, max_support)
        c = LaurentPolynomial.from_unit(random_unit(rng, params))
        terms[u] = terms.get(u, LaurentPolynomial.zero()) + c
    return AlgebraElement(algebra, terms)


def random_homogeneous(algebra, rng, max_entry=4, max_support=3):
    """A random scalar multiple of a single basis monomial."""
    params = sorted(algebra.parameters())
    u = random_vector(rng, algebra.rank, max_entry, max_support)
    return algebra.basis_element(u, random_unit(rng, params))


# ---------------------------------------------------------------------------
# Element literals (the grammar is in scalars)
# ---------------------------------------------------------------------------


def parse_element(algebra, text, parameters=None):
    """Parse an element literal; names that are not generators are coefficient parameters.

    If `parameters` is given, any non-generator name must be in it (unknown
    names raise ValueError).
    """
    return _parse_sum(text, lambda token: _parse_term(algebra, token, parameters), algebra.zero())


def _parse_term(algebra, token, parameters):
    sign, body = _split_sign(token)
    poly = None
    if body.startswith("("):
        depth = 0
        for close, ch in enumerate(body):  # balanced: the sum splitter checked it
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                break
        poly = parse_poly(body[1:close])
        body = body[close + 1:].strip()
        if body and not body.startswith("*"):
            raise ValueError(f"expected '*' after parenthesized coefficient in {token!r}")
        body = body[1:].strip() or "1"
    coeff, factors = _parse_product(body, token)
    if coeff == 0:
        return algebra.zero()
    names = algebra.generator_names
    entries = [0] * algebra.rank
    params = []
    for name, e in factors:
        if name in names:
            if e < 1:
                raise ValueError(f"generator exponents must be positive: {name}^{e} in {token!r}")
            entries[names.index(name)] += e
        elif parameters is not None and name not in parameters:
            raise ValueError(f"unknown generator or parameter name {name!r}")
        else:
            params.append((name, e))
    coeff = LaurentPolynomial.from_unit(UnitScalar(sign * coeff, _exponents(params)))
    if poly is not None:
        coeff = coeff * poly
    return AlgebraElement(algebra, {ExponentVector(entries): coeff})


def render_element(x):
    """Canonical element literal: terms ordered by (degree, exponents), unit coefficients."""
    names = x.algebra.generator_names
    terms = []
    for u in sorted(x.terms, key=lambda u: (u.degree(), u.entries)):
        gens = tuple((names[i], u[i]) for i in u.support())
        coeff = x.terms[u].terms
        terms += [(coeff[key], key + gens) for key in sorted(coeff)]
    return _render_sum(terms)
