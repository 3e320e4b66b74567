"""Twisted monoid algebras: N^n-graded algebras with cocycle-twisted products.

An algebra here has basis monomials e_u indexed by exponent vectors and the
product e_u * e_v = mu(u, v) e_{u+v} for a bimultiplicative cocycle mu.  With
the trivial cocycle this is the commutative polynomial algebra; the canonical
cocycle of an antisymmetric matrix q gives the quantum projective space with
relations X_j X_i = q_ji X_i X_j.  Standard monomials are a basis by
construction, so no rewriting machinery is needed: products, twists, twisted
tensor products and the scaling isomorphisms between cohomologous twists are
all exact matrix/unit computations.  Two algebras with equal cocycles and
equal generator names are equal and hash alike, whatever built them.

Products, monomial-map images, element sums and random elements add their
coefficient products through ``scalars._add_product`` and reduce each
result term to its stored int pair, with no ``Fraction`` and no
intermediate unit or polynomial: a
product's cocycle value mu(u, v) is one integer form from the bilinear
kernel, ``scalars._bilinear_power``, multiplied in as it stands;
their results go through the unchecked ``AlgebraElement._trusted``.  The
integer form of a unit is ``scalars``' own: this module passes forms on,
makes them with ``_integer_unit`` and units of them with ``_unit_of``, and
reads no field of one.  A
coefficient given as a unit, an int or a ``Fraction`` is coerced by
``scalars`` too.  These loops skip only checks that an owner has made, and
only through the owner's unchecked entries: a product takes each term's
sparse form (``monoids._nonzero``) once and adds the exponent vectors, keys
of checked elements, through ``ExponentVector._trusted``; an image maps
each key through ``MonoidMorphism._image``; the sampler draws each
coefficient straight into its integer form
(``scalars._random_integer_unit``).  An image is the one trusted
path into another algebra, so it refuses a coefficient parameter that is a
generator name of the target, as the checked element constructor does for
its own algebra and the map constructor for a source cocycle parameter.
All three ask the algebra's one entry for that rule,
``TwistedMonoidAlgebra._refuse_generator_names``, and none copies it.  The
image's body, ``GradedHomomorphism._apply``, checks nothing; besides
`apply`, only the random pairs of :func:`verify_homomorphism` run it, on
elements drawn in the source, whose parameters the map's constructors have
already kept apart from the target's generator names.

Every morphism here is a :class:`GradedHomomorphism`, the factor embeddings
b |-> b (x) 1 and c |-> 1 (x) c of a tensor product included: it sends e_u
to a unit times one basis monomial.  So a map holds only its monoid
morphism f and one unit per generator, in integer form; its generator
images are derived from them when read, and the Segre maps and the
embeddings build no element to define one.  The unit c_u of
phi(e_u) = c_u e_f(u) has one rule, ``GradedHomomorphism._unit``, which
every reader goes through (images, `image_of_basis` and
``segre.kernel_basis``); it computes nothing for a map whose units and
ratio matrix are all 1, as for every Segre map.  A map is multiplicative
exactly when its ratio matrix
R_kl = mu_target(f e_k, f e_l) / mu_source(e_k, e_l) is symmetric, and R
is exact by construction: the public constructor divides the pullback by
the source cocycle, and the bare-image maps (Segre maps and the
embeddings) come from ``GradedHomomorphism._from_pullback``, which builds
its source as the twist by the target cocycle pulled back along f, so
their R is all ones.  So :func:`verify_homomorphism` decides each
generator pair by comparing two canonical integer forms of R, with no
product and no element built; its random pairs are a self-test of
`multiply` and of `apply`'s body.  The scaling isomorphism
(:class:`DiagonalScaling`) is the instance with bare images e_k |-> e_k and
R = nu/mu, symmetric because mu and nu are cohomologous.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

# BimultiplicativeCocycle stays importable from here.
from .cocycles import (
    BimultiplicativeCocycle,
    CheckReport,
    Pairing,
    antisymmetrize,
    canonical_from_antisym,
    _quadratic_pairs,
    cohomologous,
    pullback,
    yamazaki_factorize,
    yamazaki_reconstruct,
)
from .monoids import ExponentVector, MonoidMorphism, ProductSplit, _nonzero, _rank_arg, _Record, _vector_arg
from .scalars import (
    LaurentPolynomial,
    UnitScalar,
    _add_product,
    _bilinear_power,
    _coefficient,
    _integer_unit,
    _name_arg,
    _parse_product,
    _parse_sum,
    _polynomial,
    _power,
    _random_integer_unit,
    _render_sum,
    _split_sign,
    _summed_exps,
    _unit_of,
    parse_poly,
    render_poly,
)


class TwistedMonoidAlgebra:
    """N^rank-graded algebra with basis e_u and product e_u e_v = mu(u,v) e_{u+v}.

    The cocycle must be a `BimultiplicativeCocycle` (TypeError).  Its
    generator names are read back by `parse_element`, so each must be a
    name of the literal grammar (a letter, then letters, digits or `_`) that
    is not a parameter of the cocycle; the names must be distinct, and come
    as a sequence of strings, never as one string.  The converse rule, that
    no parameter of an element or a map is a generator name, has its one
    body here too: `_refuse_generator_names`.
    """

    __slots__ = ("rank", "cocycle", "generator_names")

    def __init__(self, cocycle, generator_names=None):
        self.rank = _instance_arg(cocycle, BimultiplicativeCocycle, "cocycle").rank
        self.cocycle = cocycle
        if generator_names is None:
            generator_names = [f"X{i}" for i in range(self.rank)]
        if isinstance(generator_names, str):
            raise TypeError(f"generator names must be a sequence of names, got the string {generator_names!r}")
        names = tuple(generator_names)
        if len(names) != self.rank:
            raise ValueError(f"expected {self.rank} generator names, got {len(names)}")
        for name in names:
            if _name_arg(name, "generator name") in cocycle.parameters():
                raise ValueError(f"generator name {name!r} is a parameter of the cocycle")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.generator_names = names

    def parameters(self):
        return self.cocycle.parameters()

    def _refuse_generator_names(self, params, what, algebra):
        """Refuse a set of parameters that holds a generator name: ValueError naming the least such name.

        The one body of the rule that no parameter of an element or a map
        is a generator name, so that `parse_element` reads a rendered
        element back.  `what` says whose parameters they are ("coefficient
        parameter", "source cocycle parameter") and `algebra` which algebra
        this is ("the algebra", "the target algebra").
        """
        if not params.isdisjoint(self.generator_names):
            clash = min(params.intersection(self.generator_names))
            raise ValueError(f"{what} {clash!r} is a generator name of {algebra}")

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return self.basis_element(ExponentVector.zero(self.rank))

    def generator(self, k):
        return self.basis_element(ExponentVector.unit(self.rank, k))

    def basis_element(self, u, coeff=1):
        return AlgebraElement(self, {u: coeff})

    def element(self, terms):
        return AlgebraElement(self, dict(terms))

    def multiply(self, x, y):
        """x * y: p e_u times q e_v adds mu(u, v)*p*q to the coefficient of e_{u+v}.

        Each term's sparse form is taken once per product, not once per term
        pair, and u + v is added unchecked: both are keys of checked elements.
        mu(u, v) is one integer form from the bilinear kernel
        (`scalars._bilinear_power`), which `_add_product` multiplies in as
        it stands, with no unit made.
        """
        if x.algebra != self or y.algebra != self:
            raise ValueError("elements do not belong to this algebra")
        matrix, vector = self.cocycle._integer, ExponentVector._trusted
        right = []
        for v, q in y.terms.items():
            right.append((v, _nonzero(v), q.forms.items()))
        out = {}
        for u, p in x.terms.items():
            su, left = _nonzero(u), p.forms.items()
            for v, sv, q in right:
                w = vector(map(add, u, v))
                _add_product(out.setdefault(w, {}), _bilinear_power(matrix, su, sv), left, q)
        return _element(self, out)

    def __eq__(self, other):
        """Equal when the cocycles (which fix the rank) and the generator names are equal."""
        if other is self:
            return True
        if not isinstance(other, TwistedMonoidAlgebra):
            return NotImplemented
        return self.cocycle == other.cocycle and self.generator_names == other.generator_names

    def __hash__(self):
        return hash((self.cocycle, self.generator_names))

    def __repr__(self):
        return f"TwistedMonoidAlgebra(rank={self.rank}, generators={list(self.generator_names)})"


def _instance_arg(arg, kind, what):
    """`arg` if it is a `kind`, else TypeError naming it: the one body of the object-argument check."""
    if not isinstance(arg, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, got {arg!r}")
    return arg


def _element(algebra, out):
    """The element of a {vector: accumulator} map, dropping the vectors whose polynomial is zero."""
    terms = {}
    for w, acc in out.items():
        p = _polynomial(acc)
        if p.forms:
            terms[w] = p
    return AlgebraElement._trusted(algebra, terms)


class AlgebraElement:
    """Sparse finite sum of Laurent-polynomial coefficients over basis monomials.

    The algebra must be a `TwistedMonoidAlgebra` (TypeError).  No
    coefficient parameter may be a generator name of the algebra, so that
    `parse_element` reads `render_element`'s literal back as the same element.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        _instance_arg(algebra, TwistedMonoidAlgebra, "algebra")
        clean = {}
        for u, p in terms.items():
            _vector_arg(u, algebra.rank, "term")
            p = _coefficient(p)
            algebra._refuse_generator_names(p.parameters(), "coefficient parameter", "the algebra")
            if p.forms:
                clean[u] = p
        self.algebra = algebra
        self.terms = clean

    @classmethod
    def _trusted(cls, algebra, terms):
        """Internal: the element of a {vector of the algebra's rank: nonzero LaurentPolynomial} map, unchecked."""
        x = object.__new__(cls)
        x.algebra = algebra
        x.terms = terms
        return x

    def is_zero(self):
        return not self.terms

    def homogeneous_degree(self):
        """The common degree of all terms; None for zero, and for terms of more than one degree."""
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
        out = {}
        for x in (self, other):
            for u, p in x.terms.items():
                _add_product(out.setdefault(u, {}), None, p.forms.items())
        return _element(self.algebra, out)

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

    __rmul__ = __mul__  # scalars are central; an element on the left takes __mul__

    def scaled(self, c):
        c = _coefficient(c)
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
                for u, p in sorted(self.terms.items(), key=lambda t: (t[0].degree(), t[0]))]


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
    return TwistedMonoidAlgebra(algebra.cocycle * nu, algebra.generator_names)


def twisted_tensor_product(left, right, alpha):
    """The algebra factorization with c * b = alpha(deg b, deg c) b (x) c.

    Its twisting cocycle is tau((s,t),(s',t')) = alpha(s', t), which is
    Yamazaki's sigma((s,t),(s',t')) = alpha(s, t') with its arguments
    swapped: tau is the opposite of yamazaki_reconstruct(left^op, right^op,
    alpha), whose shape check it shares.  In block form on rank a+b: (a,a)
    block = left's matrix, (b,b) block = right's matrix, (a,b) block all
    ones, and (b,a) block carrying alpha with entry (a+j, i) = alpha_ij.
    With alpha trivial this is the classical tensor product, where the
    factors commute.  The result stores no split: `embed_left` and
    `embed_right` find each factor as the block of generators whose pulled-back
    cocycle and names are the factor's, so they accept its elements and those
    of no other algebra.
    """
    tau = yamazaki_reconstruct(left.cocycle._opposite(), right.cocycle._opposite(), alpha)._opposite()
    return TwistedMonoidAlgebra(tau, left.generator_names + right.generator_names)


def embed_left(tensor_algebra, x):
    """b |-> b (x) 1: x under the map from the leading generators of the tensor algebra.

    With r = x.algebra.rank, the map is the bare-image graded homomorphism
    along the injection of N^r as the first r coordinates, from the twist
    by the tensor cocycle pulled back along it, named by the first r
    generator names.  It applies only to elements of that algebra, so x is
    accepted exactly when its algebra has that cocycle and those names
    (algebras are equal by these two, and hash by them).  Any algebra whose
    leading block pulls back to x's algebra takes x, so the factors of a
    nested tensor product embed too.  A foreign element, zero included,
    raises ValueError; so does a rank that leaves no generators for the
    other factor.
    """
    ProductSplit(x.algebra.rank, tensor_algebra.rank - x.algebra.rank)  # both factors have rank >= 1
    return _embed(tensor_algebra, x, 0)


def embed_right(tensor_algebra, y):
    """c |-> 1 (x) c: y under the map from the trailing generators, as in `embed_left`."""
    split = ProductSplit(tensor_algebra.rank - y.algebra.rank, y.algebra.rank)
    return _embed(tensor_algebra, y, split.left_rank)


def _embed(tensor_algebra, x, start):
    """x under the bare-image map from the block of generators of the tensor algebra from index `start` on.

    The map is `GradedHomomorphism._from_pullback` along that coordinate
    injection, named by the block's generator names, so its source is the
    twist by the pulled-back tensor cocycle, and `apply` accepts x exactly
    when x's algebra equals it.
    """
    rank, stop = tensor_algebra.rank, start + x.algebra.rank
    f = MonoidMorphism(x.algebra.rank, rank, [ExponentVector.unit(rank, i) for i in range(start, stop)])
    names = tensor_algebra.generator_names[start:stop]
    return GradedHomomorphism._from_pullback(tensor_algebra, f, names).apply(x)


class FactorTwistReport(_Record):
    """Comparison of a twisted tensor-product square.

    ``twisted_classical`` is (B (x) C)_mu, the twist of the classical tensor
    product by mu; ``tensor_of_twists`` is B_nu (x)_alpha C_xi built from the
    Yamazaki factorization of mu (with the cross pairing inverted, since it
    governs c*b rather than b*c).  The two cocycles are always cohomologous;
    ``identical`` reports equality on the nose, and ``factorizable`` whether mu
    has trivial cross pairing, in which case the right-hand side is a classical
    tensor product of twists.  The three verdicts are bools.
    """

    __slots__ = ("twisted_classical", "tensor_of_twists", "cohomologous", "identical", "factorizable")


def factor_twist(left, right, mu):
    """Compare (B (x) C)_mu with the twisted tensor product of the factor twists."""
    a, b = left.rank, right.rank
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


#: The multiplicativity checks' former report names, kept for the callers that import them.
MultiplicativityReport = HomomorphismReport = CheckReport


class GradedHomomorphism:
    """Algebra map e_k |-> s_k e_f(e_k), for units s_k and a monoid morphism f.

    The map holds this defining data, f and the integer forms of the units
    s_k, and its ratio matrix R, the quotient of the pullback of the target
    cocycle along f by the source cocycle:
    R_kl = mu_target(f e_k, f e_l) / mu_source(e_k, e_l).  e_u goes to the
    ordered product of its generators' images, which is
    prod_k s_k^u_k R_kk^C(u_k, 2) prod_(k<l) R_kl^(u_k u_l) e_f(u); nothing
    is cached per monomial, and no element is stored: `generator_images`
    is derived from f and the units on each read.  Two maps are equal, and
    hash alike, when their algebras, f's generator images and the units
    are.  Each constructor makes R exact: the public one computes it from
    the two cocycles, and `_from_pullback` builds the pulled-back source
    itself, so its R is all ones.  `_unit` and the generator pairs of
    `verify_homomorphism` are the two readers of R.  When every s_k and
    every R_kl is 1 (as for every Segre map), e_u goes to exactly e_f(u),
    and `_unit`, the one rule for c_u, returns None for every u, so the map
    does no unit arithmetic.  No source cocycle parameter may be a target
    generator name (the target's `_refuse_generator_names` decides it), so
    that the images read back through `parse_element`.  The public
    constructor takes a source and a target that are `TwistedMonoidAlgebra`s
    and a `MonoidMorphism` (TypeError naming the argument).
    """

    __slots__ = ("source", "target", "monoid_morphism", "_image_units", "_ratio", "_all_ones")

    def __init__(self, source, target, monoid_morphism, generator_images):
        _instance_arg(source, TwistedMonoidAlgebra, "source")
        _instance_arg(target, TwistedMonoidAlgebra, "target")
        f = _instance_arg(monoid_morphism, MonoidMorphism, "monoid morphism")
        if f.source_rank != source.rank or f.target_rank != target.rank:
            raise ValueError("monoid morphism ranks do not match the algebras")
        target._refuse_generator_names(source.parameters(), "source cocycle parameter", "the target algebra")
        images = tuple(generator_images)
        if len(images) != source.rank:
            raise ValueError(f"expected {source.rank} generator images, got {len(images)}")
        units = []
        for k, img in enumerate(images):
            if img.algebra != target:
                raise ValueError(f"generator image {k} does not live in the target algebra")
            if len(img.terms) != 1:
                raise ValueError(f"generator image {k} must be a scalar multiple of a basis monomial")
            (degree, coeff), = img.terms.items()
            if degree != f.generator_images[k]:
                raise ValueError(
                    f"generator image {k} has degree {degree!r}, expected {f.generator_images[k]!r}")
            coeff_units = coeff.units()
            if len(coeff_units) != 1:
                raise ValueError(f"generator image {k} must have an invertible (single-term) coefficient")
            units.append(coeff_units[0])
        self.source = source
        self.target = target
        self.monoid_morphism = f
        self._image_units = tuple(map(_integer_unit, units))
        self._ratio = (pullback(target.cocycle, f) * source.cocycle.inverse())._integer
        self._all_ones = not any(self._image_units) and not any(map(any, self._ratio))

    @classmethod
    def _from_pullback(cls, target, f, names):
        """The bare-image map e_k |-> e_f(e_k) from the twist by the target cocycle pulled back along f.

        The source, named by `names`, is built here, so R and the units are
        all ones by construction.
        """
        phi = cls.__new__(cls)
        phi.source = TwistedMonoidAlgebra(pullback(target.cocycle, f), names)
        phi.target, phi.monoid_morphism = target, f
        one = (None,) * f.source_rank
        phi._image_units, phi._ratio, phi._all_ones = one, (one,) * f.source_rank, True
        return phi

    @property
    def generator_images(self):
        """The images s_k e_f(e_k) of the source generators, as target elements, derived on each read."""
        return tuple(self.apply(self.source.generator(k)) for k in range(self.source.rank))

    def image_of_basis(self, u):
        """(unit, degree) with phi(e_u) = unit * e_degree in the target."""
        degree = self.monoid_morphism(u)  # checks the vector and its rank first
        return _unit_of(self._unit(u)), degree

    def _unit(self, u):
        """c_u of phi(e_u) = c_u e_f(u) in integer form, unreduced; u must have the source's rank.

        The one rule for c_u, and the only reader of `_all_ones`: None when
        every s_k and R_kl is 1 (as for every Segre map), so that such a map
        does no unit arithmetic; otherwise the `_power` of
        `cocycles._quadratic_pairs` over R and the s_k.  `apply`,
        `image_of_basis`, the generator pairs of `verify_homomorphism` and
        `segre.kernel_basis` all read c_u here.
        """
        if self._all_ones:
            return None
        return _power(_quadratic_pairs(self._ratio, _nonzero(u), self._image_units))

    def apply(self, x):
        """Linear extension of the basis action; preserves grading along f.

        x must be an element of the source (ValueError).  `apply` is the
        trusted path that moves an element into another algebra, so it asks
        the target's `_refuse_generator_names` to refuse a coefficient
        parameter of x that is a generator name of the target: the image
        would not read back through `parse_element`.  It then computes the
        image through `_apply`, which repeats neither check.
        """
        if x.algebra != self.source:
            raise ValueError("element does not belong to the source algebra")
        params = {name for p in x.terms.values() for name in p.parameters()}
        self.target._refuse_generator_names(params, "coefficient parameter", "the target algebra")
        return self._apply(x)

    def _apply(self, x):
        """Internal: `apply` unchecked; x must be a source element with no parameter a target generator name.

        With phi(e_u) = c e_w, p e_u adds c*p to the coefficient of e_w, c in
        the integer form of `_unit`; on a map whose units and ratio matrix
        are all 1 (c is None), a lone e_u keeps its coefficient.  x's keys
        are checked vectors of the source's rank, so they go through the
        unchecked `MonoidMorphism._image`.  Besides `apply`, only the random
        pairs of `verify_homomorphism` call it: their elements are drawn in
        the source, so their coefficient parameters are source cocycle
        parameters, which both constructors keep apart from the target's
        generator names.
        """
        image, unit = self.monoid_morphism._image, self._unit
        fibers = {}
        for u, p in x.terms.items():
            fibers.setdefault(image(u), []).append((unit(u), p))
        terms = {}
        for w, parts in fibers.items():
            if len(parts) == 1 and parts[0][0] is None:
                terms[w] = parts[0][1]
                continue
            acc = {}
            for c, p in parts:
                _add_product(acc, c, p.forms.items())
            p = _polynomial(acc)
            if p.forms:
                terms[w] = p
        return AlgebraElement._trusted(self.target, terms)

    def __call__(self, x):
        return self.apply(x)

    def _key(self):
        """The defining data: the algebras, f's generator images and the units' integer forms."""
        return self.source, self.target, self.monoid_morphism.generator_images, self._image_units

    def __eq__(self, other):
        if not isinstance(other, GradedHomomorphism):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def verify_homomorphism(phi, samples=100, seed=0):
    """Check phi(x*y) = phi(x)*phi(y) exactly on all generator pairs plus random pairs.

    Generator pair (k, l) is the unit identity
    mu_source(e_k, e_l) c_(e_k+e_l) = s_k s_l mu_target(f e_k, f e_l).  With
    c_(e_k+e_l) = s_k s_l R_(min, max) from the ordered product, the pair
    with l < k holds exactly when R_kl = R_lk, and the pairs with l >= k
    always hold; a symmetric R makes the map multiplicative everywhere, so
    the generator pairs are a complete proof.  Both constructors make R
    exact: the public one divides the pullback by the source cocycle, and
    `_from_pullback` builds its source as the pullback, so R is all ones.
    So each pair with l < k compares the canonical integer forms
    `phi._ratio[k][l]` and `phi._ratio[l][k]`, with no product and no
    element built, in the order (0, 0), (0, 1), ..., and `pairs_checked`
    counts every pair up to the first failure.  The random pairs (<= 3-term
    elements with sparse exponents <= 4, deterministic given the seed) are a
    self-test of `multiply` and of `apply`'s body: they map through the
    unchecked `phi._apply`, because `random_element` draws them in the
    source, so the two checks of `apply` hold already (the constructors keep
    every source cocycle parameter apart from the target's generator
    names).  Reports the first counterexample.
    `samples` must be an int >= 0 (not a bool).
    """
    samples = _rank_arg(samples, "samples")
    source, ratio = phi.source, phi._ratio
    for k, row in enumerate(ratio):
        for l in range(k):
            if row[l] != ratio[l][k]:
                names = source.generator_names
                return HomomorphismReport(False, k * len(ratio) + l + 1, seed, (names[k], names[l]))
    checked = len(ratio) ** 2
    rng = random.Random(seed)
    for _ in range(samples):
        x = random_element(source, rng)
        y = random_element(source, rng)
        checked += 1
        if phi._apply(x * y) != phi._apply(x) * phi._apply(y):
            return HomomorphismReport(False, checked, seed,
                                      (render_element(x), render_element(y)))
    return HomomorphismReport(True, checked, seed)


class DiagonalScaling(GradedHomomorphism):
    """The map e_u |-> scale(u) e_u from A_mu to A_nu, with bare generator images e_k |-> e_k.

    Its ratio matrix is nu/mu, so it is multiplicative exactly when mu and nu are cohomologous.
    The source and the target must be `TwistedMonoidAlgebra`s (TypeError naming the argument).
    """

    __slots__ = ()

    def __init__(self, source, target):
        _instance_arg(source, TwistedMonoidAlgebra, "source")  # read below, before the checks of the base class
        _instance_arg(target, TwistedMonoidAlgebra, "target")
        super().__init__(source, target, MonoidMorphism.identity(source.rank),
                         [target.generator(k) for k in range(target.rank)])

    def scale(self, u):
        return self.image_of_basis(u)[0]

    def inverse(self):
        return DiagonalScaling(self.target, self.source)


def coboundary_isomorphism(algebra, mu, nu, samples=50, seed=0):
    """The scaling isomorphism A_mu -> A_nu for cohomologous twisting cocycles.

    Its scale(u) is the witness h(u) with delta(h) = mu/nu that
    `symmetric_trivializer` gives.  Returns the map and its `verify_homomorphism`
    report: every generator pair, then `samples` random element pairs.
    """
    source, target = twist_by(algebra, mu), twist_by(algebra, nu)  # each checks its cocycle's rank
    if not cohomologous(mu, nu):
        raise ValueError("cocycles are not cohomologous; no scaling isomorphism exists")
    phi = DiagonalScaling(source, target)
    return phi, verify_homomorphism(phi, samples, seed)


# ---------------------------------------------------------------------------
# Seeded random elements (deterministic verification samples)
# ---------------------------------------------------------------------------


def random_unit(rng, parameters=()):
    """A random unit: nonzero rational with |num|, den <= 7, parameter exponents in -2..2.

    The unit of one `scalars._random_integer_unit` draw, the draw that
    `random_element` adds to its accumulator as it stands.
    """
    return _unit_of(_random_integer_unit(rng, parameters))


def random_vector(rng, rank, max_entry=4, max_support=3):
    """A sparse random exponent vector with entries in 1..max_entry."""
    entries = [0] * rank
    for i in rng.sample(range(rank), min(rng.randint(0, max_support), rank)):
        entries[i] = rng.randint(1, max_entry)
    return ExponentVector._trusted(entries)


def random_element(algebra, rng, max_terms=3, max_entry=4):
    """A random element with <= max_terms terms, each on a sparse `random_vector` monomial."""
    params = sorted(algebra.parameters())
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        u = random_vector(rng, algebra.rank, max_entry)
        _add_product(out.setdefault(u, {}), _random_integer_unit(rng, params))
    return _element(algebra, out)


def random_homogeneous(algebra, rng):
    """A random scalar multiple of a single basis monomial, drawn by `random_vector` and `random_unit`."""
    params = sorted(algebra.parameters())
    u = random_vector(rng, algebra.rank)
    return algebra.basis_element(u, random_unit(rng, params))


# ---------------------------------------------------------------------------
# Element literals (the grammar is in scalars)
# ---------------------------------------------------------------------------


def parse_element(algebra, text):
    """Parse an element literal (TypeError on a non-string); names that are not generators are parameters."""
    return _parse_sum(text, "element literal", lambda token: _parse_term(algebra, token), algebra.zero())


def _parse_term(algebra, token):
    sign, body = _split_sign(token)
    poly = None
    if body.startswith("("):
        close = body.index(")")  # the sum splitter balanced the term, and coefficients hold no "("
        poly = parse_poly(body[1:close])
        body = body[close + 1:].strip()
        if body and not body.startswith("*"):
            raise ValueError(f"expected '*' after parenthesized coefficient in {token!r}")
        body = body[1:].strip() if body else "1"  # "(p)*" is an empty product
    coeff, factors = _parse_product(body, token, sign)
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
        else:
            params.append((name, e))
    # `_FACTOR_RE` matched each name, and the coefficient is a nonzero Fraction, so reduced.
    coeff = LaurentPolynomial._trusted({_summed_exps(params): coeff.as_integer_ratio()})
    if poly is not None:
        coeff = coeff * poly
    return AlgebraElement(algebra, {ExponentVector(entries): coeff})


def render_element(x):
    """Canonical element literal: terms ordered by (degree, exponents), unit coefficients."""
    names = x.algebra.generator_names
    terms = []
    for u in sorted(x.terms, key=lambda u: (u.degree(), u)):
        gens = tuple((names[i], u[i]) for i in u.support())
        forms = x.terms[u].forms
        terms += [(key + gens, forms[key]) for key in sorted(forms)]
    return _render_sum(terms)
