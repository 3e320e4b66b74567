"""2-cocycles on N^n with unit values, in two representations.

A *bimultiplicative* cocycle is stored as an n x n matrix of units A with

    mu(u, v) = prod_{i,j} A[i][j]^(u_i * v_j),

which satisfies the cocycle identity

    mu(x, y+z) mu(y, z) = mu(x, y) mu(x+y, z),     mu(x, e) = mu(e, x) = 1

identically.  Every cohomology class contains such a cocycle (a unique one
in canonical upper-triangular form), so this total, exact representation is
what the algebra layer twists by.

A *truncated* cocycle is a value table on all pairs with |u| + |v| <= D.
It represents general cocycles and coboundaries and is the form on which the
constructive trivialization procedures run: building an explicit h with
delta(h) = mu whenever mu is a coboundary.

Cohomology classes are identified with multiplicatively antisymmetric
matrices (q_ii = 1, q_ij q_ji = 1) through the antisymmetrization map
beta(u, v) = mu(u, v) / mu(v, u); no quotient-group objects are reified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .monoids import ExponentVector, vectors_up_to_degree
from .scalars import UnitScalar, parse_unit, render_unit

#: Default truncation bound: exhaustive verification stays well under a second.
DEFAULT_DEGREE_BOUND = 8


def _unit_matrix(matrix, square=True):
    rows = tuple(tuple(row) for row in matrix)
    for row in rows:
        if square and len(row) != len(rows):
            raise ValueError("matrix must be square")
        if not square and len(row) != len(rows[0]):
            raise ValueError("matrix rows must have equal length")
        for a in row:
            if not isinstance(a, UnitScalar):
                raise TypeError(f"matrix entries must be UnitScalar, got {a!r}")
    return rows


def _matrix_to_json(rows):
    return [[render_unit(a) for a in row] for row in rows]


def _matrix_from_json(data):
    return [[parse_unit(s) for s in row] for row in data]


def _integer_form(units):
    """(numerator, denominator, exps) of each unit, None for the unit 1: the entries `_power` multiplies."""
    return tuple(None if a.is_one() else (a.coeff.numerator, a.coeff.denominator, a.exps)
                 for a in units)


def _integer_matrix(matrix):
    return tuple(_integer_form(row) for row in matrix)


def _power(pairs):
    """(numerator, denominator, exps) of prod a^e over (integer-form entry a, integer e) pairs.

    The numerator and denominator are accumulated as ints and the exponents
    in one map; entries None (the unit 1) and zero powers cost nothing.  The
    quotient is not reduced: callers make one Fraction of it.
    """
    num = den = 1
    exps = {}
    for a, e in pairs:
        if a is None or not e:
            continue
        a_num, a_den, a_exps = a
        if e > 0:
            num *= a_num ** e
            den *= a_den ** e
        else:
            num *= a_den ** -e
            den *= a_num ** -e
        for name, k in a_exps:
            exps[name] = exps.get(name, 0) + k * e
    return num, den, tuple(sorted(x for x in exps.items() if x[1]))


def _unit_power(pairs):
    """prod a^e over (integer-form entry a, integer e) pairs, as one unit with one reduced Fraction."""
    num, den, exps = _power(pairs)
    return UnitScalar._trusted(Fraction(num, den), exps)


def _bilinear_pairs(matrix, u, v):
    """The (entry, power) pairs of the bilinear form prod_{i,j} M_ij^(u_i v_j) of an integer-form matrix."""
    right = [(j, vj) for j, vj in enumerate(v) if vj]
    return ((row[j], ui * vj) for row, ui in zip(matrix, u) if ui for j, vj in right)


def _bilinear_unit(matrix, u, v):
    return _unit_power(_bilinear_pairs(matrix, u, v))


def _quadratic_unit(matrix, u, linear=()):
    """prod_k M_kk^C(u_k, 2) * prod_{k<l} M_kl^(u_k u_l) * prod_k linear_k^(u_k), all integer-form.

    The quadratic part is the coefficient picked up by collecting the ordered
    product prod_k w_k^(u_k) into one basis monomial, where M_kl = mu(w_k, w_l).
    """
    sup = [(k, uk) for k, uk in enumerate(u) if uk]
    pairs = [(matrix[k][l], uk * (uk - 1) // 2 if k == l else uk * ul)
             for pos, (k, uk) in enumerate(sup) for l, ul in sup[pos:] if matrix[k][l] is not None]
    if linear:
        pairs.extend((linear[k], uk) for k, uk in sup)
    return _unit_power(pairs)


class BimultiplicativeCocycle:
    """Total cocycle on N^rank determined by a square unit matrix."""

    __slots__ = ("rank", "matrix", "_params", "_integer")

    def __init__(self, matrix):
        self.matrix = _unit_matrix(matrix)
        self.rank = len(self.matrix)
        self._params = None
        self._integer = _integer_matrix(self.matrix)

    @classmethod
    def trivial(cls, rank):
        one = UnitScalar.one()
        return cls([[one] * rank for _ in range(rank)])

    @classmethod
    def from_json(cls, data):
        return cls(_matrix_from_json(data))

    def to_json(self):
        return _matrix_to_json(self.matrix)

    def entry(self, i, j):
        return self.matrix[i][j]

    def is_trivial(self):
        return all(a.is_one() for row in self.matrix for a in row)

    def parameters(self):
        if self._params is None:
            names = set()
            for row in self.matrix:
                for a in row:
                    names |= a.parameters()
            self._params = frozenset(names)
        return self._params

    def evaluate(self, u, v):
        """mu(u, v) = prod A[i][j]^(u_i v_j); exact."""
        if u.rank != self.rank or v.rank != self.rank:
            raise ValueError(f"rank mismatch: cocycle has rank {self.rank}, got {u.rank}, {v.rank}")
        return _bilinear_unit(self._integer, u, v)

    def __mul__(self, other):
        if not isinstance(other, BimultiplicativeCocycle):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch in cocycle product")
        return BimultiplicativeCocycle(
            [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)])

    def inverse(self):
        return BimultiplicativeCocycle([[a.inv() for a in row] for row in self.matrix])

    def __eq__(self, other):
        if not isinstance(other, BimultiplicativeCocycle):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"BimultiplicativeCocycle({self.to_json()})"


class AntisymmetricMatrix:
    """Multiplicatively antisymmetric unit matrix: q_ii = 1 and q_ij q_ji = 1."""

    __slots__ = ("rank", "matrix")

    def __init__(self, matrix):
        self.matrix = _unit_matrix(matrix)
        self.rank = len(self.matrix)
        for i in range(self.rank):
            if not self.matrix[i][i].is_one():
                raise ValueError(f"diagonal entry ({i},{i}) must be 1")
            for j in range(i + 1, self.rank):
                if not (self.matrix[i][j] * self.matrix[j][i]).is_one():
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) must be mutually inverse")

    @classmethod
    def trivial(cls, rank):
        one = UnitScalar.one()
        return cls([[one] * rank for _ in range(rank)])

    @classmethod
    def from_upper(cls, rank, upper):
        """Build from the strict upper triangle, a map (i, j) -> UnitScalar for i < j."""
        one = UnitScalar.one()
        rows = [[one] * rank for _ in range(rank)]
        for (i, j), q in upper.items():
            if not 0 <= i < j < rank:
                raise ValueError(f"upper-triangle index out of range: ({i},{j})")
            rows[i][j] = q
            rows[j][i] = q.inv()
        return cls(rows)

    @classmethod
    def from_json(cls, data):
        return cls(_matrix_from_json(data))

    def to_json(self):
        return _matrix_to_json(self.matrix)

    def entry(self, i, j):
        return self.matrix[i][j]

    def is_trivial(self):
        return all(a.is_one() for row in self.matrix for a in row)

    def __eq__(self, other):
        if not isinstance(other, AntisymmetricMatrix):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AntisymmetricMatrix({self.to_json()})"


class Pairing:
    """Bimultiplicative pairing N^a x N^b -> units, stored as an a x b unit matrix."""

    __slots__ = ("left_rank", "right_rank", "matrix", "_integer")

    def __init__(self, matrix):
        self.matrix = _unit_matrix(matrix, square=False)
        self._integer = _integer_matrix(self.matrix)
        self.left_rank = len(self.matrix)
        self.right_rank = len(self.matrix[0]) if self.matrix else 0
        if self.left_rank < 1 or self.right_rank < 1:
            raise ValueError("pairings need at least one generator on each side")

    @classmethod
    def trivial(cls, left_rank, right_rank):
        one = UnitScalar.one()
        return cls([[one] * right_rank for _ in range(left_rank)])

    @classmethod
    def from_json(cls, data):
        return cls(_matrix_from_json(data))

    def to_json(self):
        return _matrix_to_json(self.matrix)

    def entry(self, i, j):
        return self.matrix[i][j]

    def evaluate(self, u, v):
        """alpha(u, v) = prod alpha[i][j]^(u_i v_j) for u in N^a, v in N^b."""
        if u.rank != self.left_rank or v.rank != self.right_rank:
            raise ValueError("rank mismatch in pairing evaluation")
        return _bilinear_unit(self._integer, u, v)

    def is_trivial(self):
        return all(a.is_one() for row in self.matrix for a in row)

    def __mul__(self, other):
        if not isinstance(other, Pairing):
            return NotImplemented
        if (self.left_rank, self.right_rank) != (other.left_rank, other.right_rank):
            raise ValueError("shape mismatch in pairing product")
        return Pairing([[a * b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)])

    def inverse(self):
        return Pairing([[a.inv() for a in row] for row in self.matrix])

    def __eq__(self, other):
        if not isinstance(other, Pairing):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"Pairing({self.to_json()})"


def canonical_from_antisym(q):
    """The canonical cocycle of an antisymmetric matrix: A_ij = q_ij if i < j, else 1.

    Together with :func:`antisymmetrize` this realizes the bijection between
    antisymmetric matrices and cohomology classes.
    """
    one = UnitScalar.one()
    return BimultiplicativeCocycle(
        [[q.entry(i, j) if i < j else one for j in range(q.rank)] for i in range(q.rank)])


def antisymmetrize(mu):
    """beta(u, v) = mu(u, v)/mu(v, u), as the matrix B_ij = A_ij / A_ji."""
    return AntisymmetricMatrix(
        [[mu.entry(i, j) / mu.entry(j, i) for j in range(mu.rank)] for i in range(mu.rank)])


def cohomologous(mu, nu):
    """Same cohomology class: equal antisymmetrizations."""
    if mu.rank != nu.rank:
        raise ValueError("rank mismatch in cohomology comparison")
    return antisymmetrize(mu) == antisymmetrize(nu)


def yamazaki_factorize(mu, split):
    """Factor a cocycle on N^(a+b) into (restriction, restriction, cross pairing).

    The pairing is the ratio form alpha(s, t) = mu(s, t)/mu(t, s) on
    generators, which depends only on the cohomology class; for canonical
    cocycles it coincides with the raw upper-right block.
    """
    a, b = split.left_rank, split.right_rank
    if a + b != mu.rank:
        raise ValueError(f"split ({a},{b}) does not match cocycle rank {mu.rank}")
    left = BimultiplicativeCocycle([row[:a] for row in mu.matrix[:a]])
    right = BimultiplicativeCocycle([row[a:] for row in mu.matrix[a:]])
    pairing = Pairing(
        [[mu.entry(i, a + j) / mu.entry(a + j, i) for j in range(b)] for i in range(a)])
    return left, right, pairing


def yamazaki_reconstruct(nu, xi, alpha):
    """Assemble the cocycle (nu x xi) * sigma with sigma((s,t),(s',t')) = alpha(s,t').

    Block form: (a,a) block nu, (b,b) block xi, (a,b) block alpha, (b,a) block
    all ones.  Factorizing the result returns (nu, xi, alpha) exactly.
    """
    a, b = nu.rank, xi.rank
    if (alpha.left_rank, alpha.right_rank) != (a, b):
        raise ValueError(f"pairing shape {alpha.left_rank}x{alpha.right_rank} does not match ranks {a}, {b}")
    one = UnitScalar.one()
    rows = []
    for i in range(a):
        rows.append(list(nu.matrix[i]) + list(alpha.matrix[i]))
    for j in range(b):
        rows.append([one] * a + list(xi.matrix[j]))
    return BimultiplicativeCocycle(rows)


def is_factorizable(mu, split):
    """Cohomologous to a direct product of cocycles on the factors: trivial cross pairing."""
    return yamazaki_factorize(mu, split)[2].is_trivial()


def pullback(mu, f):
    """The cocycle mu(f(.), f(.)) along a monoid morphism f, again bimultiplicative."""
    if mu.rank != f.target_rank:
        raise ValueError(f"cocycle rank {mu.rank} does not match morphism target rank {f.target_rank}")
    images = f.generator_images
    return BimultiplicativeCocycle(
        [[mu.evaluate(images[k], images[l]) for l in range(f.source_rank)]
         for k in range(f.source_rank)])


class TruncatedCocycle:
    """Cocycle value table on all pairs (u, v) with |u| + |v| <= degree_bound."""

    __slots__ = ("rank", "degree_bound", "table")

    def __init__(self, rank, degree_bound, table):
        for (u, v) in table:
            if u.rank != rank or v.rank != rank:
                raise ValueError(f"table pair ({u!r}, {v!r}) does not have rank {rank}")
            if u.degree() + v.degree() > degree_bound:
                raise ValueError(f"table pair ({u!r}, {v!r}) exceeds the degree bound {degree_bound}")
        for (u, v) in self._domain(rank, degree_bound):
            if (u, v) not in table:
                raise ValueError(f"table is missing the pair ({u!r}, {v!r})")
        self.rank = rank
        self.degree_bound = degree_bound
        self.table = dict(table)

    @staticmethod
    def _domain(rank, bound):
        for u in vectors_up_to_degree(rank, bound):
            for v in vectors_up_to_degree(rank, bound - u.degree()):
                yield (u, v)

    @classmethod
    def from_function(cls, rank, degree_bound, fn):
        table = {(u, v): fn(u, v) for (u, v) in cls._domain(rank, degree_bound)}
        return cls(rank, degree_bound, table)

    @classmethod
    def truncate(cls, mu, degree_bound):
        return cls.from_function(mu.rank, degree_bound, mu.evaluate)

    @classmethod
    def from_json(cls, rank, degree_bound, data):
        table = {(ExponentVector(item["u"]), ExponentVector(item["v"])): parse_unit(item["value"])
                 for item in data}
        return cls(rank, degree_bound, table)

    def to_json(self):
        return [{"u": u.to_json(), "v": v.to_json(), "value": render_unit(val)}
                for (u, v), val in sorted(self.table.items(), key=lambda kv: kv[0])]

    def value(self, u, v):
        try:
            return self.table[(u, v)]
        except KeyError:
            raise ValueError(f"pair ({u!r}, {v!r}) is outside the truncated domain") from None

    def perturbed(self, u, v, factor):
        """Copy with one entry multiplied by `factor`; used to build counterexamples."""
        table = dict(self.table)
        table[(u, v)] = self.value(u, v) * factor
        return TruncatedCocycle(self.rank, self.degree_bound, table)

    def __mul__(self, other):
        if not isinstance(other, TruncatedCocycle):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch in truncated cocycle product")
        bound = min(self.degree_bound, other.degree_bound)
        return TruncatedCocycle.from_function(
            self.rank, bound, lambda u, v: self.value(u, v) * other.value(u, v))

    def quotient(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch in truncated cocycle quotient")
        bound = min(self.degree_bound, other.degree_bound)
        return TruncatedCocycle.from_function(
            self.rank, bound, lambda u, v: self.value(u, v) / other.value(u, v))

    def is_symmetric(self):
        return all(val == self.table[(v, u)] for (u, v), val in self.table.items())

    def __eq__(self, other):
        if not isinstance(other, TruncatedCocycle):
            return NotImplemented
        return (self.rank == other.rank and self.degree_bound == other.degree_bound
                and self.table == other.table)

    def __repr__(self):
        return f"TruncatedCocycle(rank={self.rank}, degree_bound={self.degree_bound})"


class FunctionOnMonoid:
    """Normalized function h on N^rank (h(e) = 1), tabulated up to |u| <= degree_bound."""

    __slots__ = ("rank", "degree_bound", "table")

    def __init__(self, rank, degree_bound, table):
        zero = ExponentVector.zero(rank)
        if zero not in table or not table[zero].is_one():
            raise ValueError("functions on the monoid must satisfy h(e) = 1")
        for u in table:
            if u.rank != rank or u.degree() > degree_bound:
                raise ValueError(f"table entry {u!r} is outside the domain")
        for u in vectors_up_to_degree(rank, degree_bound):
            if u not in table:
                raise ValueError(f"table is missing {u!r}")
        self.rank = rank
        self.degree_bound = degree_bound
        self.table = dict(table)

    @classmethod
    def from_function(cls, rank, degree_bound, fn):
        return cls(rank, degree_bound,
                   {u: fn(u) for u in vectors_up_to_degree(rank, degree_bound)})

    @classmethod
    def constant_one(cls, rank, degree_bound):
        one = UnitScalar.one()
        return cls.from_function(rank, degree_bound, lambda u: one)

    @classmethod
    def from_json(cls, rank, degree_bound, data):
        return cls(rank, degree_bound,
                   {ExponentVector(item["u"]): parse_unit(item["value"]) for item in data})

    def to_json(self):
        return [{"u": u.to_json(), "value": render_unit(val)}
                for u, val in sorted(self.table.items(), key=lambda kv: kv[0])]

    def value(self, u):
        try:
            return self.table[u]
        except KeyError:
            raise ValueError(f"{u!r} is outside the truncated domain") from None

    def __eq__(self, other):
        if not isinstance(other, FunctionOnMonoid):
            return NotImplemented
        return (self.rank == other.rank and self.degree_bound == other.degree_bound
                and self.table == other.table)

    def __repr__(self):
        return f"FunctionOnMonoid(rank={self.rank}, degree_bound={self.degree_bound})"


def coboundary(h):
    """delta(h)(u, v) = h(u) h(v) / h(u+v), a (truncated) cocycle for any normalized h."""
    return TruncatedCocycle.from_function(
        h.rank, h.degree_bound, lambda u, v: h.value(u) * h.value(v) / h.value(u + v))


@dataclass(frozen=True)
class CocycleCheck:
    """Outcome of an exhaustive truncated cocycle verification."""

    ok: bool
    counterexample: tuple | None = None

    def __bool__(self):
        return self.ok


def verify_cocycle_equation(mu_t):
    """Exhaustively check the cocycle identity over all triples with |x|+|y|+|z| <= D.

    Also checks the normalization mu(u, e) = mu(e, u) = 1.  On failure the
    returned report carries the first offending triple (or ("identity", u)).
    """
    n, bound = mu_t.rank, mu_t.degree_bound
    zero = ExponentVector.zero(n)
    for u in vectors_up_to_degree(n, bound):
        if not mu_t.value(u, zero).is_one() or not mu_t.value(zero, u).is_one():
            return CocycleCheck(False, ("identity", u))
    for x in vectors_up_to_degree(n, bound):
        dx = x.degree()
        for y in vectors_up_to_degree(n, bound - dx):
            xy = x + y
            rest = bound - dx - y.degree()
            for z in vectors_up_to_degree(n, rest):
                lhs = mu_t.value(x, y + z) * mu_t.value(y, z)
                rhs = mu_t.value(x, y) * mu_t.value(xy, z)
                if lhs != rhs:
                    return CocycleCheck(False, (x, y, z))
    return CocycleCheck(True)


def trivialize_rank1(mu_t):
    """Constructive triviality of H^2(N^1): h with delta(h) = mu on the truncated domain.

    h is built by the recurrence h(e) = h(g) = 1, h(g^(p+1)) = h(g^p) / mu(g, g^p);
    it is the unique such witness with h(g) = 1.
    """
    if mu_t.rank != 1:
        raise ValueError(f"trivialize_rank1 requires rank 1, got rank {mu_t.rank}")
    check = verify_cocycle_equation(mu_t)
    if not check:
        raise ValueError(f"input fails the cocycle equation at {check.counterexample}")
    bound = mu_t.degree_bound
    one = UnitScalar.one()
    g = ExponentVector((1,))
    table = {ExponentVector.zero(1): one}
    if bound >= 1:
        table[g] = one
    for p in range(1, bound):
        table[ExponentVector((p + 1,))] = table[ExponentVector((p,))] / mu_t.value(g, ExponentVector((p,)))
    return FunctionOnMonoid(1, bound, table)


def yamazaki_trivialize(mu_t, split):
    """Constructive coboundary witness on a product monoid.

    Requires mu to restrict trivially to both factors and to have trivial
    cross pairing; then h((s,t)) = 1 / mu((s,e),(e,t)) satisfies
    delta(h) = mu on the whole truncated domain.
    """
    if split.rank != mu_t.rank:
        raise ValueError(f"split rank {split.rank} does not match cocycle rank {mu_t.rank}")
    for (u, v), val in mu_t.table.items():
        if (u.degree() == 0 or v.degree() == 0) and not val.is_one():
            raise ValueError(
                f"identity normalization fails: mu({list(u)}, {list(v)}) = {val}")
        us, ut = split.split(u)
        vs, vt = split.split(v)
        left_only = ut.degree() == 0 and vt.degree() == 0
        right_only = us.degree() == 0 and vs.degree() == 0
        if left_only and not val.is_one():
            raise ValueError(
                f"restriction to the left factor is not trivial: mu({list(u)}, {list(v)}) = {val}")
        if right_only and not val.is_one():
            raise ValueError(
                f"restriction to the right factor is not trivial: mu({list(u)}, {list(v)}) = {val}")
        if ut.degree() == 0 and vs.degree() == 0 and val != mu_t.table[(v, u)]:
            raise ValueError(
                f"cross pairing is not trivial: mu({list(u)}, {list(v)}) != mu({list(v)}, {list(u)})")

    def h(w):
        s, t = split.split(w)
        return mu_t.value(split.inject_left(s), split.inject_right(t)).inv()

    return FunctionOnMonoid.from_function(mu_t.rank, mu_t.degree_bound, h)


class ClosedFormFunction:
    """Total normalized function N^rank -> units given by a closed form."""

    __slots__ = ("rank", "_fn")

    def __init__(self, rank, fn):
        self.rank = rank
        self._fn = fn

    def __call__(self, u):
        if u.rank != self.rank:
            raise ValueError(f"rank mismatch: expected {self.rank}, got {u.rank}")
        return self._fn(u)

    def truncate(self, degree_bound):
        return FunctionOnMonoid.from_function(self.rank, degree_bound, self._fn)


def symmetric_trivializer(c):
    """Closed-form coboundary witness for a symmetric bimultiplicative cocycle.

    For a symmetric unit matrix C the function

        h(u) = prod_i C_ii^(-u_i (u_i - 1) / 2) * prod_{i<j} C_ij^(-u_i u_j)

    satisfies delta(h) = sigma_C exactly, where sigma_C is the bimultiplicative
    cocycle with matrix C (binomial identity
    (a+b)(a+b-1)/2 - a(a-1)/2 - b(b-1)/2 = ab in each variable).  This is the
    witness that symmetric bimultiplicative cocycles are coboundaries.
    """
    if isinstance(c, BimultiplicativeCocycle):
        matrix = c.matrix
    else:
        matrix = _unit_matrix(c)
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")

    inverse = _integer_matrix([a.inv() for a in row] for row in matrix)

    def h(u):
        return _quadratic_unit(inverse, u)

    return ClosedFormFunction(n, h)
