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
delta(h) = mu whenever mu is a coboundary.  Truncated cocycles and tabulated
functions h share one body and one checked constructor, which every table
of a caller's values goes through (``from_json``, ``from_function``,
``trivialize_rank1``): it checks the domain's rank >= 1 and bound >= 0
(``monoids._graded_args``), then checks each listed item once, in order,
before it stores it (its key's type, rank and degree, its value a unit,
and its key not listed before), refuses a table that stores no key, and
compares the key count with the domain's ``graded_count``.  Distinct keys
of the domain, as many as the domain has, are the domain, so an accepted
table enumerates nothing.  A table's JSON is a list of objects, handed to
the checked constructor one item at a time (``_json_items``), so it too is
refused at its first faulty item, and an item that is not an object with
the table's fields is named by its index.  Its fields
are read through two per-call memos, ``monoids._vector_reader`` for its keys
and ``scalars._unit_reader`` for its values, so each distinct key is
checked, and each distinct literal parsed, once.  ``truncate`` takes each
enumerated vector's sparse form once and builds every value as the
evaluator's kernel product, with no rank check: the vectors have the
cocycle's rank.  ``coboundary`` walks the domain as ``truncate`` does,
takes 1/h(u) once per vector, and builds every value as one
``scalars._product_unit`` of three units.  The coboundary and the
exhaustive check look their sums up as plain tuples, which equal and hash
like the stored vectors.
Evaluation, coboundary values and both cocycle checks run on the integer
kernel of ``scalars``, which owns the integer form of a unit: this module
passes it forms, units and (entry, power) pair lists and reads no field of
a form.
Each value or triple is one kernel product, and one helper,
``scalars._triple_holds``, decides a triple for both checks, with no
Fraction at all.  Every value of a bilinear form (evaluation, ``pullback``,
``truncate``, the sampled check, and the twisted product of ``algebras``)
is one call of ``scalars._bilinear_power``, that kernel's body run over the
pairs of two sparse forms with no pair list; ``scalars._power`` keeps the
other products (quadratic forms, triples, unit ratios), and
``_quadratic_pairs``, which lists the pairs of a quadratic form, stays
here.
The exhaustive check of a table reads the triples whose first entry is a
generator, which decide all the others; the sampled check of a
bimultiplicative cocycle draws seeded random triples.
The bilinear form reads its arguments' sparse forms (`monoids._nonzero`),
so a caller that pairs one vector with many takes its sparse form once.  A
pullback entry mu(f e_k, f e_l) is that form on the sparse generator images
of f, which the morphism keeps in the same form.

Cohomology classes are identified with multiplicatively antisymmetric
matrices (q_ii = 1, q_ij q_ji = 1) through the antisymmetrization map
beta(u, v) = mu(u, v) / mu(v, u); no quotient-group objects are reified.

The bimultiplicative cocycle, the antisymmetric matrix and the cross
pairing of a factorization are each a unit matrix read as the form
(u, v) |-> prod_{i,j} M_ij^(u_i v_j), and they share one body: validation,
the shape and the evaluation, the opposite form (the transpose), the
integer form, JSON, entrywise products and inverses, equality and hashing.
Each keeps only its ranks and its invariant.  Every exact check
returns the one report type :class:`CheckReport`.
"""

from __future__ import annotations

import operator
import random
from collections.abc import Mapping

# vectors_up_to_degree stays importable from here.
from .monoids import (ExponentVector, _graded_args, _int_arg, _nonzero, _rank_arg, _Record, _vector_arg,
                      _vector_reader, graded_count, graded_pairs, graded_vectors, vectors_up_to_degree)
from .scalars import (UnitScalar, _bilinear_power, _integer_unit, _power, _product_unit, _triple_holds, _unit_of,
                      _unit_reader, parse_unit, render_unit)

#: Default truncation bound: exhaustive verification stays well under a second.
DEFAULT_DEGREE_BOUND = 8


def _quadratic_pairs(matrix, sup, linear=()):
    """The (entry, power) pairs of prod_k M_kk^C(u_k, 2) * prod_{k<l} M_kl^(u_k u_l) * prod_k linear_k^(u_k).

    `sup` is the sparse form (`monoids._nonzero`) of u, and the entries are
    integer forms.  The quadratic part is the coefficient picked up by
    collecting the ordered product prod_k w_k^(u_k) into one basis monomial,
    where M_kl = mu(w_k, w_l).
    """
    pairs = [(matrix[k][l], uk * (uk - 1) // 2 if k == l else uk * ul)
             for pos, (k, uk) in enumerate(sup) for l, ul in sup[pos:]]
    if linear:
        pairs.extend((linear[k], uk) for k, uk in sup)
    return pairs


class _UnitForm:
    """A unit matrix M, read as the bimultiplicative form (u, v) |-> prod_{i,j} M_ij^(u_i v_j).

    The body shared by cocycles, antisymmetric matrices and pairings:
    validation, the shape (rows, columns), evaluation with its one rank
    check, the integer form the evaluators multiply, the parameters (a
    frozenset, built with the integer form at construction), JSON,
    entrywise products and inverses, and equality, hashing and repr by type
    and matrix.  The opposite form (u, v) |-> M(v, u) is the transpose, so
    one block layout serves its mirror image too: the twisted tensor
    product's cocycle tau((s,t),(s',t')) = alpha(s',t) is the opposite of
    Yamazaki's sigma((s,t),(s',t')) = alpha(s,t') over the opposite factors.
    Subclasses add their ranks and their invariant.
    """

    __slots__ = ("matrix", "_shape", "_integer", "_params")

    def __init__(self, matrix):
        rows = tuple(tuple(row) for row in matrix)
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValueError("matrix rows must have equal length")
            for a in row:
                if not isinstance(a, UnitScalar):
                    raise TypeError(f"matrix entries must be UnitScalar, got {a!r}")
        self.matrix = rows
        self._shape = (len(rows), len(rows[0]) if rows else 0)
        self._integer = tuple(tuple(map(_integer_unit, row)) for row in rows)
        self._params = frozenset(name for row in rows for a in row for name in a.parameters())

    def _square_rank(self):
        """The rank of a square form (ValueError if the matrix is not square)."""
        if self._shape[0] != self._shape[1]:
            raise ValueError("matrix must be square")
        return self._shape[0]

    @classmethod
    def trivial(cls, rank, right_rank=None):
        """The all-ones form: rank x rank, or rank x right_rank for a pairing."""
        one, rank = UnitScalar.one(), _rank_arg(rank, "trivial rank")
        columns = rank if right_rank is None else _rank_arg(right_rank, "trivial right rank")
        return cls([[one] * columns for _ in range(rank)])

    @classmethod
    def from_json(cls, data):
        """The form of a JSON list of rows, each a list of unit literals; any other shape is refused before a parse."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise TypeError("a unit matrix must be a list of rows, each a list of unit literals")
        return cls([[parse_unit(s) for s in row] for row in data])

    def to_json(self):
        return [[render_unit(a) for a in row] for row in self.matrix]

    def entry(self, i, j):
        return self.matrix[i][j]

    def _evaluate(self, u, v):
        """M(u, v) = prod M_ij^(u_i v_j) for u, v of the form's row and column ranks; exact."""
        rows, columns = self._shape
        return _unit_of(_bilinear_power(self._integer, _nonzero(_vector_arg(u, rows, "left argument")),
                                        _nonzero(_vector_arg(v, columns, "right argument"))))

    def _opposite(self):
        """The opposite form (u, v) |-> M(v, u): the transpose."""
        return type(self)(zip(*self.matrix))

    def is_trivial(self):
        return all(a.is_one() for row in self.matrix for a in row)

    def parameters(self):
        return self._params

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._shape != other._shape:
            raise ValueError(f"shape mismatch in {type(self).__name__} product")
        return type(self)([[a * b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)])

    def inverse(self):
        return type(self)([[a.inv() for a in row] for row in self.matrix])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()})"


# bench/spans.py wraps a traced method through its class's own __dict__, so each
# subclass binds the traced methods it inherits in its own namespace.
_FROM_JSON = _UnitForm.__dict__["from_json"]


class BimultiplicativeCocycle(_UnitForm):
    """Total cocycle on N^rank determined by a square unit matrix.

    mu(u, v) = prod A[i][j]^(u_i v_j), exact.
    """

    __slots__ = ("rank",)

    def __init__(self, matrix):
        super().__init__(matrix)
        self.rank = self._square_rank()

    from_json, to_json, evaluate = _FROM_JSON, _UnitForm.to_json, _UnitForm._evaluate
    __mul__, inverse = _UnitForm.__mul__, _UnitForm.inverse


class AntisymmetricMatrix(_UnitForm):
    """Multiplicatively antisymmetric unit matrix: q_ii = 1 and q_ij q_ji = 1."""

    __slots__ = ("rank",)

    def __init__(self, matrix):
        super().__init__(matrix)
        self.rank = self._square_rank()
        for i in range(self.rank):
            if not self.matrix[i][i].is_one():
                raise ValueError(f"diagonal entry ({i},{i}) must be 1")
            for j in range(i + 1, self.rank):
                if not (self.matrix[i][j] * self.matrix[j][i]).is_one():
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) must be mutually inverse")

    from_json, to_json = _FROM_JSON, _UnitForm.to_json

    @classmethod
    def from_upper(cls, rank, upper):
        """Build from the strict upper triangle, a map (i, j) -> UnitScalar for i < j.

        `upper` must be a mapping whose keys are pairs (tuples of length 2),
        each index an int and not a bool, and each value a UnitScalar
        (TypeError naming it); an index pair outside the strict upper
        triangle raises ValueError.
        """
        one, rank = UnitScalar.one(), _rank_arg(rank, "from_upper rank")
        if not isinstance(upper, Mapping):
            raise TypeError(f"upper triangle must be a mapping (i, j) -> UnitScalar, got {type(upper).__name__}")
        rows = [[one] * rank for _ in range(rank)]
        for key, q in upper.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise TypeError(f"upper-triangle key {key!r} is not an index pair (i, j)")
            i, j = key
            if not 0 <= _int_arg(i, "upper-triangle index") < _int_arg(j, "upper-triangle index") < rank:
                raise ValueError(f"upper-triangle index out of range: ({i},{j})")
            if not isinstance(q, UnitScalar):
                raise TypeError(f"upper-triangle value {q!r} at ({i},{j}) is not a UnitScalar")
            rows[i][j] = q
            rows[j][i] = q.inv()
        return cls(rows)


class Pairing(_UnitForm):
    """Bimultiplicative pairing N^a x N^b -> units, stored as an a x b unit matrix.

    alpha(u, v) = prod alpha[i][j]^(u_i v_j) for u in N^a, v in N^b.
    """

    __slots__ = ("left_rank", "right_rank")

    def __init__(self, matrix):
        super().__init__(matrix)
        self.left_rank, self.right_rank = self._shape
        if self.left_rank < 1 or self.right_rank < 1:
            raise ValueError("pairings need at least one generator on each side")

    from_json, to_json, evaluate = _FROM_JSON, _UnitForm.to_json, _UnitForm._evaluate


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
    generators, the upper-right a x b block of :func:`antisymmetrize`, which
    depends only on the cohomology class; for canonical cocycles it
    coincides with the raw upper-right block.  A twisted tensor product's
    cocycle is the opposite of yamazaki_reconstruct(left^op, right^op, alpha),
    so factorizing its opposite returns (left^op, right^op, alpha).
    """
    a, b = split.left_rank, split.right_rank
    if a + b != mu.rank:
        raise ValueError(f"split ({a},{b}) does not match cocycle rank {mu.rank}")
    left = BimultiplicativeCocycle([row[:a] for row in mu.matrix[:a]])
    right = BimultiplicativeCocycle([row[a:] for row in mu.matrix[a:]])
    return left, right, Pairing([row[a:] for row in antisymmetrize(mu).matrix[:a]])


def yamazaki_reconstruct(nu, xi, alpha):
    """Assemble the cocycle (nu x xi) * sigma with sigma((s,t),(s',t')) = alpha(s,t').

    Block form: (a,a) block nu, (b,b) block xi, (a,b) block alpha, (b,a) block
    all ones.  Factorizing the result returns (nu, xi, alpha) exactly.
    """
    a, b = nu.rank, xi.rank
    if (alpha.left_rank, alpha.right_rank) != (a, b):
        raise ValueError(f"pairing shape {alpha.left_rank}x{alpha.right_rank} does not match ranks {a}, {b}")
    ones = (UnitScalar.one(),) * a
    return BimultiplicativeCocycle([row + cross for row, cross in zip(nu.matrix, alpha.matrix)]
                                   + [ones + row for row in xi.matrix])


def is_factorizable(mu, split):
    """Cohomologous to a direct product of cocycles on the factors: trivial cross pairing."""
    return yamazaki_factorize(mu, split)[2].is_trivial()


def pullback(mu, f):
    """The cocycle mu(f(.), f(.)) along a monoid morphism f, again bimultiplicative.

    Entry (k, l) is mu(f e_k, f e_l) = prod_{i,j} A_ij^(a_i b_j) over the
    nonzero entries a_i of f e_k and b_j of f e_l: one product of the
    bilinear kernel, `_bilinear_power`, over the integer form of A and the
    sparse generator images of f.
    """
    if mu.rank != f.target_rank:
        raise ValueError(f"cocycle rank {mu.rank} does not match morphism target rank {f.target_rank}")
    matrix, images = mu._integer, f._sparse
    return BimultiplicativeCocycle(
        [[_unit_of(_bilinear_power(matrix, left, right)) for right in images] for left in images])


def _json_items(data, fields, what="table item {}"):
    """The `fields` of each item of a JSON list, yielded one item at a time, in listed order.

    `data` must be a list (TypeError naming its type), and each item an
    object holding every field (TypeError naming the item as
    `what.format(index)`).  Only the subscripts are guarded, so the readers
    of the fields give their own messages.  A generator, so that the
    checked constructor refuses a table at its first faulty item, a shape
    fault included.  `SegreMap.from_json` reads its one object here too, as
    the list `[data]`, with a `what` that names no index.
    """
    if not isinstance(data, list):
        raise TypeError(f"table must be a list of items, got {type(data).__name__}")
    get = operator.itemgetter(*fields)
    for index, item in enumerate(data):
        try:
            values = get(item)
        except (TypeError, KeyError):
            names = ", ".join(f'"{name}"' for name in fields)
            raise TypeError(f"{what.format(index)} is not an object with the fields {names}") from None
        yield values


class _UnitTable:
    """A unit table on a truncated domain of N^rank: the pairs |u| + |v| <= D, or the vectors |u| <= D.

    The body shared by truncated cocycles and functions on the monoid.  The
    one checked constructor takes a mapping or an iterable of (key, value)
    items.  It checks the domain's rank >= 1 and D >= 0
    (`monoids._graded_args`; ValueError), then makes one pass over the
    listed items, checking each before it stores it: the key's type
    (TypeError), its rank and degree by `len` and `sum` (ValueError naming
    it), h(e) = 1 on `FunctionOnMonoid` (ValueError), the value a
    UnitScalar (TypeError naming the key), and the key not stored already
    (ValueError naming it).  So a table is refused at its first faulty
    item in listed order.  A table that stores no key is missing every key
    of its domain (ValueError), whatever the domain's size.  Distinct keys
    of the domain, as many as its `graded_count`, are the domain, so an
    accepted table enumerates nothing; when the count falls short, the
    domain is walked lazily to name the first missing key, which it meets
    within len(table) + 1 keys, so a domain too large to enumerate is
    refused by a key.  Tables of kernel products (`truncate`, `coboundary`,
    entrywise products, `perturbed`) are built trusted.
    Tables of one type are equal, and hash equally, by rank, bound and values.
    """

    __slots__ = ("rank", "degree_bound", "table")

    def __init__(self, rank, degree_bound, table):
        _graded_args(rank, degree_bound)
        stored, check = {}, self._check_item
        for key, value in table.items() if isinstance(table, Mapping) else table:
            check(key, value, rank, degree_bound)
            if not isinstance(value, UnitScalar):
                raise TypeError(f"table value {value!r} at {key!r} is not a UnitScalar")
            if key in stored:
                raise ValueError(f"table key {key!r} is listed more than once")
            stored[key] = value
        if not stored:
            raise ValueError("table is missing every key of its domain")
        if len(stored) < graded_count(self._arity * rank, degree_bound):
            self._name_missing_key(rank, degree_bound, stored)
        self.rank, self.degree_bound, self.table = rank, degree_bound, stored

    @classmethod
    def _trusted(cls, rank, degree_bound, table):
        """Internal: the table of a dict keyed by exactly the domain, unchecked."""
        t = object.__new__(cls)
        t.rank, t.degree_bound, t.table = rank, degree_bound, table
        return t

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rank == other.rank and self.degree_bound == other.degree_bound
                and self.table == other.table)

    def __hash__(self):
        return hash((self.rank, self.degree_bound, frozenset(self.table.items())))

    def __repr__(self):
        return f"{type(self).__name__}(rank={self.rank}, degree_bound={self.degree_bound})"


class TruncatedCocycle(_UnitTable):
    """Cocycle value table on all pairs (u, v) with |u| + |v| <= degree_bound."""

    __slots__ = ()
    _arity = 2
    # bench/spans.py wraps a traced method through its class's own __dict__.
    __init__, __eq__, __hash__ = _UnitTable.__init__, _UnitTable.__eq__, _UnitTable.__hash__

    @staticmethod
    def _check_item(key, value, rank, degree_bound):
        if not (type(key) is tuple and len(key) == 2
                and isinstance(key[0], ExponentVector) and isinstance(key[1], ExponentVector)):
            raise TypeError(f"table key {key!r} is not a pair of exponent vectors")
        u, v = key
        if len(u) != rank or len(v) != rank:
            raise ValueError(f"table pair ({u!r}, {v!r}) does not have rank {rank}")
        if sum(u) + sum(v) > degree_bound:
            raise ValueError(f"table pair ({u!r}, {v!r}) exceeds the degree bound {degree_bound}")

    @staticmethod
    def _name_missing_key(rank, degree_bound, table):
        for u in vectors_up_to_degree(rank, degree_bound):
            for v in vectors_up_to_degree(rank, degree_bound - sum(u)):
                if (u, v) not in table:
                    raise ValueError(f"table is missing the pair ({u!r}, {v!r})")

    @classmethod
    def from_function(cls, rank, degree_bound, fn):
        return cls(rank, degree_bound, {(u, v): fn(u, v) for u, v in graded_pairs(rank, degree_bound)})

    @classmethod
    def truncate(cls, mu, degree_bound):
        """The table of a bimultiplicative cocycle: each value is `evaluate`'s kernel product.

        Each value is one `_bilinear_power` over mu's integer form, made a
        unit.  The domain vectors have mu's rank, so no value repeats
        `evaluate`'s rank checks, and each vector's sparse form is taken once.
        """
        rank, matrix = mu.rank, mu._integer
        vectors = graded_vectors(rank, degree_bound)
        forms = [*zip(vectors, map(_nonzero, vectors))]
        return cls._trusted(rank, degree_bound, {
            (u, v): _unit_of(_bilinear_power(matrix, su, sv))
            for u, su in forms for v, sv in forms[:graded_count(rank, degree_bound - sum(u))]})

    @classmethod
    def from_json(cls, rank, degree_bound, data):
        read, vector = _unit_reader(), _vector_reader()
        return cls(rank, degree_bound, (((vector(u), vector(v)), read(value))
                                        for u, v, value in _json_items(data, ("u", "v", "value"))))

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
        return TruncatedCocycle._trusted(self.rank, self.degree_bound, table)

    def _entrywise(self, other, op, name):
        """The table of op(self(u, v), other(u, v)) on the smaller of the two domains."""
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch in truncated cocycle {name}")
        bound = min(self.degree_bound, other.degree_bound)
        a, b = self.table, other.table
        return TruncatedCocycle._trusted(
            self.rank, bound, {pair: op(a[pair], b[pair]) for pair in graded_pairs(self.rank, bound)})

    def __mul__(self, other):
        if not isinstance(other, TruncatedCocycle):
            return NotImplemented
        return self._entrywise(other, operator.mul, "product")

    def quotient(self, other):
        return self._entrywise(other, operator.truediv, "quotient")

    def is_symmetric(self):
        return all(val == self.table[(v, u)] for (u, v), val in self.table.items())


class FunctionOnMonoid(_UnitTable):
    """Normalized function h on N^rank (h(e) = 1), tabulated up to |u| <= degree_bound."""

    __slots__ = ()
    _arity = 1

    @staticmethod
    def _check_item(u, value, rank, degree_bound):
        if not isinstance(u, ExponentVector):
            raise TypeError(f"table key {u!r} is not an exponent vector")
        if len(u) != rank or sum(u) > degree_bound:
            raise ValueError(f"table entry {u!r} is outside the domain")
        if not any(u) and value != UnitScalar.one():  # a non-unit is not 1 either
            raise ValueError("functions on the monoid must satisfy h(e) = 1")

    @staticmethod
    def _name_missing_key(rank, degree_bound, table):
        for u in vectors_up_to_degree(rank, degree_bound):
            if u not in table:
                raise ValueError(f"table is missing {u!r}" if any(u) else "functions on the monoid must satisfy h(e) = 1")

    @classmethod
    def from_function(cls, rank, degree_bound, fn):
        return cls(rank, degree_bound, {u: fn(u) for u in graded_vectors(rank, degree_bound)})

    @classmethod
    def constant_one(cls, rank, degree_bound):
        one = UnitScalar.one()
        return cls.from_function(rank, degree_bound, lambda u: one)

    @classmethod
    def from_json(cls, rank, degree_bound, data):
        read, vector = _unit_reader(), _vector_reader()
        return cls(rank, degree_bound, ((vector(u), read(value)) for u, value in _json_items(data, ("u", "value"))))

    def to_json(self):
        return [{"u": u.to_json(), "value": render_unit(val)}
                for u, val in sorted(self.table.items(), key=lambda kv: kv[0])]

    def value(self, u):
        try:
            return self.table[u]
        except KeyError:
            raise ValueError(f"{u!r} is outside the truncated domain") from None


def coboundary(h):
    """delta(h)(u, v) = h(u) h(v) / h(u+v), a (truncated) cocycle for any normalized h.

    The domain is walked as `TruncatedCocycle.truncate` walks it, and
    1/h(u) is taken once per vector.  Each value is one
    `scalars._product_unit` of h(u), h(v) and 1/h(u+v).
    """
    rank, bound, table = h.rank, h.degree_bound, h.table
    values = [(u, table[u]) for u in graded_vectors(rank, bound)]
    inverse = {u: hu.inv() for u, hu in values}
    return TruncatedCocycle._trusted(rank, bound, {
        (u, v): _product_unit(hu, hv, inverse[tuple(map(operator.add, u, v))])
        for u, hu in values for v, hv in values[:graded_count(rank, bound - sum(u))]})


class CheckReport(_Record):
    """Outcome of an exact check: a cocycle verification or a multiplicativity check.

    `passed` is a bool.  A multiplicativity check also records how many
    pairs it checked and its seed; a failed check may carry its
    `counterexample` tuple.  The report is true exactly when the check passed.
    """

    __slots__ = ("passed", "pairs_checked", "seed", "counterexample")

    def __init__(self, passed, pairs_checked=None, seed=None, counterexample=None):
        super().__init__(passed, pairs_checked, seed, counterexample)

    def __bool__(self):
        return self.passed

    @property
    def ok(self):
        return self.passed


CocycleCheck = CheckReport


def verify_cocycle_equation(mu_t):
    """Decide the cocycle identity on the whole truncated domain |x|+|y|+|z| <= D.

    First checks the normalization mu(u, e) = mu(e, u) = 1, then the
    identity on the triples whose x is a generator e_i; that is a complete
    proof.  Write f(x, y, z) = mu(x, y+z) mu(y, z) / (mu(x, y) mu(x+y, z)).
    f = delta(mu) and delta^2 = 1 give, for x = e_i + x',

        f(x, y, z) = f(x', y, z) f(e_i, x'+y, z) f(e_i, x', y) / f(e_i, x', y+z),

    all four inside the domain, so by induction on |x| f = 1 everywhere once
    it is 1 for x = 0 (by the normalization) and for x = e_i.  The scan runs
    in the degree order of the full scan, which reaches every generator x
    before any other, so on failure the returned report carries the full
    scan's first offending triple (or ("identity", u)).  Each triple is
    decided by `_triple_holds` over the integer forms of the table.
    """
    n, bound, table = mu_t.rank, mu_t.degree_bound, mu_t.table
    vectors = graded_vectors(n, bound)
    zero = vectors[0]
    for u in vectors:
        if not table[(u, zero)].is_one() or not table[(zero, u)].is_one():
            return CheckReport(False, counterexample=("identity", u))
    forms = dict(zip(table, map(_integer_unit, table.values())))
    rest = bound - 1  # the degree left for y and z once x is a generator
    for x in vectors[1:n + 1]:
        for y in vectors[:graded_count(n, rest)]:
            xy, mu_xy = tuple(map(operator.add, x, y)), forms[(x, y)]
            for z in vectors[:graded_count(n, rest - sum(y))]:
                if not _triple_holds(forms[(x, tuple(map(operator.add, y, z)))], forms[(y, z)],
                                     mu_xy, forms[(xy, z)]):
                    return CheckReport(False, counterexample=(x, y, z))
    return CheckReport(True)


def sample_cocycle_equation(mu, samples=100, seed=0):
    """Test the cocycle identity of a bimultiplicative cocycle on `samples` random triples.

    x, y and z are drawn in that order from ``random.Random(seed)``, each
    entry uniform in 0..5, so the check is deterministic given the seed.  A
    bimultiplicative cocycle satisfies the identity everywhere, so this is a
    self-test of evaluation; on failure the report carries the first
    offending (x, y, z).  Each value is one `_bilinear_power` over the sparse
    forms of x, y, z, y+z and x+y, each taken once per triple; the two sums
    are of one rank, so they are added through `ExponentVector._trusted`.
    Each triple is decided by `_triple_holds`.  `samples` must be an int
    >= 0 (not a bool).
    """
    rng, vec, matrix = random.Random(seed), ExponentVector._trusted, mu._integer
    for _ in range(_rank_arg(samples, "samples")):
        x, y, z = (vec([rng.randint(0, 5) for _ in range(mu.rank)]) for _ in range(3))
        sx, sy, sz, syz, sxy = map(_nonzero, (x, y, z, vec(map(operator.add, y, z)), vec(map(operator.add, x, y))))
        if not _triple_holds(_bilinear_power(matrix, sx, syz), _bilinear_power(matrix, sy, sz),
                             _bilinear_power(matrix, sx, sy), _bilinear_power(matrix, sxy, sz)):
            return CheckReport(False, counterexample=(x, y, z))
    return CheckReport(True)


def trivialize_rank1(mu_t):
    """Constructive triviality of H^2(N^1): h with delta(h) = mu on the truncated domain.

    h is built by the recurrence h(e) = 1, h(g^(p+1)) = h(g^p) / mu(g, g^p),
    walking the rank-1 domain e, g, g^2, ... in order; h(g) = 1 because
    mu(g, e) = 1.  It is the unique such witness with h(g) = 1.
    """
    if mu_t.rank != 1:
        raise ValueError(f"trivialize_rank1 requires rank 1, got rank {mu_t.rank}")
    check = verify_cocycle_equation(mu_t)
    if not check:
        raise ValueError(f"input fails the cocycle equation at {check.counterexample}")
    powers = graded_vectors(1, mu_t.degree_bound)
    table = {powers[0]: UnitScalar.one()}
    for power, next_power in zip(powers, powers[1:]):
        table[next_power] = table[power] / mu_t.value(powers[1], power)
    return FunctionOnMonoid(1, mu_t.degree_bound, table)


def yamazaki_trivialize(mu_t, split):
    """Constructive coboundary witness on a product monoid.

    Requires mu to restrict trivially to both factors and to have trivial
    cross pairing; then h((s,t)) = 1 / mu((s,e),(e,t)) satisfies
    delta(h) = mu on the whole truncated domain.  The conditions are checked
    in one pass in table order, each pair's blocks read as tuple slices.
    """
    if split.rank != mu_t.rank:
        raise ValueError(f"split rank {split.rank} does not match cocycle rank {mu_t.rank}")
    a, table = split.left_rank, mu_t.table
    e_left, e_right = (0,) * a, (0,) * split.right_rank
    for (u, v), val in table.items():
        if not val.is_one():
            if not any(u) or not any(v):
                raise ValueError(
                    f"identity normalization fails: mu({list(u)}, {list(v)}) = {val}")
            if u[a:] == e_right and v[a:] == e_right:
                raise ValueError(
                    f"restriction to the left factor is not trivial: mu({list(u)}, {list(v)}) = {val}")
            if u[:a] == e_left and v[:a] == e_left:
                raise ValueError(
                    f"restriction to the right factor is not trivial: mu({list(u)}, {list(v)}) = {val}")
        if u[a:] == e_right and v[:a] == e_left and val != table[(v, u)]:
            raise ValueError(
                f"cross pairing is not trivial: mu({list(u)}, {list(v)}) != mu({list(v)}, {list(u)})")
    return FunctionOnMonoid.from_function(
        mu_t.rank, mu_t.degree_bound, lambda w: table[(w[:a] + e_right, e_left + w[a:])].inv())


class ClosedFormFunction:
    """Total normalized function N^rank -> units given by a closed form."""

    __slots__ = ("rank", "_fn")

    def __init__(self, rank, fn):
        self.rank = rank
        self._fn = fn

    def __call__(self, u):
        return self._fn(_vector_arg(u, self.rank, "closed-form function argument"))

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
    if not isinstance(c, BimultiplicativeCocycle):
        c = BimultiplicativeCocycle(c)
    matrix, n = c.matrix, c.rank
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")

    inverse = c.inverse()._integer

    def h(u):
        return _unit_of(_power(_quadratic_pairs(inverse, _nonzero(u))))

    return ClosedFormFunction(n, h)
