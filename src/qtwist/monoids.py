"""Free commutative monoids N^n in additive notation, and morphisms between them.

Monoid elements are exponent vectors: tuples of nonnegative integers that
equal and hash like their plain tuples, with `+` as vector addition.  A
morphism is determined by the images of the generators and extends linearly.
A product monoid N^a x N^b is represented as the single monoid N^(a+b)
together with a :class:`ProductSplit` marking the block boundary, so one set
of vector/matrix machinery serves both plain and product monoids.

The graded domain of N^r, the vectors of degree <= D, is enumerated, checked
and counted here: one degree-ordered tuple, the pair walk |u| + |v| <= D
over it, and one closed-form count that every other count reduces to.

The argument checks every module shares live here: `_int_arg` for a size
or an index, `_rank_arg` for a rank, and `_vector_arg` for an exponent
vector of a given rank, the addend of `+` included.  So does `_nonzero`,
the sparse form of a vector (its nonzero entries with their indices) that
bilinear forms and twisted products read, and that a morphism keeps of
each generator image.  So does `_Record`, the immutable slotted record
base of `ProductSplit` and the library's other records: the standard
library's generated records would load `inspect` and `ast` on import.  So
does `_vector_reader`, the key memo through which a table's JSON is read:
each distinct key is checked once.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, compress
from math import comb
from operator import add, sub


def _int_arg(value, what):
    """`value` if it is an int (a bool is not a size or an index here); else TypeError naming `what`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{what} must be an int, got {value!r}")


def _rank_arg(value, what):
    """`value` if it is an int >= 0 (TypeError as in `_int_arg`, else ValueError naming `what`)."""
    if _int_arg(value, what) < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def _vector_arg(u, rank, what):
    """`u` if it is an ExponentVector of rank `rank`; else TypeError, or ValueError on the rank, naming `what`."""
    if not isinstance(u, ExponentVector):
        raise TypeError(f"{what} must be an ExponentVector, got {u!r}")
    if len(u) != rank:
        raise ValueError(f"rank mismatch: {what} must have rank {rank}, got {len(u)}")
    return u


def _nonzero(u):
    """The (index, entry) pairs of the nonzero entries of a vector: its sparse form."""
    return [*compress(enumerate(u), u)]


class _Record:
    """An immutable record whose fields are its `__slots__`, in order.

    Built by position or keyword; equal to a record of the same type with
    equal fields (never to a tuple), hashed and repr'd by its fields, and
    copied and pickled by rebuilding through the constructor.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args + tuple(kwargs[name] for name in names[len(args):])):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class ExponentVector(tuple):
    """Element of N^n: a tuple of nonnegative ints; `+` and `*` raise rather than concatenate or repeat.

    Built from an iterable of ints: a non-iterable, or an entry that is not
    an int (or is a bool), raises TypeError; a negative entry ValueError.
    """

    __slots__ = ()

    def __new__(cls, entries):
        try:
            iterator = iter(entries)
        except TypeError:
            raise TypeError(f"exponent vector must be an iterable of ints, got {entries!r}") from None
        entries = tuple(iterator)  # outside the try: an iterable may raise its own TypeError
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent vector entries must be ints, got {e!r}")
            if e < 0:
                raise ValueError(f"exponent vectors have nonnegative entries: {entries}")
        return tuple.__new__(cls, entries)

    @classmethod
    def _trusted(cls, entries):
        """Internal: the vector of an iterable of nonnegative ints, unchecked."""
        return tuple.__new__(cls, entries)

    @classmethod
    def zero(cls, rank):
        return cls._trusted((0,) * _rank_arg(rank, "zero vector rank"))

    @classmethod
    def unit(cls, rank, index):
        rank, index = _rank_arg(rank, "unit vector rank"), _int_arg(index, "unit vector index")
        if not rank:
            raise ValueError(f"rank 0 has no unit vectors, got index {index}")
        if not 0 <= index < rank:
            raise ValueError(f"unit vectors of rank {rank} have an index in 0..{rank - 1}, got {index}")
        entries = [0] * rank
        entries[index] = 1
        return cls._trusted(entries)

    @property
    def entries(self):
        return tuple(self)

    @property
    def rank(self):
        return len(self)

    def degree(self):
        """Total degree |u| = sum of entries."""
        return sum(self)

    def support(self):
        return tuple(i for i, e in enumerate(self) if e)

    def __add__(self, other):
        return tuple.__new__(ExponentVector, map(add, self, _vector_arg(other, len(self), "addend")))

    __radd__ = __add__

    def __mul__(self, other):
        raise TypeError("exponent vectors do not repeat under '*'")

    __rmul__ = __mul__

    def __repr__(self):
        return f"ExponentVector({list(self)})"

    def to_json(self):
        return list(self)


_INT = frozenset((int,))


def _vector_reader():
    """An ExponentVector constructor for reading one input: each distinct key is checked once and its vector shared.

    Vectors are immutable, so one vector may stand for every copy of its
    key.  Only a key whose entries are all of type int is looked up or
    stored: `True` and `1.0` equal and hash like 1, so any other key, and
    a key that is not iterable, goes through the constructor and raises, or
    reads, as it would alone.  The memo lives as long as the returned
    function.
    """
    memo = {}

    def read(entries):
        try:
            entries = tuple(entries)
        except TypeError:  # not iterable: the constructor names it
            return ExponentVector(entries)
        else:  # the memo path runs outside the try, with no jump past the handler
            if {*map(type, entries)} <= _INT:
                vector = memo.get(entries)
                if vector is None:
                    vector = memo[entries] = ExponentVector(entries)
                return vector
            return ExponentVector(entries)

    return read


class MonoidMorphism:
    """Morphism N^source_rank -> N^target_rank given by generator images.

    Calling it checks the argument; `_image` is the same map, unchecked, for
    callers whose vectors an owner has already checked.
    """

    __slots__ = ("source_rank", "target_rank", "generator_images", "_sparse")

    def __init__(self, source_rank, target_rank, generator_images):
        source_rank = _rank_arg(source_rank, "source rank")
        target_rank = _rank_arg(target_rank, "target rank")
        images = tuple(generator_images)
        if len(images) != source_rank:
            raise ValueError(f"expected {source_rank} generator images, got {len(images)}")
        for w in images:
            _vector_arg(w, target_rank, "generator image")
        self.source_rank = source_rank
        self.target_rank = target_rank
        self.generator_images = images
        self._sparse = tuple(map(_nonzero, images))

    @classmethod
    def identity(cls, rank):
        return cls(rank, rank, [ExponentVector.unit(rank, i) for i in range(rank)])

    def __call__(self, u):
        return self._image(_vector_arg(u, self.source_rank, "morphism argument"))

    def _image(self, u):
        """Internal: f(u) for an ExponentVector u of the source rank, unchecked."""
        acc = [0] * self.target_rank
        for uk, image in zip(u, self._sparse):
            if uk:
                for i, e in image:
                    acc[i] += uk * e
        return tuple.__new__(ExponentVector, acc)

    def __eq__(self, other):
        if not isinstance(other, MonoidMorphism):
            return NotImplemented
        return (self.source_rank == other.source_rank
                and self.target_rank == other.target_rank
                and self.generator_images == other.generator_images)

    def __repr__(self):
        return f"MonoidMorphism({self.source_rank} -> {self.target_rank})"

    def to_json(self):
        return [w.to_json() for w in self.generator_images]


class ProductSplit(_Record):
    """Block boundary identifying N^(a+b) with N^a x N^b (ranks `left_rank`, `right_rank`)."""

    __slots__ = ("left_rank", "right_rank")

    def __init__(self, left_rank, right_rank):
        if min(_int_arg(left_rank, "left rank"), _int_arg(right_rank, "right rank")) < 1:
            raise ValueError("both factors of a product split must have rank >= 1")
        super().__init__(left_rank, right_rank)

    @property
    def rank(self):
        return self.left_rank + self.right_rank

    def inject_left(self, u):
        """(s, e_T): pad with zeros on the right block."""
        _vector_arg(u, self.left_rank, "inject_left argument")
        return ExponentVector._trusted(tuple(u) + (0,) * self.right_rank)

    def inject_right(self, v):
        """(e_S, t): pad with zeros on the left block."""
        _vector_arg(v, self.right_rank, "inject_right argument")
        return ExponentVector._trusted((0,) * self.left_rank + tuple(v))

    def split(self, w):
        """Inverse of the injections on the respective blocks."""
        _vector_arg(w, self.rank, "split argument")
        return (ExponentVector._trusted(w[:self.left_rank]),
                ExponentVector._trusted(w[self.left_rank:]))


def _segre_target_rank(n, m):
    """(n + 1) + (m + 1), once n and m are ints (TypeError naming them) >= 1 (ValueError): a Segre shape."""
    if min(_int_arg(n, "segre_morphism n"), _int_arg(m, "segre_morphism m")) < 1:
        raise ValueError("segre_morphism requires n >= 1 and m >= 1")
    return (n + 1) + (m + 1)


def segre_morphism(n, m):
    """The grading morphism N^((n+1)(m+1)) -> N^(n+1) x N^(m+1).

    Source generators are ordered row-major by (i, j) with i = 0..n outer and
    j = 0..m inner; the generator at (i, j) maps to the 0/1 vector with ones
    at position i and at position (n+1)+j.
    """
    target_rank = _segre_target_rank(n, m)
    images = []
    for i in range(n + 1):
        for j in range(m + 1):
            entries = [0] * target_rank
            entries[i] = 1
            entries[(n + 1) + j] = 1
            images.append(ExponentVector(entries))
    return MonoidMorphism((n + 1) * (m + 1), target_rank, images)


def vectors_of_degree(rank, degree):
    """All vectors in N^rank of total degree `degree`, in lexicographic order; none if degree < 0."""
    return _vectors(rank, _int_arg(degree, "degree"), degree)


def vectors_up_to_degree(rank, bound):
    """All vectors in N^rank of total degree <= bound, by increasing degree; none if bound < 0."""
    return _vectors(rank, 0, _int_arg(bound, "degree bound"))


def _vectors(rank, low, high):
    """The vectors of degree low..high (none below 0), by degree; the rank is checked before any is made.

    Stars and bars: lay out d stars and rank - 1 bars, and let c_i be the
    number of stars before bar i, so 0 <= c_1 <= ... <= c_(rank-1) <= d.  The
    entries are the gaps c_1, c_2 - c_1, ..., d - c_(rank-1), and the
    lexicographic order of the c's is that of the vectors.
    """
    if _int_arg(rank, "rank") < 1:
        raise ValueError("rank must be >= 1")
    return (tuple.__new__(ExponentVector, map(sub, c + (d,), (0,) + c)) for d in range(max(low, 0), high + 1)
            for c in combinations_with_replacement(range(d + 1), rank - 1))


def graded_count(rank, bound):
    """How many vectors of N^rank have degree <= bound: C(rank + bound, bound).

    Stars and bars (Stanley, *Enumerative Combinatorics I*, Section 1.2):
    with its slack bound - |u| as one more entry, such a vector is one of
    N^(rank + 1) of degree exactly bound.  The count is 0 for bound = -1 and
    rank >= 1.  Every count of the graded domain is this one:
    - vectors_of_degree(rank, d) yields graded_count(rank - 1, d) vectors;
    - the vectors of degree <= k are the first graded_count(rank, k)
      entries of graded_vectors(rank, D), for k <= D;
    - graded_pairs(rank, D) walks graded_count(2 * rank, D) pairs, as a pair
      (u, v) is a vector of N^(2 rank);
    - the triples |x| + |y| + |z| <= D whose x is a generator number
      rank * graded_count(2 * rank, D - 1): y and z share the degree D - 1.
    """
    return comb(rank + bound, rank)


def _graded_args(rank, bound):
    """Check the rank and the bound of a truncated domain, enumerating nothing.

    A rank or bound that is not an int (or is a bool) raises TypeError, and
    rank < 1 or bound < 0 raises ValueError.  `graded_vectors` checks every
    domain it enumerates here, and `cocycles._UnitTable.__init__` checks
    here before it checks and counts a table's keys, which it does with
    nothing enumerated, so that a domain too large to enumerate is refused
    by a key.
    """
    rank, bound = _int_arg(rank, "truncated domain rank"), _int_arg(bound, "degree bound")
    if rank < 1 or bound < 0:
        raise ValueError(f"truncated domains need rank >= 1 and degree bound >= 0, got {rank} and {bound}")


def graded_vectors(rank, bound):
    """The vectors of N^rank of degree <= bound as one tuple, by increasing degree.

    Every truncated domain is enumerated here, once `_graded_args` has
    checked it, with no second check of the bound.
    """
    _graded_args(rank, bound)
    return tuple(_vectors(rank, 0, bound))


def graded_pairs(rank, bound):
    """The pairs (u, v) with |u| + |v| <= bound: u by degree, then v by degree; checked as above."""
    vectors = graded_vectors(rank, bound)
    return ((u, v) for u in vectors for v in vectors[:graded_count(rank, bound - sum(u))])
