"""Free commutative monoids N^n in additive notation, and morphisms between them.

Monoid elements are exponent vectors (tuples of nonnegative integers); a
morphism is determined by the images of the generators and extends linearly.
A product monoid N^a x N^b is represented as the single monoid N^(a+b)
together with a :class:`ProductSplit` marking the block boundary, so one set
of vector/matrix machinery serves both plain and product monoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add


class ExponentVector:
    """Element of N^n: a fixed-length tuple of nonnegative integers."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent vector entries must be ints, got {e!r}")
            if e < 0:
                raise ValueError(f"exponent vectors have nonnegative entries: {entries}")
        self.entries = entries

    @classmethod
    def _trusted(cls, entries):
        """Internal: the vector of a tuple of nonnegative ints, unchecked."""
        u = object.__new__(cls)
        u.entries = entries
        return u

    @classmethod
    def zero(cls, rank):
        return cls((0,) * rank)

    @classmethod
    def unit(cls, rank, index):
        entries = [0] * rank
        entries[index] = 1
        return cls(entries)

    @property
    def rank(self):
        return len(self.entries)

    def degree(self):
        """Total degree |u| = sum of entries."""
        return sum(self.entries)

    def support(self):
        return tuple(i for i, e in enumerate(self.entries) if e)

    def __add__(self, other):
        if not isinstance(other, ExponentVector):
            return NotImplemented
        if len(self.entries) != len(other.entries):
            raise ValueError("rank mismatch in exponent vector addition")
        return ExponentVector._trusted(tuple(map(add, self.entries, other.entries)))

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, ExponentVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ExponentVector({list(self.entries)})"

    def to_json(self):
        return list(self.entries)


class MonoidMorphism:
    """Morphism N^source_rank -> N^target_rank given by generator images."""

    __slots__ = ("source_rank", "target_rank", "generator_images")

    def __init__(self, source_rank, target_rank, generator_images):
        images = tuple(generator_images)
        if len(images) != source_rank:
            raise ValueError(f"expected {source_rank} generator images, got {len(images)}")
        for w in images:
            if w.rank != target_rank:
                raise ValueError(f"generator image {w!r} does not have rank {target_rank}")
        self.source_rank = source_rank
        self.target_rank = target_rank
        self.generator_images = images

    @classmethod
    def identity(cls, rank):
        return cls(rank, rank, [ExponentVector.unit(rank, i) for i in range(rank)])

    def __call__(self, u):
        if u.rank != self.source_rank:
            raise ValueError(f"rank mismatch: morphism expects rank {self.source_rank}, got {u.rank}")
        acc = [0] * self.target_rank
        for k in u.support():
            uk = u[k]
            for i, e in enumerate(self.generator_images[k].entries):
                if e:
                    acc[i] += uk * e
        return ExponentVector._trusted(tuple(acc))

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


@dataclass(frozen=True)
class ProductSplit:
    """Block boundary identifying N^(a+b) with N^a x N^b."""

    left_rank: int
    right_rank: int

    def __post_init__(self):
        if self.left_rank < 1 or self.right_rank < 1:
            raise ValueError("both factors of a product split must have rank >= 1")

    @property
    def rank(self):
        return self.left_rank + self.right_rank

    def inject_left(self, u):
        """(s, e_T): pad with zeros on the right block."""
        if u.rank != self.left_rank:
            raise ValueError(f"inject_left expects rank {self.left_rank}, got {u.rank}")
        return ExponentVector._trusted(u.entries + (0,) * self.right_rank)

    def inject_right(self, v):
        """(e_S, t): pad with zeros on the left block."""
        if v.rank != self.right_rank:
            raise ValueError(f"inject_right expects rank {self.right_rank}, got {v.rank}")
        return ExponentVector._trusted((0,) * self.left_rank + v.entries)

    def split(self, w):
        """Inverse of the injections on the respective blocks."""
        if w.rank != self.rank:
            raise ValueError(f"split expects rank {self.rank}, got {w.rank}")
        return (ExponentVector._trusted(w.entries[:self.left_rank]),
                ExponentVector._trusted(w.entries[self.left_rank:]))


def segre_morphism(n, m):
    """The grading morphism N^((n+1)(m+1)) -> N^(n+1) x N^(m+1).

    Source generators are ordered row-major by (i, j) with i = 0..n outer and
    j = 0..m inner; the generator at (i, j) maps to the 0/1 vector with ones
    at position i and at position (n+1)+j.
    """
    if n < 1 or m < 1:
        raise ValueError("segre_morphism requires n >= 1 and m >= 1")
    target_rank = (n + 1) + (m + 1)
    images = []
    for i in range(n + 1):
        for j in range(m + 1):
            entries = [0] * target_rank
            entries[i] = 1
            entries[(n + 1) + j] = 1
            images.append(ExponentVector(entries))
    return MonoidMorphism((n + 1) * (m + 1), target_rank, images)


def _compositions(rank, total):
    if rank == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(rank - 1, total - first):
            yield (first,) + rest


def vectors_of_degree(rank, degree):
    """All vectors in N^rank of total degree `degree`, in lexicographic order."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    for t in _compositions(rank, degree):
        yield ExponentVector._trusted(t)


def vectors_up_to_degree(rank, bound):
    """All vectors in N^rank of total degree <= bound, by increasing degree."""
    for d in range(bound + 1):
        yield from vectors_of_degree(rank, d)
