import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtwist import (
    BimultiplicativeCocycle,
    ExponentVector,
    MonoidMorphism,
    ProductSplit,
    TruncatedCocycle,
    TwistedMonoidAlgebra,
    build_quantum_segre,
    segre_morphism,
    vectors_of_degree,
    vectors_up_to_degree,
)
from qtwist.monoids import _vector_arg, graded_count, graded_pairs, graded_vectors

from helpers import rand_vector

vectors4 = st.lists(st.integers(0, 5), min_size=4, max_size=4).map(ExponentVector)


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        ExponentVector((1, -1))


@pytest.mark.parametrize("entries", [[1.7, True], [True], [1.0], ["2"], [1, None]],
                         ids=["float-and-bool", "bool", "integral-float", "str", "none"])
def test_only_int_entries_accepted(entries):
    with pytest.raises(TypeError):
        ExponentVector(entries)


@given(vectors4, vectors4, vectors4)
def test_addition_monoid_laws(u, v, w):
    zero = ExponentVector.zero(4)
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert u + zero == u


@pytest.mark.parametrize("index", [-1, -3, 3, 4])
def test_unit_vector_index_must_be_in_range(index):
    with pytest.raises(ValueError) as exc:
        ExponentVector.unit(3, index)
    assert str(exc.value) == f"unit vectors of rank 3 have an index in 0..2, got {index}"
    assert [ExponentVector.unit(3, k) for k in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_unit_and_zero_check_once_and_build_unchecked(monkeypatch):
    # after their own rank and index checks, unit and zero make a vector of
    # ints they built themselves, so they skip the checked constructor
    expected = [ExponentVector.unit(3, k) for k in range(3)], ExponentVector.zero(2), ExponentVector.zero(0)

    def refuse(cls, entries):
        raise AssertionError("checked constructor called")

    monkeypatch.setattr(ExponentVector, "__new__", refuse)
    got = [ExponentVector.unit(3, k) for k in range(3)], ExponentVector.zero(2), ExponentVector.zero(0)
    assert got == expected and all(type(u) is ExponentVector for u in (*got[0], got[1], got[2]))
    for build, message in [(lambda: ExponentVector.unit(0, 0), "rank 0 has no unit vectors, got index 0"),
                           (lambda: ExponentVector.unit(2, 2), "unit vectors of rank 2 have an index in 0..1, got 2"),
                           (lambda: ExponentVector.zero(-1), "zero vector rank must be >= 0, got -1")]:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: ExponentVector.unit(3, True), "unit vector index must be an int, got True"),
    (lambda: ExponentVector.unit(3, 1.0), "unit vector index must be an int, got 1.0"),
    (lambda: ExponentVector.unit(3.0, 1), "unit vector rank must be an int, got 3.0"),
    (lambda: TwistedMonoidAlgebra(BimultiplicativeCocycle.trivial(3)).generator(True),
     "unit vector index must be an int, got True"),
    (lambda: ExponentVector.zero(True), "zero vector rank must be an int, got True"),
    (lambda: segre_morphism(True, 1), "segre_morphism n must be an int, got True"),
    (lambda: segre_morphism(1, 2.0), "segre_morphism m must be an int, got 2.0"),
    (lambda: build_quantum_segre(True, 1, BimultiplicativeCocycle.trivial(4)),
     "segre_morphism n must be an int, got True"),
    (lambda: MonoidMorphism(True, 1, [ExponentVector((1,))]), "source rank must be an int, got True"),
    (lambda: MonoidMorphism(1, 1.0, [ExponentVector((1,))]), "target rank must be an int, got 1.0"),
    (lambda: ProductSplit(True, 1), "left rank must be an int, got True"),
    (lambda: ProductSplit(1, 1.0), "right rank must be an int, got 1.0"),
    (lambda: graded_vectors(True, 2), "truncated domain rank must be an int, got True"),
    (lambda: graded_vectors(2, 1.5), "degree bound must be an int, got 1.5"),
    (lambda: TruncatedCocycle.truncate(BimultiplicativeCocycle.trivial(2), True),
     "degree bound must be an int, got True"),
    (lambda: list(vectors_of_degree(True, 2)), "rank must be an int, got True"),
    (lambda: list(vectors_of_degree(2, 1.0)), "degree must be an int, got 1.0"),
    (lambda: list(vectors_up_to_degree(2, True)), "degree bound must be an int, got True"),
], ids=["unit-index-bool", "unit-index-float", "unit-rank-float", "generator-bool", "zero-rank-bool",
        "segre-n-bool", "segre-m-float", "build-segre-n-bool", "morphism-source-bool",
        "morphism-target-float", "split-left-bool", "split-right-float",
        "graded-rank-bool", "graded-bound-float", "truncate-bound-bool", "degree-rank-bool",
        "degree-float", "up-to-bound-bool"])
def test_sizes_and_indices_must_be_ints(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: ExponentVector.zero(-1), "zero vector rank must be >= 0, got -1"),
    (lambda: ExponentVector.unit(-2, 0), "unit vector rank must be >= 0, got -2"),
    (lambda: MonoidMorphism(0, -3, []), "target rank must be >= 0, got -3"),
    (lambda: MonoidMorphism(-1, 2, []), "source rank must be >= 0, got -1"),
    (lambda: MonoidMorphism.identity(-1), "source rank must be >= 0, got -1"),
    (lambda: ExponentVector.unit(0, 0), "rank 0 has no unit vectors, got index 0"),
    (lambda: ExponentVector.unit(0, -1), "rank 0 has no unit vectors, got index -1"),
], ids=["zero-rank", "unit-rank", "morphism-target", "morphism-source", "identity", "unit-of-rank-0",
        "negative-unit-of-rank-0"])
def test_ranks_must_not_be_negative(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    assert ExponentVector.zero(0) == () and MonoidMorphism(0, 2, []).target_rank == 2


def test_rank_mismatch_in_addition():
    with pytest.raises(ValueError) as exc:
        ExponentVector((1,)) + ExponentVector((1, 2))
    assert str(exc.value) == "rank mismatch: addend must have rank 1, got 2"



# -- vectors are tuples -------------------------------------------------------

def test_addition_is_element_wise():
    assert ExponentVector((1, 2, 0)) + ExponentVector((3, 0, 4)) == ExponentVector((4, 2, 4))
    assert type(ExponentVector((1,)) + ExponentVector((2,))) is ExponentVector


@pytest.mark.parametrize("other", [(1, 2), [1, 2], 0], ids=["tuple", "list", "int"])
def test_addition_needs_two_vectors(other):
    u = ExponentVector((1, 2))
    for add in (lambda: u + other, lambda: other + u):
        with pytest.raises(TypeError) as exc:
            add()
        assert str(exc.value) == f"addend must be an ExponentVector, got {other!r}"


def test_vectors_do_not_repeat():
    u = ExponentVector((1, 2))
    with pytest.raises(TypeError):
        u * 2
    with pytest.raises(TypeError):
        2 * u


def test_vector_is_its_tuple():
    u = ExponentVector((3, 0, 1))
    assert u == (3, 0, 1) and (3, 0, 1) == u
    assert hash(u) == hash(tuple(u))
    assert {u: 1}[(3, 0, 1)] == 1
    assert type(u.entries) is tuple and u.entries == (3, 0, 1)
    assert (u[0], list(u), len(u), u.rank, u.degree()) == (3, [3, 0, 1], 3, 3, 4)
    assert repr(u) == "ExponentVector([3, 0, 1])"


def test_trusted_constructor_accepts_iterables():
    assert ExponentVector._trusted(iter([2, 0])) == ExponentVector((2, 0))
    assert type(ExponentVector._trusted([2, 0])) is ExponentVector


def test_product_split_concatenates():
    split = ProductSplit(2, 2)
    left = split.inject_left(ExponentVector((1, 2)))
    right = split.inject_right(ExponentVector((3, 4)))
    assert left == (1, 2, 0, 0) and right == (0, 0, 3, 4)
    assert split.split(ExponentVector((1, 2, 3, 4))) == ((1, 2), (3, 4))
    assert all(type(w) is ExponentVector
               for w in (left, right, *split.split(ExponentVector((1, 2, 3, 4)))))

# -- morphisms ---------------------------------------------------------------

def test_morphism_sends_zero_to_zero():
    f = segre_morphism(2, 3)
    assert f(ExponentVector.zero(f.source_rank)) == ExponentVector.zero(f.target_rank)


def test_segre_generator_images_n1_m1():
    f = segre_morphism(1, 1)
    # row-major generator order: e00, e01, e10, e11
    assert f(ExponentVector((1, 0, 0, 0))) == ExponentVector((1, 0, 1, 0))
    assert f(ExponentVector((0, 1, 0, 0))) == ExponentVector((1, 0, 0, 1))
    assert f(ExponentVector((0, 0, 0, 1))) == ExponentVector((0, 1, 0, 1))


def test_segre_morphism_ranks():
    f = segre_morphism(1, 2)
    assert f.source_rank == 6
    assert f.target_rank == 5


def test_segre_morphism_rejects_bad_ranks():
    for n, m in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(ValueError):
            segre_morphism(n, m)


def test_morphism_additivity_random():
    rng = random.Random(21)
    f = segre_morphism(2, 2)
    for _ in range(100):
        u = rand_vector(rng, f.source_rank)
        v = rand_vector(rng, f.source_rank)
        assert f(u + v) == f(u) + f(v)


def test_segre_image_is_row_and_column_sums():
    # independent oracle: left block i-th entry = sum_j u_ij, right block j-th = sum_i u_ij
    rng = random.Random(22)
    n, m = 2, 3
    f = segre_morphism(n, m)
    for _ in range(100):
        u = rand_vector(rng, f.source_rank)
        w = f(u)
        grid = [[u[i * (m + 1) + j] for j in range(m + 1)] for i in range(n + 1)]
        assert w.entries[:n + 1] == tuple(sum(row) for row in grid)
        assert w.entries[n + 1:] == tuple(sum(col) for col in zip(*grid))


def test_morphism_rank_mismatch():
    f = segre_morphism(1, 1)
    with pytest.raises(ValueError):
        f(ExponentVector((1, 2)))


def test_identity_morphism():
    f = MonoidMorphism.identity(3)
    u = ExponentVector((4, 0, 2))
    assert f(u) == u


def test_morphism_equality_and_json():
    f = segre_morphism(1, 1)
    images = [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]
    assert f.to_json() == images
    assert f == MonoidMorphism(4, 4, [ExponentVector(w) for w in images])
    assert f != MonoidMorphism(4, 4, [ExponentVector(w) for w in reversed(images)])
    assert f != MonoidMorphism.identity(4)
    assert MonoidMorphism(1, 2, [ExponentVector((1, 0))]) != MonoidMorphism(1, 3, [ExponentVector((1, 0, 0))])
    assert f.__eq__(images) is NotImplemented


def test_morphism_counts_its_images_and_reprs_its_ranks():
    with pytest.raises(ValueError) as exc:
        MonoidMorphism(2, 1, [ExponentVector((1,))])
    assert str(exc.value) == "expected 2 generator images, got 1"
    with pytest.raises(ValueError) as exc:
        MonoidMorphism(1, 1, [ExponentVector((1,))] * 2)
    assert str(exc.value) == "expected 1 generator images, got 2"
    assert repr(segre_morphism(1, 2)) == "MonoidMorphism(6 -> 5)"


# -- product splits ----------------------------------------------------------

def test_inject_and_split_examples():
    split = ProductSplit(2, 3)
    assert split.inject_left(ExponentVector((1, 4))) == ExponentVector((1, 4, 0, 0, 0))
    assert split.split(ExponentVector((1, 4, 0, 5, 6))) == (
        ExponentVector((1, 4)), ExponentVector((0, 5, 6)))


def test_split_roundtrip_random():
    rng = random.Random(23)
    split = ProductSplit(2, 3)
    for _ in range(100):
        w = rand_vector(rng, 5)
        s, t = split.split(w)
        assert split.inject_left(s) + split.inject_right(t) == w


def test_split_validation():
    with pytest.raises(ValueError):
        ProductSplit(0, 3)
    split = ProductSplit(2, 2)
    with pytest.raises(ValueError):
        split.inject_left(ExponentVector((1, 2, 3)))
    with pytest.raises(ValueError):
        split.split(ExponentVector((1, 2, 3)))
    with pytest.raises(ValueError) as exc:
        ProductSplit(2, 1).inject_right(ExponentVector((1, 2)))
    assert str(exc.value) == "rank mismatch: inject_right argument must have rank 1, got 2"


def test_vector_arg_names_the_argument_in_both_messages():
    u = ExponentVector((1, 2))
    assert _vector_arg(u, 2, "u") is u
    with pytest.raises(TypeError) as exc:
        _vector_arg((1, 2), 2, "u")
    assert str(exc.value) == "u must be an ExponentVector, got (1, 2)"
    with pytest.raises(ValueError) as exc:
        _vector_arg(u, 3, "u")
    assert str(exc.value) == "rank mismatch: u must have rank 3, got 2"


# -- degree enumeration ------------------------------------------------------

def test_vectors_of_degree_count():
    # stars and bars: C(d + r - 1, r - 1)
    assert len(list(vectors_of_degree(3, 4))) == 15
    assert len(list(vectors_up_to_degree(2, 3))) == 10


def test_vectors_of_degree_all_distinct_and_correct():
    seen = set(vectors_of_degree(4, 3))
    assert len(seen) == 20
    assert all(u.degree() == 3 for u in seen)


def test_enumeration_order_matches_an_independent_oracle():
    # every vector of range(d + 1)^r with entry sum d, sorted: lexicographic by construction
    for rank in range(1, 6):
        by_degree = [sorted(t for t in itertools.product(range(d + 1), repeat=rank) if sum(t) == d)
                     for d in range(6)]
        for d, expected in enumerate(by_degree):
            got = list(vectors_of_degree(rank, d))
            assert got == expected
            assert all(type(u) is ExponentVector for u in got)
        assert list(vectors_up_to_degree(rank, 5)) == [t for level in by_degree for t in level]


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("degree", [-1, -2])
def test_negative_degree_has_no_vectors(rank, degree):
    assert list(vectors_of_degree(rank, degree)) == []


@pytest.mark.parametrize("degree", [-1, 0, 2])
def test_vectors_of_degree_need_rank_one(degree):
    with pytest.raises(ValueError) as exc:
        list(vectors_of_degree(0, degree))
    assert str(exc.value) == "rank must be >= 1"
    # up to a degree >= 0, the enumeration asks for degree 0 first
    if degree >= 0:
        with pytest.raises(ValueError, match="rank must be >= 1"):
            list(vectors_up_to_degree(0, degree))


@pytest.mark.parametrize("bound", [-2, -1, 0, 2])
def test_rank_zero_is_refused_before_anything_is_enumerated(bound):
    for enumerate_ in (vectors_of_degree, vectors_up_to_degree):
        with pytest.raises(ValueError) as exc:
            enumerate_(0, bound)  # the call refuses it; no iteration is needed
        assert str(exc.value) == "rank must be >= 1"


# -- the graded domain and its one count ---------------------------------------

@pytest.mark.parametrize("rank", range(1, 6))
def test_one_count_sizes_every_enumeration(rank):
    for bound in range(7):
        vectors = graded_vectors(rank, bound)
        assert len(vectors) == graded_count(rank, bound)
        for k in range(bound + 1):
            assert vectors[:graded_count(rank, k)] == tuple(u for u in vectors if u.degree() <= k)
        assert len(list(graded_pairs(rank, bound))) == graded_count(2 * rank, bound)
        assert len(list(vectors_of_degree(rank, bound))) == graded_count(rank - 1, bound)
        # the triples |x| + |y| + |z| <= bound whose x is a generator, by a walk of their own
        triples = sum(1 for x in vectors if x.degree() == 1
                      for y in vectors if x.degree() + y.degree() <= bound
                      for z in vectors if x.degree() + y.degree() + z.degree() <= bound)
        assert triples == rank * graded_count(2 * rank, bound - 1)

