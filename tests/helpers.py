"""Seeded random generators, and one injected fault, shared by the test modules.

Bounds follow the desk-scale sampling conventions used throughout the suite:
unit entries have exponents in [-3, 3] and rational coefficients with
numerator and denominator bounded by 7; sampled exponent vectors have entries
bounded by 5.
"""

from fractions import Fraction

from qtwist import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    ExponentVector,
    FunctionOnMonoid,
    LaurentPolynomial,
    Pairing,
    UnitScalar,
)

PARAMS = ("q", "r", "s")


def rand_unit(rng, params=PARAMS, max_coeff=7, max_exp=3):
    num = 0
    while num == 0:
        num = rng.randint(-max_coeff, max_coeff)
    coeff = Fraction(num, rng.randint(1, max_coeff))
    exps = {}
    for name in params:
        if rng.random() < 0.6:
            e = rng.randint(-max_exp, max_exp)
            if e:
                exps[name] = e
    return UnitScalar(coeff, exps)


def rand_poly(rng, params=PARAMS, max_terms=4):
    p = LaurentPolynomial.zero()
    for _ in range(rng.randint(0, max_terms)):
        p = p + LaurentPolynomial.from_unit(rand_unit(rng, params))
    return p


def rand_cocycle(rng, rank, params=PARAMS):
    return BimultiplicativeCocycle(
        [[rand_unit(rng, params) for _ in range(rank)] for _ in range(rank)])


def rand_antisym(rng, rank, params=PARAMS):
    return AntisymmetricMatrix.from_upper(
        rank, {(i, j): rand_unit(rng, params)
               for i in range(rank) for j in range(i + 1, rank)})


def rand_pairing(rng, left_rank, right_rank, params=PARAMS):
    return Pairing([[rand_unit(rng, params) for _ in range(right_rank)]
                    for _ in range(left_rank)])


def rand_symmetric_cocycle(rng, rank, params=PARAMS):
    rows = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = rand_unit(rng, params)
        for j in range(i + 1, rank):
            rows[i][j] = rows[j][i] = rand_unit(rng, params)
    return BimultiplicativeCocycle(rows)


def rand_vector(rng, rank, max_entry=5):
    return ExponentVector([rng.randint(0, max_entry) for _ in range(rank)])


def rand_function(rng, rank, degree_bound, params=PARAMS, normalize_generators=False):
    """Random normalized function h (h(e) = 1); optionally h = 1 on all generators."""
    one = UnitScalar.one()

    def value(u):
        if u.degree() == 0:
            return one
        if normalize_generators and u.degree() == 1:
            return one
        return rand_unit(rng, params)

    return FunctionOnMonoid.from_function(rank, degree_bound, value)


def rand_nonzero_rational(rng, max_coeff=9):
    num = 0
    while num == 0:
        num = rng.randint(-max_coeff, max_coeff)
    return Fraction(num, rng.randint(1, max_coeff))


def doubled_from_degree_3(apply):
    """A faulty `apply` that doubles the image of any element with a term of degree >= 3.

    Generator pairs have degree 2, so they still pass; random samples do not.
    """
    def faulty(phi, x):
        image = apply(phi, x)
        return image * 2 if any(u.degree() >= 3 for u in x.terms) else image
    return faulty
