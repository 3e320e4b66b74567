"""Exact cocycle twists of N^n-graded algebras.

Quantum projective spaces, twisted tensor products and quantum Segre maps via
2-cocycles on free commutative monoids, with constructive coboundary witnesses
and exact (rational / Laurent-monomial) arithmetic throughout.
"""

from .scalars import (
    LaurentPolynomial,
    Rational,
    UnitScalar,
    parse_poly,
    parse_unit,
    render_poly,
    render_unit,
    specialize,
)
from .monoids import (
    ExponentVector,
    MonoidMorphism,
    ProductSplit,
    segre_morphism,
    vectors_of_degree,
    vectors_up_to_degree,
)
from .cocycles import (
    AntisymmetricMatrix,
    BimultiplicativeCocycle,
    ClosedFormFunction,
    CocycleCheck,
    FunctionOnMonoid,
    Pairing,
    TruncatedCocycle,
    antisymmetrize,
    canonical_from_antisym,
    coboundary,
    cohomologous,
    is_factorizable,
    pullback,
    symmetric_trivializer,
    trivialize_rank1,
    verify_cocycle_equation,
    yamazaki_factorize,
    yamazaki_reconstruct,
    yamazaki_trivialize,
)
from .algebras import (
    AlgebraElement,
    DiagonalScaling,
    FactorTwistReport,
    GradedHomomorphism,
    HomomorphismReport,
    MultiplicativityReport,
    TwistedMonoidAlgebra,
    coboundary_isomorphism,
    deformation_matrix,
    embed_left,
    embed_right,
    factor_twist,
    parse_element,
    quantum_projective_space,
    random_element,
    random_homogeneous,
    random_unit,
    random_vector,
    render_element,
    twist_by,
    twisted_tensor_product,
    verify_homomorphism,
)
from .segre import (
    SegreMap,
    build_quantum_segre,
    kernel_basis,
    kronecker,
    source_deformation_matrix,
)

__version__ = "0.1.0"
