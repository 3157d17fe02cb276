"""Exact symbolic verification of polynomial Poisson algebra structure.

The package builds Lie-Poisson brackets on polynomial algebras over the
dual of a finite-dimensional Lie algebra, forms quotients by principal
orbit ideals, and checks, degree by degree with exact rational arithmetic,
how those algebras split into center plus bracket span, when constants are
bracket-reachable, and which bounded Poisson ideals stay proper.
"""

from .liealg import (
    InvalidLieAlgebraError,
    LieAlgebra,
    LieAlgebraFormatError,
    ValidationReport,
    builtin,
    is_semisimple,
    killing_form,
    lie_algebra_from_dict,
    load_algebra,
    validate,
)
from .linalg import RowBasis
from .orbit import (
    OrbitDescriptor,
    OrbitIdeal,
    OrbitType,
    builtin_casimir,
    casimir_orbit,
    make_orbit,
    quotient_dimension,
)
from .poisson import BracketClosureError, PoissonContext, jacobi_defect, leibniz_defect
from .poly import (
    Polynomial,
    PolynomialSyntaxError,
    format_polynomial,
    monomials_of_degree,
    monomials_up_to,
    normal_form,
    parse_polynomial,
)
from .structure import (
    Membership,
    VerificationReport,
    derived_membership,
    derived_span,
    ideal_square_check,
    invariants_basis,
    nonexactness_check,
    poisson_ideal_closure,
    simplicity_probe,
    verify_heisenberg,
    verify_homogeneous_ideals,
    verify_prop1,
    verify_thm2,
)

__version__ = "0.1.0"

__all__ = [
    "BracketClosureError",
    "InvalidLieAlgebraError",
    "LieAlgebra",
    "LieAlgebraFormatError",
    "Membership",
    "OrbitDescriptor",
    "OrbitIdeal",
    "OrbitType",
    "PoissonContext",
    "Polynomial",
    "PolynomialSyntaxError",
    "RowBasis",
    "ValidationReport",
    "VerificationReport",
    "builtin",
    "builtin_casimir",
    "casimir_orbit",
    "derived_membership",
    "derived_span",
    "format_polynomial",
    "ideal_square_check",
    "invariants_basis",
    "is_semisimple",
    "jacobi_defect",
    "killing_form",
    "leibniz_defect",
    "lie_algebra_from_dict",
    "load_algebra",
    "make_orbit",
    "monomials_of_degree",
    "monomials_up_to",
    "nonexactness_check",
    "normal_form",
    "parse_polynomial",
    "poisson_ideal_closure",
    "quotient_dimension",
    "simplicity_probe",
    "validate",
    "verify_heisenberg",
    "verify_homogeneous_ideals",
    "verify_prop1",
    "verify_thm2",
]
