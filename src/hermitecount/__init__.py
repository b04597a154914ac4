"""Exact counting of distinct complex and real solutions of zero-dimensional
polynomial systems, through the rank and signature of the trace bilinear form
on the quotient ring.  All arithmetic is over exact rationals.
"""

from .groebner import (
    GroebnerBasis,
    NotZeroDimensionalError,
    QuotientBasis,
    audit_basis,
    buchberger,
    is_zero_dimensional,
    normal_form,
    s_polynomial,
    standard_monomials,
)
from .linalg import (
    InertiaResult,
    characteristic_polynomial,
    congruence_diagonalize,
    inertia,
    inertia_via_charpoly,
)
from .parsing import (
    ParseError,
    format_monomial,
    format_polynomial,
    parse_polynomial,
    parse_system,
)
from .poly import GREVLEX, GRLEX, LEX, ORDER_KINDS, Monomial, MonomialOrder, Polynomial
from .quotient import (
    HermiteForm,
    HermiteReport,
    MultiplicationMatrix,
    hermite_form,
    hermite_report,
    multiplication_matrix,
    trace_functional,
)
from .univariate import (
    NewtonSums,
    UnivariatePolynomial,
    classic_hermite_matrix,
    from_multivariate,
    newton_sums,
    poly_gcd,
    squarefree_part,
    sturm_count,
    to_multivariate,
)

__all__ = [
    "GroebnerBasis",
    "NotZeroDimensionalError",
    "QuotientBasis",
    "audit_basis",
    "buchberger",
    "is_zero_dimensional",
    "normal_form",
    "s_polynomial",
    "standard_monomials",
    "InertiaResult",
    "characteristic_polynomial",
    "congruence_diagonalize",
    "inertia",
    "inertia_via_charpoly",
    "ParseError",
    "format_monomial",
    "format_polynomial",
    "parse_polynomial",
    "parse_system",
    "GREVLEX",
    "GRLEX",
    "LEX",
    "ORDER_KINDS",
    "Monomial",
    "MonomialOrder",
    "Polynomial",
    "HermiteForm",
    "HermiteReport",
    "MultiplicationMatrix",
    "hermite_form",
    "hermite_report",
    "multiplication_matrix",
    "trace_functional",
    "NewtonSums",
    "UnivariatePolynomial",
    "classic_hermite_matrix",
    "from_multivariate",
    "newton_sums",
    "poly_gcd",
    "squarefree_part",
    "sturm_count",
    "to_multivariate",
]
