"""Exact counting of distinct complex and real solutions of zero-dimensional
polynomial systems, through the rank and signature of the trace bilinear form
on the quotient ring.  All arithmetic is over exact rationals.
"""

from .groebner import (
    GroebnerBasis,
    NotZeroDimensionalError,
    buchberger,
    is_zero_dimensional,
    normal_form,
    s_polynomial,
)
from .linalg import (
    InertiaResult,
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
    QuotientBasis,
    audit_basis,
    hermite_form,
    hermite_report,
    multiplication_matrix,
    standard_monomials,
    trace_functional,
)

__all__ = [
    "GroebnerBasis",
    "NotZeroDimensionalError",
    "buchberger",
    "is_zero_dimensional",
    "normal_form",
    "s_polynomial",
    "InertiaResult",
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
    "QuotientBasis",
    "audit_basis",
    "hermite_form",
    "hermite_report",
    "multiplication_matrix",
    "standard_monomials",
    "trace_functional",
]
