"""Exact counting of distinct complex and real solutions of zero-dimensional
polynomial systems, through the rank and signature of the trace bilinear form
on the quotient ring.  All arithmetic is over exact rationals.

The root exports the pipeline's entry points and the types, errors and order
constants they take, return or raise; everything else is imported from its
module.
"""

from .groebner import GroebnerBasis, NotZeroDimensionalError, buchberger
from .parsing import ParseError, parse_system
from .poly import GREVLEX, GRLEX, LEX, ORDER_KINDS, Monomial, MonomialOrder, Polynomial
from .quotient import (
    HermiteForm,
    HermiteReport,
    QuotientBasis,
    fglm,
    hermite_form,
    hermite_report,
    standard_monomials,
)

__all__ = [
    "GroebnerBasis",
    "NotZeroDimensionalError",
    "buchberger",
    "ParseError",
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
    "QuotientBasis",
    "fglm",
    "hermite_form",
    "hermite_report",
    "standard_monomials",
]
