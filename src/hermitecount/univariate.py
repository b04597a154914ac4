"""Dense single-variable polynomials over the rationals, with the exact
squarefree part and a Sturm-chain count of real roots.  No solve loads this
module: `solve --check` works on integer coefficient lists in `separating`,
and only perfbench's independent counts and the tests read these routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class UnivariatePolynomial:
    """Dense univariate polynomial, coefficients ascending by degree.

    Trailing zero coefficients are stripped, so the leading coefficient is
    nonzero unless the polynomial is zero (empty coefficient tuple).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "UnivariatePolynomial":
        """Monic product of (t - r) over the given rational roots."""
        result = cls([1])
        for r in roots:
            result = result * cls([-Fraction(r), 1])
        return result

    @property
    def degree(self) -> int:
        """-1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return Fraction(0)

    def __add__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return UnivariatePolynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    def __sub__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return UnivariatePolynomial(
            self.coefficient(i) - other.coefficient(i) for i in range(n)
        )

    def __neg__(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(-c for c in self.coefficients)

    def __mul__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        if self.is_zero() or other.is_zero():
            return UnivariatePolynomial()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return UnivariatePolynomial(out)

    def scale(self, value: Scalar) -> "UnivariatePolynomial":
        c = Fraction(value)
        return UnivariatePolynomial(c * a for a in self.coefficients)

    def monic(self) -> "UnivariatePolynomial":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.coefficients[-1]
        return self if lc == 1 else self.scale(Fraction(1) / lc)

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            i * c for i, c in enumerate(self.coefficients) if i > 0
        )

    def __divmod__(self, divisor: "UnivariatePolynomial") -> tuple["UnivariatePolynomial", "UnivariatePolynomial"]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = [Fraction(0)] * max(0, self.degree - divisor.degree + 1)
        rem = list(self.coefficients)
        dlc = divisor.coefficients[-1]
        d = divisor.degree
        while len(rem) - 1 >= d and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / dlc
            quotient[shift] = factor
            for i, c in enumerate(divisor.coefficients):
                rem[shift + i] -= factor * c
        return UnivariatePolynomial(quotient), UnivariatePolynomial(rem)

    def __mod__(self, divisor: "UnivariatePolynomial") -> "UnivariatePolynomial":
        return divmod(self, divisor)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({list(self.coefficients)})"


def poly_gcd(a: UnivariatePolynomial, b: UnivariatePolynomial) -> UnivariatePolynomial:
    """Monic greatest common divisor (zero when both inputs are zero)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_part(f: UnivariatePolynomial) -> UnivariatePolynomial:
    """Monic f / gcd(f, f'); its degree is the number of distinct complex roots."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no squarefree part")
    quotient, remainder = divmod(f, poly_gcd(f, f.derivative()))
    assert remainder.is_zero()
    return quotient.monic()


def _sign_variations(signs: Sequence[int]) -> int:
    filtered = [s for s in signs if s]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a * b < 0)


def sturm_count(f: UnivariatePolynomial) -> int:
    """Number of distinct real roots of f, via the Sturm chain on (-inf, +inf).

    Repeated roots are counted once: the chain terminating at gcd(f, f')
    still measures sign variations of the squarefree part.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no root count")
    if f.degree == 0:
        return 0
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            break
        chain.append(-r)
    at_minus_inf = []
    at_plus_inf = []
    for g in chain:
        if g.is_zero():
            continue
        lc = g.leading_coefficient()
        s = 1 if lc > 0 else -1
        at_plus_inf.append(s)
        at_minus_inf.append(s if g.degree % 2 == 0 else -s)
    return _sign_variations(at_minus_inf) - _sign_variations(at_plus_inf)
