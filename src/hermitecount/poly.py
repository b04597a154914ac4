"""Sparse multivariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` throughout, so ranks and signatures
computed downstream are never perturbed by rounding.  Terms are kept in
strictly descending order under the polynomial's monomial order, with no zero
coefficients and no duplicate monomials.  A `Polynomial` is a value: it is
built, compared, hashed and re-sorted under another order, and the engine
computes on its terms, not with it.  The only arithmetic here is the parser's
products, negations and powers of `{exponent tuple: Fraction}` dicts.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]

LEX = "lex"
GRLEX = "grlex"
GREVLEX = "grevlex"
ORDER_KINDS = (LEX, GRLEX, GREVLEX)


class Monomial:
    """A power product, stored as one exponent per ambient variable."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in monomial {exps}")
        self.exponents = exps

    @classmethod
    def _trusted(cls, exponents: tuple[int, ...]) -> "Monomial":
        """Trusted constructor: a tuple of non-negative ints."""
        m = object.__new__(cls)
        m.exponents = exponents
        return m

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial{self.exponents}"


# Sort keys on exponent tuples, two per order kind: ascending(a) <
# ascending(b) iff a < b, and descending reverses that, so a plain sort or a
# min-heap under it yields the largest monomial first.  The ascending lex key
# is the tuple itself, which `tuple` returns as it is given.  grevlex: on a
# degree tie the last differing exponent decides, smaller exponent meaning the
# larger monomial.
_KEYS = {
    LEX: (tuple, lambda e: tuple(map(neg, e))),
    GRLEX: (lambda e: (sum(e), e), lambda e: (-sum(e), tuple(map(neg, e)))),
    GREVLEX: (lambda e: (sum(e), tuple(map(neg, reversed(e)))), lambda e: (-sum(e), e[::-1])),
}


class MonomialOrder:
    """A term order on monomials in a fixed number of variables.

    All three kinds are total orders compatible with multiplication and with
    the unit monomial as minimum.  `grevlex` and `grlex` compare total degree
    first; `grevlex` breaks degree ties at the last differing exponent, the
    smaller exponent winning.

    `exponent_key` and `descending_key` are the order's sort keys on raw
    exponent tuples, ascending and descending, without validation.
    """

    __slots__ = ("kind", "nvars", "exponent_key", "descending_key")

    def __init__(self, kind: str, nvars: int):
        if kind not in ORDER_KINDS:
            raise ValueError(f"unknown monomial order {kind!r}; expected one of {ORDER_KINDS}")
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        self.kind = kind
        self.nvars = nvars
        self.exponent_key, self.descending_key = _KEYS[kind]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.nvars == other.nvars
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.nvars))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.kind!r}, {self.nvars})"


# The parser's arithmetic: polynomials as {exponent tuple: Fraction} dicts
# with no zero coefficients.
TermDict = dict[tuple[int, ...], Fraction]


def neg_terms(a: TermDict) -> TermDict:
    return {e: -c for e, c in a.items()}


def mul_terms(a: TermDict, b: TermDict) -> TermDict:
    out: TermDict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def pow_terms(a: TermDict, exponent: int, nvars: int) -> TermDict:
    """a**exponent by repeated squaring; a**0 is 1, also for a = 0."""
    result: TermDict = {(0,) * nvars: Fraction(1)}
    while exponent:
        if exponent & 1:
            result = mul_terms(result, a)
        exponent >>= 1
        if exponent:
            a = mul_terms(a, a)
    return result


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients.

    `terms` is a tuple of (Monomial, Fraction) pairs, strictly descending
    under `order`; the leading term is `terms[0]`.  The zero polynomial has
    an empty term tuple.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: MonomialOrder, terms: Union[Mapping[Monomial, Scalar], Iterable[tuple[Monomial, Scalar]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            if mono.nvars != order.nvars:
                raise ValueError(
                    f"term has {mono.nvars} variables, polynomial ring has {order.nvars}"
                )
            c = acc.get(mono, Fraction(0)) + Fraction(coeff)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        self.order = order
        key = order.descending_key
        self.terms = tuple(sorted(acc.items(), key=lambda t: key(t[0].exponents)))

    @classmethod
    def _from_sorted(
        cls, order: MonomialOrder, terms: Iterable[tuple[tuple[int, ...], Fraction]]
    ) -> "Polynomial":
        """Trusted constructor: (exponents, Fraction) pairs already strictly
        descending under `order`, nonzero and of the right length, taken as
        they are: no re-wrapping in Fraction, no re-sorting."""
        p = object.__new__(cls)
        p.order = order
        monomial = Monomial._trusted
        p.terms = tuple([(monomial(e), c) for e, c in terms])
        return p

    @classmethod
    def _from_terms(cls, order: MonomialOrder, terms: TermDict) -> "Polynomial":
        """Trusted constructor from a `TermDict` over `order`'s variables:
        one sort, then `_from_sorted`."""
        key = order.descending_key
        return cls._from_sorted(order, sorted(terms.items(), key=lambda t: key(t[0])))

    def _term_dict(self) -> TermDict:
        return {m.exponents: c for m, c in self.terms}

    @property
    def nvars(self) -> int:
        return self.order.nvars

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][1]

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        """The same polynomial, re-sorted under another order; its terms are
        already canonical, so they are taken as they are."""
        if order.nvars != self.nvars:
            raise ValueError(f"order has {order.nvars} variables, polynomial has {self.nvars}")
        return Polynomial._from_terms(order, self._term_dict())

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and dict(self.terms) == dict(other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms)))

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        body = " + ".join(f"{c}*{m!r}" for m, c in self.terms)
        return f"Polynomial({body})"
