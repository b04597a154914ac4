"""Reduced Groebner bases via Buchberger's algorithm, normal forms by
multivariate division, the zero-dimensionality test, and the standard-monomial
basis of the quotient ring as an order-ideal staircase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .poly import Monomial, MonomialOrder, Polynomial


class NotZeroDimensionalError(ValueError):
    """The ideal does not have a finite complex solution set."""


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis: unique for a given ideal and order.

    Generators are monic, inter-reduced (no term of one is divisible by the
    leading monomial of another) and sorted ascending by leading monomial.
    """

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    original: tuple[Polynomial, ...]

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial() for g in self.generators]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials spanning the quotient ring, ascending by the order."""

    monomials: tuple[Monomial, ...]
    order: MonomialOrder

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    def index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.monomials)}

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/lt(f))*f - (L/lt(g))*g with L the lcm of leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    if f.order != g.order:
        raise ValueError(f"polynomial ring mismatch: {f.order!r} vs {g.order!r}")
    lcm = f.leading_monomial().lcm(g.leading_monomial())
    left = f.mul_term(1 / f.leading_coefficient(), lcm // f.leading_monomial())
    right = g.mul_term(1 / g.leading_coefficient(), lcm // g.leading_monomial())
    return left - right


def _reduce(p: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division, divisors tried in list order."""
    remainder: list = []
    work = p
    while work:
        lm = work.leading_monomial()
        lc = work.leading_coefficient()
        for g in divisors:
            glm = g.leading_monomial()
            if glm.divides(lm):
                work = work - g.mul_term(lc / g.leading_coefficient(), lm // glm)
                break
        else:
            remainder.append((lm, lc))
            work = Polynomial(work.order, work.terms[1:])
    return Polynomial(p.order, remainder)


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the basis: no term of the result is
    divisible by any leading monomial, and p minus the result lies in the ideal.
    """
    if p.order != basis.order:
        raise ValueError(f"polynomial ring mismatch: {p.order!r} vs {basis.order!r}")
    return _reduce(p, basis.generators)


def _interreduce(gens: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Minimalize then tail-reduce; the result is the unique reduced basis."""
    by_lm = sorted(gens, key=lambda g: order.key(g.leading_monomial()))
    minimal: list[Polynomial] = []
    for g in by_lm:
        if not any(h.leading_monomial().divides(g.leading_monomial()) for h in minimal):
            minimal.append(g)
    reduced = list(minimal)
    for i, g in enumerate(reduced):
        others = reduced[:i] + reduced[i + 1 :]
        reduced[i] = _reduce(g, others).monic()
    return reduced


def buchberger(polys: Iterable[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by `polys`.

    Pairs are processed smallest-lcm-first; pairs with coprime leading
    monomials are skipped (their S-polynomials always reduce to zero).
    """
    original = tuple(p if p.order == order else p.with_order(order) for p in polys)
    basis = [p.monic() for p in original if p]
    if not basis:
        raise NotZeroDimensionalError(
            "the ideal is not zero-dimensional: all generators are zero"
        )

    pairs: list[tuple] = []

    def push_pairs(t: int) -> None:
        lm_t = basis[t].leading_monomial()
        for s in range(t):
            lm_s = basis[s].leading_monomial()
            if not lm_s.is_coprime_with(lm_t):
                heapq.heappush(pairs, (order.key(lm_s.lcm(lm_t)), s, t))

    for t in range(1, len(basis)):
        push_pairs(t)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        candidate = _reduce(s_polynomial(basis[i], basis[j]), basis)
        if candidate:
            basis.append(candidate.monic())
            push_pairs(len(basis) - 1)

    return GroebnerBasis(tuple(_interreduce(basis, order)), order, original)


def audit_basis(basis: GroebnerBasis) -> None:
    """Post-construction audit: Buchberger's criterion plus membership of the
    original generators.  Raises ValueError on any violation.
    """
    gens = basis.generators
    for g in gens:
        if g.leading_coefficient() != 1:
            raise ValueError(f"generator is not monic: {g!r}")
        for mono, _ in g.terms:
            for h in gens:
                if h is not g and h.leading_monomial().divides(mono):
                    raise ValueError(f"basis is not reduced at {g!r}")
    for f in basis.original:
        if f and _reduce(f, gens):
            raise ValueError(f"original generator does not reduce to zero: {f!r}")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _reduce(s_polynomial(gens[i], gens[j]), gens):
                raise ValueError(f"S-polynomial of pair ({i}, {j}) does not reduce to zero")


def _pure_power_caps(basis: GroebnerBasis) -> list[int] | None:
    """Per-variable exponent caps from pure-power leading monomials, or None
    if some variable has no pure power (positive-dimensional ideal)."""
    nvars = basis.order.nvars
    lms = basis.leading_monomials()
    caps: list[int] = []
    for var in range(nvars):
        cap = None
        for lm in lms:
            exps = lm.exponents
            if all(e == 0 for i, e in enumerate(exps) if i != var):
                cap = exps[var] if cap is None else min(cap, exps[var])
        if cap is None:
            return None
        caps.append(cap)
    return caps


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """True iff every variable has a pure-power leading monomial in the basis,
    i.e. the staircase is finite.  The unit ideal counts as zero-dimensional
    (empty variety, zero-dimensional quotient)."""
    return _pure_power_caps(basis) is not None


def standard_monomials(basis: GroebnerBasis) -> QuotientBasis:
    """All monomials under the staircase (divisible by no leading monomial),
    ascending by the order; they form a linear basis of the quotient ring.

    The staircase is an order ideal, so it is the closure of {1} under
    multiplication by single variables within the standard monomials: each
    found monomial is multiplied by each variable, and a product is kept if
    no leading monomial divides it.  That examines dim * nvars candidates,
    never the exponent box bounded by the pure-power caps.
    """
    if _pure_power_caps(basis) is None:
        raise NotZeroDimensionalError("the ideal is not zero-dimensional")
    lms = [lm.exponents for lm in basis.leading_monomials()]

    def standard(exps: tuple[int, ...]) -> bool:
        return not any(all(a <= b for a, b in zip(lm, exps)) for lm in lms)

    unit = (0,) * basis.order.nvars
    found = {unit} if standard(unit) else set()
    frontier = list(found)
    while frontier:
        exps = frontier.pop()
        for var in range(len(exps)):
            product = exps[:var] + (exps[var] + 1,) + exps[var + 1 :]
            if product not in found and standard(product):
                found.add(product)
                frontier.append(product)
    monos = sorted(map(Monomial, found), key=basis.order.key)
    return QuotientBasis(tuple(monos), basis.order)
