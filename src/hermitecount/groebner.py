"""Reduced Groebner bases via Buchberger's algorithm with the Gebauer-Moeller
pair criteria, normal forms by heap division, the zero-dimensionality test,
and the standard-monomial basis of the quotient ring as an order-ideal
staircase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, le, sub
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

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)


# The engine works on exponent tuples: a polynomial under reduction is a dict
# {exponents: Fraction}, a monic generator its leading exponents plus its tail
# terms, strictly descending.  `Polynomial` appears only at the API.
Exponents = tuple[int, ...]
Terms = list[tuple[Exponents, Fraction]]
Generator = tuple[Exponents, Terms]


def _monic(terms: Terms) -> Generator:
    (lead, lc), *tail = terms
    return lead, tail if lc == 1 else [(e, c / lc) for e, c in tail]


def _generator(p: Polynomial) -> Generator:
    return _monic([(m.exponents, c) for m, c in p.terms])


def _reduce(acc: dict[Exponents, Fraction], divisors: Sequence[Generator], key) -> Terms:
    """Remainder of the polynomial `acc` (consumed) on division by the monic
    `divisors`, tried in list order; `key` is the order's descending key.

    Heap division with a dict accumulator (Monagan and Pearce 2007): pop the
    largest pending monomial, then either move it to the remainder or cancel
    it by subtracting a multiple of a divisor's tail in place.  Tail terms are
    smaller, so the remainder comes out strictly descending.
    """
    heap = [(key(e), e) for e in acc]
    heapq.heapify(heap)
    remainder: Terms = []
    while heap:
        m = heapq.heappop(heap)[1]
        c = acc.pop(m)
        if not c:
            continue
        for lead, tail in divisors:
            if all(map(le, lead, m)):
                shift = tuple(map(sub, m, lead))
                for e, d in tail:
                    t = tuple(map(add, e, shift))
                    if t in acc:
                        acc[t] -= c * d
                    else:
                        acc[t] = -c * d
                        heapq.heappush(heap, (key(t), t))
                break
        else:
            remainder.append((m, c))
    return remainder


def _s_accumulator(f: Generator, g: Generator) -> dict[Exponents, Fraction]:
    """S(f, g) of monic generators without its cancelled leading term."""
    lcm = tuple(map(max, f[0], g[0]))
    shift = tuple(map(sub, lcm, f[0]))
    acc = {tuple(map(add, e, shift)): c for e, c in f[1]}
    shift = tuple(map(sub, lcm, g[0]))
    for e, c in g[1]:
        t = tuple(map(add, e, shift))
        acc[t] = acc.get(t, 0) - c
    return acc


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/lt(f))*f - (L/lt(g))*g with L the lcm of leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    if f.order != g.order:
        raise ValueError(f"polynomial ring mismatch: {f.order!r} vs {g.order!r}")
    acc = _s_accumulator(_generator(f), _generator(g))
    return Polynomial(f.order, [(Monomial(e), c) for e, c in acc.items()])


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the basis: no term of the result is
    divisible by any leading monomial, and p minus the result lies in the ideal.
    """
    if p.order != basis.order:
        raise ValueError(f"polynomial ring mismatch: {p.order!r} vs {basis.order!r}")
    divisors = [_generator(g) for g in basis.generators]
    remainder = _reduce(p._term_dict(), divisors, p.order.descending_key)
    return Polynomial._from_sorted(p.order, remainder)


def buchberger(polys: Iterable[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by `polys`.

    Pairs are processed smallest-lcm-first and pruned by the Gebauer-Moeller
    criteria (the UPDATE of Becker-Weispfenning): a new pair (g, h) is dropped
    if another new pair's lcm divides its lcm (criteria M and F) or if lm(g)
    and lm(h) are coprime; an old pair (g1, g2) is dropped if lm(h) divides
    its lcm L while lcm(g1, h) != L != lcm(g2, h) (criterion B).  With no
    variables, all-zero input is the zero ideal: the empty basis.
    """
    original = tuple(p if p.order == order else p.with_order(order) for p in polys)
    if order.nvars and not any(original):
        raise NotZeroDimensionalError(
            "the ideal is not zero-dimensional: all generators are zero"
        )
    key = order.descending_key
    gens: list[Generator] = []
    active: list[int] = []  # generators no newer leading monomial divides
    pairs: list[tuple] = []  # heap of (ascending key of lcm, i, j, lcm)

    def add_generator(acc: dict[Exponents, Fraction]) -> None:
        nonlocal active, pairs
        remainder = _reduce(acc, [gens[s] for s in active], key)
        if not remainder:
            return
        h = _monic(remainder)
        lead, t = h[0], len(gens)
        gens.append(h)

        def lcm_with(s: int) -> Exponents:
            return tuple(map(max, gens[s][0], lead))

        new = [(lcm_with(s), s) for s in active]
        kept = []
        for k, (lcm, s) in enumerate(new):
            coprime = lcm == tuple(map(add, gens[s][0], lead))
            if coprime or not any(all(map(le, q[0], lcm)) for q in chain(new[k + 1 :], kept)):
                kept.append((lcm, s, coprime))
        pairs = [
            q for q in pairs
            if not all(map(le, lead, q[3])) or q[3] in (lcm_with(q[1]), lcm_with(q[2]))
        ]
        pairs += [(order.exponent_key(lcm), s, t, lcm) for lcm, s, coprime in kept if not coprime]
        heapq.heapify(pairs)
        active = [s for s in active if not all(map(le, lead, gens[s][0]))] + [t]

    for p in original:
        add_generator(p._term_dict())
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        add_generator(_s_accumulator(gens[i], gens[j]))

    # The active leading monomials are minimal, so only smaller generators,
    # already tail-reduced, can divide a tail term.
    reduced: list[Generator] = []
    for lead, tail in sorted((gens[s] for s in active), key=lambda g: order.exponent_key(g[0])):
        reduced.append((lead, _reduce(dict(tail), reduced, key)))
    basis = [Polynomial._from_sorted(order, [(lead, Fraction(1)), *tail]) for lead, tail in reduced]
    return GroebnerBasis(tuple(basis), order, original)


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
