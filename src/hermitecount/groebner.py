"""Reduced Groebner bases via Buchberger's algorithm with the Gebauer-Moeller
pair criteria, normal forms by fraction-free heap division, and the
zero-dimensionality test.  The staircase of a basis and the quotient ring it
spans are built in `quotient`.

The engine computes in integers: generators are primitive integer
polynomials, and reduction scales the accumulator rather than divide by a
leading coefficient.  The remainder stays at the accumulator's running scale,
so no rescale is deferred to the end of a division.  The content of a
remainder is removed once, when it is finished; removing it at a bit
threshold during the division measured no faster on lex elimination.  Monic
`Fraction` polynomials appear only at the API.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, le, sub
from typing import Iterable, Sequence

from .linalg import vector
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


# The engine works on exponent tuples and integers.  A polynomial under
# reduction is a dict {exponents: int}.  A generator is a primitive integer
# polynomial (content 1): its leading exponents, its positive leading
# coefficient and its tail terms, strictly descending.  Reduction scales the
# accumulator instead of dividing, so each cancelled term costs one gcd.
# `Polynomial` and `Fraction` appear only at the API.
Exponents = tuple[int, ...]
Terms = list[tuple[Exponents, int]]
Generator = tuple[Exponents, int, Terms]


def _primitive(terms: Terms) -> Generator:
    """Nonzero integer terms, descending, divided by their content, signed so
    that the leading coefficient is positive."""
    content = gcd(*(c for _, c in terms))
    (lead, lc), *tail = terms
    if lc < 0:
        content = -content
    if content == 1:
        return lead, lc, tail
    return lead, lc // content, [(e, c // content) for e, c in tail]


def _generator(p: Polynomial) -> Generator:
    return _primitive(list(vector(p._term_dict())[0].items()))


def _reduce(acc: dict[Exponents, int], divisors: Sequence[Generator], key) -> tuple[Terms, int]:
    """(s * r, s): r the remainder of the polynomial `acc` (consumed) on
    division by the primitive `divisors`, tried in list order, and s > 0 the
    integer it was scaled by; `key` is the order's descending key.

    Heap division with a dict accumulator (Monagan and Pearce 2007): pop the
    largest pending monomial, then either move it to the remainder or cancel
    its term c*x^m with a divisor g of leading term lc*x^l, fraction-free:
    acc <- (lc/q)*acc - (c/q)*x^(m-l)*tail(g) with q = gcd(lc, c).  The
    remainder stays at the accumulator's running scale s: each scaling of the
    accumulator by a = lc/q scales the remainder terms collected so far and s
    by a as well.  Tail terms are smaller, so the remainder comes out strictly
    descending.
    """
    heap = [(key(e), e) for e in acc]
    heapq.heapify(heap)
    remainder: Terms = []
    scale = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = acc.pop(m)
        if not c:
            continue
        for lead, lc, tail in divisors:
            if all(map(le, lead, m)):
                q = gcd(lc, c)
                if q != lc:
                    a = lc // q
                    for t in acc:
                        acc[t] *= a
                    remainder = [(e, d * a) for e, d in remainder]
                    scale *= a
                c //= q
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
    return remainder, scale


def _s_accumulator(f: Generator, g: Generator) -> dict[Exponents, int]:
    """lcm(lc(f), lc(g)) * S(f, g) for primitive generators, without its
    cancelled leading term."""
    lcm_exps = tuple(map(max, f[0], g[0]))
    q = gcd(f[1], g[1])
    a, b = g[1] // q, f[1] // q
    shift = tuple(map(sub, lcm_exps, f[0]))
    acc = {tuple(map(add, e, shift)): a * c for e, c in f[2]}
    shift = tuple(map(sub, lcm_exps, g[0]))
    for e, c in g[2]:
        t = tuple(map(add, e, shift))
        acc[t] = acc.get(t, 0) - b * c
    return acc


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/lt(f))*f - (L/lt(g))*g with L the lcm of leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    if f.order != g.order:
        raise ValueError(f"polynomial ring mismatch: {f.order!r} vs {g.order!r}")
    f_gen, g_gen = _generator(f), _generator(g)
    den = lcm(f_gen[1], g_gen[1])
    acc = _s_accumulator(f_gen, g_gen)
    return Polynomial(f.order, [(Monomial(e), Fraction(c, den)) for e, c in acc.items()])


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the basis: no term of the result is
    divisible by any leading monomial, and p minus the result lies in the ideal.
    """
    if p.order != basis.order:
        raise ValueError(f"polynomial ring mismatch: {p.order!r} vs {basis.order!r}")
    divisors = [_generator(g) for g in basis.generators]
    acc, den = vector(p._term_dict())
    remainder, scale = _reduce(acc, divisors, p.order.descending_key)
    den *= scale
    return Polynomial._from_sorted(p.order, [(e, Fraction(c, den)) for e, c in remainder])


def buchberger(polys: Iterable[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by `polys`.

    Pairs are processed smallest-lcm-first and pruned by the Gebauer-Moeller
    criteria (the UPDATE of Becker-Weispfenning): a new pair (g, h) is dropped
    if another new pair's lcm divides its lcm (criteria M and F) or if lm(g)
    and lm(h) are coprime; an old pair (g1, g2) is dropped if lm(h) divides
    its lcm L while lcm(g1, h) != L != lcm(g2, h) (criterion B).  With no
    variables, all-zero input is the zero ideal: the empty basis.

    Inputs are cleared of denominators once, every new generator is stored
    primitive (its content removed once per finished remainder), and the
    basis is made monic in `Fraction` only when it is returned.
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

    def add_generator(acc: dict[Exponents, int]) -> None:
        nonlocal active, pairs
        remainder = _reduce(acc, [gens[s] for s in active], key)[0]
        if not remainder:
            return
        h = _primitive(remainder)
        lead, t = h[0], len(gens)
        gens.append(h)

        def lcm_with(s: int) -> Exponents:
            return tuple(map(max, gens[s][0], lead))

        new = [(lcm_with(s), s) for s in active]
        kept = []
        for k, (lcm_exps, s) in enumerate(new):
            coprime = lcm_exps == tuple(map(add, gens[s][0], lead))
            if coprime or not any(all(map(le, q[0], lcm_exps)) for q in chain(new[k + 1 :], kept)):
                kept.append((lcm_exps, s, coprime))
        pairs = [
            q for q in pairs
            if not all(map(le, lead, q[3])) or q[3] in (lcm_with(q[1]), lcm_with(q[2]))
        ]
        pairs += [(order.exponent_key(e), s, t, e) for e, s, coprime in kept if not coprime]
        heapq.heapify(pairs)
        active = [s for s in active if not all(map(le, lead, gens[s][0]))] + [t]

    for p in original:
        add_generator(vector(p._term_dict())[0])
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        add_generator(_s_accumulator(gens[i], gens[j]))

    # The active leading monomials are minimal, so only smaller generators,
    # already tail-reduced, can divide a tail term; a scaled remainder s*r of
    # the tail belongs after the leading term s*lc.
    reduced: list[Generator] = []
    for lead, lc, tail in sorted((gens[s] for s in active), key=lambda g: order.exponent_key(g[0])):
        remainder, scale = _reduce(dict(tail), reduced, key)
        reduced.append(_primitive([(lead, lc * scale), *remainder]))
    basis = [
        Polynomial._from_sorted(order, [(lead, Fraction(1)), *((e, Fraction(c, lc)) for e, c in tail)])
        for lead, lc, tail in reduced
    ]
    return GroebnerBasis(tuple(basis), order, original)


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """True iff every variable has a pure-power leading monomial in the basis,
    i.e. the staircase is finite.  The unit monomial is a power of every
    variable: the unit ideal counts as zero-dimensional (empty variety)."""
    powered: set[int] = set()
    for lm in basis.leading_monomials():
        support = [i for i, e in enumerate(lm.exponents) if e]
        if len(support) <= 1:
            powered.update(support or range(basis.order.nvars))
    return len(powered) == basis.order.nvars
