"""Reduced Groebner bases by an incremental signature engine, normal forms by
fraction-free heap division, and the zero-dimensionality test.  The staircase
of a basis and the quotient ring it spans are built in `quotient`.

The engine follows Faugere's F5 (ISSAC 2002), with the lead-ratio rewrite
criterion of Gao, Volny and Wang (Math. Comp. 85, 2016).  Round i adds the
i-th input to B, the basis of the earlier ones; its elements carry
signatures t*e_i, kept as exponent tuples t.  A J-pair u*h of signature
sigma is dropped when sigma is divisible by a leading monomial of B or by
the signature of a syzygy, or when a round element e has t_e | sigma and
(sigma/t_e)*lm(e) < u*lm(h).  Reduction is regular: B divides freely, a
round element e cancels x^m only when (m/lm(e))*t_e < sigma.  On a regular
sequence no pair reduces to zero.

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


def _reduce(acc: dict[Exponents, int], divisors: Sequence[Generator], key, admits=None) -> tuple[Terms, int]:
    """(s * r, s): r the remainder of the polynomial `acc` (consumed) on
    division by the primitive `divisors`, tried in list order, and s > 0 the
    integer it was scaled by; `key` is the order's descending key.  A divisor
    of leading exponents l cancels a term x^m only if `admits(m, l)`, when
    that predicate is given.

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
            if all(map(le, lead, m)) and (admits is None or admits(m, lead)):
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

    The nonzero inputs are taken in ascending order of leading monomial and
    reduced by B; one that reduces to zero starts no round.  After a round, B
    keeps the elements with minimal leading monomials; it is interreduced
    once, at the end.  With no variables, all-zero input is the zero ideal:
    the empty basis.

    In grlex the basis of an input prefix can be far larger than the final
    one (katsura-5: 44-67 s, against 0.3 s by a Gebauer-Moeller pair loop):
    compute in grevlex and convert by `quotient.change_order`.  Inputs that
    are not regular sequences can be slower too (a 4-variable sparse system:
    0.29 s against 0.01 s, on 2 x86-64 vCPUs).
    """
    original = tuple(p if p.order == order else p.with_order(order) for p in polys)
    if order.nvars and not any(original):
        raise NotZeroDimensionalError(
            "the ideal is not zero-dimensional: all generators are zero"
        )
    key, ascending = order.descending_key, order.exponent_key
    basis: list[Generator] = []
    for p in sorted(filter(None, original), key=lambda p: ascending(p.terms[0][0].exponents)):
        remainder = _reduce(vector(p._term_dict())[0], basis, key)[0]
        if remainder:
            new = _round(_primitive(remainder), basis, order)
            basis = [g for g in basis + new if not any(h is not g and all(map(le, h[0], g[0])) for h in new)]

    # The leading monomials of B are minimal, so only smaller generators,
    # already tail-reduced, can divide a tail term; a scaled remainder s*r of
    # the tail belongs after the leading term s*lc.
    reduced: list[Generator] = []
    for lead, lc, tail in sorted(basis, key=lambda g: ascending(g[0])):
        remainder, scale = _reduce(dict(tail), reduced, key)
        reduced.append(_primitive([(lead, lc * scale), *remainder]))
    generators = [
        Polynomial._from_sorted(order, [(lead, Fraction(1)), *((e, Fraction(c, lc)) for e, c in tail)])
        for lead, lc, tail in reduced
    ]
    return GroebnerBasis(tuple(generators), order, original)


def _round(f: Generator, basis: list[Generator], order: MonomialOrder) -> list[Generator]:
    """The elements of the round that adds f, already reduced by B = `basis`.

    J-pairs are the multiples u*h whose leading monomial is the lcm with an
    element of B, or with one of the round when that side has the larger
    signature, reduced one per signature, smallest first.  A zero result
    records sigma as a syzygy; a nonzero one joins unless its leading term is
    singular, with (m/lm(e))*t_e = sigma.
    """
    key, ascending = order.descending_key, order.exponent_key
    elements: list[tuple[Exponents, Generator]] = []  # (t, h), in the order they join
    divisors = list(basis)  # B, then the round's elements
    signatures: dict[Exponents, Exponents] = {}  # lm(h) -> t
    syzygies = [g[0] for g in basis]  # leading monomials of B, then signatures of syzygies
    pairs: list[tuple] = []  # heap of (key of sigma, key of u*lm(h), sigma, u, index of h)

    def pair(u: Exponents, j: int, g: Generator) -> None:
        # u*h for the j-th element h and g, whose lead cancels u*lm(h).  When
        # g is a monomial that divides every term of u*h, u*h is a multiple of
        # g: its signature is recorded as a syzygy, with no reduction.
        t, (lead, _, tail) = elements[j]
        sigma = tuple(map(add, u, t))
        if g[2] or not all(all(map(le, g[0], map(add, e, u))) for e, _ in tail):
            heapq.heappush(pairs, (ascending(sigma), ascending(tuple(map(add, u, lead))), sigma, u, j))
        else:
            syzygies.append(sigma)

    def join(t: Exponents, h: Generator) -> None:
        j, lead = len(elements), h[0]
        elements.append((t, h))
        divisors.append(h)
        signatures[lead] = t
        for g in basis:
            lcm_exps = tuple(map(max, lead, g[0]))
            if lcm_exps != tuple(map(add, lead, g[0])):  # a coprime pair's sigma is divisible by lm(g)
                pair(tuple(map(sub, lcm_exps, lead)), j, g)
        for i, (s, g) in enumerate(elements[:j]):
            lcm_exps = tuple(map(max, lead, g[0]))
            u, v = tuple(map(sub, lcm_exps, lead)), tuple(map(sub, lcm_exps, g[0]))
            mine, theirs = ascending(tuple(map(add, u, t))), ascending(tuple(map(add, v, s)))
            if mine > theirs:
                pair(u, j, g)
            elif theirs > mine:
                pair(v, i, h)

    join((0,) * order.nvars, f)
    last = None
    while pairs:
        sigma_key, lead_key, sigma, u, j = heapq.heappop(pairs)
        if sigma == last:
            continue
        last = sigma
        if any(all(map(le, s, sigma)) for s in syzygies) or any(
            all(map(le, s, sigma)) and ascending(tuple(map(add, map(sub, sigma, s), e[0]))) < lead_key
            for s, e in elements
        ):
            continue

        def admits(m: Exponents, lead: Exponents) -> bool:
            s = signatures.get(lead)
            return s is None or ascending(tuple(map(add, s, map(sub, m, lead)))) < sigma_key

        lead, lc, tail = elements[j][1]
        acc = {tuple(map(add, e, u)): c for e, c in chain(((lead, lc),), tail)}
        remainder = _reduce(acc, divisors, key, admits)[0]
        if not remainder:
            syzygies.append(sigma)
            continue
        m = remainder[0][0]
        if not any(  # a singular leading term
            all(map(le, e[0], m)) and tuple(map(add, s, map(sub, m, e[0]))) == sigma for s, e in elements
        ):
            join(sigma, _primitive(remainder))
    return divisors[len(basis):]


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
