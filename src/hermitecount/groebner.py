"""Reduced Groebner bases by an incremental signature engine on fraction-free
heap division, and the zero-dimensionality test.  The staircase of a basis
and the quotient ring it spans are built in `quotient`.

The engine follows Faugere's F5 (ISSAC 2002), with the lead-ratio rewrite
criterion of Gao, Volny and Wang (Math. Comp. 85, 2016).  Round i adds the
i-th input to B, the basis of the earlier ones; its elements carry
signatures t*e_i, kept as monomials t.  A J-pair u*h of signature
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
threshold during the division measured no faster on lex elimination.  The
returned `GroebnerBasis` keeps those integer generators, which is all the
staircase walk reads; its monic `Fraction` polynomials are built only when
something reads them.  On the 64 seed-7 lex-elim systems, not building them
took `buchberger` with its output from 30.5-34.4 to 25.8-27.1 ms and the
staircase walk from 10.2-11.6 to 6.1-6.3 ms, in-process on 2 x86-64 vCPUs.

Monomials are ints (`_Monomials`, Bachmann and Schoenemann 1998): a product
is a sum, a divisibility test one subtraction and one AND, and the order is
the order of ints, so the heap of a division and the J-pair heap hold plain
ints.  Exponent tuples appear only at the edges: the input, the output and
the supports of leading monomials, from which the lcm of a pair is built.
On 2 x86-64 vCPUs, Buchberger took 1.05 s on katsura-7 and 0.03 s on
{x_i^2 - i : i = 1..200}, against 2.37 s and 0.89 s on exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from .linalg import vector
from .poly import Monomial, MonomialOrder, Polynomial


class NotZeroDimensionalError(ValueError):
    """The ideal does not have a finite complex solution set."""


# A generator as the engine leaves it: its leading exponents, a positive
# leading coefficient lc and the tail as (exponents, int) pairs, strictly
# descending, with content 1 over all of them, so that -tail/lc is a
# `linalg.Vector` in lowest terms once its exponents are indexed.
Primitive = tuple[tuple[int, ...], int, list[tuple[tuple[int, ...], int]]]


class GroebnerBasis:
    """Reduced monic Groebner basis: unique for a given ideal and order.

    `generators` are monic, inter-reduced (no term of one is divisible by the
    leading monomial of another) and sorted ascending by leading monomial.
    `primitive` holds the same generators in integers, one `Primitive` each.
    A basis that `buchberger`, `quotient.fglm` or `quotient.change_order`
    returns stores only `primitive`, and builds the monic `Fraction`
    generators when they are first read: by `--check`'s audit, `==`, `hash`,
    `repr` or a library caller.  No solve builds a basis the other way, as
    GroebnerBasis(generators, order, original), which derives
    `primitive` from their tails when it is first read, with the lcm of the
    tail's denominators as lc: the leading coefficient is not read, so a
    basis that is not monic or not reduced reaches the staircase walk as it
    did and is refused by the audit, which reads `generators`.  Either form
    is built once and kept.  Equality, hash and repr are those of the triple
    (generators, order, original), and neither form is ever mutated.
    """

    def __init__(self, generators: tuple[Polynomial, ...], order: MonomialOrder, original: tuple[Polynomial, ...]):
        self.generators, self.order, self.original = generators, order, original

    @classmethod
    def _of_primitive(cls, primitive: tuple[Primitive, ...], order: MonomialOrder, original: tuple[Polynomial, ...]) -> GroebnerBasis:
        """The basis of the engine's primitive generators, its monic view not yet built."""
        basis = object.__new__(cls)
        basis.primitive, basis.order, basis.original = primitive, order, original
        return basis

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        """The monic generators, each tail coefficient c as Fraction(c, lc)."""
        return tuple(
            Polynomial._from_sorted(self.order, [(lead, Fraction(1)), *((e, Fraction(c, lc)) for e, c in tail)])
            for lead, lc, tail in self.primitive
        )

    @cached_property
    def primitive(self) -> tuple[Primitive, ...]:
        """The generators as integers: the tail's numerators over the lcm of
        its denominators, which `linalg.vector` gives in lowest terms."""
        found = []
        for g in self.generators:
            nums, den = vector({m.exponents: c for m, c in g.terms[1:]})
            found.append((g.leading_monomial().exponents, den, list(nums.items())))
        return tuple(found)

    def leading_monomials(self) -> list[Monomial]:
        return [g.leading_monomial() for g in self.generators]

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.order, self.original) == (other.generators, other.order, other.original)

    def __hash__(self) -> int:
        return hash((self.generators, self.order, self.original))

    def __repr__(self) -> str:
        return f"GroebnerBasis(generators={self.generators!r}, order={self.order!r}, original={self.original!r})"


# The engine works on one int per monomial (`_Monomials`) and on integers.
# A polynomial under reduction is a dict {code: int}.  A generator is a
# primitive integer polynomial (content 1): its leading code, its positive
# leading coefficient and its tail terms, strictly descending, that is with
# ascending codes.  Reduction scales the accumulator instead of dividing, so
# each cancelled term costs one gcd.  The returned basis keeps these
# generators, their codes decoded (`Primitive`).
Terms = list[tuple[int, int]]
Generator = tuple[int, int, Terms]

# The narrowest field, guard bit included, that a computation starts with:
# exponents below 2^(_WIDTH - 1) fit.  A restart repeats the whole
# computation, and grevlex katsura-6 outgrows 4-bit fields, so the floor
# leaves room; 2 is the least width that holds any exponent.
_WIDTH = 6


class _Overflow(Exception):
    """A new monomial set a guard bit: an exponent outgrew its field."""


class _Monomials:
    """Monomials in `order`'s n variables as one int each (Bachmann and
    Schoenemann 1998): code(e) = P(e) - (K(e) << S), with S = F * n.

    P packs the exponents into F-bit fields, variable v in bits F*v up, and
    the top bit of each field is a guard: an exponent below 2^(F-1) leaves it
    clear.  K is the order's linear key, its `weight`s with W = 2^F.  While
    every exponent is below 2^F, P is the low S bits of the code and K
    orders the codes, so:

    - code(a * b) = code(a) + code(b), and a product of two monomials whose
      exponents fit sets a guard bit only where an exponent outgrew its field;
    - l divides m exactly when (code(m) - code(l)) & guard == 0: the lowest
      field where l exceeds m borrows and sets its guard;
    - a smaller code is a larger monomial, so a min-heap of codes pops the
      largest first.

    A code is linear in the exponents, the sum of e_v * unit(v), and a unit is
    built only for a variable that occurs.  The guard is a repunit, not a sum
    over the variables, so a ring of many variables with few in use costs
    bits in proportion to n, not to n^2.
    """

    __slots__ = ("nvars", "width", "weight", "shift", "guard", "units")

    def __init__(self, order: MonomialOrder, width: int):
        self.nvars, self.width, self.weight = order.nvars, width, order.weight
        self.shift = width * order.nvars
        self.guard = ((1 << self.shift) - 1) // ((1 << width) - 1) << (width - 1)
        self.units: dict[int, int] = {}

    def unit(self, var: int) -> int:
        """The code of x_var."""
        code = self.units.get(var)
        if code is None:
            code = self.units[var] = (1 << self.width * var) - (self.weight(var, 1 << self.width) << self.shift)
        return code

    def encode(self, exps: Sequence[int]) -> int:
        return sum(e * self.unit(v) for v, e in enumerate(exps) if e)

    def support(self, code: int) -> dict[int, int]:
        """{v: e_v} over the nonzero exponents of the monomial `code`."""
        found = {}
        packed = code & ((1 << self.shift) - 1)
        while packed:
            low = (packed.bit_length() - 1) // self.width * self.width
            found[low // self.width] = packed >> low
            packed &= (1 << low) - 1
        return found

    def decode(self, code: int) -> tuple[int, ...]:
        exps = [0] * self.nvars
        for v, e in self.support(code).items():
            exps[v] = e
        return tuple(exps)

    def cofactor(self, lead: dict[int, int], other: dict[int, int]) -> int:
        """The code of lcm(l, m) / l, for monomials l and m given by their
        supports: no exponent tuple is built, and the lcm is never encoded."""
        return sum((e - lead.get(v, 0)) * self.unit(v) for v, e in other.items() if e > lead.get(v, 0))


def _width(polys: Iterable[Polynomial]) -> int:
    """The first field width for `polys`: their largest exponent fits, with
    the guard bit above it, and no field is narrower than _WIDTH."""
    largest = max((max(m.exponents, default=0) for p in polys for m, _ in p.terms), default=0)
    return max(_WIDTH, largest.bit_length() + 1)


def _primitive(terms: list) -> tuple:
    """Nonzero integer terms, descending, divided by their content, signed so
    that the leading coefficient is positive; any keys."""
    content = gcd(*(c for _, c in terms))
    (lead, lc), *tail = terms
    if lc < 0:
        content = -content
    if content == 1:
        return lead, lc, tail
    return lead, lc // content, [(e, c // content) for e, c in tail]


def _reduce(acc: dict[int, int], divisors: Sequence[Generator], guard: int, admits=None) -> tuple[Terms, int]:
    """(s * r, s): r the remainder of the polynomial `acc` (consumed) on
    division by the primitive `divisors`, tried in list order, and s > 0 the
    integer it was scaled by; `guard` is the guard mask of the codes.  A
    divisor of leading code l cancels a term x^m only if `admits(m, l)`, when
    that predicate is given.  Raises _Overflow when a new monomial sets a
    guard bit.

    Heap division with a dict accumulator (Monagan and Pearce 2007): pop the
    largest pending monomial, the least code, then either move it to the
    remainder or cancel its term c*x^m with a divisor g of leading term
    lc*x^l, fraction-free: acc <- (lc/q)*acc - (c/q)*x^(m-l)*tail(g) with q =
    gcd(lc, c).  The divisibility test, the shift m - l and each product are
    one integer operation on codes.  The remainder stays at the
    accumulator's running scale s: each scaling of the accumulator by a =
    lc/q scales the remainder terms collected so far and s by a as well.
    Tail terms are smaller, so the remainder comes out strictly descending.
    """
    heap = list(acc)
    heapify(heap)
    remainder: Terms = []
    scale = 1
    while heap:
        m = heappop(heap)
        c = acc.pop(m)
        if not c:
            continue
        for lead, lc, tail in divisors:
            shift = m - lead
            if not shift & guard and (admits is None or admits(m, lead)):
                q = gcd(lc, c)
                if q != lc:
                    a = lc // q
                    for t in acc:
                        acc[t] *= a
                    remainder = [(e, d * a) for e, d in remainder]
                    scale *= a
                c //= q
                for e, d in tail:
                    t = e + shift
                    if t in acc:
                        acc[t] -= c * d
                    elif t & guard:
                        raise _Overflow
                    else:
                        acc[t] = -c * d
                        heappush(heap, t)
                break
        else:
            remainder.append((m, c))
    return remainder, scale


def buchberger(polys: Iterable[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced monic Groebner basis of the ideal generated by `polys`.

    The nonzero inputs are taken in ascending order of leading monomial and
    reduced by B; one that reduces to zero starts no round.  After a round, B
    keeps the elements with minimal leading monomials; it is interreduced
    once, at the end.  With no variables, all-zero input is the zero ideal:
    the empty basis.

    The computation runs on `_Monomials` codes whose fields hold the input's
    largest exponent.  When a new monomial outgrows them, it starts again
    with fields twice as wide, so the result is exact for any exponent.

    In grlex the basis of an input prefix can be far larger than the final
    one (katsura-5: 44 s, against 0.2 s by a Gebauer-Moeller pair loop, and
    0.01 s in grevlex): compute in grevlex and convert by
    `quotient.change_order`.  Inputs that are not regular sequences can be
    slower too (a 4-variable sparse system: 0.05 s against 0.005 s, on 2
    x86-64 vCPUs).
    """
    original = tuple(p if p.order == order else p.with_order(order) for p in polys)
    if order.nvars and not any(original):
        raise NotZeroDimensionalError(
            "the ideal is not zero-dimensional: all generators are zero"
        )
    width = _width(original)
    while True:
        monomials = _Monomials(order, width)
        try:
            generators = _basis([p for p in original if p], monomials)
        except _Overflow:
            width *= 2
            continue
        # each distinct monomial of the basis is decoded once
        exps = dict.fromkeys(e for lead, _, tail in generators for e in chain((lead,), (e for e, _ in tail)))
        exps = {e: monomials.decode(e) for e in exps}
        primitive = tuple((exps[lead], lc, [(exps[e], c) for e, c in tail]) for lead, lc, tail in generators)
        return GroebnerBasis._of_primitive(primitive, order, original)


def _basis(polys: list[Polynomial], monomials: _Monomials) -> list[Generator]:
    """The reduced basis of `buchberger`, as primitive generators on codes,
    ascending by leading monomial."""
    encode, guard = monomials.encode, monomials.guard
    inputs = [{encode(e): c for e, c in vector(p._term_dict())[0].items()} for p in polys]
    basis: list[Generator] = []
    supports: dict[int, dict[int, int]] = {}  # leading code -> its support
    for acc in sorted(inputs, key=lambda acc: -min(acc)):
        remainder = _reduce(acc, basis, guard)[0]
        if remainder:
            new = _round(_primitive(remainder), basis, monomials, supports)
            basis = [g for g in basis + new if not any(h is not g and not (g[0] - h[0]) & guard for h in new)]

    # The leading monomials of B are minimal, so only smaller generators,
    # already tail-reduced, can divide a tail term; a scaled remainder s*r of
    # the tail belongs after the leading term s*lc.
    reduced: list[Generator] = []
    for lead, lc, tail in sorted(basis, key=lambda g: -g[0]):
        remainder, scale = _reduce(dict(tail), reduced, guard)
        reduced.append(_primitive([(lead, lc * scale), *remainder]))
    return reduced


def _round(f: Generator, basis: list[Generator], monomials: _Monomials, supports: dict[int, dict[int, int]]) -> list[Generator]:
    """The elements of the round that adds f, already reduced by B = `basis`.

    J-pairs are the multiples u*h whose leading monomial is the lcm with an
    element of B, or with one of the round when that side has the larger
    signature, reduced one per signature, smallest first.  A zero result
    records sigma as a syzygy; a nonzero one joins unless its leading term is
    singular, with (m/lm(e))*t_e = sigma.  Monomials, signatures included,
    are codes; `supports` maps each leading code to its support, for the
    lcms.
    """
    guard, cofactor = monomials.guard, monomials.cofactor
    elements: list[tuple[int, Generator]] = []  # (t, h), in the order they join
    divisors = list(basis)  # B, then the round's elements
    signatures: dict[int, int] = {}  # lm(h) -> t
    syzygies = [g[0] for g in basis]  # leading monomials of B, then signatures of syzygies
    pairs: list[tuple] = []  # heap of (-sigma, -(u*lm(h)), u, index of h): smallest sigma first

    def pair(u: int, j: int, g: Generator) -> None:
        # u*h for the j-th element h and g, whose lead cancels u*lm(h).  When
        # g is a monomial that divides every term of u*h, u*h is a multiple of
        # g: its signature is recorded as a syzygy, with no reduction.
        t, (lead, _, tail) = elements[j]
        sigma = u + t
        if sigma & guard:
            raise _Overflow
        if g[2] or any((e + u - g[0]) & guard for e, _ in tail):
            heappush(pairs, (-sigma, -(u + lead), u, j))
        else:
            syzygies.append(sigma)

    def join(t: int, h: Generator) -> None:
        j, lead = len(elements), h[0]
        elements.append((t, h))
        divisors.append(h)
        signatures[lead] = t
        mine = supports[lead] = monomials.support(lead)
        for g in basis:
            theirs = supports[g[0]]
            if not mine.keys().isdisjoint(theirs):  # a coprime pair's sigma is divisible by lm(g)
                pair(cofactor(mine, theirs), j, g)
        for i, (s, g) in enumerate(elements[:j]):
            u = cofactor(mine, supports[g[0]])
            v = u + lead - g[0]
            if u + t < v + s:
                pair(u, j, g)
            elif v + s < u + t:
                pair(v, i, h)

    join(0, f)
    last = None
    while pairs:
        sigma, lm, u, j = heappop(pairs)
        sigma, lm = -sigma, -lm
        if sigma == last:
            continue
        last = sigma
        if any(not (sigma - s) & guard for s in syzygies) or any(
            not (sigma - s) & guard and sigma - s + e[0] > lm for s, e in elements
        ):
            continue

        def admits(m: int, lead: int) -> bool:
            s = signatures.get(lead)
            return s is None or s + m - lead > sigma

        lead, lc, tail = elements[j][1]
        acc = {e + u: c for e, c in chain(((lead, lc),), tail)}
        if any(t & guard for t in acc):
            raise _Overflow
        remainder = _reduce(acc, divisors, guard, admits)[0]
        if not remainder:
            syzygies.append(sigma)
            continue
        m = remainder[0][0]
        if not any(  # a singular leading term
            not (m - e[0]) & guard and s + m - e[0] == sigma for s, e in elements
        ):
            join(sigma, _primitive(remainder))
    return divisors[len(basis):]


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """True iff every variable has a pure-power leading monomial in the basis,
    i.e. the staircase is finite.  The unit monomial is a power of every
    variable: the unit ideal counts as zero-dimensional (empty variety).  The
    leading exponents are read off `basis.primitive`, so the monic
    generators of an engine basis are not built."""
    powered: set[int] = set()
    for lead, _, _ in basis.primitive:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) <= 1:
            powered.update(support or range(basis.order.nvars))
    return len(powered) == basis.order.nvars
