"""Shared generators and small exact oracles for the test suite."""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, neg, sub
from random import Random
from typing import Sequence

from hermitecount import (
    GREVLEX,
    GRLEX,
    LEX,
    GroebnerBasis,
    HermiteForm,
    Monomial,
    MonomialOrder,
    NotZeroDimensionalError,
    Polynomial,
    QuotientBasis,
    parse_system,
)
from hermitecount import groebner
from hermitecount.groebner import _primitive, is_zero_dimensional
from hermitecount.linalg import (
    Scalar,
    Vector,
    _berkowitz,
    _integer_matrix,
    _pivots,
    apply,
    check_symmetric,
    vector,
)
from hermitecount.parsing import format_monomial
from hermitecount.quotient import MAX_DIMENSION, DimensionLimitError, Steps, _shift, _sum
from hermitecount.univariate import UnivariatePolynomial


Matrix = list[list[Fraction]]

# Ascending sort keys on exponent tuples, one per order kind: key(a) < key(b)
# iff a < b.  The lex key is the tuple itself; `MonomialOrder.descending_key`
# is the reverse that `src` sorts by.
_ASCENDING = {
    LEX: tuple,
    GRLEX: lambda e: (sum(e), e),
    GREVLEX: lambda e: (sum(e), tuple(map(neg, reversed(e)))),
}


def exponent_key(order: MonomialOrder):
    """The order's ascending sort key on raw exponent tuples."""
    return _ASCENDING[order.kind]


def as_matrix(entries: Sequence[Sequence[Scalar]]) -> Matrix:
    """Validated square Fraction copy of the input; entries that are already
    `Fraction`s are kept, not re-wrapped."""
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in entries]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


def int_str_limit() -> int | None:
    """The interpreter's int<->str digit limit, or None where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or None


def rand_fraction(rng: Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_nonzero_fraction(rng: Random, bound: int = 100) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))


def rand_monomial(rng: Random, nvars: int, max_exponent: int = 4) -> Monomial:
    return Monomial(tuple(rng.randint(0, max_exponent) for _ in range(nvars)))


def rand_polynomial(
    rng: Random,
    order: MonomialOrder,
    max_terms: int = 6,
    max_exponent: int = 4,
    bound: int = 100,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rand_monomial(rng, order.nvars, max_exponent)] = rand_fraction(rng, bound)
    return Polynomial(order, terms)


def primitive(f: UnivariatePolynomial) -> list[int]:
    """The integer coefficients of f, cleared of denominators and content."""
    scale = math.lcm(*(c.denominator for c in f.coefficients))
    coefficients = [c.numerator * (scale // c.denominator) for c in f.coefficients]
    content = math.gcd(*coefficients)
    return [c // content for c in coefficients]


def rand_monic_univariate(rng: Random, max_degree: int = 8) -> UnivariatePolynomial:
    """Monic polynomial of degree 1..max_degree; a mix of free coefficients,
    rational linear factors with forced repetitions, and irreducible quadratics."""
    style = rng.randrange(3)
    if style == 0:
        degree = rng.randint(1, max_degree)
        return UnivariatePolynomial(
            [rand_fraction(rng, 10) for _ in range(degree)] + [Fraction(1)]
        )
    f = UnivariatePolynomial([1])
    degree = 0
    target = rng.randint(1, max_degree)
    while degree < target:
        if style == 2 and target - degree >= 2 and rng.random() < 0.6:
            # irreducible quadratic: t^2 + b*t + c with b^2 - 4c < 0
            b = Fraction(rng.randint(-5, 5))
            c = b * b / 4 + Fraction(rng.randint(1, 5))
            f = f * UnivariatePolynomial([c, b, 1])
            degree += 2
        else:
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            power = rng.randint(1, min(3, target - degree))
            for _ in range(power):
                f = f * UnivariatePolynomial([-root, 1])
            degree += power
    return f


# Polynomial arithmetic for the reference oracles below, on exponent tuples
# and the validating constructor: it shares no code with the parser's
# products in `poly` or with the engine's division in `groebner`.


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether x^a divides x^b."""
    return all(map(le, a, b))


def times(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(map(add, a.exponents, b.exponents))


def mul_term(p: Polynomial, coeff: Scalar, mono: Monomial) -> Polynomial:
    """p times the single term coeff*mono."""
    return Polynomial(p.order, [(times(m, mono), coeff * c) for m, c in p.terms])


def subtract(p: Polynomial, q: Polynomial) -> Polynomial:
    """p - q, in p's ring."""
    return Polynomial(p.order, [*p.terms, *((m, -c) for m, c in q.terms)])


def monic(p: Polynomial) -> Polynomial:
    """p divided by its leading coefficient."""
    lc = p.leading_coefficient()
    return Polynomial(p.order, [(m, c / lc) for m, c in p.terms])


# The text form of one polynomial: a second parse entry point over declared
# names, and its inverse.


def parse_polynomial(text: str, variables: Sequence[str], kind: str = GREVLEX) -> Polynomial:
    """One polynomial over the declared variables, by `parse_system` under a
    `vars:` header."""
    _, (p,) = parse_system(f"vars: {', '.join(variables)}\n{text}", kind)
    return p


def format_polynomial(p: Polynomial, variables: Sequence[str]) -> str:
    """Canonical text with terms descending under the polynomial's order.

    `parse_polynomial(format_polynomial(p, v), v, p.order.kind)` returns `p`.
    """
    if len(variables) != p.nvars:
        raise ValueError(f"{len(variables)} names for a polynomial in {p.nvars} variables")
    if not p:
        return "0"
    pieces = []
    for i, (mono, coeff) in enumerate(p.terms):
        sign = "-" if coeff < 0 else ("" if i == 0 else "+")
        magnitude = -coeff if coeff < 0 else coeff
        if not any(mono.exponents):
            body = str(magnitude)
        elif magnitude == 1:
            body = format_monomial(mono, variables)
        else:
            body = f"{magnitude}*{format_monomial(mono, variables)}"
        pieces.append(sign + body)
    return "".join(pieces)


def all_monomials(nvars: int, max_degree: int) -> list[Monomial]:
    out = []
    for exps in itertools.product(range(max_degree + 1), repeat=nvars):
        if sum(exps) <= max_degree:
            out.append(Monomial(exps))
    return out


def transpose(m: list[list[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    if not a or not b:
        return []
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rand_symmetric(rng: Random, dim: int, bound: int = 9) -> list[list[Fraction]]:
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
            m[i][j] = value
            m[j][i] = value
    return m


def rand_invertible(rng: Random, dim: int) -> list[list[Fraction]]:
    """Random invertible rational matrix: identity plus a few elementary ops."""
    m = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for c in range(dim):
            m[i][c] += f * m[j][c]
    return m


def permutation_equal(a, b) -> bool:
    """Whether b equals a under one simultaneous row/column permutation."""
    n = len(a)
    if len(b) != n:
        return False
    a = [[Fraction(x) for x in row] for row in a]
    b = [[Fraction(x) for x in row] for row in b]
    for sigma in itertools.permutations(range(n)):
        if all(a[sigma[i]][sigma[j]] == b[i][j] for i in range(n) for j in range(n)):
            return True
    return False


# Zero-dimensional systems used by order-invariance and canonicity tests,
# with hand-derived (complex, real) counts where asserted elsewhere.
FIXTURE_SYSTEMS = [
    ("circle-hyperbola", "x1*x2+x2-1\nx1^2+x2^2-1"),
    ("tangent-line", "x1-1\nx1^2+x2^2-1"),
    ("circle-diagonal", "x1^2+x2^2-4\nx1-x2"),
    ("gaussian-pair", "x1^2+1"),
    ("unit-ideal", "x1\nx1+1"),
    ("nilpotent-line", "x1-1\nx2^2"),
    ("diagonal-cubic", "x1-x2\nx1^3-x2"),
    ("three-vars", "x1^2-1\nx2^2-2\nx3^2-x1*x2"),
]

# perfbench's dense(2,5) at seed 1: dimension 25, 25 complex solutions, 1 real.
DENSE_2_5 = [
    "-5+9*x2-7*x2^2-1*x2^3-6*x2^4+7*x2^5+5*x1+6*x1*x2+3*x1*x2^2-3*x1*x2^3-6*x1*x2^4+6*x1^2-9*x1^2*x2"
    "+3*x1^2*x2^2+5*x1^2*x2^3-9*x1^3+5*x1^3*x2-1*x1^3*x2^2-2*x1^4-6*x1^4*x2+2*x1^5",
    "-9-9*x2-9*x2^2+8*x2^3-9*x2^4+4*x2^5-3*x1+4*x1*x2-9*x1*x2^2+7*x1*x2^3-2*x1*x2^4+5*x1^2+6*x1^2*x2"
    "+8*x1^2*x2^2-2*x1^2*x2^3+2*x1^3-2*x1^3*x2-2*x1^3*x2^2+5*x1^4+1*x1^4*x2-9*x1^5",
]


def staircase_pool(seed: int) -> list[str]:
    """The 64 systems of perfbench's `staircase` workload under `seed`, as
    text: x_i^20 - c_i*x_i for i = 1..4, with c_i in 1..9 drawn from each
    instance's own stream, and x_i*x_j for i < j.  Each is a reduced grevlex
    basis, and its quotient has dimension 77."""
    pool = []
    for k in range(64):
        rng = Random(f"staircase:{seed}:{k}")
        lines = [f"x{i}^20-{rng.randint(1, 9)}*x{i}" for i in range(1, 5)]
        lines += [f"x{i}*x{j}" for i, j in itertools.combinations(range(1, 5), 2)]
        pool.append("\n".join(lines))
    return pool


def dense_lines(rng: Random, nvars: int, degree: int) -> list[str]:
    """perfbench's dense(nvars, degree) drawn from `rng`, as text: nvars
    polynomials of total degree <= degree in x1..x<nvars>, with coefficients
    in [-9, 9], nonzero on every top-degree monomial."""
    nonzero = [c for c in range(-9, 10) if c]
    exponents = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    lines = []
    for _ in range(nvars):
        coeffs = {e: rng.choice(nonzero) if sum(e) == degree else rng.randint(-9, 9) for e in exponents}
        lines.append("+".join(f"({c})" + "".join(f"*x{v + 1}^{a}" for v, a in enumerate(e)) for e, c in coeffs.items() if c))
    return lines


def trace_form_pool(seed: int) -> list[str]:
    """The 64 systems of perfbench's `trace-form` workload under `seed`, as
    text: dense(2, 4), drawn from each instance's own stream.  Each quotient
    has dimension 16."""
    return ["\n".join(dense_lines(Random(f"trace-form:{seed}:{k}"), 2, 4)) for k in range(64)]


def rand_dense_system(rng: Random, order: MonomialOrder, degree: int) -> list[Polynomial]:
    """order.nvars dense polynomials of total degree <= degree, integer
    coefficients in [-9, 9], nonzero on every top-degree monomial."""
    monos = all_monomials(order.nvars, degree)
    nonzero = [c for c in range(-9, 10) if c]
    return [
        Polynomial(
            order,
            {m: rng.choice(nonzero) if sum(m.exponents) == degree else rng.randint(-9, 9) for m in monos},
        )
        for _ in range(order.nvars)
    ]


def rand_triangular_system(rng: Random, order: MonomialOrder, max_power: int = 3) -> list[Polynomial]:
    """x_k^a_k + (random terms of lower x_k-degree in x_k..x_n) for each k:
    a triangular set under lex, so the ideal is zero-dimensional (under every
    order), often with repeated roots."""
    n = order.nvars
    polys = []
    for k in range(n):
        power = rng.randint(2, max_power)
        lead = Monomial(tuple(power if i == k else 0 for i in range(n)))
        terms = {lead: 1}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(
                rng.randint(0, power - 1) if i == k else rng.randint(0, 2) if i > k else 0
                for i in range(n)
            )
            terms[Monomial(exps)] = rng.randint(-5, 5)
        polys.append(Polynomial(order, terms))
    return polys


def rand_monomial_staircase(rng: Random, order: MonomialOrder, max_power: int = 6) -> list[Polynomial]:
    """x_i^a_i - c_i*x_i for each i plus a few random mixed monomials: a
    staircase with a ragged corner set."""
    n = order.nvars
    polys = []
    for i in range(n):
        power = rng.randint(2, max_power)
        terms = {
            Monomial(tuple(power if j == i else 0 for j in range(n))): 1,
            Monomial(tuple(1 if j == i else 0 for j in range(n))): -rng.randint(0, 4),
        }
        polys.append(Polynomial(order, terms))
    for _ in range(rng.randint(0, 3)):
        polys.append(Polynomial(order, {rand_monomial(rng, n, 3): 1}))
    return polys


def rand_sparse_system(rng: Random, order: MonomialOrder) -> list[Polynomial]:
    """2 to 4 polynomials of 1 to 3 terms with exponents up to 2: often
    positive-dimensional, and rich in pairs whose lcms coincide."""
    polys = []
    for _ in range(rng.randint(2, 4)):
        terms = {rand_monomial(rng, order.nvars, 2): rng.choice((-3, -2, -1, 1, 2, 3))}
        for _ in range(rng.randint(0, 2)):
            terms[rand_monomial(rng, order.nvars, 2)] = rng.randint(1, 3)
        polys.append(Polynomial(order, terms))
    return polys


def katsura(n: int, order_kind: str = "grevlex") -> list[Polynomial]:
    """Katsura-n in x1..x(n+1), u_i = x(|i|+1) for |i| <= n and 0 beyond:
    sum_i u_i = 1 and sum_i u_i*u_(m-i) = u_m for m = 0..n-1, with 2^n
    solutions."""
    order = MonomialOrder(order_kind, n + 1)

    def u(i: int) -> Monomial | None:
        return Monomial(int(v == abs(i)) for v in range(n + 1)) if abs(i) <= n else None

    polys = [Polynomial(order, [(u(i), 1) for i in range(-n, n + 1)] + [(Monomial((0,) * (n + 1)), -1)])]
    for m in range(n):
        terms = [(times(u(i), u(m - i)), 1) for i in range(-n, n + 1) if u(m - i) is not None]
        polys.append(Polynomial(order, terms + [(u(m), -1)]))
    return polys


RANDOM_SYSTEM_SHAPES = [
    # (how many, variables, generator)
    (6, 2, lambda rng, order: rand_dense_system(rng, order, 2)),
    (4, 2, lambda rng, order: rand_dense_system(rng, order, 3)),
    (2, 3, lambda rng, order: rand_dense_system(rng, order, 2)),
    (5, 1, rand_triangular_system),
    (7, 2, rand_triangular_system),
    (4, 3, lambda rng, order: rand_triangular_system(rng, order, 2)),
    (5, 1, rand_monomial_staircase),
    (5, 2, rand_monomial_staircase),
    (4, 3, lambda rng, order: rand_monomial_staircase(rng, order, 4)),
]


def random_systems(kind: str):
    """42 seeded systems, the same polynomials under every order."""
    seed = 0
    for count, nvars, generate in RANDOM_SYSTEM_SHAPES:
        order = MonomialOrder(kind, nvars)
        for _ in range(count):
            seed += 1
            yield seed, order, generate(Random(seed), order)


def rational_systems(kind: str):
    """The 42 `random_systems` with every coefficient multiplied by a seeded
    nonzero rational, and every other polynomial then by an integer of
    absolute value 2 to 6 and random sign: negative leading coefficients and
    polynomials whose denominator-free form has a content above 1."""
    for seed, order, polys in random_systems(kind):
        rng = Random(f"rational:{seed}")
        scaled = []
        for k, p in enumerate(polys):
            terms = [(m, c * rand_nonzero_fraction(rng)) for m, c in p.terms]
            factor = rng.choice((-1, 1)) * rng.randint(2, 6) if k % 2 else 1
            scaled.append(Polynomial(order, [(m, c * factor) for m, c in terms]))
        yield seed, order, scaled


def integer_content(p: Polynomial) -> int:
    """Content of D*p, D the lcm of p's denominators."""
    scale = math.lcm(*(c.denominator for _, c in p.terms))
    return math.gcd(*(c.numerator * (scale // c.denominator) for _, c in p.terms))


def rand_expression(rng: Random, names: Sequence[str], depth: int = 3) -> str:
    """Polynomial text in the parser's grammar with nested sums, products,
    powers, unary minus and rationals.  Every operand that is not a variable
    or a natural is parenthesised, so the text also reads as a Python
    expression with `^` meaning `**`."""
    roll = rng.random() if depth else 0.0
    if roll < 0.3:
        if rng.random() < 0.5:
            return rng.choice(names)
        num, den = rng.randint(0, 3), rng.randint(1, 3)
        return str(num) if den == 1 else f"{num}/{den}"

    def operand() -> str:
        text = rand_expression(rng, names, depth - 1)
        return text if text.isalnum() else f"({text})"

    if roll < 0.55:
        text = operand()
        for _ in range(rng.randint(1, 2)):
            text += rng.choice(("+", "-", " + ", " - ")) + operand()
        return text
    if roll < 0.75:
        return "*".join(operand() for _ in range(rng.randint(2, 3)))
    if roll < 0.9:
        return f"{operand()}^{rng.randint(0, 3)}"
    return "-" + operand()


# The first Buchberger engine, kept as a differential oracle: only the
# coprime criterion, and every division step rebuilds the remainder as a
# Polynomial.


def _monomial_quotient(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(x - y for x, y in zip(a.exponents, b.exponents))


def _naive_s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = Monomial(map(max, f.leading_monomial().exponents, g.leading_monomial().exponents))
    left = mul_term(f, 1 / f.leading_coefficient(), _monomial_quotient(lcm, f.leading_monomial()))
    right = mul_term(g, 1 / g.leading_coefficient(), _monomial_quotient(lcm, g.leading_monomial()))
    return subtract(left, right)


def _naive_reduce(p: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division, divisors tried in list order."""
    remainder = []
    work = p
    while work:
        lm = work.leading_monomial()
        lc = work.leading_coefficient()
        for g in divisors:
            glm = g.leading_monomial()
            if divides(glm.exponents, lm.exponents):
                work = subtract(work, mul_term(g, lc / g.leading_coefficient(), _monomial_quotient(lm, glm)))
                break
        else:
            remainder.append((lm, lc))
            work = Polynomial(work.order, work.terms[1:])
    return Polynomial(p.order, remainder)


def naive_buchberger(polys: Sequence[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Reduced monic Groebner basis: every pair with non-coprime leading
    monomials is reduced, smallest lcm first, then the basis is minimalized
    and tail-reduced."""
    original = tuple(p if p.order == order else p.with_order(order) for p in polys)
    basis = [monic(p) for p in original if p]
    if not basis:
        raise NotZeroDimensionalError("all generators are zero")
    pairs = []

    def push_pairs(t):
        lm_t = basis[t].leading_monomial().exponents
        for s in range(t):
            lm_s = basis[s].leading_monomial().exponents
            if any(a and b for a, b in zip(lm_s, lm_t)):
                heapq.heappush(pairs, (exponent_key(order)(tuple(map(max, lm_s, lm_t))), s, t))

    for t in range(1, len(basis)):
        push_pairs(t)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        candidate = _naive_reduce(_naive_s_polynomial(basis[i], basis[j]), basis)
        if candidate:
            basis.append(monic(candidate))
            push_pairs(len(basis) - 1)

    minimal = []
    for g in sorted(basis, key=lambda g: exponent_key(order)(g.leading_monomial().exponents)):
        if not any(divides(h.leading_monomial().exponents, g.leading_monomial().exponents) for h in minimal):
            minimal.append(g)
    for i, g in enumerate(minimal):
        minimal[i] = monic(_naive_reduce(g, minimal[:i] + minimal[i + 1 :]))
    return GroebnerBasis(tuple(minimal), order, original)


# The Gebauer-Moeller pair loop that the signature engine replaced, kept as
# its differential oracle, with the heap division on exponent tuples that the
# engine ran before its monomials became ints: the pairs of the whole basis
# instead of rounds, and no division shared with the engine.
Exponents = tuple[int, ...]
Terms = list[tuple[Exponents, int]]
Generator = tuple[Exponents, int, Terms]


def _reduce(acc: dict[Exponents, int], divisors: Sequence[Generator], key) -> tuple[Terms, int]:
    """(s * r, s): r the remainder of the polynomial `acc` (consumed) on
    division by the primitive `divisors`, tried in list order, and s > 0 the
    integer it was scaled by; `key` is the order's descending key.  Heap
    division with a dict accumulator (Monagan and Pearce 2007), fraction-free:
    a term c*x^m cancelled by a divisor of leading term lc*x^l scales the
    accumulator, the remainder so far and s by lc/q, with q = gcd(lc, c)."""
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
                q = math.gcd(lc, c)
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



def _s_accumulator(f: Generator, g: Generator) -> dict:
    """lcm(lc(f), lc(g)) * S(f, g) for primitive generators, without its
    cancelled leading term."""
    lcm_exps = tuple(map(max, f[0], g[0]))
    q = math.gcd(f[1], g[1])
    a, b = g[1] // q, f[1] // q
    shift = tuple(map(sub, lcm_exps, f[0]))
    acc = {tuple(map(add, e, shift)): a * c for e, c in f[2]}
    shift = tuple(map(sub, lcm_exps, g[0]))
    for e, c in g[2]:
        t = tuple(map(add, e, shift))
        acc[t] = acc.get(t, 0) - b * c
    return acc


def gebauer_moeller_buchberger(polys: Sequence[Polynomial], order: MonomialOrder) -> GroebnerBasis:
    """Pairs smallest-lcm-first, pruned by the Gebauer-Moeller criteria (the
    UPDATE of Becker-Weispfenning): a new pair (g, h) is dropped if another
    new pair's lcm divides its lcm (criteria M and F) or if lm(g) and lm(h)
    are coprime; an old pair (g1, g2) is dropped if lm(h) divides its lcm L
    while lcm(g1, h) != L != lcm(g2, h) (criterion B)."""
    original = tuple(p if p.order == order else p.with_order(order) for p in polys)
    if order.nvars and not any(original):
        raise NotZeroDimensionalError("all generators are zero")
    key = order.descending_key
    gens: list[Generator] = []
    active: list[int] = []  # generators no newer leading monomial divides
    pairs: list[tuple] = []  # heap of (ascending key of lcm, i, j, lcm)

    def add_generator(acc: dict) -> None:
        nonlocal active, pairs
        remainder = _reduce(acc, [gens[s] for s in active], key)[0]
        if not remainder:
            return
        h = _primitive(remainder)
        lead, t = h[0], len(gens)
        gens.append(h)

        def lcm_with(s: int) -> tuple:
            return tuple(map(max, gens[s][0], lead))

        new = [(lcm_with(s), s) for s in active]
        kept = []
        for k, (lcm_exps, s) in enumerate(new):
            coprime = lcm_exps == tuple(map(add, gens[s][0], lead))
            if coprime or not any(all(map(le, q[0], lcm_exps)) for q in itertools.chain(new[k + 1 :], kept)):
                kept.append((lcm_exps, s, coprime))
        pairs = [
            q for q in pairs
            if not all(map(le, lead, q[3])) or q[3] in (lcm_with(q[1]), lcm_with(q[2]))
        ]
        pairs += [(exponent_key(order)(e), s, t, e) for e, s, coprime in kept if not coprime]
        heapq.heapify(pairs)
        active = [s for s in active if not all(map(le, lead, gens[s][0]))] + [t]

    for p in original:
        add_generator(vector(p._term_dict())[0])
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        add_generator(_s_accumulator(gens[i], gens[j]))

    reduced: list[Generator] = []
    for lead, lc, tail in sorted((gens[s] for s in active), key=lambda g: exponent_key(order)(g[0])):
        remainder, scale = _reduce(dict(tail), reduced, key)
        reduced.append(_primitive([(lead, lc * scale), *remainder]))
    basis = [
        Polynomial._from_sorted(order, [(lead, Fraction(1)), *((e, Fraction(c, lc)) for e, c in tail)])
        for lead, lc, tail in reduced
    ]
    return GroebnerBasis(tuple(basis), order, original)


# The division-based quotient route that the border multiplication matrices
# replaced, kept as a differential oracle: the staircase by walking the
# exponent box, and every product NF(b_i * b_j) by full polynomial division.


def box_standard_monomials(basis: GroebnerBasis) -> QuotientBasis:
    """Every monomial of the pure-power exponent box that no leading
    monomial divides, ascending by the order."""
    lms = basis.leading_monomials()
    caps = []
    for var in range(basis.order.nvars):
        pure = [
            lm.exponents[var]
            for lm in lms
            if all(e == 0 for i, e in enumerate(lm.exponents) if i != var)
        ]
        if not pure:
            raise NotZeroDimensionalError("the ideal is not zero-dimensional")
        caps.append(min(pure))
    found = []
    for exps in itertools.product(*(range(c) for c in caps)):
        mono = Monomial(exps)
        if not any(divides(lm.exponents, exps) for lm in lms):
            found.append(mono)
    found.sort(key=lambda m: exponent_key(basis.order)(m.exponents))
    return QuotientBasis(tuple(found), basis.order)


def probe_standard_monomials(basis: GroebnerBasis) -> QuotientBasis:
    """The staircase walk of `quotient.standard_monomials` with the admission
    it had before the parent count, kept as its differential oracle: a popped
    monomial is admitted when it leads no generator and a set lookup finds
    each m / x_u among the admitted monomials, one probe per variable."""
    if not is_zero_dimensional(basis):
        raise NotZeroDimensionalError("the ideal is not zero-dimensional")
    order, key = basis.order, exponent_key(basis.order)
    leading = {g.leading_monomial().exponents: g for g in basis.generators}
    one = (0,) * order.nvars
    heap, parents = [(key(one), one)], {one: []}
    index: dict[tuple[int, ...], int] = {}
    columns: list[list[Vector]] = [[] for _ in range(order.nvars)]
    steps: Steps = []
    border: list[tuple[tuple[int, ...], list[tuple[int, int]]]] = []
    while heap:
        exps = heapq.heappop(heap)[1]
        pairs = parents.pop(exps)
        if exps in leading or any(e and _shift(exps, u, -1) not in index for u, e in enumerate(exps)):
            border.append((exps, pairs))
            continue
        if len(index) == MAX_DIMENSION:
            raise DimensionLimitError(f"the quotient has over {MAX_DIMENSION} standard monomials")
        k = index[exps] = len(index)
        unit = {k: 1}, 1
        for var, p in pairs:
            columns[var][p] = unit
        steps.append(pairs[0] if pairs else None)
        for var, column in enumerate(columns):
            column.append(None)
            product = _shift(exps, var, 1)
            if product not in parents:
                heapq.heappush(heap, (key(product), product))
            parents.setdefault(product, []).append((var, k))

    reduced: dict[tuple[int, ...], Vector] = {}
    for exps, pairs in border:
        g = leading.get(exps)
        if g is not None:
            try:
                form = vector({index[m.exponents]: -c for m, c in g.terms[1:]})
            except KeyError:
                raise ValueError(f"basis is not reduced at {g!r}") from None
        else:
            var = next(v for v, e in enumerate(exps) if e and _shift(exps, v, -1) in reduced)
            form = apply(columns[var], reduced[_shift(exps, var, -1)])
        reduced[exps] = form
        for var, k in pairs:
            columns[var][k] = form

    return QuotientBasis(tuple(map(Monomial._trusted, index)), order, basis, columns, steps)


def pending_traces(transposed: dict[int, list[Vector]], steps: Steps) -> Vector:
    """The backward pass of `quotient._traces` as it was before its
    childless and one-child elements were taken directly, kept as its
    differential oracle: every element starts a pending list with its unit
    vector, and each list is summed by `quotient._sum`."""
    pending = [[({j: 1}, 1)] for j in range(len(steps))]
    for j in reversed(range(1, len(steps))):
        v, p = steps[j]
        pending[p].append(apply(transposed[v], _sum(pending[j])))
    return _sum(pending[0]) if steps else ({}, 1)


def basis_index(quotient: QuotientBasis) -> dict[Monomial, int]:
    """Position of each standard monomial in the quotient basis."""
    return {m: i for i, m in enumerate(quotient.monomials)}


def normal_form(p: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the basis: no term of the result is
    divisible by any leading monomial, and p minus the result lies in the
    ideal.  The engine's own division, `groebner._reduce`, on the basis,
    through the engine's monomial codes, widened as the engine widens them."""
    if p.order != basis.order:
        raise ValueError(f"polynomial ring mismatch: {p.order!r} vs {basis.order!r}")
    width = groebner._width([p, *basis.generators])
    while True:
        monomials = groebner._Monomials(p.order, width)
        encode = monomials.encode
        divisors = [
            _primitive([(encode(e), c) for e, c in vector(g._term_dict())[0].items()]) for g in basis.generators
        ]
        acc, den = vector(p._term_dict())
        try:
            remainder, scale = groebner._reduce({encode(e): c for e, c in acc.items()}, divisors, monomials.guard)
        except groebner._Overflow:
            width *= 2
            continue
        den *= scale
        return Polynomial._from_sorted(p.order, [(monomials.decode(e), Fraction(c, den)) for e, c in remainder])


@dataclass(frozen=True)
class MultiplicationMatrix:
    """Matrix of h -> element*h on the quotient basis; column k holds the
    coordinates of the reduced product element * basis[k]."""

    entries: tuple[tuple[Fraction, ...], ...]
    element: Polynomial
    basis: QuotientBasis

    def trace(self) -> Fraction:
        return sum((row[i] for i, row in enumerate(self.entries)), Fraction(0))


def _division_coordinates(p: Polynomial, quotient: QuotientBasis) -> list[Fraction]:
    index = basis_index(quotient)
    coords = [Fraction(0)] * quotient.dimension
    for mono, coeff in p.terms:
        coords[index[mono]] = coeff
    return coords


def division_multiplication_matrix(
    g: Polynomial, basis: GroebnerBasis, quotient: QuotientBasis
) -> MultiplicationMatrix:
    """Column k is the normal form of NF(g) * b_k, one division per column."""
    element = normal_form(g, basis)
    columns = [
        _division_coordinates(normal_form(mul_term(element, 1, mono), basis), quotient)
        for mono in quotient.monomials
    ]
    dim = quotient.dimension
    rows = tuple(tuple(columns[k][r] for k in range(dim)) for r in range(dim))
    return MultiplicationMatrix(rows, element, quotient)


def division_product_table(
    basis: GroebnerBasis, quotient: QuotientBasis
) -> dict[tuple[int, int], dict[Monomial, Fraction]]:
    """(i, j) with i <= j -> NF(b_i * b_j), one division per pair."""
    monos = quotient.monomials
    table = {}
    for i in range(len(monos)):
        for j in range(i, len(monos)):
            product = Polynomial(basis.order, [(times(monos[i], monos[j]), 1)])
            table[(i, j)] = dict(normal_form(product, basis).terms)
    return table


def _division_traces(
    quotient: QuotientBasis, products: dict[tuple[int, int], dict[Monomial, Fraction]]
) -> dict[Monomial, Fraction]:
    monos = quotient.monomials
    return {
        mono: sum(
            (products[(min(i, k), max(i, k))].get(other, Fraction(0)) for k, other in enumerate(monos)),
            Fraction(0),
        )
        for i, mono in enumerate(monos)
    }


def tau_by_monomial(ring: QuotientBasis) -> dict[Monomial, Fraction]:
    """tau(b) = Tr(b) for each basis monomial b, read off the `Vector`
    `ring.traces`."""
    nums, den = ring.traces
    return {m: Fraction(nums.get(k, 0), den) for k, m in enumerate(ring.monomials)}


def division_trace_functional(
    basis: GroebnerBasis, quotient: QuotientBasis
) -> dict[Monomial, Fraction]:
    return _division_traces(quotient, division_product_table(basis, quotient))


def division_hermite_form(basis: GroebnerBasis, quotient: QuotientBasis) -> HermiteForm:
    """H[i][j] = sum of c * tau(m) over NF(b_i * b_j) = sum(c * m)."""
    products = division_product_table(basis, quotient)
    tau = _division_traces(quotient, products)
    dim = quotient.dimension
    entries = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = sum((c * tau[m] for m, c in products[(i, j)].items()), Fraction(0))
            entries[i][j] = value
            entries[j][i] = value
    return HermiteForm(tuple(tuple(row) for row in entries), quotient)


def gaussian_rank(entries: Sequence[Sequence[Scalar]]) -> int:
    """Rank by plain exact Gaussian elimination (works on any matrix)."""
    m = [[Fraction(x) for x in row] for row in entries]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][c]
        for r in range(rows):
            if r != rank and m[r][c]:
                f = m[r][c] * inv
                for j in range(c, cols):
                    m[r][j] -= f * m[rank][j]
        rank += 1
        if rank == rows:
            break
    return rank


def determinant(entries: Sequence[Sequence[Scalar]]) -> Fraction:
    """Exact determinant via fraction elimination."""
    m = as_matrix(entries)
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return det


def congruence_diagonalize(entries: Sequence[Sequence[Scalar]]) -> list[Fraction]:
    """The diagonal of `linalg.inertia`'s congruence sweep as `Fraction`s:
    d with P^T * M * P = diag(d) for an invertible P."""
    return [Fraction(p, den) for p, den in _pivots(entries)]


# The congruence route that also tracks the transform, kept as the reference
# for the sweep of `linalg.inertia`: every elimination updates a whole row, then a
# whole column of M, and the same column of P.


def congruence_certificate(
    entries: Sequence[Sequence[Scalar]], rescues: list[tuple[int, int, int]] | None = None
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """(diagonal, P) with P^T * M * P = diag(diagonal) and P invertible; each
    zero-pivot rescue (k, j, t) is appended to `rescues` if one is given."""
    a = as_matrix(check_symmetric(entries))
    n = len(a)
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def add_row_col(i: int, j: int, t: int) -> None:
        # row_i += t*row_j, col_i += t*col_j on A; col_i += t*col_j on P
        for c in range(n):
            a[i][c] += t * a[j][c]
        for r in range(n):
            a[r][i] += t * a[r][j]
        for r in range(n):
            p[r][i] += t * p[r][j]

    def eliminate(r: int, k: int, factor: Fraction) -> None:
        # row_r -= f*row_k, col_r -= f*col_k on A; col_r -= f*col_k on P
        for c in range(n):
            a[r][c] -= factor * a[k][c]
        for i in range(n):
            a[i][r] -= factor * a[i][k]
        for i in range(n):
            p[i][r] -= factor * p[i][k]

    # The pivot rule of `congruence_diagonalize`: a zero pivot takes t times
    # row and column j, the first j > k with a[k][j] != 0, with t = -1 exactly
    # when 2*a[k][j] + a[j][j] == 0; a row that is zero past the diagonal is
    # skipped, its diagonal entry already final.
    for k in range(n):
        if not a[k][k]:
            j = next((j for j in range(k + 1, n) if a[k][j]), None)
            if j is None:
                continue
            t = -1 if 2 * a[k][j] + a[j][j] == 0 else 1
            if rescues is not None:
                rescues.append((k, j, t))
            add_row_col(k, j, t)
        pivot = a[k][k]
        for r in range(k + 1, n):
            if a[r][k]:
                eliminate(r, k, a[r][k] / pivot)

    return [a[i][i] for i in range(n)], p


def certified_diagonal(
    entries: Sequence[Sequence[Scalar]], rescues: list[tuple[int, int, int]] | None = None
) -> list[Fraction]:
    """The reference diagonal of M, after checking its certificate
    (P^T * M * P == diag(d), det(P) != 0) and that `congruence_diagonalize`
    returns exactly the same diagonal; `rescues` as in `congruence_certificate`."""
    diagonal, p = congruence_certificate(entries, rescues)
    m = as_matrix(entries)
    dim = len(m)
    product = mat_mul(mat_mul(transpose(p), m), p)
    for i in range(dim):
        for j in range(dim):
            assert product[i][j] == (diagonal[i] if i == j else 0)
    assert determinant(p) != 0
    assert congruence_diagonalize(entries) == diagonal
    return diagonal


# The all-pairs audit that the commuting-matrix audit `audit_basis` replaced,
# kept as its reference.  It needs no staircase, so the positive-dimensional
# bases of the Groebner tests are audited with it.  It divides with the naive
# `Polynomial` division above, so it shares no code with the engine it audits.


def s_pair_audit(basis: GroebnerBasis) -> None:
    """Monic, reduced, every original generator reduces to zero, and
    Buchberger's criterion: every S-polynomial reduces to zero.  Raises
    ValueError on any violation; works on positive-dimensional bases too."""
    gens = basis.generators
    for g in gens:
        if g.leading_coefficient() != 1:
            raise ValueError(f"generator is not monic: {g!r}")
        for mono, _ in g.terms:
            for h in gens:
                if h is not g and divides(h.leading_monomial().exponents, mono.exponents):
                    raise ValueError(f"basis is not reduced at {g!r}")
    for f in basis.original:
        if _naive_reduce(f, gens):
            raise ValueError(f"original generator does not reduce to zero: {f!r}")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if _naive_reduce(_naive_s_polynomial(gens[i], gens[j]), gens):
                raise ValueError(f"S-polynomial of pair ({i}, {j}) does not reduce to zero")


# The package's integer Berkowitz, read as a rational characteristic
# polynomial, and the recursive Fraction Berkowitz that it replaced, kept as
# its reference.


def berkowitz_charpoly(entries: Sequence[Sequence[Scalar]]) -> UnivariatePolynomial:
    """Exact det(tI - M) for any square rational M, by `linalg._berkowitz`
    on the integer matrix D*M: since det(tI - D*M) = D^n * det((t/D)I - M),
    its coefficient of t^k is D^(n-k) times that of M."""
    scaled, scale = _integer_matrix(as_matrix(entries))
    descending = [Fraction(c, scale**i) for i, c in enumerate(_berkowitz(scaled))]
    return UnivariatePolynomial(reversed(descending))


def fraction_berkowitz(a: Matrix) -> list[Fraction]:
    """Coefficients of det(tI - A), descending powers, no divisions."""
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    if n == 1:
        return [Fraction(1), -a[0][0]]
    row = a[0][1:]
    col = [r[0] for r in a[1:]]
    minor = [r[1:] for r in a[1:]]
    q = fraction_berkowitz(minor)
    items = [Fraction(1), -a[0][0]]
    v = col
    for i in range(n - 1):
        items.append(-sum((x * y for x, y in zip(row, v)), Fraction(0)))
        if i < n - 2:
            v = [sum((mr[c] * v[c] for c in range(n - 1)), Fraction(0)) for mr in minor]
    # multiply the (n+1) x n Toeplitz matrix built from `items` into q
    out = []
    for i in range(n + 1):
        s = Fraction(0)
        for j in range(max(0, i - n), min(i, n - 1) + 1):
            s += items[i - j] * q[j]
        out.append(s)
    return out


def reference_characteristic_polynomial(entries: Sequence[Sequence[Scalar]]) -> UnivariatePolynomial:
    return UnivariatePolynomial(reversed(fraction_berkowitz(as_matrix(entries))))


# Newton power sums and the Hankel matrix of the one-variable Hermite
# criterion, a second route to the univariate counts.


@dataclass(frozen=True)
class NewtonSums:
    """Power sums p_k of a monic polynomial's roots, p_0 = degree."""

    values: tuple[Fraction, ...]

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def newton_sums(f: UnivariatePolynomial, count: int) -> NewtonSums:
    """First `count` power sums of the roots, from the coefficient recursion.

    p_0 is the degree n; for r >= 1, p_r is minus the sum of a_{n-i}*p_{r-i}
    over i = 1..min(r-1, n), minus r*a_{n-r} while r <= n.
    """
    if f.is_zero() or f.degree == 0:
        raise ValueError("power sums need a polynomial of degree >= 1")
    if not f.is_monic():
        raise ValueError("power sums are defined for monic polynomials; normalize first")
    if count < 1:
        raise ValueError("count must be positive")
    n = f.degree
    a = f.coefficients  # a[j] multiplies t^j; a[n] == 1
    sums = [Fraction(n)]
    for r in range(1, count):
        acc = Fraction(0)
        for i in range(1, min(r - 1, n) + 1):
            acc += a[n - i] * sums[r - i]
        if r <= n:
            acc += r * a[n - r]
        sums.append(-acc)
    return NewtonSums(tuple(sums))


def classic_hermite_matrix(f: UnivariatePolynomial) -> list[list[Fraction]]:
    """The n-by-n Hankel matrix of power sums, entry (i, j) = p_{i+j}.

    Its rank counts the distinct complex roots of f and its signature the
    distinct real roots; the top-left entry is p_0 = n.
    """
    n = f.degree
    sums = newton_sums(f, 2 * n - 1)
    return [[sums[i + j] for j in range(n)] for i in range(n)]


def to_multivariate(f: UnivariatePolynomial, order: MonomialOrder) -> Polynomial:
    """View f as a member of a one-variable polynomial ring."""
    if order.nvars != 1:
        raise ValueError("expected a one-variable order")
    return Polynomial(order, [(Monomial((i,)), c) for i, c in enumerate(f.coefficients)])
