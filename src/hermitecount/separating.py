"""All of `solve --check`: the basis audit, the trace-functional checks, and
the separating-form oracle, which re-derives the rank and signature of the
trace form without reading it.  Only `--check` loads this module, through
`mismatch`, which runs them in that order on the ring of the report (its
`source` is the basis) and on tau, the `Vector` that `hermite_form` left.

`audit_basis` certifies the Groebner basis on the border matrices that the
quotient carries: they commute (the border-basis criterion), and f(M) * e_1
is 0 for every original generator f, without division by the basis.

For k = 1, 2, ... the linear form l_k = x1 + k*x2 + k^2*x3 + ... has a
characteristic polynomial chi on the quotient ring whose roots are the values
of l_k at the solutions (Rouillier 1999, "Solving zero-dimensional systems
through the rational univariate representation").  Its Newton sums
Tr(M_l^j) = tau . M_l^j * e_1 take one sparse product each on the border
matrices, paired with tau by `quotient.traces_of` as the lex Hankel sums
are, and the oracle never reads the Hermite matrix.  Once l_k separates
the solutions, chi's distinct roots count the complex ones and its real roots
the real ones (Hermite's univariate theorem; Basu, Pollack and Roy, ch. 4).

Univariate polynomials are integer coefficient lists, ascending, with a nonzero
leading coefficient: one Euclid gives the squarefree test modulo a prime and the
exact squarefree part over Z, and a Descartes bisection counts the real roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, repeat
from math import comb, gcd, lcm
from operator import le
from typing import Sequence

from .linalg import Vector, apply, vector
from .quotient import PRIME, HermiteReport, QuotientBasis, _shift, _source, traces_of


def audit_basis(ring: QuotientBasis) -> None:
    """Certify `ring.source`, the zero-dimensional basis G that `ring` was
    built from, as a reduced Groebner basis of an ideal that holds every
    original generator, on the border matrices of `ring` alone; raises
    ValueError on a violation, or for a hand-built `QuotientBasis`, which
    carries none.  It proves <F> in <G> for the original generators F, not
    <G> = <F>: a Groebner basis of a larger ideal passes.

    G must be monic and reduced, and f(M) * e_1 must be 0 for every original
    generator f, e_1 the coordinates of 1, each x^a of f taken as M^a * e_1
    by a chain of products.  G is a Groebner basis when the border matrices
    commute, M_{x_u} * M_{x_v} = M_{x_v} * M_{x_u} for u < v (Mourrain 1999):
    then f -> f(M) * e_1 maps Q[x] onto Q^|O| (O the staircase of LM(G)),
    each g in G to 0 (the column of LM(g) is -tail(g)) and each b_k in O to
    e_k.  So dim Q[x]/<G> >= |O|, which forces LT(<G>) = <LM(G)>, and f(M) *
    e_1 holds the coordinates of NF(f).  No division by G is used: the audit
    shares no code with the engine that built G.
    """
    basis, columns = _source(ring), ring.columns
    gens, order = basis.generators, basis.order
    leads = [g.leading_monomial().exponents for g in gens]
    for g in gens:
        if g.leading_coefficient() != 1:
            raise ValueError(f"generator is not monic: {g!r}")
        for mono, _ in g.terms:
            exps = mono.exponents
            for h, lead in zip(gens, leads):
                if h is not g and all(map(le, lead, exps)):
                    raise ValueError(f"basis is not reduced at {g!r}")
    images = {(0,) * order.nvars: ({0: 1} if ring.dimension else {}, 1)}  # x^a -> M^a * e_1; 1 = 0 if G = {1}
    for f in basis.original:
        if f.order != order or apply(
            [_image(m.exponents, images, columns) for m, _ in f.terms],
            vector({k: c for k, (_, c) in enumerate(f.terms)}),
        )[0]:
            raise ValueError(f"original generator does not reduce to zero: {f!r}")
    for u, v in combinations(range(len(columns)), 2):
        for k in range(ring.dimension):
            if apply(columns[u], columns[v][k]) != apply(columns[v], columns[u][k]):
                raise ValueError(f"multiplication by variables {u} and {v} does not commute")


def _image(exps: tuple[int, ...], images: dict[tuple[int, ...], Vector], columns: list[list[Vector]]) -> Vector:
    """M^exps * e_1: down from x^exps, one first nonzero exponent at a time,
    to a monomial in `images`, then back up, one product by M_{x_v} per step,
    each added to `images`."""
    path = []
    while exps not in images:
        v = next(v for v, e in enumerate(exps) if e)
        path.append(v)
        exps = _shift(exps, v, -1)
    image = images[exps]
    for v in reversed(path):
        exps = _shift(exps, v, 1)
        image = images[exps] = apply(columns[v], image)
    return image


def _gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """gcd(f, g) by Euclid, for f and g with nonzero leading coefficients: over
    GF(p) for p > 0, on f and g reduced mod p, with monic remainders; over Z
    for p = 0, with primitive pseudo-remainders lc(g)^k * f mod g."""
    while g:  # g made monic mod p, primitive over Z
        unit = pow(g[-1], -1, p) if p else gcd(*g)
        g = [c * unit % p for c in g] if p else [c // unit for c in g]
        f, n, lead = f[:], len(g), g[-1]
        for shift in range(len(f) - n, -1, -1):
            factor = f[shift + n - 1]
            if factor and p:
                f[shift : shift + n] = [(a - factor * c) % p for a, c in zip(f[shift : shift + n], g)]
            elif factor:
                f = [a * lead for a in f]
                f[shift : shift + n] = [a - factor * c for a, c in zip(f[shift : shift + n], g)]
        while f and not f[-1]:  # the loop zeroed f from degree n - 1 up
            f.pop()
        f, g = g, f
    return f


def squarefree_mod_p(coefficients: Sequence[int]) -> bool:
    """True when f keeps its degree and is squarefree modulo PRIME = 2^61 - 1.

    Then f is squarefree over Q: a square factor g^2 of f in Z[t] reduces to
    a square factor of f mod PRIME of the same degree, because PRIME divides
    neither lc(g) nor lc(f).  False says nothing: the prime may be unlucky.
    """
    f = [c % PRIME for c in coefficients]
    derivative = [i * c % PRIME for i, c in enumerate(f) if i]
    return bool(f and f[-1]) and len(_gcd(f, derivative, PRIME)) == 1


def integer_squarefree_part(coefficients: Sequence[int]) -> list[int]:
    """f / gcd(f, f') for a primitive f, with a positive leading coefficient.  The
    gcd is primitive, so by Gauss's lemma the quotient is integral and primitive."""
    f = list(coefficients)
    g = _gcd(f, [i * c for i, c in enumerate(f) if i], 0)
    quotient = [0] * (len(f) - len(g) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        quotient[shift] = factor = f[shift + len(g) - 1] // g[-1]
        f[shift : shift + len(g)] = [a - factor * c for a, c in zip(f[shift : shift + len(g)], g)]
    return quotient if quotient[-1] > 0 else [-c for c in quotient]


def _variations(coefficients: Sequence[int]) -> int:
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _taylor_shift(coefficients: Sequence[int]) -> list[int]:
    """f(t + 1), by repeated synthetic division."""
    a = list(coefficients)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _unit_interval_roots(f: list[int]) -> int:
    """Roots in (0, 1) of a squarefree f, by Vincent-Collins-Akritas
    bisection: (t + 1)^n * f(1/(t + 1)) maps (0, 1) onto (0, inf), where
    Descartes' rule bounds the root count by its sign variations, exactly
    when they are 0 or 1 and always once the interval is small enough
    (Vincent's theorem).  Otherwise halve: 2^n * f(t/2) and 2^n * f((t+1)/2)
    carry the two halves to (0, 1), and the midpoint is checked alone."""
    count = 0
    stack = [f]
    while stack:
        f = stack.pop()
        variations = _variations(_taylor_shift(f[::-1]))
        if variations < 2:
            count += variations
            continue
        n = len(f) - 1
        left = [c << (n - i) for i, c in enumerate(f)]
        content = gcd(*left)
        left = [c // content for c in left]
        right = _taylor_shift(left)
        if not right[0]:
            count += 1
            del right[0]
        stack += [left, right]
    return count


def real_root_count(coefficients: Sequence[int]) -> int:
    """Number of real roots of a squarefree integer polynomial.

    Zero and +-1 are tested directly.  The positive roots of f(t) and of
    f(-t) are counted by Descartes' rule when it is exact (0 or 1 sign
    variations), and otherwise by bisection on (0, 1) for f and for its
    reversal t^n * f(1/t), whose roots in (0, 1) are those of f in (1, inf).
    Without a square factor, bisection ends (Vincent's theorem).
    """
    f = list(coefficients)
    count = 0
    if not f[0]:
        count += 1
        del f[0]
    for g in (f, [-c if i % 2 else c for i, c in enumerate(f)]):
        variations = _variations(g)
        if variations < 2:
            count += variations
        else:
            count += (not sum(g)) + _unit_interval_roots(g) + _unit_interval_roots(g[::-1])
    return count


def separating_charpoly(ring: QuotientBasis, tau: Vector, k: int) -> list[int]:
    """Characteristic polynomial of multiplication by l = sum of k^i * x_{i+1},
    as primitive integer coefficients, ascending.  Its roots are the values
    of l at the solutions, each with the solution's multiplicity.

    The columns of M_l are summed from the border columns, with c the lcm of
    their denominators.  The Newton sums of A = c * M_l, an integer matrix,
    are P_j = c^j * tau . M_l^j * e_1, one sparse product on M_l each (e_1
    holds the coordinates of 1, and `tau` is the trace functional), and
    Newton's identities m * e_m = sum over i of (-1)^(i-1) * e_(m-i) * P_i
    give the elementary symmetric functions of A's eigenvalues.  All of them
    are integers, and every division is exact.  A Newton sum or identity that
    is not integral raises ValueError: `tau` is not the trace functional.
    det(tI - M_l) = sum over m of (-1)^m * (e_m / c^m) * t^(D-m).
    """
    columns, dim = ring.columns, ring.dimension
    weights = ({v: k**v for v in range(len(columns))}, 1)
    summed = [apply([column[j] for column in columns], weights) for j in range(dim)]
    scale = lcm(*(den for _, den in summed))
    krylov = accumulate(repeat(summed, dim), lambda v, matrix: apply(matrix, v), initial=({0: 1}, 1))
    sums = []
    for j, trace in enumerate(traces_of(tau, krylov)[1:], 1):
        total = trace * scale**j
        if total.denominator != 1:
            raise ValueError(f"Newton sum {j} of a linear form is not an integer")
        sums.append(total.numerator)
    elementary = [1]
    for m in range(1, dim + 1):
        total = sum((-1 if i % 2 == 0 else 1) * elementary[m - i] * sums[i - 1] for i in range(1, m + 1))
        value, remainder = divmod(total, m)
        if remainder:
            raise ValueError(f"Newton identity {m} of a linear form is not integral")
        elementary.append(value)
    coefficients = [(-1) ** m * e * scale ** (dim - m) for m, e in enumerate(elementary)][::-1]
    content = gcd(*coefficients)
    return [c // content for c in coefficients]


def trace_mismatch(ring: QuotientBasis, tau: Vector) -> str | None:
    """tau(1), entry 0 of `tau`, must be the quotient dimension, and tau(x_v),
    for each variable that is a standard monomial, the diagonal sum of
    M_{x_v}, read off the border columns without going through tau.  x_v is
    b_i for the i with steps[i] == (v, 0), whatever its place in the order."""
    (nums, den), dim = tau, ring.dimension
    if dim and (one := Fraction(nums.get(0, 0), den)) != dim:
        return f"trace functional: tau(1) = {one} != dimension {dim}"
    index = {step: i for i, step in enumerate(ring.steps)}
    for v, matrix in enumerate(ring.columns):
        trace = sum((Fraction(x.get(j, 0), d) for j, (x, d) in enumerate(matrix)), Fraction(0))
        if (v, 0) in index and (value := Fraction(nums.get(index[v, 0], 0), den)) != trace:
            return f"trace functional: tau(x{v + 1}) = {value} != trace of its matrix {trace}"
    return None


def separating_form_mismatch(ring: QuotientBasis, tau: Vector, rank: int, signature: int) -> str | None:
    """Rank and signature against the charpoly chi of l_k = sum of k^i * x_{i+1}.

    The roots of chi are the values of l_k at the solutions, so d, the degree
    of its squarefree part, is at most the number of distinct solutions, with
    equality exactly when l_k separates them.  Two solutions p != q collide
    only at the at most n - 1 roots of the polynomial sum of k^i * (p - q)_i
    in k, so one of the first C(r, 2) * (n - 1) + 1 values of k separates r
    solutions.  If d = r, the real roots of chi are the values at the real
    solutions, a non-real p having l(p) != l(conj p) = conj l(p), so their
    number must be the signature.  d > r, or no k reaching d = r, is a
    mismatch.  A rank that is too low passes only if the first l_k with
    d = r does not separate.

    In one variable l_1 = x1 is the only form tried, and chi must be the lone
    generator g of the basis, primitive: a wrong tau can keep the counts.
    """
    nvars = ring.order.nvars
    if rank > ring.dimension:
        return f"rank {rank} exceeds the quotient dimension {ring.dimension}"
    for k in range(1, comb(rank, 2) * max(nvars - 1, 0) + 2):
        chi = separating_charpoly(ring, tau, k)
        if nvars == 1:
            if vector(ring.source.generators[0]._term_dict())[0] != {(e,): c for e, c in enumerate(chi) if c}:
                return "chi of x1 is not the primitive generator of the basis"
        part = chi if squarefree_mod_p(chi) else integer_squarefree_part(chi)
        distinct = len(part) - 1
        if distinct > rank:
            return f"l_{k} takes {distinct} distinct values on the solutions, more than rank {rank}"
        if distinct == rank:
            real = real_root_count(part)
            if real != signature:
                return f"l_{k} separates with {real} real values != signature {signature}"
            return None
    return f"no linear form l_1 .. l_{k} separates {rank} solutions: the rank is too high"


def mismatch(report: HermiteReport, lex: QuotientBasis | None = None) -> str | None:
    """Audits the ring of `report` and `lex`, a ring built from a converted
    basis, each on its own basis; checks the trace functional that
    `report.form` carries, then the rank and signature of `report` against
    the separating linear form; a description of the first mismatch, or None."""
    ring, tau = report.form.basis, report.form.traces
    try:
        audit_basis(ring)
        if lex is not None:
            audit_basis(lex)
    except ValueError as exc:
        return f"Groebner basis audit: {exc}"
    try:
        return trace_mismatch(ring, tau) or separating_form_mismatch(ring, tau, report.rank, report.signature)
    except ValueError as exc:
        return f"trace functional: {exc}"
