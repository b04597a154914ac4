"""The separating-form oracle of `solve --check`: rank and signature of the
trace form re-derived without reading it.

For k = 1, 2, ... the linear form l_k = x1 + k*x2 + k^2*x3 + ... has a
characteristic polynomial chi on the quotient ring whose roots are the values
of l_k at the solutions (Rouillier 1999, "Solving zero-dimensional systems
through the rational univariate representation").  Its Newton sums
Tr(M_l^j) = tau . M_l^j * e_1 take one sparse product each on the border
matrices, and the oracle never reads the Hermite matrix.  Once l_k separates
the solutions, chi's distinct roots count the complex ones and its real roots
the real ones (Hermite's univariate theorem; Basu, Pollack and Roy, ch. 4).

The univariate side runs on integer coefficient lists, ascending by degree
with a nonzero leading coefficient: a squarefree test modulo one fixed prime
and a Descartes-bisection count of real roots.  Only `--check` loads this
module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from .groebner import GroebnerBasis, _generator
from .poly import Monomial
from .quotient import QuotientBasis, Vector, _apply, _ring, _vector, trace_functional
from .univariate import UnivariatePolynomial, squarefree_part

PRIME = 2**61 - 1


def _gcd_degree_mod_p(f: list[int], g: list[int]) -> int:
    """Degree of gcd(f, g) over GF(PRIME), for f, g reduced mod PRIME with
    nonzero leading coefficients; Euclid on monic remainders."""
    while g:
        inverse = pow(g[-1], -1, PRIME)
        g = [c * inverse % PRIME for c in g]
        f = f[:]
        for shift in range(len(f) - len(g), -1, -1):
            factor = f[shift + len(g) - 1]
            if factor:
                for i, c in enumerate(g):
                    f[shift + i] = (f[shift + i] - factor * c) % PRIME
        del f[len(g) - 1 :]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) - 1


def squarefree_mod_p(coefficients: Sequence[int]) -> bool:
    """True when f keeps its degree and is squarefree modulo PRIME = 2^61 - 1.

    Then f is squarefree over Q: a square factor g^2 of f in Z[t] reduces to
    a square factor of f mod PRIME of the same degree, because PRIME divides
    neither lc(g) nor lc(f).  False says nothing: the prime may be unlucky.
    """
    f = [c % PRIME for c in coefficients]
    if len(f) <= 2:
        return bool(f and f[-1])
    if not f[-1]:
        return False
    derivative = [i * c % PRIME for i, c in enumerate(f) if i]
    return _gcd_degree_mod_p(f, derivative) == 0


def primitive(f: UnivariatePolynomial) -> list[int]:
    """The integer coefficients of f, cleared of denominators and content."""
    scale = lcm(*(c.denominator for c in f.coefficients))
    coefficients = [c.numerator * (scale // c.denominator) for c in f.coefficients]
    content = gcd(*coefficients)
    return [c // content for c in coefficients]


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


def separating_charpoly(
    basis: GroebnerBasis, quotient: QuotientBasis, tau: dict[Monomial, Fraction], k: int
) -> list[int]:
    """Characteristic polynomial of multiplication by l = sum of k^i * x_{i+1},
    as primitive integer coefficients, ascending.  Its roots are the values
    of l at the solutions, each with the solution's multiplicity.

    The columns of M_l are summed from the border columns, and A = c * M_l,
    with c the lcm of their denominators, is an integer matrix.  Its Newton
    sums P_j = Tr(A^j) = tau . A^j * e_1 take one sparse product each (e_1
    holds the coordinates of 1, and `tau` is the trace functional), and
    Newton's identities m * e_m = sum over i of (-1)^(i-1) * e_(m-i) * P_i
    give the elementary symmetric functions of A's eigenvalues.  All of them
    are integers, and each division by m is exact.  A Newton sum or identity
    that is not integral raises ValueError: `tau` is not the trace functional.
    det(tI - M_l) = sum over m of (-1)^m * (e_m / c^m) * t^(D-m).
    """
    columns = _ring(basis, quotient).columns
    dim = quotient.dimension
    weights: Vector = ({v: k**v for v in range(len(columns))}, 1)
    summed = [_apply([column[j] for column in columns], weights) for j in range(dim)]
    scale = lcm(*(den for _, den in summed))
    matrix = [({r: x * (scale // den) for r, x in nums.items()}, 1) for nums, den in summed]
    tau_nums, tau_den = _vector({i: tau[m] for i, m in enumerate(quotient.monomials) if tau[m]})
    sums = []
    vector: Vector = ({0: 1}, 1)
    for _ in range(dim):
        vector = _apply(matrix, vector)
        total, remainder = divmod(sum(x * tau_nums.get(r, 0) for r, x in vector[0].items()), tau_den)
        if remainder:
            raise ValueError(f"Newton sum {len(sums) + 1} of a linear form is not an integer")
        sums.append(total)
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


def trace_mismatch(
    basis: GroebnerBasis, quotient: QuotientBasis, tau: dict[Monomial, Fraction]
) -> str | None:
    """tau(1) must be the quotient dimension, and tau(x_v), for each variable
    that is a standard monomial, the diagonal sum of M_{x_v}, read off the
    border columns without going through tau."""
    nvars = basis.order.nvars
    if quotient.dimension and tau[Monomial.unit(nvars)] != quotient.dimension:
        return f"trace functional: tau(1) = {tau[Monomial.unit(nvars)]} != dimension {quotient.dimension}"
    for v, matrix in enumerate(_ring(basis, quotient).columns):
        trace = sum((Fraction(nums.get(j, 0), den) for j, (nums, den) in enumerate(matrix)), Fraction(0))
        value = tau.get(Monomial.variable(v, nvars), trace)
        if value != trace:
            return f"trace functional: tau(x{v + 1}) = {value} != trace of its matrix {trace}"
    return None


def separating_form_mismatch(
    basis: GroebnerBasis,
    quotient: QuotientBasis,
    tau: dict[Monomial, Fraction],
    rank: int,
    signature: int,
) -> str | None:
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
    if rank > quotient.dimension:
        return f"rank {rank} exceeds the quotient dimension {quotient.dimension}"
    for k in range(1, comb(rank, 2) * max(basis.order.nvars - 1, 0) + 2):
        chi = separating_charpoly(basis, quotient, tau, k)
        if basis.order.nvars == 1:
            lead, lc, tail = _generator(basis.generators[0])
            if dict([(lead, lc), *tail]) != {(e,): c for e, c in enumerate(chi) if c}:
                return "chi of x1 is not the primitive generator of the basis"
        part = chi if squarefree_mod_p(chi) else primitive(squarefree_part(UnivariatePolynomial(chi)))
        distinct = len(part) - 1
        if distinct > rank:
            return f"l_{k} takes {distinct} distinct values on the solutions, more than rank {rank}"
        if distinct == rank:
            real = real_root_count(part)
            if real != signature:
                return f"l_{k} separates with {real} real values != signature {signature}"
            return None
    return f"no linear form l_1 .. l_{k} separates {rank} solutions: the rank is too high"


def oracle_mismatch(basis: GroebnerBasis, quotient: QuotientBasis, rank: int, signature: int) -> str | None:
    """Checks the trace functional, then `rank` and `signature` of the trace
    form against the separating linear form; a description of the first
    mismatch, or None."""
    tau = trace_functional(basis, quotient)
    try:
        return trace_mismatch(basis, quotient, tau) or separating_form_mismatch(
            basis, quotient, tau, rank, signature
        )
    except ValueError as exc:
        return f"trace functional: {exc}"
