"""Exact linear algebra: the sparse vector kernel, and the rank and signature
of symmetric rational matrices.

A `Vector` is sparse integer numerators by index over one positive
denominator, in lowest terms, with no stored zero: one gcd per vector, not a
`Fraction` normalisation per coordinate.  It is the one format of the
quotient ring and of the congruence sweep.  `vector` and `lowest` make one;
`apply` and `transpose` take a matrix as its list of sparse columns.

`inertia` reads rank and signature off the signs of the pivots of one
congruence sweep on `Vector` rows, which never swaps and builds no
`Fraction` (rebuilt with its transform P by
`tests/support.py::congruence_certificate`).
`inertia_via_charpoly` reads them off the characteristic polynomial by
Descartes' rule, exact for a symmetric matrix: Berkowitz's division-free
scheme on D*M, D the lcm of the denominators; no solve runs it, only the
benchmark's traced route and the tests.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[dict[int, int], int]


def vector(coords: Mapping[Hashable, Scalar]) -> tuple[dict, int]:
    """Rational coordinates over the lcm of their denominators, without their
    zeros; in lowest terms, since each `Fraction` is."""
    den = lcm(*(x.denominator for x in coords.values()))
    return {k: n for k, x in coords.items() if (n := x.numerator * (den // x.denominator))}, den


def lowest(nums: dict[int, int], den: int) -> Vector:
    """nums/den without its zero entries, in lowest terms."""
    nums = {k: x for k, x in nums.items() if x}
    g = gcd(den, *nums.values())
    return ({k: x // g for k, x in nums.items()}, den // g) if g > 1 else (nums, den)


def apply(matrix: Sequence[Vector], v: Vector) -> Vector:
    """matrix * v for a matrix given by its sparse columns.  A unit vector
    returns the column itself, shared: vectors are never mutated."""
    nums, den = v
    if not nums:
        return v
    if den == 1 and len(nums) == 1 and 1 in nums.values():
        return matrix[next(iter(nums))]
    scale = lcm(*(matrix[k][1] for k in nums))
    acc: dict[int, int] = {}
    for k, a in nums.items():
        column, column_den = matrix[k]
        f = a * (scale // column_den)
        for r, x in column.items():
            acc[r] = acc.get(r, 0) + f * x
    return lowest(acc, den * scale)


def _combination(terms: Sequence[tuple[int, int, int]]) -> Vector:
    """The sum of x/d * e_k over the terms (k, x, d), d > 0."""
    den = lcm(*(d for _, _, d in terms))
    acc: dict[int, int] = {}
    for k, x, d in terms:
        acc[k] = acc.get(k, 0) + x * (den // d)
    return lowest(acc, den)


def transpose(matrix: Sequence[Vector]) -> list[Vector]:
    """M^T for a square M, both given by their sparse columns.  Short rows
    are taken directly: a row with no term is ({}, 1), and one with a single
    term x/d is that term over one gcd; only rows with two or more terms are
    combined over the lcm of their denominators."""
    rows: list[list[tuple[int, int, int]]] = [[] for _ in matrix]
    for k, (nums, den) in enumerate(matrix):
        for r, x in nums.items():
            rows[r].append((k, x, den))
    transposed: list[Vector] = []
    for terms in rows:
        if len(terms) > 1:
            transposed.append(_combination(terms))
        elif terms:
            ((k, x, den),) = terms
            g = gcd(x, den)
            transposed.append(({k: x // g}, den // g))
        else:
            transposed.append(({}, 1))
    return transposed


def check_symmetric(entries: Sequence[Sequence[Scalar]]) -> Sequence[Sequence[Scalar]]:
    """`entries`, once the rows as given are checked to form a square symmetric matrix."""
    if any(len(row) != len(entries) for row in entries):
        raise ValueError("matrix must be square")
    # Rows against columns as tuples (in C, skipping identical objects); pairs
    # with j < i passed in row j, so the first mismatch in row i has j > i.
    for i, (row, column) in enumerate(zip(entries, zip(*entries))):
        if tuple(row) != column:
            j = next(j for j, (x, y) in enumerate(zip(row, column)) if x != y)
            raise ValueError(f"asymmetric input: entry ({i},{j}) != ({j},{i})")
    return entries


@dataclass(frozen=True)
class InertiaResult:
    """Counts of positive, negative and zero eigenvalues."""

    positive: int
    negative: int
    zero: int

    @property
    def rank(self) -> int:
        return self.positive + self.negative

    @property
    def signature(self) -> int:
        return self.positive - self.negative


def _inexact(cells: Iterable[tuple[int, int, object]]) -> TypeError:
    """The error for the first cell (r, c, x) whose entry x is not an int or a Fraction."""
    r, c, x = next(cell for cell in cells if not isinstance(cell[2], (int, Fraction)))
    return TypeError(f"entry ({r},{c}) is {type(x).__name__}, not int or Fraction")


def _pivots(entries: Sequence[Sequence[Scalar]]) -> Iterator[tuple[int, int]]:
    """The diagonal d of a congruence P^T * M * P = diag(d) with P
    invertible, each entry as (numerator, positive denominator).

    By Sylvester's law the signs of d give the inertia of M; tests/support.py
    rebuilds P.  Pivot k takes one symmetric Schur-complement step,
    M[r][c] -= (M[k][r] / M[k][k]) * M[k][c] for k < r <= c, and a row zero
    past the diagonal is yielded as it stands, before any rescue or step.  A
    zero pivot is rescued within its row: with j > k the first column where
    M[k][j] != 0, adding t times row and column j to row and column k plants
    2*t*M[k][j] + M[j][j], nonzero for t = 1 or -1.

    Row r from its diagonal on is a `Vector` N_r / d_r.  With p = N_k[k],
    a = N_k[r], g = gcd(p*d_k, a*d_r), the step is N_r <- A*N_r - B*N_k,
    d_r <- A*d_r for A = p*d_k/g and B = a*d_r/g, then one gcd per row.
    Bareiss on D*M was 4-30x slower: its minors carry powers of D, the lcm of
    M's denominators.  A nonzero entry on or above the diagonal with no
    numerator and denominator, such as a float, raises TypeError before the
    first pivot.
    """
    check_symmetric(entries)
    rows = []
    for r, row in enumerate(entries):
        upper = {c: row[c] for c in compress(range(r, len(row)), row[r:])}
        try:
            rows.append(vector(upper))
        except AttributeError:
            raise _inexact((r, c, x) for c, x in upper.items()) from None
    for k, (nums_k, den_k) in enumerate(rows):
        p = nums_k.pop(k, 0)
        if not nums_k:
            yield p, den_k
            continue
        if not p:
            j = min(nums_k)
            nums_j, den_j = rows[j]
            t = -1 if 2 * nums_k[j] * den_j + nums_j.get(j, 0) * den_k == 0 else 1
            # Row k plus t times row j past column k, where M[j][c] = M[c][j]
            # sits in row c for k < c < j, and 2*t*M[k][j] + M[j][j] at column k.
            terms = [(c, x, den_k) for c, x in nums_k.items()] + [(k, 2 * t * nums_k[j], den_k)]
            terms += [(c, t * x, rows[c][1]) for c in range(k + 1, j) if (x := rows[c][0].get(j))]
            terms += [(c, t * x, den_j) for c, x in nums_j.items()] + [(k, nums_j.get(j, 0), den_j)]
            nums_k, den_k = _combination(terms)
            p = nums_k.pop(k)
        yield p, den_k
        pivot, sign = abs(p) * den_k, (1 if p > 0 else -1)
        support = sorted(nums_k.items())
        for s, (r, a) in enumerate(support):
            nums_r, den_r = rows[r]
            g = gcd(pivot, a * den_r)
            A, B = pivot // g, sign * a * den_r // g
            new = {c: A * x for c, x in nums_r.items()}
            for c, y in support[s:]:
                new[c] = new.get(c, 0) - B * y
            rows[r] = lowest(new, A * den_r)


def inertia(entries: Sequence[Sequence[Scalar]]) -> InertiaResult:
    """Exact inertia from the signs of the congruence pivots."""
    pos = neg = 0
    for p, _ in _pivots(entries):
        if p > 0:
            pos += 1
        elif p:
            neg += 1
    return InertiaResult(pos, neg, len(entries) - pos - neg)


def _integer_matrix(m: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """(D * M, D) with D > 0 the lcm of M's denominators."""
    scale = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m], scale


def _berkowitz(a: list[list[int]]) -> list[int]:
    """Coefficients of det(tI - A) for an integer matrix, descending powers.

    Iterative and division-free: the charpoly of each leading principal block
    A_{r+1} = [[A_r, c], [R, a]] is the Toeplitz matrix of
    1, -a, -R*c, -R*A_r*c, ..., -R*A_r^(r-1)*c applied to the charpoly of A_r.
    """
    poly = [1]
    for r, last in enumerate(a):
        toeplitz = [1, -last[r]]
        v = [a[i][r] for i in range(r)]
        for k in range(r):
            toeplitz.append(-sum(map(mul, last, v)))
            if k < r - 1:
                v = [sum(map(mul, a[i], v)) for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return poly


def inertia_via_charpoly(entries: Sequence[Sequence[Scalar]]) -> InertiaResult:
    """Independent inertia: eigenvalues of a symmetric matrix are all real, so
    Descartes' rule is exact on the characteristic polynomial.

    The signs are read from the integer charpoly of D*M (D > 0 the lcm of the
    denominators), which has the eigenvalues of M scaled by D and so the same
    inertia.  The zero count is the multiplicity of the root 0; the positive
    count is the number of sign variations of the remaining coefficients.
    An entry that is not an int or a Fraction raises TypeError, naming the
    first in row-major order.
    """
    check_symmetric(entries)
    try:
        integer = _integer_matrix(entries)[0]
    except AttributeError:
        raise _inexact((r, c, x) for r, row in enumerate(entries) for c, x in enumerate(row)) from None
    coeffs = _berkowitz(integer)[::-1]  # ascending, top == 1
    zero = 0
    while zero < len(coeffs) and not coeffs[zero]:
        zero += 1
    nonzero = [c for c in coeffs[zero:] if c]
    positive = sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x < 0) != (y < 0))
    return InertiaResult(positive, len(entries) - zero - positive, zero)
