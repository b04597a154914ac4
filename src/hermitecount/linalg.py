"""Exact rank and signature of symmetric rational matrices.

`inertia` reads them off the diagonal of a congruence diagonalization.  The
transform P of the congruence is not built here;
`tests/support.py::congruence_certificate` rebuilds it.  A second route reads
the inertia off the characteristic polynomial by Descartes' rule, exact for a
symmetric matrix: Berkowitz's division-free scheme on integers, on D*M with D
the lcm of the denominators, so it never touches a `Fraction` inside the
O(n^4) loop.  `solve --check` no longer uses it: its oracle is the
separating linear form of `separating.py`, which never reads the Hermite
matrix.  No floating point anywhere; signatures are integers and are
computed as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .univariate import UnivariatePolynomial

Scalar = Union[int, Fraction]
Matrix = list[list[Fraction]]


def as_matrix(entries: Sequence[Sequence[Scalar]]) -> Matrix:
    """Validated square Fraction copy of the input; entries that are already
    `Fraction`s are kept, not re-wrapped."""
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in entries]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


def check_symmetric(entries: Sequence[Sequence[Scalar]]) -> Matrix:
    m = as_matrix(entries)
    # Rows against columns as lists (in C, skipping identical objects); pairs
    # with j < i passed in row j, so the first mismatch in row i has j > i.
    for i, (row, column) in enumerate(zip(m, zip(*m))):
        if row != list(column):
            j = next(j for j, (x, y) in enumerate(zip(row, column)) if x != y)
            raise ValueError(f"asymmetric input: entry ({i},{j}) != ({j},{i})")
    return m


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


def congruence_diagonalize(entries: Sequence[Sequence[Scalar]]) -> list[Fraction]:
    """Diagonal d of a congruence P^T * M * P = diag(d) with P invertible.

    By Sylvester's law the signs of d give the inertia of M; only d is
    returned (tests/support.py rebuilds P as a certificate).  Each pivot k
    takes one symmetric Schur-complement step on the trailing block,
    M[r][c] -= (M[r][k] / M[k][k]) * M[k][c] for r, c > k.  Pivoting: prefer
    a nonzero diagonal entry in the remaining block; failing that, a nonzero
    off-diagonal entry (i, j) is rescued by adding row/column j to row/column
    i, which plants the nonzero diagonal value 2*M[i][j].
    """
    a = check_symmetric(entries)
    n = len(a)

    def swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row_col(i: int, j: int) -> None:
        for c, a_jc in enumerate(a[j]):
            if a_jc:
                a[i][c] += a_jc
        for row in a:
            if row[j]:
                row[i] += row[j]

    for k in range(n):
        if not a[k][k]:
            pivot_row = next((l for l in range(k + 1, n) if a[l][l]), None)
            if pivot_row is not None:
                swap(k, pivot_row)
            else:
                spot = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                    None,
                )
                if spot is None:
                    break  # remaining block is zero; diagonal already final
                i, j = spot
                add_row_col(i, j)
                if i != k:
                    swap(k, i)
        pivot = a[k][k]
        # M[r][k] == M[k][r], so the rows with a nonzero multiplier are the
        # columns this update touches; sweep the upper triangle and mirror it.
        support = [(c, a[k][c]) for c in range(k + 1, n) if a[k][c]]
        for s, (r, a_rk) in enumerate(support):
            factor = a_rk / pivot
            row = a[r]
            for c, a_kc in support[s:]:
                value = row[c] - factor * a_kc
                row[c] = value
                a[c][r] = value

    return [a[i][i] for i in range(n)]


def inertia(entries: Sequence[Sequence[Scalar]]) -> InertiaResult:
    """Exact inertia from the congruence diagonal."""
    diagonal = congruence_diagonalize(entries)
    pos = sum(1 for d in diagonal if d > 0)
    neg = sum(1 for d in diagonal if d < 0)
    return InertiaResult(pos, neg, len(diagonal) - pos - neg)


def _integer_matrix(m: Matrix) -> tuple[list[list[int]], int]:
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


def characteristic_polynomial(entries: Sequence[Sequence[Scalar]]) -> UnivariatePolynomial:
    """Exact det(tI - M) for any square rational M.

    Berkowitz runs on the integer matrix D*M; since
    det(tI - D*M) = D^n * det((t/D)I - M), its coefficient of t^k is D^(n-k)
    times that of M.
    """
    scaled, scale = _integer_matrix(as_matrix(entries))
    descending = [Fraction(c, scale**i) for i, c in enumerate(_berkowitz(scaled))]
    return UnivariatePolynomial(reversed(descending))


def inertia_via_charpoly(entries: Sequence[Sequence[Scalar]]) -> InertiaResult:
    """Independent inertia: eigenvalues of a symmetric matrix are all real, so
    Descartes' rule is exact on the characteristic polynomial.

    The signs are read from the integer charpoly of D*M (D > 0 the lcm of the
    denominators), which has the eigenvalues of M scaled by D and so the same
    inertia.  The zero count is the multiplicity of the root 0; the positive
    count is the number of sign variations of the remaining coefficients.
    """
    m = check_symmetric(entries)
    n = len(m)
    coeffs = _berkowitz(_integer_matrix(m)[0])[::-1]  # ascending, top == 1
    zero = 0
    while zero < len(coeffs) and not coeffs[zero]:
        zero += 1
    nonzero = [c for c in coeffs[zero:] if c]
    positive = sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x < 0) != (y < 0))
    return InertiaResult(positive, n - zero - positive, zero)
