"""Exact rank and signature of symmetric rational matrices.

Two independent routes that must agree: congruence diagonalization (primary),
whose output is the diagonal alone, and the division-free characteristic
polynomial with Descartes' rule (oracle).  The transform P of the congruence
is not built here; `tests/support.py::congruence_certificate` rebuilds it.
No floating point anywhere; signatures are integers and are computed as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .univariate import UnivariatePolynomial

Scalar = Union[int, Fraction]
Matrix = list[list[Fraction]]


def as_matrix(entries: Sequence[Sequence[Scalar]]) -> Matrix:
    """Validated square Fraction copy of the input."""
    m = [[Fraction(x) for x in row] for row in entries]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


def check_symmetric(entries: Sequence[Sequence[Scalar]]) -> Matrix:
    m = as_matrix(entries)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
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
        for c in range(n):
            a[i][c] += a[j][c]
        for r in range(n):
            a[r][i] += a[r][j]

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


def _berkowitz(a: Matrix) -> list[Fraction]:
    """Coefficients of det(tI - A), descending powers, no divisions."""
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    if n == 1:
        return [Fraction(1), -a[0][0]]
    row = a[0][1:]
    col = [r[0] for r in a[1:]]
    minor = [r[1:] for r in a[1:]]
    q = _berkowitz(minor)
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


def characteristic_polynomial(entries: Sequence[Sequence[Scalar]]) -> UnivariatePolynomial:
    """Exact det(tI - M) for any square M, by the Berkowitz scheme."""
    descending = _berkowitz(as_matrix(entries))
    return UnivariatePolynomial(reversed(descending))


def inertia_via_charpoly(entries: Sequence[Sequence[Scalar]]) -> InertiaResult:
    """Independent inertia: eigenvalues of a symmetric matrix are all real, so
    Descartes' rule is exact on the characteristic polynomial.

    The zero count is the multiplicity of the root 0; the positive count is
    the number of sign variations of the remaining coefficients.
    """
    m = check_symmetric(entries)
    n = len(m)
    coeffs = characteristic_polynomial(m).coefficients  # ascending, top == 1
    zero = 0
    while zero < len(coeffs) and not coeffs[zero]:
        zero += 1
    nonzero = [c for c in coeffs[zero:] if c]
    positive = sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x < 0) != (y < 0))
    return InertiaResult(positive, n - zero - positive, zero)
