"""Exact rank and signature of symmetric rational matrices.

`inertia` reads them off the diagonal of a congruence diagonalization on
sparse integer rows over one denominator each, which never swaps (rebuilt
with its transform P by `tests/support.py::congruence_certificate`).
`inertia_via_charpoly` reads them off the characteristic polynomial by
Descartes' rule, exact for a symmetric matrix: Berkowitz's division-free
scheme on D*M, D the lcm of the denominators; only the benchmark's `--check`
workload runs it.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

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


def _reduced(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """nums/den without its zero entries, in lowest terms."""
    nums = {c: x for c, x in nums.items() if x}
    g = gcd(den, *nums.values())
    return ({c: x // g for c, x in nums.items()}, den // g) if g > 1 else (nums, den)


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

    By Sylvester's law the signs of d give the inertia of M; tests/support.py
    rebuilds P.  Pivot k takes one symmetric Schur-complement step,
    M[r][c] -= (M[k][r] / M[k][k]) * M[k][c] for k < r <= c, and skips a row
    zero past the diagonal.  A zero pivot is rescued within its row: with j > k
    the first column where M[k][j] != 0, adding t times row and column j to
    row and column k plants 2*t*M[k][j] + M[j][j], nonzero for t = 1 or -1.

    Row r from its diagonal on is integers N_r over d_r > 0 in lowest terms,
    as `quotient.Vector`.  With p = N_k[k], a = N_k[r], g = gcd(p*d_k, a*d_r),
    the step is N_r <- A*N_r - B*N_k, d_r <- A*d_r for A = p*d_k/g and
    B = a*d_r/g, then one gcd per row.  Bareiss on D*M was 4-30x slower: its
    minors carry powers of D, the lcm of M's denominators.
    """
    check_symmetric(entries)
    rows, diagonal = [], []
    for r, row in enumerate(entries):
        upper = [(c, row[c]) for c in compress(range(r, len(row)), row[r:])]
        den = lcm(*(x.denominator for _, x in upper))
        rows.append(({c: x.numerator * (den // x.denominator) for c, x in upper}, den))
    for k, (nums_k, den_k) in enumerate(rows):
        p = nums_k.pop(k, 0)
        if not p and nums_k:
            j = min(nums_k)
            nums_j, den_j = rows[j]
            t = -1 if 2 * nums_k[j] * den_j + nums_j.get(j, 0) * den_k == 0 else 1
            # Row j past column k, where M[j][c] = M[c][j] sits in row c for k < c < j.
            column = [(c, rows[c][0].get(j, 0), rows[c][1]) for c in range(k + 1, j)]
            column += [(c, x, den_j) for c, x in nums_j.items()]
            den = lcm(den_k, den_j, *(d for _, x, d in column if x))
            new = {c: x * (den // den_k) for c, x in nums_k.items()}
            new[k] = 2 * t * new[j] + nums_j.get(j, 0) * (den // den_j)
            for c, x, d in column:
                new[c] = new.get(c, 0) + t * x * (den // d)
            nums_k, den_k = _reduced(new, den)
            p = nums_k.pop(k)
        diagonal.append(Fraction(p, den_k))
        pivot, sign = abs(p) * den_k, (1 if p > 0 else -1)
        support = sorted(nums_k.items())
        for s, (r, a) in enumerate(support):
            nums_r, den_r = rows[r]
            g = gcd(pivot, a * den_r)
            A, B = pivot // g, sign * a * den_r // g
            new = {c: A * x for c, x in nums_r.items()}
            for c, y in support[s:]:
                new[c] = new.get(c, 0) - B * y
            rows[r] = _reduced(new, A * den_r)
    return diagonal


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


def inertia_via_charpoly(entries: Sequence[Sequence[Scalar]]) -> InertiaResult:
    """Independent inertia: eigenvalues of a symmetric matrix are all real, so
    Descartes' rule is exact on the characteristic polynomial.

    The signs are read from the integer charpoly of D*M (D > 0 the lcm of the
    denominators), which has the eigenvalues of M scaled by D and so the same
    inertia.  The zero count is the multiplicity of the root 0; the positive
    count is the number of sign variations of the remaining coefficients.
    """
    m = as_matrix(check_symmetric(entries))
    n = len(m)
    coeffs = _berkowitz(_integer_matrix(m)[0])[::-1]  # ascending, top == 1
    zero = 0
    while zero < len(coeffs) and not coeffs[zero]:
        zero += 1
    nonzero = [c for c in coeffs[zero:] if c]
    positive = sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x < 0) != (y < 0))
    return InertiaResult(positive, n - zero - positive, zero)
