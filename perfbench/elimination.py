"""Expected counts of a dense system, found without the Hermite matrix.

The route shares no code with the package's Groebner, quotient or
linear-algebra layers.  One variable x_h is hidden: for a fixed value a of
x_h, the n polynomials in the other n-1 variables are homogenised and their
Macaulay resultant R(a) is det(M(a)) / det(E(a)).  R vanishes at a exactly
when the system has a solution with x_h = a: every polynomial of a dense
system has a constant, nonzero top-degree form in the other variables, and R
is not identically zero only when those forms share no zero at infinity.  R
is interpolated from integer evaluations.

If R is squarefree of degree d^n, its d^n roots carry at least d^n distinct
solutions, and Bezout allows no more, so each root carries exactly one.  The
complex conjugate of a solution over a real root is a solution over the same
root, so it is that solution: the real solutions are the real roots of R,
counted by a Sturm chain.  When R is not of that shape for any hidden
variable, the instance is left unverified.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from hermitecount.univariate import UnivariatePolynomial, squarefree_part, sturm_count

System = Sequence[dict[tuple[int, ...], int]]


def determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


class _Macaulay:
    """The Macaulay matrix of n forms of degree d in n homogeneous variables
    y_0..y_{n-1}, with y_0 the homogenising variable."""

    def __init__(self, nvars: int, degree: int):
        self.degree = degree
        self.columns = _monomials(nvars, nvars * (degree - 1) + 1)
        self.index = {m: i for i, m in enumerate(self.columns)}
        # Row m multiplies form i by m / y_i^d for the first i whose power divides m.
        self.rows = [
            (next(i for i, e in enumerate(m) if e >= degree), m) for m in self.columns
        ]
        reduced = [sum(e >= degree for e in m) == 1 for m in self.columns]
        self.extraneous = [i for i, r in enumerate(reduced) if not r]

    def matrices(self, forms: list[dict[tuple[int, ...], int]]) -> tuple[list[list[int]], list[list[int]]]:
        size = len(self.columns)
        full = [[0] * size for _ in range(size)]
        for r, (i, m) in enumerate(self.rows):
            shift = tuple(e - (self.degree if k == i else 0) for k, e in enumerate(m))
            for exps, c in forms[i].items():
                full[r][self.index[tuple(s + e for s, e in zip(shift, exps))]] = c
        minor = [[full[r][c] for c in self.extraneous] for r in self.extraneous]
        return full, minor


def _forms_at(system: System, hidden: int, value: int, degree: int) -> list[dict[tuple[int, ...], int]]:
    """The polynomials with x_hidden = value, homogenised to degree `degree`
    in (y_0, the other variables)."""
    forms = []
    for poly in system:
        form: dict[tuple[int, ...], int] = {}
        for exps, c in poly.items():
            rest = exps[:hidden] + exps[hidden + 1:]
            key = (degree - sum(rest),) + rest
            form[key] = form.get(key, 0) + c * value ** exps[hidden]
        forms.append(form)
    return forms


def _interpolate(points: list[tuple[int, Fraction]]) -> UnivariatePolynomial:
    """The polynomial through `points`, by Newton's divided differences."""
    xs = [x for x, _ in points]
    table = [y for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    result = UnivariatePolynomial([table[-1]])
    for i in range(len(points) - 2, -1, -1):
        result = result * UnivariatePolynomial([-xs[i], 1]) + UnivariatePolynomial([table[i]])
    return result


def hidden_resultant(system: System, hidden: int, degree: int) -> UnivariatePolynomial:
    """R(x_hidden) for n polynomials of total degree `degree` in n variables."""
    nvars = len(system)
    macaulay = _Macaulay(nvars, degree)
    # R has degree at most `degree` in each coefficient's x_hidden part and
    # degree^(n-1) in the coefficients of each form.
    needed = nvars * degree**nvars + 1
    points: list[tuple[int, Fraction]] = []
    for value in itertools.chain.from_iterable((k, -k) if k else (0,) for k in itertools.count()):
        full, minor = macaulay.matrices(_forms_at(system, hidden, value, degree))
        below = determinant(minor)
        if below:
            points.append((value, Fraction(determinant(full), below)))
            if len(points) == needed:
                return _interpolate(points)
    raise AssertionError("unreachable")


def dense_counts(system: System, degree: int) -> tuple[int, int] | None:
    """(complex, real) solution counts of a dense system of n polynomials of
    total degree `degree` in n variables, or None if no hidden variable gives
    a squarefree resultant of degree degree^n."""
    bezout = degree ** len(system)
    for hidden in reversed(range(len(system))):
        resultant = hidden_resultant(system, hidden, degree)
        if resultant.degree == bezout and squarefree_part(resultant).degree == bezout:
            return bezout, sturm_count(resultant)
    return None
