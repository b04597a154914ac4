"""Arithmetic in the quotient ring on its standard-monomial basis.

The ring has one linear-algebra representation: the border multiplication
matrices M_{x_v}, built column by column from the reduced basis with sparse
matrix-vector products (FGLM-style border normal forms).  The product table
NF(b_i * b_j), the trace functional, the symmetric trace form whose rank and
signature count distinct complex and real solutions, and
`multiplication_matrix` are all derived from it.  Coordinates, the trace
functional included, stay integer numerators over one common denominator;
`Fraction`s appear only in the returned objects.

The same matrices certify the basis: `audit_basis` checks that they commute
(the border-basis criterion), which proves the reduced basis is a Groebner
basis without reducing a single S-polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from . import linalg
from .groebner import (
    GroebnerBasis,
    QuotientBasis,
    normal_form,
    standard_monomials,
)
from .poly import Monomial, Polynomial


@dataclass(frozen=True)
class MultiplicationMatrix:
    """Matrix of h -> element*h on the quotient basis; column k holds the
    coordinates of the reduced product element * basis[k]."""

    entries: tuple[tuple[Fraction, ...], ...]
    element: Polynomial
    basis: QuotientBasis

    def trace(self) -> Fraction:
        return sum((row[i] for i, row in enumerate(self.entries)), Fraction(0))


@dataclass(frozen=True)
class HermiteForm:
    """Gram matrix of the trace form on the standard-monomial basis."""

    entries: tuple[tuple[Fraction, ...], ...]
    basis: QuotientBasis

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class HermiteReport:
    """Rank/signature of the trace form and the solution counts they encode."""

    form: HermiteForm
    rank: int
    signature: int
    complex_count: int
    real_count: int
    quotient_dimension: int


# Sparse coordinates on the quotient basis: integer numerators by basis index
# over one positive common denominator, kept in lowest terms.  Integer
# arithmetic with one gcd per vector is several times faster than a Fraction
# per coordinate.
Vector = tuple[dict[int, int], int]


def _unit(k: int) -> Vector:
    return {k: 1}, 1


def _vector(coords: dict[int, Fraction]) -> Vector:
    den = lcm(*(c.denominator for c in coords.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coords.items()}, den


def _shift(exps: tuple[int, ...], var: int, step: int) -> tuple[int, ...]:
    """Exponents of the monomial times x_var**step."""
    return exps[:var] + (exps[var] + step,) + exps[var + 1 :]


def _mismatch() -> ValueError:
    return ValueError("quotient basis does not belong to this Groebner basis")


def _multiplication_columns(
    basis: GroebnerBasis, quotient: QuotientBasis, index: dict[tuple[int, ...], int]
) -> list[list[Vector]]:
    """columns[v][k] = coordinates of NF(x_v * b_k): the matrix of
    multiplication by each variable, column by column.

    A standard product x_v * b_k is a unit column.  The others form the border
    and are reduced in ascending order: a border monomial that leads a
    generator g has normal form -tail(g) (the basis is reduced and monic),
    and any other is x_u * m' for a smaller border monomial m', so its normal
    form is M_{x_u} * NF(m'), built only from columns already filled.

    This also proves that `quotient` is the staircase of `basis`: it holds 1
    (or is empty, for the unit ideal), no leading monomial divides its
    members, and every border monomial is shown to lie outside the staircase,
    so the quotient is closed.  Any failure raises ValueError.  `index` maps
    each basis monomial's exponents to its position.
    """
    order = basis.order
    monos = quotient.monomials
    if quotient.order != order:
        raise _mismatch()
    keys = [order.key(m) for m in monos]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise _mismatch()
    leading = {g.leading_monomial().exponents: g for g in basis.generators}
    unit = (0,) * order.nvars
    if unit not in leading and not (monos and monos[0].exponents == unit):
        raise _mismatch()
    if any(lm.divides(mono) for lm in basis.leading_monomials() for mono in monos):
        raise _mismatch()

    columns: list[list[Vector]] = [[None] * len(monos) for _ in range(order.nvars)]
    border: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for k, mono in enumerate(monos):
        exps = mono.exponents
        for var in range(order.nvars):
            product = _shift(exps, var, 1)
            if product in index:
                columns[var][k] = _unit(index[product])
            else:
                border.setdefault(product, []).append((var, k))

    reduced: dict[tuple[int, ...], Vector] = {}
    for exps in sorted(border, key=order.exponent_key):
        g = leading.get(exps)
        if g is not None:
            try:
                form = _vector({index[m.exponents]: -c for m, c in g.terms[1:]})
            except KeyError:
                raise _mismatch() from None
        else:
            var = next((v for v, e in enumerate(exps) if e and _shift(exps, v, -1) in reduced), None)
            if var is None:
                raise _mismatch()  # exps is standard but missing from the quotient
            form = _apply(columns[var], reduced[_shift(exps, var, -1)])
        reduced[exps] = form
        for var, k in border[exps]:
            columns[var][k] = form
    return columns


def _apply(matrix: list[Vector], vector: Vector) -> Vector:
    """matrix * vector for a matrix given by its sparse columns.  A unit
    vector returns the column itself, shared: vectors are never mutated."""
    nums, den = vector
    if len(nums) <= 1 and den == 1:
        if not nums:
            return vector
        ((k, c),) = nums.items()
        if c == 1:
            return matrix[k]
    scale = lcm(*(matrix[k][1] for k in nums))
    acc: dict[int, int] = {}
    for k, a in nums.items():
        column, column_den = matrix[k]
        f = a * (scale // column_den)
        for r, x in column.items():
            acc[r] = acc.get(r, 0) + f * x
    acc = {r: x for r, x in acc.items() if x}
    den *= scale
    g = gcd(den, *acc.values())
    return {r: x // g for r, x in acc.items()}, den // g


def audit_basis(basis: GroebnerBasis) -> None:
    """Certify a zero-dimensional `basis` as the reduced Groebner basis of
    the ideal of its original generators; raises ValueError on a violation.

    G must be monic and reduced, and every original generator must reduce to
    zero, so the original ideal lies in <G>.  G is a Groebner basis when the
    border matrices commute, M_{x_u} * M_{x_v} = M_{x_v} * M_{x_u} for u < v
    (Mourrain 1999): then f -> f(M) * e_1, with e_1 the coordinates of 1, maps
    Q[x] onto Q^|O| (O the staircase of LM(G)) and sends each g in G to 0,
    because the column of LM(g) is -tail(g).  So dim Q[x]/<G> >= |O|, which
    forces LT(<G>) = <LM(G)>.  A positive-dimensional basis raises
    NotZeroDimensionalError.
    """
    gens = basis.generators
    for g in gens:
        if g.leading_coefficient() != 1:
            raise ValueError(f"generator is not monic: {g!r}")
        for mono, _ in g.terms:
            for h in gens:
                if h is not g and h.leading_monomial().divides(mono):
                    raise ValueError(f"basis is not reduced at {g!r}")
    for f in basis.original:
        if not normal_form(f, basis).is_zero():
            raise ValueError(f"original generator does not reduce to zero: {f!r}")
    quotient = standard_monomials(basis)
    index = {m.exponents: k for k, m in enumerate(quotient.monomials)}
    columns = _multiplication_columns(basis, quotient, index)
    for u, v in combinations(range(len(columns)), 2):
        for k in range(quotient.dimension):
            if _apply(columns[u], columns[v][k]) != _apply(columns[v], columns[u][k]):
                raise ValueError(f"multiplication by variables {u} and {v} does not commute")


def _product_table(
    basis: GroebnerBasis, quotient: QuotientBasis
) -> tuple[list[list[Vector]], dict[tuple[int, ...], int]]:
    """table[i][j] = coordinates of NF(b_i * b_j) for i <= j (None below),
    and the basis index {exponents: position} it was built with.

    Row 0 is b_0 = 1 times the basis.  Every other b_i is x_v * b_p for a
    standard parent b_p earlier in the basis, so NF(b_i * b_j) is
    M_{x_v} * NF(b_p * b_j): one sparse matrix-vector product per entry.
    """
    monos = quotient.monomials
    dim = len(monos)
    index = {m.exponents: k for k, m in enumerate(monos)}
    columns = _multiplication_columns(basis, quotient, index)
    table: list[list[Vector]] = [[_unit(j) for j in range(dim)]] if dim else []
    for i in range(1, dim):
        exps = monos[i].exponents
        var = next(v for v, e in enumerate(exps) if e)
        parent = table[index[_shift(exps, var, -1)]]
        row = [None] * dim
        for j in range(i, dim):
            row[j] = _apply(columns[var], parent[j])
        table.append(row)
    return table, index


def _product(table: list[list[Vector]], i: int, j: int) -> Vector:
    return table[i][j] if i <= j else table[j][i]


def _traces(table: list[list[Vector]]) -> tuple[list[int], int]:
    """tau[k] = trace of multiplication by b_k, the sum over j of the b_j
    coordinate of NF(b_k * b_j), as integer numerators over one positive
    common denominator in lowest terms."""
    dim = len(table)
    coords: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    for k in range(dim):
        for j in range(dim):
            nums, d = _product(table, k, j)
            if j in nums:
                coords[k].append((nums[j], d))
    den = lcm(*(d for row in coords for _, d in row))
    tau = [sum(n * (den // d) for n, d in row) for row in coords]
    g = gcd(den, *tau)
    return [t // g for t in tau], den // g


def multiplication_matrix(
    g: Polynomial, basis: GroebnerBasis, quotient: QuotientBasis
) -> MultiplicationMatrix:
    """Matrix of multiplication by g on the quotient basis.

    With NF(g) = sum(c_m * b_m), column k is sum(c_m * NF(b_m * b_k)): the
    k-th column of the product table applied to NF(g).  Only NF(g) itself
    needs a polynomial division.
    """
    table, index = _product_table(basis, quotient)
    element = normal_form(g, basis)
    coords = _vector({index[m.exponents]: c for m, c in element.terms})
    dim = quotient.dimension
    columns = [_apply([_product(table, m, k) for m in range(dim)], coords) for k in range(dim)]
    zero = Fraction(0)
    rows = tuple(
        tuple(Fraction(nums[r], den) if r in nums else zero for nums, den in columns)
        for r in range(dim)
    )
    return MultiplicationMatrix(rows, element, quotient)


def trace_functional(basis: GroebnerBasis, quotient: QuotientBasis) -> dict[Monomial, Fraction]:
    """tau(b) = trace of multiplication by b, for every basis monomial b.

    Traces of arbitrary elements follow by linearity: an element with normal
    form sum(c_m * b_m) has multiplication trace sum(c_m * tau(b_m)), which
    replaces one dim^2-sized matrix build per form entry with a single table.
    """
    tau, den = _traces(_product_table(basis, quotient)[0])
    return {m: Fraction(t, den) for m, t in zip(quotient.monomials, tau)}


def hermite_form(basis: GroebnerBasis, quotient: QuotientBasis) -> HermiteForm:
    """Gram matrix H[i][j] = trace of multiplication by b_i*b_j.

    NF(b_i*b_j) and tau are both integer numerators over one denominator,
    so each entry is one integer dot product turned into one Fraction.
    Entries are computed for i <= j and mirrored; symmetry is exact because
    the products themselves are symmetric.
    """
    table, _ = _product_table(basis, quotient)
    tau, tau_den = _traces(table)
    dim = quotient.dimension
    zero = Fraction(0)
    entries = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            nums, den = table[i][j]
            value = sum(c * tau[m] for m, c in nums.items())
            if value:
                entries[i][j] = entries[j][i] = Fraction(value, den * tau_den)
    return HermiteForm(tuple(tuple(row) for row in entries), quotient)


def hermite_report(basis: GroebnerBasis) -> HermiteReport:
    """Full pipeline tail: basis of the quotient, trace form, exact inertia.

    The rank of the form is the number of distinct complex solutions and its
    signature the number of distinct real solutions; an empty variety (unit
    ideal) yields the 0x0 form with both counts zero.
    """
    quotient = standard_monomials(basis)
    form = hermite_form(basis, quotient)
    result = linalg.inertia(form.rows())
    return HermiteReport(
        form=form,
        rank=result.rank,
        signature=result.signature,
        complex_count=result.rank,
        real_count=result.signature,
        quotient_dimension=quotient.dimension,
    )
