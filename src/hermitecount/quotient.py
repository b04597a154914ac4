"""The quotient ring on its standard-monomial basis, built once.

`standard_monomials` walks the staircase of a reduced basis and, in the same
pass, builds the ring's one linear-algebra representation: the border
multiplication matrices M_{x_v}, column by column with sparse matrix-vector
products (FGLM-style border normal forms), and the parent chain that writes
each basis element after 1 as b_i = x_v * b_p for a standard parent b_p.  The
returned `QuotientBasis` carries them, and every consumer reads them: one
product per element along the chain gives `multiplication_matrix`; on the
transposed matrices it gives the trace functional and the trace form, whose
rank and signature count distinct complex and real solutions.  Coordinates
stay integers over one common denominator until the returned `Fraction`s.

The same matrices serve `solve --check`, which `separating` holds whole:
its `audit_basis` certifies the basis by checking that they commute, and its
oracle re-derives the counts from the characteristic polynomial of a linear
form, built from Newton sums on them without the trace form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import le

from . import linalg
from .groebner import GroebnerBasis, NotZeroDimensionalError, is_zero_dimensional, normal_form
from .poly import Monomial, MonomialOrder, Polynomial

# Sparse coordinates on the quotient basis: integer numerators by basis index
# over one positive common denominator, kept in lowest terms.  Integer
# arithmetic with one gcd per vector is several times faster than a Fraction
# per coordinate.
Vector = tuple[dict[int, int], int]

# The parent chain: steps[i] = (v, p) for b_i = x_v * b_p, None for b_0 = 1.
Steps = list[tuple[int, int] | None]

# Refused past this: x1^2000, x2^2000, x1*x2 (dimension 3 999) took 2.7 s and 271 MiB on 2 x86-64 vCPUs.
MAX_DIMENSION = 4096


class DimensionLimitError(ValueError):
    """The staircase has more than MAX_DIMENSION standard monomials."""


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials spanning the quotient ring, ascending by the order.

    One built by `standard_monomials` also carries the ring: `source`, the
    Groebner basis it was built from; `columns`, where columns[v][k] holds
    the coordinates of NF(x_v * b_k), the matrix of multiplication by each
    variable; and `steps`, the parent chain.  Equality, hash and repr see
    only the monomials and the order, and the ring is never mutated.
    """

    monomials: tuple[Monomial, ...]
    order: MonomialOrder
    source: GroebnerBasis | None = field(default=None, compare=False, repr=False)
    columns: list[list[Vector]] | None = field(default=None, compare=False, repr=False)
    steps: Steps | None = field(default=None, compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self) -> int:
        return len(self.monomials)


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


def _vector(coords: dict[int, Fraction]) -> Vector:
    den = lcm(*(c.denominator for c in coords.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in coords.items()}, den


def _shift(exps: tuple[int, ...], var: int, step: int) -> tuple[int, ...]:
    """Exponents of the monomial times x_var**step."""
    return exps[:var] + (exps[var] + step,) + exps[var + 1 :]


def standard_monomials(basis: GroebnerBasis) -> QuotientBasis:
    """All monomials under the staircase (divisible by no leading monomial),
    ascending by the order, carrying the ring they span; they form a linear
    basis of the quotient ring.

    The staircase is an order ideal, so it is the closure of {1} under
    multiplication by single variables within the standard monomials: each
    found monomial is multiplied by each variable, and a product is kept if
    no leading monomial divides it.  That examines dim * nvars candidates,
    never the exponent box bounded by the pure-power caps.  A staircase
    that grows past MAX_DIMENSION raises DimensionLimitError at once.

    The same products fill the border matrices.  A standard product x_v * b_k
    = b_i is a unit column; the first found, from the smallest parent b_k, is
    the step of b_i.  The others form the border and are reduced in ascending
    order: a border monomial that leads a generator g has normal form
    -tail(g) (the basis is reduced and monic), and any other is x_u * m' for
    a smaller border monomial m', so its normal form is M_{x_u} * NF(m'),
    built only from columns already filled.  A tail term outside the
    staircase raises ValueError: the basis is not reduced.
    """
    if not is_zero_dimensional(basis):
        raise NotZeroDimensionalError("the ideal is not zero-dimensional")
    order = basis.order
    leading = {g.leading_monomial().exponents: g for g in basis.generators}

    def standard(exps: tuple[int, ...]) -> bool:
        return not any(all(map(le, lm, exps)) for lm in leading)

    unit = (0,) * order.nvars
    found = {unit} if standard(unit) else set()
    frontier = list(found)
    while frontier:
        exps = frontier.pop()
        for var in range(order.nvars):
            product = _shift(exps, var, 1)
            if product not in found and standard(product):
                if len(found) == MAX_DIMENSION:
                    raise DimensionLimitError(f"the quotient has over {MAX_DIMENSION} standard monomials")
                found.add(product)
                frontier.append(product)
    staircase = sorted(found, key=order.exponent_key)

    index = {exps: k for k, exps in enumerate(staircase)}
    columns: list[list[Vector]] = [[None] * len(staircase) for _ in range(order.nvars)]
    steps: Steps = [None] * len(staircase)
    border: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for k, exps in enumerate(staircase):
        for var in range(order.nvars):
            product = _shift(exps, var, 1)
            if product in index:
                i = index[product]
                columns[var][k] = {i: 1}, 1
                steps[i] = steps[i] or (var, k)
            else:
                border.setdefault(product, []).append((var, k))

    reduced: dict[tuple[int, ...], Vector] = {}
    for exps in sorted(border, key=order.exponent_key):
        g = leading.get(exps)
        if g is not None:
            try:
                form = _vector({index[m.exponents]: -c for m, c in g.terms[1:]})
            except KeyError:
                raise ValueError(f"basis is not reduced at {g!r}") from None
        else:
            var = next(v for v, e in enumerate(exps) if e and _shift(exps, v, -1) in reduced)
            form = _apply(columns[var], reduced[_shift(exps, var, -1)])
        reduced[exps] = form
        for var, k in border[exps]:
            columns[var][k] = form

    return QuotientBasis(tuple(map(Monomial, staircase)), order, basis, columns, steps)


def _ring(basis: GroebnerBasis, quotient: QuotientBasis) -> QuotientBasis:
    """`quotient`, if `standard_monomials` built it from a basis equal to
    `basis`, so that it carries that basis's ring; raises ValueError
    otherwise."""
    if quotient.source != basis:
        raise ValueError("quotient basis does not belong to this Groebner basis")
    return quotient


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


def _chain(matrices, steps: Steps, start: Vector) -> list[Vector]:
    """[M_{b_i} * start for every i], each M_{x_v} * (M_{b_p} * start) from its
    parent's vector; `matrices` maps each step variable to its columns."""
    vectors: list[Vector] = []
    for step in steps:
        vectors.append(_apply(matrices[step[0]], vectors[step[1]]) if step else start)
    return vectors


def _transposed(quotient: QuotientBasis) -> dict[int, list[Vector]]:
    """M_{x_v}^T for each variable x_v of the parent chain; under lex in
    shape position only the last variable.  Each column of M_{x_v}^T is over
    the lcm of the denominators it draws on, in lowest terms."""
    columns, steps = quotient.columns, quotient.steps
    transposed = {}
    for v in {step[0] for step in steps if step}:
        rows: list[list[tuple[int, int, int]]] = [[] for _ in columns[v]]
        for k, (nums, den) in enumerate(columns[v]):
            for r, x in nums.items():
                rows[r].append((k, x, den))
        transposed[v] = []
        for row in rows:
            den = lcm(*(d for _, _, d in row))
            nums = {k: x * (den // d) for k, x, d in row}
            g = gcd(den, *nums.values())
            transposed[v].append(({k: x // g for k, x in nums.items()}, den // g))
    return transposed


def _sum(vectors: list[Vector]) -> Vector:
    """The sum of the vectors: their matrix applied to the all-ones vector."""
    return _apply(vectors, (dict.fromkeys(range(len(vectors)), 1), 1))


def _traces(transposed: dict[int, list[Vector]], steps: Steps) -> Vector:
    """tau[k] = trace of multiplication by b_k = sum over j of the b_j
    coordinate of NF(b_j * b_k), so tau = sum_j M_{b_j}^T * e_j.  Grouped
    along the parent chain as in Horner's rule, that is S_0 with S_i = e_i
    + sum of M_{x_v}^T * S_c over the children b_c = x_v * b_i: one backward
    pass, one transposed product per element."""
    pending = [[({j: 1}, 1)] for j in range(len(steps))]
    for j in reversed(range(1, len(steps))):
        v, p = steps[j]
        pending[p].append(_apply(transposed[v], _sum(pending[j])))
    return _sum(pending[0]) if steps else ({}, 1)


def multiplication_matrix(
    g: Polynomial, basis: GroebnerBasis, quotient: QuotientBasis
) -> MultiplicationMatrix:
    """Matrix of multiplication by g on the quotient basis.

    Column 0 is NF(g), and column k, NF(g * b_k) = M_{x_v} * NF(g * b_p), is
    one border-matrix product from its parent's column.  Only NF(g) itself
    needs a polynomial division.
    """
    _ring(basis, quotient)
    element = normal_form(g, basis)
    index = {m: k for k, m in enumerate(quotient.monomials)}
    coords = _vector({index[m]: c for m, c in element.terms})
    chained = _chain(quotient.columns, quotient.steps, coords)
    products = [{r: Fraction(x, den) for r, x in nums.items()} for nums, den in chained]
    zero = Fraction(0)
    rows = tuple(tuple(column.get(r, zero) for column in products) for r in range(quotient.dimension))
    return MultiplicationMatrix(rows, element, quotient)


def trace_functional(basis: GroebnerBasis, quotient: QuotientBasis) -> dict[Monomial, Fraction]:
    """tau(b) = trace of multiplication by b, for every basis monomial b,
    summed up the parent chain on the transposed border matrices.

    Traces of arbitrary elements follow by linearity: an element with normal
    form sum(c_m * b_m) has multiplication trace sum(c_m * tau(b_m)).
    """
    tau, den = _traces(_transposed(_ring(basis, quotient)), quotient.steps)
    return {m: Fraction(tau.get(k, 0), den) for k, m in enumerate(quotient.monomials)}


def hermite_form(basis: GroebnerBasis, quotient: QuotientBasis) -> HermiteForm:
    """Gram matrix H[i][j] = trace of multiplication by b_i*b_j, by columns.

    H * e_i = M_{b_i}^T * tau, and the border matrices commute, so column i
    is M_{x_v}^T times its parent's column, starting from tau.  Each Fraction
    is built once, for r <= i, and mirrored.
    """
    transposed, steps = _transposed(_ring(basis, quotient)), quotient.steps
    dim = quotient.dimension
    zero = Fraction(0)
    entries = [[zero] * dim for _ in range(dim)]
    for i, (nums, den) in enumerate(_chain(transposed, steps, _traces(transposed, steps))):
        for r, x in nums.items():
            if r <= i:
                entries[r][i] = entries[i][r] = Fraction(x, den)
    return HermiteForm(tuple(tuple(row) for row in entries), quotient)


def hermite_report(basis: GroebnerBasis) -> HermiteReport:
    """Full pipeline tail: basis of the quotient, trace form, exact inertia.

    The rank of the form is the number of distinct complex solutions and its
    signature the number of distinct real solutions; an empty variety (unit
    ideal) yields the 0x0 form with both counts zero.
    """
    quotient = standard_monomials(basis)
    form = hermite_form(basis, quotient)
    result = linalg.inertia(form.entries)
    return HermiteReport(
        form=form,
        rank=result.rank,
        signature=result.signature,
        complex_count=result.rank,
        real_count=result.signature,
        quotient_dimension=quotient.dimension,
    )
