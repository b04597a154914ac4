"""The quotient ring on its standard-monomial basis, built once.

`standard_monomials` walks the staircase of a reduced basis and its border
in increasing order and builds the ring's one linear-algebra representation:
the border multiplication matrices M_{x_v}, column by column with sparse
matrix-vector products (FGLM-style border normal forms), and the parent
chain that writes each basis element after 1 as b_i = x_v * b_p for a
standard parent b_p.  The returned `QuotientBasis` carries them, and every
consumer reads them: one product per element along the chain gives
`multiplication_matrix`; on the transposed matrices it gives the trace
functional and the trace form, whose rank and signature count distinct
complex and real solutions.  Coordinates stay `linalg.Vector`s until the
returned `Fraction`s.

A lex solve reads its counts off the grevlex ring that Buchberger ran in,
and needs the lex staircase and H only to print them.  `shape_position`
certifies, by a Krylov rank modulo PRIME, that the lex staircase is 1, x_n,
..., x_n^(D-1) (Rouillier 1999), and `hankel_form` then gives the lex H as
the Hankel matrix of the traces Tr(x_n^k), from the grevlex trace functional.
Otherwise `fglm` changes the order on the same matrices: it walks the lex
staircase and finds the generators as linear relations among the normal
forms M_{x_v} * NF(m), so Buchberger never runs in lex.  A grlex solve
converts by `change_order`, which needs no ring when no generator changes
its leading monomial.

`traces_of` pairs tau with coordinate vectors, for the lex Hankel sums and
for the Newton sums Tr(M_l^j) of `separating`, which holds all of `solve
--check` and reads only a ring and its tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from operator import le
from typing import Iterable

from . import linalg
from .groebner import GroebnerBasis, NotZeroDimensionalError, is_zero_dimensional, normal_form
from .linalg import Scalar, Vector, apply, transpose, vector
from .poly import LEX, Monomial, MonomialOrder, Polynomial

# The parent chain: steps[i] = (v, p) for b_i = x_v * b_p, None for b_0 = 1.
Steps = list[tuple[int, int] | None]

# Refused past this: x1^2000, x2^2000, x1*x2 (dimension 3 999) took 2.7 s and 271 MiB on 2 x86-64 vCPUs.
MAX_DIMENSION = 4096

# A rank or a squarefree test modulo this prime proves the fact over Q when it
# passes, and nothing when it fails: `shape_position` and `separating` use it.
PRIME = 2**61 - 1


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
    coordinates of the reduced product element * basis[k], a zero one as
    the int 0."""

    entries: tuple[tuple[Scalar, ...], ...]
    element: Polynomial
    basis: QuotientBasis

    def trace(self) -> Fraction:
        return sum((row[i] for i, row in enumerate(self.entries)), Fraction(0))


@dataclass(frozen=True)
class HermiteForm:
    """Gram matrix of the trace form on the standard-monomial basis; its
    zero entries are the int 0, the others `Fraction`s.  One built by
    `hermite_form` also carries `traces`, the trace functional it was built
    from: tau[k] = Tr(b_k), as a `Vector`."""

    entries: tuple[tuple[Scalar, ...], ...]
    basis: QuotientBasis
    traces: Vector | None = field(default=None, compare=False, repr=False)

    def rows(self) -> list[list[Scalar]]:
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


def _shift(exps: tuple[int, ...], var: int, step: int) -> tuple[int, ...]:
    """Exponents of the monomial times x_var**step."""
    return exps[:var] + (exps[var] + step,) + exps[var + 1 :]


def standard_monomials(basis: GroebnerBasis) -> QuotientBasis:
    """All monomials under the staircase (divisible by no leading monomial),
    ascending by the order, carrying the ring they span; they form a linear
    basis of the quotient ring.

    One heap walk pops monomials in increasing order, from 1, and pushes
    x_v * b_k for each standard b_k it admits, recording the parents (v, k).
    A popped m is in the leading ideal iff it leads a generator or some
    smaller m / x_u is, so m is standard iff it leads none and every m / x_u
    is already admitted: dim * nvars lookups, never the pure-power box.  Past
    MAX_DIMENSION standard monomials, DimensionLimitError is raised at once,
    before any quotient work.

    An admitted b_i is a unit column for each parent (v, k); the first, the
    smallest k and then v, is its step.  The other popped monomials form the
    border, in ascending order, and their normal forms fill their parents'
    columns: a border monomial that leads a generator g has -tail(g) (the
    basis is reduced and monic), and any other is x_u * m' for a smaller
    border monomial m', so it has M_{x_u} * NF(m'), built only from columns
    already filled.  A tail term outside the staircase raises ValueError: the
    basis is not reduced.
    """
    if not is_zero_dimensional(basis):
        raise NotZeroDimensionalError("the ideal is not zero-dimensional")
    order, key = basis.order, basis.order.exponent_key
    leading = {g.leading_monomial().exponents: g for g in basis.generators}
    one = (0,) * order.nvars
    heap, parents = [(key(one), one)], {one: []}
    index: dict[tuple[int, ...], int] = {}
    columns: list[list[Vector]] = [[] for _ in range(order.nvars)]
    steps: Steps = []
    border: list[tuple[tuple[int, ...], list[tuple[int, int]]]] = []
    while heap:
        exps = heappop(heap)[1]
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
                heappush(heap, (key(product), product))
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


def _eliminate(x: dict[int, int], a: int, y: dict[int, int], b: int) -> dict[int, int]:
    """a * x - b * y without its zero entries, divided by its content."""
    out = {k: a * c for k, c in x.items()}
    for k, c in y.items():
        out[k] = out.get(k, 0) - b * c
    g = gcd(*out.values())
    return {k: c // g for k, c in out.items() if c}


def fglm(basis: GroebnerBasis, quotient: QuotientBasis, order: MonomialOrder) -> GroebnerBasis:
    """The reduced Groebner basis of the same ideal under `order`, by change
    of order on the ring that `quotient` carries (Faugere, Gianni, Lazard and
    Mora 1993), without S-pairs or polynomial division.

    One heap walk pops monomials in increasing target order, from 1,
    skipping the multiples of the target leading monomials found so far.  A
    popped m = x_v * s_k, s_k the k-th target standard monomial, has NF(m) =
    M_{x_v} * NF(s_k), one product on `columns`.  With m as s_j, j the
    staircase's length, its numerators and denominator form an integer row w
    with sum of w[i] * e_i = sum of w[~k] * NF(s_k): w[i] on the coordinates,
    w[~k] on the slots.  w is reduced against the echelon, one fraction-free
    step per pivot coordinate, its content removed each time.  With no
    coordinate left, m + sum of w[~k] / w[~j] * s_k over k < j is the next
    monic generator; otherwise w joins the echelon and the products x_u * m
    are pushed.  At most dim * nvars + 1 monomials are popped, each reduced
    in O(dim^2).

    The generators are found ascending, and the input polynomials come along
    re-sorted under `order`: the result is `==` to `buchberger(basis.original,
    order)`.
    """
    columns = _ring(basis, quotient).columns
    if order.nvars != basis.order.nvars:
        raise ValueError(f"order has {order.nvars} variables, the basis has {basis.order.nvars}")
    key, one = order.exponent_key, (0,) * order.nvars
    heap, seen = [(key(one), one, None)], {one}
    stair: list[tuple[int, ...]] = []
    forms: list[Vector] = []
    rows: list[tuple[int, dict[int, int]]] = []
    leads: list[tuple[int, ...]] = []
    generators: list[Polynomial] = []
    while heap:
        _, exps, parent = heappop(heap)
        if any(all(map(le, lead, exps)) for lead in leads):
            continue
        if parent is None:
            form = ({0: 1}, 1) if quotient.dimension else ({}, 1)
        else:
            form = apply(columns[parent[0]], forms[parent[1]])
        j = len(stair)
        w = {**form[0], ~j: form[1]}
        for pivot, row in rows:
            b = w.get(pivot)
            if b:
                g = gcd(row[pivot], b)
                w = _eliminate(w, row[pivot] // g, row, b // g)
        pivot = max(w)
        if pivot < 0:
            scale = w.pop(~j)
            tail = [(stair[~k], Fraction(c, scale)) for k, c in sorted(w.items())]
            generators.append(Polynomial._from_sorted(order, [(exps, Fraction(1)), *tail]))
            leads.append(exps)
            continue
        rows.append((pivot, w))
        stair.append(exps)
        forms.append(form)
        for var in range(order.nvars):
            product = _shift(exps, var, 1)
            if product not in seen:
                seen.add(product)
                heappush(heap, (key(product), product, (var, j)))
    original = tuple(p if p.order == order else p.with_order(order) for p in basis.original)
    return GroebnerBasis(tuple(generators), order, original)


def change_order(basis: GroebnerBasis, order: MonomialOrder) -> GroebnerBasis:
    """`fglm(basis, standard_monomials(basis), order)`, without building a
    ring when no generator changes its leading monomial under `order`.  In
    a zero-dimensional ideal, those leading monomials then span a staircase
    of the ideal's dimension under either order, so they generate its
    leading ideal under `order` too: the generators, re-sorted, are the
    reduced basis there.  Raises NotZeroDimensionalError as
    `standard_monomials` does."""
    generators = [g.with_order(order) for g in basis.generators]
    if not is_zero_dimensional(basis) or any(g.terms[0][0] != h.terms[0][0] for g, h in zip(generators, basis)):
        return fglm(basis, standard_monomials(basis), order)
    generators.sort(key=lambda g: order.exponent_key(g.terms[0][0].exponents))
    original = tuple(p if p.order == order else p.with_order(order) for p in basis.original)
    return GroebnerBasis(tuple(generators), order, original)


def _ring(basis: GroebnerBasis, quotient: QuotientBasis) -> QuotientBasis:
    """`quotient`, if `standard_monomials` built it from a basis equal to
    `basis`, so that it carries that basis's ring; raises ValueError
    otherwise."""
    if quotient.source != basis:
        raise ValueError("quotient basis does not belong to this Groebner basis")
    return quotient


def _chain(matrices, steps: Steps, start: Vector) -> list[Vector]:
    """[M_{b_i} * start for every i], each M_{x_v} * (M_{b_p} * start) from its
    parent's vector; `matrices` maps each step variable to its columns."""
    vectors: list[Vector] = []
    for step in steps:
        vectors.append(apply(matrices[step[0]], vectors[step[1]]) if step else start)
    return vectors


def _transposed(quotient: QuotientBasis) -> dict[int, list[Vector]]:
    """M_{x_v}^T for each variable x_v that steps along the parent chain."""
    return {v: transpose(quotient.columns[v]) for v in {s[0] for s in quotient.steps if s}}


def _sum(vectors: list[Vector]) -> Vector:
    """The sum of the vectors: their matrix applied to the all-ones vector."""
    return apply(vectors, (dict.fromkeys(range(len(vectors)), 1), 1))


def _traces(transposed: dict[int, list[Vector]], steps: Steps) -> Vector:
    """tau[k] = trace of multiplication by b_k = sum over j of the b_j
    coordinate of NF(b_j * b_k), so tau = sum_j M_{b_j}^T * e_j.  Grouped
    along the parent chain as in Horner's rule, that is S_0 with S_i = e_i
    + sum of M_{x_v}^T * S_c over the children b_c = x_v * b_i: one backward
    pass, one transposed product per element."""
    pending = [[({j: 1}, 1)] for j in range(len(steps))]
    for j in reversed(range(1, len(steps))):
        v, p = steps[j]
        pending[p].append(apply(transposed[v], _sum(pending[j])))
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
    coords = vector({index[m]: c for m, c in element.terms})
    chained = _chain(quotient.columns, quotient.steps, coords)
    products = [{r: Fraction(x, den) for r, x in nums.items()} for nums, den in chained]
    rows = tuple(tuple(column.get(r, 0) for column in products) for r in range(quotient.dimension))
    return MultiplicationMatrix(rows, element, quotient)


def traces_of(tau: Vector, vectors: Iterable[Vector]) -> list[Scalar]:
    """Tr(f) = tau . NF(f) for each f given by its coordinates, with tau the
    trace functional as a `Vector`; exact, a zero as the int 0."""
    tau_nums, tau_den = tau
    pairs = ((sum(tau_nums.get(k, 0) * y for k, y in nums.items()), den) for nums, den in vectors)
    return [Fraction(x, den * tau_den) if x else 0 for x, den in pairs]


def hermite_form(basis: GroebnerBasis, quotient: QuotientBasis) -> HermiteForm:
    """Gram matrix H[i][j] = trace of multiplication by b_i*b_j, by columns.

    H * e_i = M_{b_i}^T * tau, and the border matrices commute, so column i
    is M_{x_v}^T times its parent's column, starting from tau.  Each Fraction
    is built once, for r <= i, and mirrored.
    """
    transposed, steps = _transposed(_ring(basis, quotient)), quotient.steps
    dim = quotient.dimension
    entries: list[list[Scalar]] = [[0] * dim for _ in range(dim)]
    tau = _traces(transposed, steps)
    for i, (nums, den) in enumerate(_chain(transposed, steps, tau)):
        for r, x in nums.items():
            if r <= i:
                entries[r][i] = entries[i][r] = Fraction(x, den)
    return HermiteForm(tuple(tuple(row) for row in entries), quotient, tau)


def shape_position(quotient: QuotientBasis) -> tuple[QuotientBasis, list[Vector]] | None:
    """The lex staircase 1, x_n, ..., x_n^(D-1) of the ring that `quotient`
    carries, with the Krylov vectors v_j = M_{x_n}^j * e_1, the coordinates
    of x_n^j, for j < D; or None, which proves nothing.

    If the integer numerators of the v_j have rank D modulo PRIME, the v_j
    are independent over Q, so no nonzero polynomial in x_n of degree < D
    lies in the ideal.  Under lex those powers are the D smallest monomials,
    so none of them leads an element of the ideal: they are the whole lex
    staircase, and the ideal is in shape position.  Each v_j is one product
    on the columns of M_{x_n}, and its numerators are reduced mod PRIME
    against the echelon of the earlier ones at once: the walk stops at the
    first that reduces to zero.
    """
    n, dim = quotient.order.nvars, quotient.dimension
    krylov: list[Vector] = []
    rows: list[tuple[int, dict[int, int]]] = []
    for _ in range(dim):
        v = apply(quotient.columns[-1], krylov[-1]) if krylov else ({0: 1}, 1)
        w = {k: x % PRIME for k, x in v[0].items()}
        for pivot, row in rows:
            c = w.get(pivot)
            if c:
                for k, x in row.items():
                    w[k] = (w.get(k, 0) - c * x) % PRIME
        pivot = next((k for k, x in w.items() if x), None)
        if pivot is None:
            return None
        unit = pow(w[pivot], -1, PRIME)
        rows.append((pivot, {k: x * unit % PRIME for k, x in w.items() if x}))
        krylov.append(v)
    powers = (Monomial._trusted(tuple(j if u == n - 1 else 0 for u in range(n))) for j in range(dim))
    return QuotientBasis(tuple(powers), MonomialOrder(LEX, n)), krylov


def hankel_form(form: HermiteForm, staircase: QuotientBasis, krylov: list[Vector]) -> HermiteForm:
    """The trace form on the lex staircase that `shape_position` certified on
    the ring of `form`, from its Krylov vectors: H[i][j] = Tr(x_n^(i+j)) =
    s_(i+j), a Hankel matrix.  s_k = tau . v_k, with tau the trace
    functional that `form` carries and the v_k continued to k = 2D - 2.  It
    is `==` to `hermite_form` on the lex basis and its ring."""
    vectors, columns = list(krylov), form.basis.columns
    while len(vectors) < 2 * len(krylov) - 1:
        vectors.append(apply(columns[-1], vectors[-1]))
    sums, dim = traces_of(form.traces, vectors), staircase.dimension
    return HermiteForm(tuple(tuple(sums[i : i + dim]) for i in range(dim)), staircase)


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
