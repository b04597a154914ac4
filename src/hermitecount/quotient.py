"""The quotient ring on its standard-monomial basis, built once.

`standard_monomials` walks the staircase of a reduced basis and its border
in increasing order and builds the ring's one linear-algebra representation:
the border multiplication matrices M_{x_v}, column by column with sparse
matrix-vector products (FGLM-style border normal forms), and the parent
chain that writes each basis element after 1 as b_i = x_v * b_p for a
standard parent b_p.  The returned `QuotientBasis` carries them, with the
basis they came from as its `source`, and every consumer reads them.  The
ring owns the trace functional: `QuotientBasis.traces`, one transposed
product per element along the chain, built on first use and kept, is the
one tau that the trace form, the lex counts and `--check` read.  The rank
and signature of the trace form count distinct complex and real solutions.
Coordinates stay `linalg.Vector`s throughout: `hermite_form` returns H as the
`linalg.Symmetric` of its columns, which the congruence sweep of
`linalg.inertia` and the printed matrix read, and its `Fraction` rows are
built only for a reader of `HermiteForm.entries`.  Only the traces that
`traces_of` pairs with tau are `Fraction`s.

A lex solve reads its counts off the grevlex ring that Buchberger ran in,
which owns its Krylov sequence of x_n too: `QuotientBasis.krylov` certifies,
by a rank modulo PRIME, that the lex staircase is 1, x_n, ..., x_n^(D-1)
(Rouillier 1999), and `power_sums` holds s_j = Tr(x_n^j), j <= D.  Then, for
D up to MAX_CHARPOLY_DIMENSION, `charpoly_report` reads the counts off chi,
the characteristic polynomial of x_n, from its Newton sums s_1..s_D: the
distinct roots of chi and its real roots, on its squarefree part, and neither
H nor its inertia is needed.  Past the cap, the counts are the inertia of the
grevlex H (`inertia_report`).  `hankel_form` gives the lex H, to print it, as
the Hankel matrix of the s_k, k <= 2D - 2.  Out of shape position, `fglm(ring,
order)` changes the order of the ring's basis on the same matrices: it walks
the lex staircase and finds the generators as linear relations among the
normal forms M_{x_v} * NF(m), so Buchberger never runs in lex.  A grlex
solve converts by `change_order`, which needs no ring when no generator
changes its leading monomial.

`traces_of` pairs tau with coordinate vectors, for the power sums of x_n and
the lex Hankel sums, and for the Newton sums Tr(M_l^j) of `separating`,
which holds all of `solve --check` and reads only a ring.  Univariate
polynomials are integer coefficient lists, ascending, with a nonzero leading
coefficient: one Euclid gives the squarefree test modulo PRIME and the exact
squarefree part over Z, `squarefree_part` chooses between them for chi here
and in the oracle, and a Descartes bisection counts the real roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import le, mul
from typing import Iterable, Sequence

from . import linalg
from .groebner import GroebnerBasis, NotZeroDimensionalError, Primitive, is_zero_dimensional
from .linalg import Scalar, Symmetric, Vector, apply, lowest, transpose
from .poly import LEX, Monomial, MonomialOrder, Polynomial

# The parent chain: steps[i] = (v, p) for b_i = x_v * b_p, None for b_0 = 1.
Steps = list[tuple[int, int] | None]

# Refused past this: x1^2000, x2^2000, x1*x2 (dimension 3 999) took 2.7 s and 271 MiB on 2 x86-64 vCPUs.
MAX_DIMENSION = 4096

# Lex solves in shape position take their counts from chi of x_n up to this
# dimension, and from H past it: `real_root_count` takes about four Taylor
# shifts of degree D per real root, so D^3 times the bits of chi when all are
# real.  On {x_i^2 - i, x_(n+1) - sum of 2^(i-1) * x_i}, all D = 2^n roots
# real, they took 0.42 s at D = 128 and 6-7.5 s at D = 256, against 0.12-0.16
# and 1.2-1.5 s for H and its inertia (2 x86-64 vCPUs).
MAX_CHARPOLY_DIMENSION = 64

# A rank or a squarefree test modulo this prime proves the fact over Q when it
# passes, and nothing when it fails: `QuotientBasis.krylov` and `squarefree_mod_p` use it.
PRIME = 2**61 - 1


class DimensionLimitError(ValueError):
    """The staircase has more than MAX_DIMENSION standard monomials."""


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials spanning the quotient ring, ascending by the order.

    One built by `standard_monomials` also carries the ring: `source`, the
    Groebner basis it was built from; `columns`, where columns[v][k] holds
    the coordinates of NF(x_v * b_k), the matrix of multiplication by each
    variable; and `steps`, the parent chain.  `transposed`, `traces`,
    `krylov` and `power_sums` are built from them on first use and kept.
    Equality, hash and repr see only the monomials and the order, and no
    field is ever mutated.
    """

    monomials: tuple[Monomial, ...]
    order: MonomialOrder
    source: GroebnerBasis | None = field(default=None, compare=False, repr=False)
    columns: list[list[Vector]] | None = field(default=None, compare=False, repr=False)
    steps: Steps | None = field(default=None, compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.monomials)

    @cached_property
    def transposed(self) -> dict[int, list[Vector]]:
        """M_{x_v}^T for each variable x_v that steps along the parent chain."""
        return {v: transpose(self.columns[v]) for v in {s[0] for s in self.steps if s}}

    @cached_property
    def traces(self) -> Vector:
        """The trace functional, tau[k] = Tr(b_k), as a `Vector`: one `_traces`
        pass on `transposed`, the one tau that every reader takes."""
        return _traces(self.transposed, self.steps)

    @cached_property
    def krylov(self) -> list[Vector] | None:
        """The Krylov vectors v_j = M_{x_n}^j * e_1, the coordinates of x_n^j,
        for j <= D (v_0 alone with no variable), when v_0, ..., v_(D-1) have
        rank D modulo PRIME; otherwise None, which proves nothing.

        That rank makes them independent over Q, so no nonzero polynomial in
        x_n of degree < D lies in the ideal.  Under lex those powers are the D
        smallest monomials, so none of them leads an element of the ideal:
        they are the whole lex staircase, and the ideal is in shape position
        (Rouillier 1999).  Each v_j is one product on the columns of M_{x_n},
        its numerators reduced mod PRIME against the echelon of the earlier
        ones at once, and the walk stops at the first that reduces to zero."""
        vectors, rows = [({0: 1} if self.dimension else {}, 1)], []
        for j in range(self.dimension):
            w = {k: x % PRIME for k, x in vectors[j][0].items()}
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
            if self.columns:
                vectors.append(apply(self.columns[-1], vectors[j]))
        return vectors

    @cached_property
    def power_sums(self) -> list[Scalar] | None:
        """s_j = Tr(x_n^j) = tau . v_j on the `krylov` vectors, j <= D, each
        paired with `traces` once; None where `krylov` is."""
        return None if self.krylov is None else traces_of(self.traces, self.krylov)


@dataclass(frozen=True)
class HermiteForm:
    """Gram matrix of the trace form on the standard-monomial basis; its
    zero entries are the int 0, the others `Fraction`s.  `hermite_form`
    gives them as a `linalg.Symmetric`, `==` to the tuple of rows that
    `hankel_form` gives and that a caller may put in their place.  The
    entries are None in the report of `charpoly_report`, whose counts need
    no matrix."""

    entries: Symmetric | tuple[tuple[Scalar, ...], ...] | None
    basis: QuotientBasis

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
    is already admitted.  The heap is ascending, so each admitted m / x_u has
    recorded its pair (u, k) before m is popped, one pair per variable: m is
    standard iff it leads none and its parents number its nonzero exponents.
    That is one count per popped monomial, never a probe per variable nor
    the pure-power box.  Past MAX_DIMENSION standard monomials,
    DimensionLimitError is raised at once, before any quotient work.

    The heap holds one int per monomial, its key under the order's
    `weight`s with W = 2 plus the largest leading exponent: every standard
    exponent is below the pure power that bounds its variable, and a product
    exceeds it by one at most, so the int order is the monomial order on every pushed monomial.
    A product's key is its parent's plus w_v, and a popped monomial's
    exponents are built once, from its first parent's.

    An admitted b_i is a unit column for each parent (v, k); the first, the
    smallest k and then v, is its step.  The other popped monomials form the
    border, in ascending order, and their normal forms fill their parents'
    columns: a border monomial that leads a generator g has -tail(g) (the
    basis is reduced and monic), read off `basis.primitive` as -tail/lc, a
    `Vector` in lowest terms with no `Fraction` built; any other is x_u * m'
    with m' a smaller border monomial for each nonzero exponent u without a
    parent, so it has M_{x_u} * NF(m') for the first such u, built only from
    columns already filled.  A tail term outside the staircase raises
    ValueError: the basis is not reduced.  Only the integer form is read, so
    the monic `Fraction` generators of an engine basis are not built.
    """
    if not is_zero_dimensional(basis):
        raise NotZeroDimensionalError("the ideal is not zero-dimensional")
    order, primitive = basis.order, basis.primitive
    bound = 2 + max(chain.from_iterable(lead for lead, _, _ in primitive), default=0)
    weights = [order.weight(v, bound) for v in range(order.nvars)]
    leading = {sum(map(mul, g[0], weights)): k for k, g in enumerate(primitive)}
    one = (0,) * order.nvars
    heap, parents = [0], {0: []}
    stair: list[tuple[int, ...]] = []
    columns: list[list[Vector]] = [[] for _ in range(order.nvars)]
    steps: Steps = []
    border: list[tuple[int, tuple[int, ...], list[tuple[int, int]]]] = []
    while heap:
        key = heappop(heap)
        pairs = parents.pop(key)
        exps = _shift(stair[pairs[0][1]], pairs[0][0], 1) if pairs else one
        if key in leading or len(pairs) != len(exps) - exps.count(0):
            border.append((key, exps, pairs))
            continue
        if len(stair) == MAX_DIMENSION:
            raise DimensionLimitError(f"the quotient has over {MAX_DIMENSION} standard monomials")
        k = len(stair)
        stair.append(exps)
        unit = {k: 1}, 1
        for var, p in pairs:
            columns[var][p] = unit
        steps.append(pairs[0] if pairs else None)
        for var, column in enumerate(columns):
            column.append(None)
            product = key + weights[var]
            pending = parents.get(product)
            if pending is None:
                parents[product] = [(var, k)]
                heappush(heap, product)
            else:
                pending.append((var, k))

    index = {exps: k for k, exps in enumerate(stair)}
    reduced: dict[int, Vector] = {}
    for key, exps, pairs in border:
        g = leading.get(key)
        if g is not None:
            _, lc, tail = primitive[g]
            try:
                form = {index[e]: -c for e, c in tail}, lc
            except KeyError:
                raise ValueError(f"basis is not reduced at {basis.generators[g]!r}") from None
        else:
            found = [v for v, _ in pairs]
            var = next(v for v, e in enumerate(exps) if e and v not in found)
            form = apply(columns[var], reduced[key - weights[var]])
        reduced[key] = form
        for var, k in pairs:
            columns[var][k] = form

    return QuotientBasis(tuple(map(Monomial._trusted, stair)), order, basis, columns, steps)


def _eliminate(x: dict[int, int], a: int, y: dict[int, int], b: int) -> dict[int, int]:
    """a * x - b * y without its zero entries, divided by its content."""
    out = {k: a * c for k, c in x.items()}
    for k, c in y.items():
        out[k] = out.get(k, 0) - b * c
    g = gcd(*out.values())
    return {k: c // g for k, c in out.items() if c}


def _source(ring: QuotientBasis) -> GroebnerBasis:
    """The Groebner basis that `standard_monomials` built `ring` from; raises
    ValueError for a hand-built `QuotientBasis`, which carries no ring."""
    if ring.source is None:
        raise ValueError("quotient basis does not belong to a Groebner basis")
    return ring.source


def fglm(ring: QuotientBasis, order: MonomialOrder) -> GroebnerBasis:
    """The reduced Groebner basis of the ideal of `ring.source` under
    `order`, by change of order on the border matrices that `ring` carries
    (Faugere, Gianni, Lazard and Mora 1993), without S-pairs or polynomial
    division.  Raises ValueError for a hand-built `QuotientBasis`.

    One heap walk pops monomials in increasing target order, from 1,
    skipping the multiples of the target leading monomials found so far.  A
    popped m = x_v * s_k, s_k the k-th target standard monomial, has NF(m) =
    M_{x_v} * NF(s_k), one product on `columns`.  With m as s_j, j the
    staircase's length, its numerators and denominator form an integer row w
    with sum of w[i] * e_i = sum of w[~k] * NF(s_k): w[i] on the coordinates,
    w[~k] on the slots.  w is reduced against the echelon, one fraction-free
    step per pivot coordinate, its content removed each time.  With no
    coordinate left, w[~j] * m + sum of w[~k] * s_k over k < j is the next
    generator, primitive as w is, its sign made that of a positive leading
    coefficient; otherwise w joins the echelon and the products x_u * m are
    pushed.  At most dim * nvars + 1 monomials are popped, each reduced
    in O(dim^2).  The heap is keyed by the order's `weight`s with W = dim +
    2: a target standard monomial has dim standard divisors, so each of its
    exponents is below dim, and a pushed product's is at most dim.

    The generators are found ascending, and the input polynomials come along
    re-sorted under `order`: the result is `==` to
    `buchberger(ring.source.original, order)`, and like it keeps the
    primitive integer generators, its monic view built only when read.
    """
    basis, columns = _source(ring), ring.columns
    if order.nvars != basis.order.nvars:
        raise ValueError(f"order has {order.nvars} variables, the basis has {basis.order.nvars}")
    weights = [order.weight(v, ring.dimension + 2) for v in range(order.nvars)]
    heap, seen = [(0, (0,) * order.nvars, None)], {0}
    stair: list[tuple[int, ...]] = []
    forms: list[Vector] = []
    rows: list[tuple[int, dict[int, int]]] = []
    leads: list[tuple[int, ...]] = []
    primitive: list[Primitive] = []
    while heap:
        key, exps, parent = heappop(heap)
        if any(all(map(le, lead, exps)) for lead in leads):
            continue
        if parent is None:
            form = ({0: 1}, 1) if ring.dimension else ({}, 1)
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
            sign = 1 if scale > 0 else -1
            primitive.append((exps, sign * scale, [(stair[~k], sign * c) for k, c in sorted(w.items())]))
            leads.append(exps)
            continue
        rows.append((pivot, w))
        stair.append(exps)
        forms.append(form)
        for var, weight in enumerate(weights):
            product = key + weight
            if product not in seen:
                seen.add(product)
                heappush(heap, (product, _shift(exps, var, 1), (var, j)))
    return GroebnerBasis._of_primitive(tuple(primitive), order, _reordered(basis.original, order))


def _reordered(polys: tuple[Polynomial, ...], order: MonomialOrder) -> tuple[Polynomial, ...]:
    """The input polynomials of a converted basis, re-sorted under `order`."""
    return tuple(p if p.order == order else p.with_order(order) for p in polys)


def change_order(basis: GroebnerBasis, order: MonomialOrder) -> GroebnerBasis:
    """`fglm(standard_monomials(basis), order)`, without building a
    ring when no generator changes its leading monomial under `order`.  In
    a zero-dimensional ideal, those leading monomials then span a staircase
    of the ideal's dimension under either order, so they generate its
    leading ideal under `order` too: the generators, re-sorted, are the
    reduced basis there.  Only `basis.primitive` is read, and its tails are
    re-sorted as they are: no monic view is built.  Raises
    NotZeroDimensionalError as `standard_monomials` does."""
    key = order.descending_key
    resorted = [(lead, lc, sorted(tail, key=lambda t: key(t[0]))) for lead, lc, tail in basis.primitive]
    if not is_zero_dimensional(basis) or any(tail and key(tail[0][0]) < key(lead) for lead, _, tail in resorted):
        return fglm(standard_monomials(basis), order)
    resorted.sort(key=lambda g: key(g[0]), reverse=True)
    return GroebnerBasis._of_primitive(tuple(resorted), order, _reordered(basis.original, order))


def _chain(matrices, steps: Steps, start: Vector) -> list[Vector]:
    """[M_{b_i} * start for every i], each M_{x_v} * (M_{b_p} * start) from its
    parent's vector; `matrices` maps each step variable to its columns."""
    vectors: list[Vector] = []
    for step in steps:
        vectors.append(apply(matrices[step[0]], vectors[step[1]]) if step else start)
    return vectors


def _sum(vectors: list[Vector]) -> Vector:
    """The sum of the vectors: their matrix applied to the all-ones vector."""
    return apply(vectors, (dict.fromkeys(range(len(vectors)), 1), 1))


def _traces(transposed: dict[int, list[Vector]], steps: Steps) -> Vector:
    """tau[k] = trace of multiplication by b_k = sum over j of the b_j
    coordinate of NF(b_j * b_k), so tau = sum_j M_{b_j}^T * e_j.  Grouped
    along the parent chain as in Horner's rule, that is S_0 with S_i = e_i
    + sum of M_{x_v}^T * S_c over the children b_c = x_v * b_i: one backward
    pass, one transposed product per element.  An element with no child has
    S_i = e_i, and one with one child that child's vector plus its
    denominator at i, still in lowest terms unless that entry cancels; only
    the sum over several children is combined anew."""
    children: list[list[Vector]] = [[] for _ in steps]
    for j in reversed(range(len(steps))):
        below = children[j]
        if not below:
            total = {j: 1}, 1
        elif len(below) == 1:
            nums, den = below[0]
            nums = dict(nums)
            nums[j] = nums.get(j, 0) + den
            total = (nums, den) if nums[j] else lowest(nums, den)
        else:
            total = _sum([({j: 1}, 1), *below])
        if not j:
            return total
        v, p = steps[j]
        children[p].append(apply(transposed[v], total))
    return {}, 1


def traces_of(tau: Vector, vectors: Iterable[Vector]) -> list[Scalar]:
    """Tr(f) = tau . NF(f) for each f given by its coordinates, with tau the
    trace functional as a `Vector`; exact, a zero as the int 0."""
    tau_nums, tau_den = tau
    pairs = ((sum(tau_nums.get(k, 0) * y for k, y in nums.items()), den) for nums, den in vectors)
    return [Fraction(x, den * tau_den) if x else 0 for x, den in pairs]


def hermite_form(basis: GroebnerBasis, quotient: QuotientBasis) -> HermiteForm:
    """Gram matrix H[i][j] = trace of multiplication by b_i*b_j, by columns.

    H * e_i = M_{b_i}^T * tau, and the border matrices commute, so column i
    is M_{x_v}^T times its parent's column, starting from tau, the ring's
    `traces`.  H is symmetric by construction, and the entries are the
    `linalg.Symmetric` of the columns from the diagonal down, each in lowest
    terms: one gcd for a column that loses entries above its diagonal, none
    for the others, and no `Fraction`.  Raises ValueError unless
    `standard_monomials` built `quotient` from a basis equal to `basis`.
    """
    if quotient.source is not basis and quotient.source != basis:
        raise ValueError("quotient basis does not belong to this Groebner basis")
    columns: list[Vector] = []
    for i, (nums, den) in enumerate(_chain(quotient.transposed, quotient.steps, quotient.traces)):
        lower = {r: x for r, x in nums.items() if r >= i}
        columns.append((nums, den) if len(lower) == len(nums) else lowest(lower, den))
    return HermiteForm(Symmetric(columns), quotient)


def shape_position(ring: QuotientBasis) -> QuotientBasis | None:
    """The lex staircase 1, x_n, ..., x_n^(D-1) of `ring` when its `krylov`
    certifies shape position; None, which proves nothing, otherwise."""
    if ring.krylov is None:
        return None
    n = ring.order.nvars
    powers = (Monomial._trusted(tuple(j if u == n - 1 else 0 for u in range(n))) for j in range(ring.dimension))
    return QuotientBasis(tuple(powers), MonomialOrder(LEX, n))


def hankel_form(ring: QuotientBasis, staircase: QuotientBasis) -> HermiteForm:
    """The trace form on the lex staircase that `shape_position` certified on
    `ring`: H[i][j] = Tr(x_n^(i+j)) = s_(i+j), a Hankel matrix.  s_k for k <=
    D are the ring's `power_sums`; the Krylov vectors are continued from v_D
    to k = 2D - 2, and tau is paired with those alone.  It is `==` to
    `hermite_form` on the lex basis and its ring."""
    vectors, dim = ring.krylov[-1:], staircase.dimension
    while len(vectors) < dim - 1:
        vectors.append(apply(ring.columns[-1], vectors[-1]))
    sums = ring.power_sums + traces_of(ring.traces, vectors[1:])
    return HermiteForm(tuple(tuple(sums[i : i + dim]) for i in range(dim)), staircase)


def charpoly_report(ring: QuotientBasis) -> HermiteReport:
    """The counts of a ring that `shape_position` certified in shape
    position, read off chi, the characteristic polynomial of M_{x_n}, from
    its Newton sums Tr(x_n^j), j = 1..D, the ring's `power_sums`, with the
    lcm of the denominators of M_{x_n} as the scale.  The report's form
    carries the ring and no entries.  A solve calls it for D up to
    MAX_CHARPOLY_DIMENSION only.

    The roots of chi are the values of x_n at the solutions, and in shape
    position x_n separates them, each other coordinate being a polynomial in
    x_n on them: the distinct roots of chi count the solutions, and the real
    roots the real ones (Hermite's univariate theorem; Rouillier 1999), both
    read off its `squarefree_part`.  A ring with no variable has D = 1
    point, real, or none.
    """
    dim, columns = ring.dimension, ring.columns
    if not columns:
        return HermiteReport(HermiteForm(None, ring), dim, dim, dim, dim, dim)
    part = squarefree_part(newton_charpoly(ring.power_sums[1:], lcm(*(den for _, den in columns[-1]))))
    distinct, real = len(part) - 1, real_root_count(part)
    return HermiteReport(HermiteForm(None, ring), distinct, real, distinct, real, dim)


def inertia_report(form: HermiteForm) -> HermiteReport:
    """The counts of the ring of `form` from the exact inertia of its
    entries: the rank of the trace form is the number of distinct complex
    solutions and its signature the number of distinct real solutions; an
    empty variety (unit ideal) yields the 0x0 form with both counts zero."""
    result = linalg.inertia(form.entries)
    return HermiteReport(
        form=form,
        rank=result.rank,
        signature=result.signature,
        complex_count=result.rank,
        real_count=result.signature,
        quotient_dimension=form.basis.dimension,
    )


def hermite_report(basis: GroebnerBasis) -> HermiteReport:
    """Full pipeline tail: basis of the quotient, trace form, exact inertia."""
    return inertia_report(hermite_form(basis, standard_monomials(basis)))


def newton_charpoly(traces: Sequence[Scalar], scale: int) -> list[int]:
    """The characteristic polynomial of a D x D matrix M, as primitive
    integer coefficients, ascending, from traces[j - 1] = Tr(M^j) for j = 1..D
    and a scale c with c * M an integer matrix.

    The Newton sums of A = c * M are P_j = c^j * Tr(M^j), and Newton's
    identities m * e_m = sum over i of (-1)^(i-1) * e_(m-i) * P_i give the
    elementary symmetric functions of A's eigenvalues.  All of them are
    integers, and every division is exact.  A Newton sum or identity that is
    not integral raises ValueError: the traces are not those of such an M.
    det(tI - M) = sum over m of (-1)^m * (e_m / c^m) * t^(D-m).
    """
    sums = []
    for j, trace in enumerate(traces, 1):
        total, remainder = divmod(trace.numerator * scale**j, trace.denominator)
        if remainder:
            raise ValueError(f"Newton sum {j} of a linear form is not an integer")
        sums.append(total)
    elementary = [1]
    for m in range(1, len(sums) + 1):
        total = sum((-1 if i % 2 == 0 else 1) * elementary[m - i] * sums[i - 1] for i in range(1, m + 1))
        value, remainder = divmod(total, m)
        if remainder:
            raise ValueError(f"Newton identity {m} of a linear form is not integral")
        elementary.append(value)
    coefficients = [(-1) ** m * e * scale ** (len(sums) - m) for m, e in enumerate(elementary)][::-1]
    content = gcd(*coefficients)
    return [c // content for c in coefficients]


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


def squarefree_part(coefficients: Sequence[int]) -> Sequence[int]:
    """The squarefree part of a primitive f with a positive leading coefficient:
    f when `squarefree_mod_p` passes, else `integer_squarefree_part`."""
    return coefficients if squarefree_mod_p(coefficients) else integer_squarefree_part(coefficients)


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
