"""All of `solve --check`: the basis audit, the trace-functional checks, and
the separating-form oracle, which re-derives the rank and signature of the
trace form without reading it.  Only `--check` loads this module, through
`mismatch`, which runs them in that order on the ring of the report (its
`source` is the basis), whose `traces` is the tau that the solve read.
When a lex solve read its counts off chi of x_n (`quotient.charpoly_report`),
the inertia of the trace form on that ring joins them, before the
separating form: the two share `real_root_count`.

`audit_basis` certifies the Groebner basis on the border matrices that the
quotient carries: they commute (the border-basis criterion), and f(M) * e_1
is 0 for every original generator f, without division by the basis.

For k = 1, 2, ... the linear form l_k = x1 + k*x2 + k^2*x3 + ... has a
characteristic polynomial chi on the quotient ring whose roots are the values
of l_k at the solutions (Rouillier 1999, "Solving zero-dimensional systems
through the rational univariate representation").  Its Newton sums
Tr(M_l^j) = tau . M_l^j * e_1 take one sparse product each on the border
matrices, paired with tau by `quotient.traces_of` as the lex Hankel sums
are, and the oracle never reads the Hermite matrix.  Once l_k separates
the solutions, chi's distinct roots count the complex ones and its real roots
the real ones (Hermite's univariate theorem; Basu, Pollack and Roy, ch. 4).

Univariate polynomials are integer coefficient lists, ascending, with a nonzero
leading coefficient.  The squarefree part (the test modulo a prime, then the
exact one over Z), the Descartes bisection that counts the real roots and
Newton's identities are those of `quotient`, which a lex solve runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations, repeat
from math import comb, lcm
from operator import le

from .linalg import Vector, apply, inertia, vector
from .quotient import HermiteReport, QuotientBasis, _shift, _source, hermite_form, newton_charpoly
from .quotient import real_root_count, squarefree_part, traces_of


def audit_basis(ring: QuotientBasis) -> None:
    """Certify `ring.source`, the zero-dimensional basis G that `ring` was
    built from, as a reduced Groebner basis of an ideal that holds every
    original generator, on the border matrices of `ring` alone; raises
    ValueError on a violation, or for a hand-built `QuotientBasis`, which
    carries none.  It proves <F> in <G> for the original generators F, not
    <G> = <F>: a Groebner basis of a larger ideal passes.

    G must be monic and reduced, and f(M) * e_1 must be 0 for every original
    generator f, e_1 the coordinates of 1, each x^a of f taken as M^a * e_1
    by a chain of products.  G is a Groebner basis when the border matrices
    commute, M_{x_u} * M_{x_v} = M_{x_v} * M_{x_u} for u < v (Mourrain 1999):
    then f -> f(M) * e_1 maps Q[x] onto Q^|O| (O the staircase of LM(G)),
    each g in G to 0 (the column of LM(g) is -tail(g)) and each b_k in O to
    e_k.  So dim Q[x]/<G> >= |O|, which forces LT(<G>) = <LM(G)>, and f(M) *
    e_1 holds the coordinates of NF(f).  No division by G is used: the audit
    shares no code with the engine that built G.
    """
    basis, columns = _source(ring), ring.columns
    gens, order = basis.generators, basis.order
    leads = [g.leading_monomial().exponents for g in gens]
    for g in gens:
        if g.leading_coefficient() != 1:
            raise ValueError(f"generator is not monic: {g!r}")
        for mono, _ in g.terms:
            exps = mono.exponents
            for h, lead in zip(gens, leads):
                if h is not g and all(map(le, lead, exps)):
                    raise ValueError(f"basis is not reduced at {g!r}")
    images = {(0,) * order.nvars: ({0: 1} if ring.dimension else {}, 1)}  # x^a -> M^a * e_1; 1 = 0 if G = {1}
    for f in basis.original:
        if f.order != order or apply(
            [_image(m.exponents, images, columns) for m, _ in f.terms],
            vector({k: c for k, (_, c) in enumerate(f.terms)}),
        )[0]:
            raise ValueError(f"original generator does not reduce to zero: {f!r}")
    for u, v in combinations(range(len(columns)), 2):
        for k in range(ring.dimension):
            if apply(columns[u], columns[v][k]) != apply(columns[v], columns[u][k]):
                raise ValueError(f"multiplication by variables {u} and {v} does not commute")


def _image(exps: tuple[int, ...], images: dict[tuple[int, ...], Vector], columns: list[list[Vector]]) -> Vector:
    """M^exps * e_1: down from x^exps, one first nonzero exponent at a time,
    to a monomial in `images`, then back up, one product by M_{x_v} per step,
    each added to `images`."""
    path = []
    while exps not in images:
        v = next(v for v, e in enumerate(exps) if e)
        path.append(v)
        exps = _shift(exps, v, -1)
    image = images[exps]
    for v in reversed(path):
        exps = _shift(exps, v, 1)
        image = images[exps] = apply(columns[v], image)
    return image


def separating_charpoly(ring: QuotientBasis, k: int) -> list[int]:
    """Characteristic polynomial of multiplication by l = sum of k^i * x_{i+1},
    as primitive integer coefficients, ascending.  Its roots are the values
    of l at the solutions, each with the solution's multiplicity.

    The columns of M_l are summed from the border columns, with c the lcm of
    their denominators.  The traces Tr(M_l^j) = tau . M_l^j * e_1 take one
    sparse product on M_l each (e_1 holds the coordinates of 1, and tau is
    the ring's `traces`), and `quotient.newton_charpoly` turns them into
    chi; a Newton sum or identity that is not integral raises ValueError:
    tau is not the trace functional.
    """
    columns, dim = ring.columns, ring.dimension
    weights = ({v: k**v for v in range(len(columns))}, 1)
    summed = [apply([column[j] for column in columns], weights) for j in range(dim)]
    scale = lcm(*(den for _, den in summed))
    krylov = accumulate(repeat(summed, dim), lambda v, matrix: apply(matrix, v), initial=({0: 1}, 1))
    return newton_charpoly(traces_of(ring.traces, krylov)[1:], scale)


def trace_mismatch(ring: QuotientBasis) -> str | None:
    """tau(1), entry 0 of the ring's `traces`, must be the quotient
    dimension, and tau(x_v), for each variable that is a standard monomial,
    the diagonal sum of M_{x_v}, read off the border columns without going
    through tau.  x_v is b_i for the i with steps[i] == (v, 0), whatever its
    place in the order."""
    (nums, den), dim = ring.traces, ring.dimension
    if dim and (one := Fraction(nums.get(0, 0), den)) != dim:
        return f"trace functional: tau(1) = {one} != dimension {dim}"
    index = {step: i for i, step in enumerate(ring.steps)}
    for v, matrix in enumerate(ring.columns):
        trace = sum((Fraction(x.get(j, 0), d) for j, (x, d) in enumerate(matrix)), Fraction(0))
        if (v, 0) in index and (value := Fraction(nums.get(index[v, 0], 0), den)) != trace:
            return f"trace functional: tau(x{v + 1}) = {value} != trace of its matrix {trace}"
    return None


def separating_form_mismatch(ring: QuotientBasis, rank: int, signature: int) -> str | None:
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
    nvars = ring.order.nvars
    if rank > ring.dimension:
        return f"rank {rank} exceeds the quotient dimension {ring.dimension}"
    for k in range(1, comb(rank, 2) * max(nvars - 1, 0) + 2):
        chi = separating_charpoly(ring, k)
        if nvars == 1:
            if vector(ring.source.generators[0]._term_dict())[0] != {(e,): c for e, c in enumerate(chi) if c}:
                return "chi of x1 is not the primitive generator of the basis"
        part = squarefree_part(chi)
        distinct = len(part) - 1
        if distinct > rank:
            return f"l_{k} takes {distinct} distinct values on the solutions, more than rank {rank}"
        if distinct == rank:
            real = real_root_count(part)
            if real != signature:
                return f"l_{k} separates with {real} real values != signature {signature}"
            return None
    return f"no linear form l_1 .. l_{k} separates {rank} solutions: the rank is too high"


def inertia_mismatch(report: HermiteReport) -> str | None:
    """The rank and signature of `report`, read off chi of x_n, against the
    inertia of the trace form that `quotient.hermite_form` builds on its ring."""
    ring = report.form.basis
    result = inertia(hermite_form(ring.source, ring).entries)
    if (result.rank, result.signature) != (report.rank, report.signature):
        return (
            f"chi of x_n gives rank {report.rank} and signature {report.signature}, "
            f"the trace form {result.rank} and {result.signature}"
        )
    return None


def mismatch(report: HermiteReport, lex: QuotientBasis | None = None) -> str | None:
    """Audits the ring of `report` and `lex`, a ring built from a converted
    basis, each on its own basis; checks the trace functional of the ring,
    then, when the form has no entries, the counts against its inertia, and
    the rank and signature of `report` against the separating linear form; a
    description of the first mismatch, or None."""
    ring = report.form.basis
    try:
        audit_basis(ring)
        if lex is not None:
            audit_basis(lex)
    except ValueError as exc:
        return f"Groebner basis audit: {exc}"
    try:
        found = trace_mismatch(ring)
        if found is None and report.form.entries is None:
            found = inertia_mismatch(report)
        return found or separating_form_mismatch(ring, report.rank, report.signature)
    except ValueError as exc:
        return f"trace functional: {exc}"
