"""The trace form on the quotient ring: the border multiplication matrices,
the trace functional, and solution counts."""

import ast
from fractions import Fraction
from operator import le
from pathlib import Path
from random import Random

import pytest

from hermitecount import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    ORDER_KINDS,
    Monomial,
    MonomialOrder,
    NotZeroDimensionalError,
    Polynomial,
    QuotientBasis,
    buchberger,
    fglm,
    hermite_form,
    hermite_report,
    parse_system,
    standard_monomials,
)
from hermitecount import groebner, linalg, quotient, separating
from hermitecount.groebner import is_zero_dimensional
from hermitecount.linalg import lowest
from hermitecount.parsing import format_monomial
from hermitecount.quotient import (
    DimensionLimitError,
    _shift,
    charpoly_report,
    hankel_form,
    shape_position,
)
from hermitecount.separating import audit_basis

from support import (
    DENSE_2_5,
    FIXTURE_SYSTEMS,
    basis_index,
    box_standard_monomials,
    dense_lines,
    exponent_key,
    division_hermite_form,
    division_multiplication_matrix,
    division_trace_functional,
    mul_term,
    normal_form,
    parse_polynomial,
    permutation_equal,
    pending_traces,
    probe_standard_monomials,
    rand_polynomial,
    random_systems,
    rational_systems,
    s_pair_audit,
    staircase_pool,
    tau_by_monomial,
    times,
    trace_form_pool,
)

ORDER2 = MonomialOrder(GREVLEX, 2)
VARS2 = ["x1", "x2"]

CIRCLE_HYPERBOLA_FORM = [
    [4, 0, -2, 0],
    [0, 0, 4, 6],
    [-2, 4, 4, 0],
    [0, 6, 0, -4],
]


def p2(text):
    return parse_polynomial(text, VARS2)


def system_basis(text, kind=GREVLEX):
    _, polys = parse_system(text, kind)
    return buchberger(polys, polys[0].order)


@pytest.fixture
def nilpotent_basis():
    # x1 = 1 with x2^2 = 0: one solution, x2 nilpotent in the quotient
    return system_basis("x1-1\nx1^2+x2^2-1")


def border_matrix(quotient, v):
    """The rows of M_{x_v} as the ring carries it, in `Fraction`s."""
    columns = [{r: Fraction(x, den) for r, x in nums.items()} for nums, den in quotient.columns[v]]
    return tuple(tuple(column.get(r, Fraction(0)) for column in columns) for r in range(quotient.dimension))


def test_multiplication_by_one_is_identity(nilpotent_basis):
    quotient = standard_monomials(nilpotent_basis)
    m = division_multiplication_matrix(p2("1"), nilpotent_basis, quotient)
    assert m.entries == ((1, 0), (0, 1))
    assert m.trace() == 2


def test_multiplication_by_nilpotent_element(nilpotent_basis):
    quotient = standard_monomials(nilpotent_basis)
    m = division_multiplication_matrix(p2("x2"), nilpotent_basis, quotient)
    assert m.entries == border_matrix(quotient, 1) == ((0, 0), (1, 0))
    assert m.trace() == 0


def test_multiplication_by_x1_reduces_to_identity(nilpotent_basis):
    quotient = standard_monomials(nilpotent_basis)
    m = division_multiplication_matrix(p2("x1"), nilpotent_basis, quotient)
    assert m.entries == border_matrix(quotient, 0) == ((1, 0), (0, 1))
    assert m.element == p2("1")


def test_trace_functional_values(nilpotent_basis):
    quotient = standard_monomials(nilpotent_basis)
    tau = tau_by_monomial(quotient)
    assert tau[Monomial((0, 0))] == 2  # trace of the identity = dim A
    assert tau[Monomial((0, 1))] == 0  # nilpotent multiplier


def test_trace_functional_is_linear_in_the_element():
    rng = Random(20240816)
    basis = system_basis("x1*x2+x2-1\nx1^2+x2^2-1")
    quotient = standard_monomials(basis)
    tau = tau_by_monomial(quotient)
    for _ in range(20):
        g = rand_polynomial(rng, ORDER2, max_terms=5, max_exponent=3, bound=9)
        by_table = sum(
            (c * tau[m] for m, c in normal_form(g, basis).terms), Fraction(0)
        )
        direct = division_multiplication_matrix(g, basis, quotient).trace()
        assert by_table == direct


def test_hermite_form_of_rank_deficient_fixture(nilpotent_basis):
    form = hermite_form(nilpotent_basis, standard_monomials(nilpotent_basis))
    assert form.entries == ((2, 0), (0, 0))


def test_hermite_form_matches_known_gram_matrix():
    basis = system_basis("x1*x2+x2-1\nx1^2+x2^2-1")
    form = hermite_form(basis, standard_monomials(basis))
    assert permutation_equal(form.rows(), CIRCLE_HYPERBOLA_FORM)


def test_hermite_form_unit_ideal_is_empty():
    basis = system_basis("x1\nx1+1")
    form = hermite_form(basis, standard_monomials(basis))
    assert form.entries == ()
    report = hermite_report(basis)
    assert (report.complex_count, report.real_count) == (0, 0)
    assert report.quotient_dimension == 0


def test_hermite_report_circle_hyperbola_counts():
    report = hermite_report(system_basis("x1*x2+x2-1\nx1^2+x2^2-1"))
    assert (report.complex_count, report.real_count) == (4, 2)
    assert report.quotient_dimension == 4
    assert report.rank == report.complex_count
    assert report.signature == report.real_count


def test_hermite_report_single_solution(nilpotent_basis):
    report = hermite_report(nilpotent_basis)
    assert (report.complex_count, report.real_count) == (1, 1)


def test_hermite_report_gaussian_pair():
    report = hermite_report(system_basis("x1^2+1"))
    assert (report.complex_count, report.real_count) == (2, 0)


def test_hermite_report_three_variable_system():
    # x1 = +/-1, x2 = +/-sqrt(2), x3^2 = x1*x2: 8 distinct complex solutions,
    # real exactly when x1*x2 > 0, giving 4 real ones
    report = hermite_report(system_basis("x1^2-1\nx2^2-2\nx3^2-x1*x2"))
    assert (report.complex_count, report.real_count) == (8, 4)


def test_hermite_report_propagates_positive_dimension():
    with pytest.raises(NotZeroDimensionalError):
        hermite_report(system_basis("x1-x2"))


def test_symmetry_by_recomputation():
    basis = system_basis("x1*x2+x2-1\nx1^2+x2^2-1")
    quotient = standard_monomials(basis)
    form = hermite_form(basis, quotient)
    monos = quotient.monomials
    for i, bi in enumerate(monos):
        for j, bj in enumerate(monos):
            product = mul_term(p2("1"), 1, times(bi, bj))
            trace = division_multiplication_matrix(product, basis, quotient).trace()
            assert form.entries[i][j] == trace
            assert form.entries[j][i] == trace


def test_nilpotent_annihilation(nilpotent_basis):
    # x2 squares to zero in the quotient, so every trace against it vanishes
    quotient = standard_monomials(nilpotent_basis)
    x2 = p2("x2")
    assert not normal_form(mul_term(x2, 1, Monomial((0, 1))), nilpotent_basis)
    for mono in quotient.monomials:
        product = mul_term(x2, 1, mono)
        assert division_multiplication_matrix(product, nilpotent_basis, quotient).trace() == 0
    form = hermite_form(nilpotent_basis, quotient)
    row = basis_index(quotient)[Monomial((0, 1))]
    assert all(form.entries[row][j] == 0 for j in range(quotient.dimension))
    assert all(form.entries[i][row] == 0 for i in range(quotient.dimension))


def test_rank_and_signature_are_order_invariant():
    for name, text in FIXTURE_SYSTEMS:
        seen = set()
        for kind in ("lex", "grlex", "grevlex"):
            report = hermite_report(system_basis(text, kind))
            seen.add((report.rank, report.signature))
        assert len(seen) == 1, f"{name} gave {seen}"


def test_form_entry_0_0_is_quotient_dimension():
    # for a proper ideal the unit monomial leads the ascending basis, and the
    # trace of the identity is the quotient dimension
    for _, text in FIXTURE_SYSTEMS:
        report = hermite_report(system_basis(text))
        if report.quotient_dimension:
            assert not any(report.form.basis.monomials[0].exponents)
            assert report.form.entries[0][0] == report.quotient_dimension


def test_counts_are_bounded_and_parity_consistent():
    for _, text in FIXTURE_SYSTEMS:
        report = hermite_report(system_basis(text))
        assert 0 <= report.real_count <= report.complex_count <= report.quotient_dimension
        assert (report.complex_count - report.real_count) % 2 == 0


def test_cyclic_three_system():
    # permutations of the three cube roots of unity: 6 distinct complex
    # solutions, none with all coordinates real
    report = hermite_report(system_basis("vars: x, y, z\nx+y+z\nx*y+y*z+z*x\nx*y*z-1"))
    assert (report.complex_count, report.real_count) == (6, 0)
    assert report.quotient_dimension == 6


def test_multiplicity_collapses_to_distinct_count():
    # (x1-1)^2 = x2^3 = 0: one point of multiplicity 6
    report = hermite_report(system_basis("(x1-1)^2\nx2^3"))
    assert report.quotient_dimension == 6
    assert (report.complex_count, report.real_count) == (1, 1)


def test_irrational_real_points_counted():
    # (+/-sqrt(2), +/-sqrt(3)): four real points, no rational coordinates
    report = hermite_report(system_basis("x1^2-2\nx2^2-3"))
    assert (report.complex_count, report.real_count) == (4, 4)


def test_twisted_cubic_slice():
    # x2 = x1^2, x3 = x1^3 restricted to x1^3 = x1: three real points
    report = hermite_report(system_basis("x2-x1^2\nx3-x1^3\nx1^3-x1"))
    assert (report.complex_count, report.real_count) == (3, 3)


# Differential oracle: the border multiplication matrices must reproduce the
# division-based route they replaced (box-walk staircase, one polynomial
# division per product) exactly, entry for entry and in the same basis order.

def assert_matches_division_route(basis):
    quotient = standard_monomials(basis)
    assert quotient == box_standard_monomials(basis)
    for v in range(basis.order.nvars):
        x_v = Polynomial(basis.order, {Monomial(int(u == v) for u in range(basis.order.nvars)): 1})
        assert border_matrix(quotient, v) == division_multiplication_matrix(x_v, basis, quotient).entries
    form = hermite_form(basis, quotient)
    assert form == division_hermite_form(basis, quotient)
    assert tau_by_monomial(quotient) == division_trace_functional(basis, quotient)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_fixture_systems_match_division_route(kind):
    for _, text in FIXTURE_SYSTEMS:
        assert_matches_division_route(system_basis(text, kind))


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_random_systems_match_division_route(kind):
    systems = list(random_systems(kind))
    assert len(systems) >= 40
    for seed, order, polys in systems:
        basis = buchberger(polys, order)
        assert is_zero_dimensional(basis), seed
        assert_matches_division_route(basis)


def assert_parent_chain(basis):
    """steps[i] = (v, p) writes b_i = x_v * b_p with p the smallest index of
    a standard monomial that b_i is one variable times, and M_{x_v} maps b_p
    to e_i; `transposed` holds every variable of the chain."""
    quotient = standard_monomials(basis)
    exps = [m.exponents for m in quotient.monomials]
    steps = quotient.steps
    assert len(steps) == quotient.dimension
    assert steps == [] or steps[0] is None
    for i in range(1, len(steps)):
        v, p = steps[i]
        parents = [q for q, e in enumerate(exps) if sum(exps[i]) == sum(e) + 1 and all(map(le, e, exps[i]))]
        assert p == min(parents) < i
        assert exps[i] == tuple(e + (u == v) for u, e in enumerate(exps[p]))
        assert quotient.columns[v][p] == ({i: 1}, 1)
    assert set(quotient.transposed) == {v for v, _ in steps[1:]}


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_parent_chain(kind):
    bases = [system_basis(text, kind) for _, text in FIXTURE_SYSTEMS]
    bases += [buchberger(polys, order) for _, order, polys in random_systems(kind)]
    for basis in bases:
        assert_parent_chain(basis)


def test_long_staircase_chains_match_division_route():
    # x_i^21 - c_i*x_i and x_i*x_j for i < j in three variables are already a
    # reduced basis with a staircase of dim 61, so the parent chains that
    # build tau and H run 20 steps up each axis.  The solutions are the
    # origin and the 20 roots of t^20 = c_i on each axis, two of them real
    # as every c_i > 0: 1 + 3*20 complex and 1 + 3*2 real.
    basis = system_basis("x1^21-2*x1\n2*x2^21-3*x2\nx3^21-7*x3\nx1*x2\nx1*x3\nx2*x3")
    assert standard_monomials(basis).dimension == 61
    assert_matches_division_route(basis)
    report = hermite_report(basis)
    assert (report.complex_count, report.real_count) == (61, 7)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_random_monomial_ideals_match_box_route(kind):
    # Monomials in 3 to 6 variables, a pure power of each among them: their
    # reduced basis is the minimal generating set, and the origin is the only
    # solution, of multiplicity the whole staircase.
    rng = Random(f"monomial ideals:{kind}")
    for nvars, cap in ((3, 5), (4, 4), (5, 3), (6, 3)):
        order = MonomialOrder(kind, nvars)
        for _ in range(6):
            exponents = [tuple(rng.randint(1, cap) * (j == i) for j in range(nvars)) for i in range(nvars)]
            exponents += [tuple(rng.randint(0, cap - 1) for _ in range(nvars)) for _ in range(rng.randint(0, 5))]
            basis = buchberger([Polynomial(order, {Monomial(e): 1}) for e in exponents if any(e)], order)
            assert standard_monomials(basis) == box_standard_monomials(basis)
            assert_parent_chain(basis)
            report = hermite_report(basis)
            assert (report.complex_count, report.real_count) == (1, 1)


def test_dimension_cap_comes_before_any_border_work(monkeypatch):
    # x1^70 - x2, x2^70 - x1 is a reduced basis of dimension 4900; the walk
    # must refuse it before the first border normal form.
    def border_work(*args):
        raise AssertionError("border work before the dimension cap")

    basis = system_basis("x1^70-x2\nx2^70-x1")
    monkeypatch.setattr(quotient, "apply", border_work)
    monkeypatch.setattr(quotient, "vector", border_work)
    with pytest.raises(DimensionLimitError):
        standard_monomials(basis)


# Every consumer of a quotient basis reads the ring it carries, so it accepts
# only a quotient that `standard_monomials` built: a hand-built one carries
# no ring.  `hermite_form` also takes a basis, and refuses a ring built from
# another one.  `audit_basis` and `fglm` take the ring alone and read its
# basis off it, so only a hand-built quotient can be wrong for them.

QUOTIENT_CONSUMERS = {
    "audit_basis": lambda basis, quotient: audit_basis(quotient),
    "fglm": lambda basis, quotient: fglm(quotient, MonomialOrder(LEX, basis.order.nvars)),
    "hermite_form": hermite_form,
}
MISMATCH_SYSTEMS = ["x1*x2+x2-1\nx1^2+x2^2-1", "x1^2-1\nx2^2-2\nx3^2-x1*x2", "(x1-1)^2\nx2^3"]


def missing_one(text, basis, quotient):
    monos = quotient.monomials
    for k in range(len(monos)):
        yield QuotientBasis(monos[:k] + monos[k + 1 :], quotient.order)


def extra_one(text, basis, quotient):
    monos = quotient.monomials
    border = {Monomial(_shift(m.exponents, v, 1)) for m in monos for v in range(basis.order.nvars)} - set(monos)
    assert set(basis.leading_monomials()) <= border
    key = exponent_key(basis.order)
    for extra in border:
        yield QuotientBasis(tuple(sorted(monos + (extra,), key=lambda m: key(m.exponents))), quotient.order)


def out_of_order(text, basis, quotient):
    monos = quotient.monomials
    for k in range(len(monos) - 1):
        yield QuotientBasis(monos[:k] + (monos[k + 1], monos[k]) + monos[k + 2 :], quotient.order)


def other_order(text, basis, quotient):
    for kind in ORDER_KINDS:
        if kind != basis.order.kind:
            yield QuotientBasis(quotient.monomials, MonomialOrder(kind, basis.order.nvars))
            yield standard_monomials(system_basis(text, kind))


@pytest.mark.parametrize("consumer", sorted(QUOTIENT_CONSUMERS))
@pytest.mark.parametrize("mismatch", [missing_one, extra_one, out_of_order, other_order])
def test_quotient_basis_mismatch_is_rejected(consumer, mismatch):
    call = QUOTIENT_CONSUMERS[consumer]
    for text in MISMATCH_SYSTEMS:
        basis = system_basis(text)
        quotient = standard_monomials(basis)
        call(basis, quotient)
        for wrong in mismatch(text, basis, quotient):
            if consumer != "hermite_form" and wrong.source is not None:
                continue
            with pytest.raises(ValueError, match="does not belong"):
                call(basis, wrong)


def test_standard_monomials_rejects_a_basis_that_is_not_reduced():
    # The tail x2^2 of x1^2-x2^2 is divisible by the leading monomial of
    # x2^2-1, so the border column of x1^2 has no coordinates on the staircase.
    gens = (p2("x2^2-1"), p2("x1^2-x2^2"))
    with pytest.raises(ValueError, match="not reduced"):
        standard_monomials(GroebnerBasis(gens, ORDER2, gens))


# The staircase walk admits a popped monomial by counting its recorded
# parents; the probe walk in tests/support.py, which looks each m / x_u up,
# is its differential oracle: the same monomials, columns and parent chain.


def assert_walks_agree(basis):
    walked, probed = standard_monomials(basis), probe_standard_monomials(basis)
    assert walked == probed
    assert walked.columns == probed.columns
    assert walked.steps == probed.steps
    return walked


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_staircase_walk_matches_the_probe_walk(kind):
    bases = [system_basis(text, kind) for _, text in FIXTURE_SYSTEMS]
    for systems in (random_systems, rational_systems):
        bases += [buchberger(polys, order) for _, order, polys in systems(kind)]
    assert len(bases) == 8 + 2 * 42
    for basis in bases:
        assert_walks_agree(basis)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_integer_keys_order_exponent_vectors_as_the_order_does(kind):
    rng = Random(f"weights-{kind}")
    for n in range(7):
        order = MonomialOrder(kind, n)
        for bound in (2, 3, 5, 17, 402):
            weights = [order.weight(v, bound) for v in range(n)]
            vectors = [tuple(rng.randrange(bound) for _ in range(n)) for _ in range(60)]
            vectors += [(bound - 1,) * n, (0,) * n]
            by_key = sorted(vectors, key=lambda e: sum(x * w for x, w in zip(e, weights)))
            assert by_key == sorted(vectors, key=exponent_key(order))


def test_staircase_walk_matches_the_probe_walk_on_sparse_rings():
    for seed in (7, 11):
        for text in staircase_pool(seed):
            assert assert_walks_agree(system_basis(text)).dimension == 77
    # exponent bounds of mixed widths, under every order
    for kind in ORDER_KINDS:
        assert assert_walks_agree(system_basis("x1^2000\nx2^3\nx1*x2", kind)).dimension == 2002
        assert assert_walks_agree(system_basis("x1^3\nx2^2000\nx1*x2", kind)).dimension == 2002
    wide = system_basis("x1^300\nx2^300\nx3^300\nx1*x2\nx2*x3\nx1*x3")
    assert assert_walks_agree(wide).dimension == 898
    # the unit ideal, and no variables with and without a solution
    for text, dimension in (("x1\nx1+1", 0), ("0", 1), ("5", 0)):
        assert assert_walks_agree(system_basis(text)).dimension == dimension
    # lex rings that FGLM built, out of shape position
    for text in ("x1^2-1\nx2^2-2\nx3^2-3", "x2^2-x1*x3\nx1^3-1\nx3^3-2", "x1-1\nx2^2", "x1^20\nx2^3\nx1*x2"):
        ring = standard_monomials(system_basis(text))
        assert assert_walks_agree(fglm(ring, MonomialOrder(LEX, ring.order.nvars))).order.kind == LEX


# The trace pass takes childless and one-child elements directly; the
# pending-list pass in tests/support.py is its differential oracle.


def test_traces_match_the_pending_list_pass():
    bases = [system_basis(text, kind) for _, text in FIXTURE_SYSTEMS for kind in ORDER_KINDS]
    for kind in ORDER_KINDS:
        for systems in (random_systems, rational_systems):
            bases += [buchberger(polys, order) for _, order, polys in systems(kind)]
    bases += [system_basis(text) for seed in (7, 11) for text in staircase_pool(seed)]
    bases += [system_basis(text) for text in trace_form_pool(7)]
    bases += [system_basis(text) for text in ("x1^400\nx2^400\nx1*x2", "x1\nx1+1", "0", "5", "x1^2\nx2^3-x2")]
    bases.append(system_basis("\n".join(f"x{i}^2-{i}" for i in range(1, 7))))
    for basis in bases:
        ring = standard_monomials(basis)
        tau = ring.traces
        assert tau == pending_traces(ring.transposed, ring.steps)
        assert tau == lowest(*tau)


def test_staircase_walks_refuse_a_basis_that_is_not_reduced_at_the_same_generator():
    # Both tails x2^2 lie in the leading ideal; the border reaches x1*x2 first.
    gens = (p2("x2^2-1"), p2("x1*x2-x2^2"), p2("x1^2-x2^2"))
    basis = GroebnerBasis(gens, ORDER2, gens)
    with pytest.raises(ValueError, match="not reduced") as walked:
        standard_monomials(basis)
    with pytest.raises(ValueError) as probed:
        probe_standard_monomials(basis)
    assert str(walked.value) == str(probed.value)
    assert repr(p2("x1*x2-x2^2")) in str(walked.value)


# The commuting-matrix audit against the all-pairs reference: both certify a
# monic, reduced Groebner basis of an ideal that holds the original
# generators, so on zero-dimensional bases their verdicts must coincide.


def audit_systems(kind):
    systems = [parse_system(text, kind)[1] for _, text in FIXTURE_SYSTEMS]
    return systems + [polys for _, _, polys in random_systems(kind)]


def commuting_audit(basis):
    audit_basis(standard_monomials(basis))


def verdict(audit, basis):
    """None if `audit` accepts the basis, else the class of its error."""
    try:
        audit(basis)
    except ValueError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_audits_accept_every_basis(kind):
    for polys in audit_systems(kind):
        basis = buchberger(polys, polys[0].order)
        s_pair_audit(basis)
        commuting_audit(basis)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_audits_reject_a_dropped_generator(kind):
    # The reduced basis is unique, so no proper subset of it is a Groebner
    # basis that still holds the original generators.
    dropped = 0
    for polys in audit_systems(kind):
        basis = buchberger(polys, polys[0].order)
        for k in range(len(basis.generators)):
            wrong = GroebnerBasis(basis.generators[:k] + basis.generators[k + 1 :], basis.order, basis.original)
            for audit in (s_pair_audit, commuting_audit):
                with pytest.raises(ValueError):
                    audit(wrong)
            dropped += 1
    assert dropped > 100


def perturbed_tails(basis):
    """Each basis with one tail coefficient c of one generator changed."""
    for k, g in enumerate(basis.generators):
        for t in range(1, len(g.terms)):
            terms = list(g.terms)
            mono, c = terms[t]
            terms[t] = (mono, c + 1 if c != -1 else c + 2)
            yield basis.generators[:k] + (Polynomial(basis.order, terms),) + basis.generators[k + 1 :]


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_audits_agree_on_perturbed_tails(kind):
    # Against the original generators both audits reject.  Taken as its own
    # original generators, a perturbed basis keeps its leading monomials, so
    # it is accepted exactly when it is still a Groebner basis, and the two
    # criteria (S-pairs, commuting matrices) must say the same.  Under lex
    # every basis here is triangular or in shape position, with pairwise
    # coprime leading monomials, so every perturbation stays a basis.
    verdicts = {None: 0, ValueError: 0}
    for polys in audit_systems(kind):
        basis = buchberger(polys, polys[0].order)
        for gens in perturbed_tails(basis):
            wrong = GroebnerBasis(gens, basis.order, basis.original)
            for audit in (s_pair_audit, commuting_audit):
                with pytest.raises(ValueError):
                    audit(wrong)
            own = GroebnerBasis(gens, basis.order, gens)
            expected = verdict(s_pair_audit, own)
            assert verdict(commuting_audit, own) == expected, gens
            verdicts[expected] += 1
    assert verdicts[None] > 50
    assert verdicts[ValueError] > 300 or kind == LEX


@pytest.mark.parametrize(
    "texts, refusal",
    [
        (["2*x1-2", "x2^2-1"], "generator is not monic: "),
        (["x1-1", "x1*x2-x2", "x2^2-1"], "basis is not reduced at "),
    ],
    ids=["not-monic", "not-reduced"],
)
def test_check_refuses_a_basis_that_is_not_monic_or_not_reduced(texts, refusal):
    # buchberger returns only monic reduced bases, so these are built by hand;
    # each still has a staircase and a trace form for the audit to read.
    gens = tuple(map(p2, texts))
    report = hermite_report(GroebnerBasis(gens, ORDER2, gens))
    assert separating.mismatch(report).startswith("Groebner basis audit: " + refusal)


def test_audit_refuses_a_foreign_original_without_the_engines_division(monkeypatch):
    # x1 - 5 is not in <x1^2 - 1, x2^2 - 2>.  With the engine's division made to
    # find no remainder wherever it is bound, the audit must still refuse it:
    # it evaluates f(M) * e_1 on the border matrices and imports nothing from
    # the engine.
    basis = system_basis("x1^2-1\nx2^2-2")
    wrong = GroebnerBasis(basis.generators, basis.order, basis.original + (p2("x1-5"),))
    ring = standard_monomials(wrong)

    def no_remainder(acc, divisors, key, admits=None):
        return [], 1

    monkeypatch.setattr(groebner, "_reduce", no_remainder)
    monkeypatch.setattr(separating, "_reduce", no_remainder, raising=False)
    with pytest.raises(ValueError, match=r"does not reduce to zero: Polynomial\(1\*Monomial\(1, 0\) \+ -5\*"):
        audit_basis(ring)
    audit_basis(standard_monomials(basis))
    tree = ast.parse(Path(separating.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "groebner"]


@pytest.mark.parametrize(
    "text, dimension",
    [("0", 1), ("5", 0), ("x1\nx1+1", 0), ("x1-1\nx2+2", 1), ("x1^3-2", 3)],
)
def test_shape_position_edge_ideals(text, dimension):
    # no variables, the unit ideal, and D = 1 pass at once with a zero or
    # unit v_0; in one variable every ideal is in shape position.  s_0 =
    # Tr(1) = D, and chi counts as the inertia of H, with no variable as well
    basis = system_basis(text)
    ring = standard_monomials(basis)
    staircase = shape_position(ring)
    nvars = basis.order.nvars
    assert staircase.order == MonomialOrder(LEX, nvars) and staircase.dimension == dimension
    assert len(ring.krylov) == max(dimension + bool(nvars), 1)  # v_0 .. v_D; v_0 alone with no variable
    assert ring.krylov[0] == ({0: 1} if dimension else {}, 1) and ring.power_sums[0] == dimension
    lex = standard_monomials(system_basis(text, LEX))
    assert hankel_form(ring, staircase) == hermite_form(lex.source, lex)
    report, result = charpoly_report(ring), linalg.inertia(hermite_form(basis, ring).entries)
    assert (report.rank, report.signature, report.quotient_dimension) == (result.rank, result.signature, dimension)


def test_chi_counts_non_radical_rings_as_the_inertia_of_h(monkeypatch):
    # In shape position, the distinct and the real roots of chi of x_n, read
    # off its exact squarefree part, are the rank and the signature of the
    # grevlex H: on dense systems with a squared first polynomial (every
    # solution double), a double root, a squared factor in one variable, and
    # a squarefree chi that an unlucky prime makes look square.
    def squared(lines):
        return [f"({lines[0]})^2", *lines[1:]]

    assert parse_system("\n".join(dense_lines(Random(1), 2, 5))) == parse_system("\n".join(DENSE_2_5))
    systems = [squared(dense_lines(Random(seed), n, d)) for n, d in ((3, 3), (2, 5)) for seed in range(1, 6)]
    systems += [squared(dense_lines(Random(1), 2, 4)), ["x1-x2", "x2^2"], ["(x1^2-2)^2*(x1+1)"]]
    parts = []
    true_part = quotient.integer_squarefree_part
    monkeypatch.setattr(quotient, "integer_squarefree_part", lambda chi: parts.append(chi) or true_part(chi))

    def chi_against_h(polys):
        basis = system_basis("\n".join(polys))
        ring = standard_monomials(basis)
        assert shape_position(ring) is not None and ring.dimension <= quotient.MAX_CHARPOLY_DIMENSION
        report = charpoly_report(ring)
        result = linalg.inertia(hermite_form(basis, ring).entries)
        assert (report.rank, report.signature) == (result.rank, result.signature), polys
        assert (report.complex_count, report.real_count) == (result.rank, result.signature), polys
        return report.rank, ring.dimension

    for count, polys in enumerate(systems, 1):
        rank, dimension = chi_against_h(polys)
        assert rank < dimension and len(parts) == count
    monkeypatch.setattr(quotient, "PRIME", 3)  # chi = t^2 - 3t is t^2 modulo 3
    assert chi_against_h(["x1-x2", "x2^2-3*x2"]) == (2, 2) and len(parts) == len(systems) + 1


def test_hankel_form_and_charpoly_report_agree_in_either_order():
    # both read the ring's Krylov sequence and power sums, so neither call
    # leaves anything the other depends on: radical, non-radical, and D = 1
    for text in ("x1*x2+x2-1\nx1^2+x2^2-1", "x1-x2\nx2^2", "x1^3-2", "x1-1\nx2+2"):
        forward, backward = standard_monomials(system_basis(text)), standard_monomials(system_basis(text))
        form = hankel_form(forward, shape_position(forward))
        report = charpoly_report(forward)
        assert charpoly_report(backward) == report, text
        assert hankel_form(backward, shape_position(backward)) == form, text
        result = linalg.inertia(form.entries)
        assert (report.rank, report.signature) == (result.rank, result.signature), text


def test_shape_position_fails_on_an_unlucky_prime(monkeypatch):
    # x1 = x2^2/3 on three points: the grevlex coordinates of x2^2 are 3*x1.
    # The ring keeps its certificate, so each PRIME takes a ring of its own
    basis = system_basis("3*x1-x2^2\nx2^3-x2")
    staircase = shape_position(standard_monomials(basis))
    assert [format_monomial(m, VARS2) for m in staircase.monomials] == ["1", "x2", "x2^2"]
    monkeypatch.setattr(quotient, "PRIME", 3)
    ring = standard_monomials(basis)
    assert shape_position(ring) is None and ring.krylov is None and ring.power_sums is None
    monkeypatch.setattr(quotient, "PRIME", 5)
    assert shape_position(standard_monomials(basis)) is not None
