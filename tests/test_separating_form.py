"""The separating-form oracle of `solve --check`: the characteristic
polynomial of a linear form, from Newton sums on the border matrices, against
the rank and signature of the Hermite form."""

import io
import time
from fractions import Fraction
from itertools import chain
from math import comb
from random import Random

import pytest

from hermitecount import (
    ORDER_KINDS,
    HermiteForm,
    HermiteReport,
    Monomial,
    MonomialOrder,
    Polynomial,
    buchberger,
    hermite_report,
    linalg,
    parse_system,
    quotient,
    standard_monomials,
)
from hermitecount import separating
from hermitecount.cli import EXIT_OK, EXIT_ORACLE_MISMATCH, RunConfiguration, main, run_solve
from hermitecount.linalg import InertiaResult
from hermitecount.quotient import real_root_count, squarefree_mod_p
from hermitecount.separating import separating_charpoly
from hermitecount.univariate import poly_gcd

from support import (
    DENSE_2_5,
    FIXTURE_SYSTEMS,
    berkowitz_charpoly,
    division_multiplication_matrix,
    division_trace_functional,
    primitive,
    rand_monic_univariate,
    random_systems,
    rational_systems,
    tau_by_monomial,
    to_multivariate,
)

SYMMETRIC_PAIR = ["x1^2+x2^2-5", "x1*x2-2"]  # (1,2), (2,1), (-1,-2), (-2,-1)
NON_RADICAL_PAIR = ["x1^2", "x2^3-x2"]  # (0,0), (0,1), (0,-1), dimension 6
CIRCLE_HYPERBOLA = ["x1*x2+x2-1", "x1^2+x2^2-1"]  # rank 4, signature 2
# perfbench's dense(2,5) at seed 1 with its first polynomial squared: dimension 50
SQUARED_DENSE = [f"({DENSE_2_5[0]})^2", DENSE_2_5[1]]

# perfbench's dense(3,3) at seed 1: dimension 27, and M_l's denominators have
# a many-bit lcm c
DENSE_3_3 = [
    "-5+9*x3-7*x3^2-1*x3^3-6*x2+6*x2*x3+6*x2*x3^2+6*x2^2+4*x2^2*x3-3*x2^3-6*x1+6*x1*x3-9*x1*x3^2+3*x1*x2"
    "+5*x1*x2*x3-9*x1*x2^2+5*x1^2-1*x1^2*x3-2*x1^2*x2-6*x1^3",
    "1-9*x3-9*x3^2-9*x3^3+8*x2-9*x2*x3+4*x2*x3^2-3*x2^2+5*x2^2*x3-9*x2^3+7*x1-2*x1*x3+6*x1*x3^2+6*x1*x2"
    "+9*x1*x2*x3-2*x1*x2^2+2*x1^2-2*x1^2*x3-2*x1^2*x2+6*x1^3",
    "-9*x3+4*x3^2+9*x3^3-6*x2-4*x2*x3+1*x2*x3^2-6*x2^2+2*x2^2*x3+8*x2^3+4*x1+7*x1*x3-3*x1*x3^2+1*x1*x2*x3"
    "+7*x1*x2^2+7*x1^2+4*x1^2*x3-8*x1^2*x2+7*x1^3",
]


def fixture_bases(kind):
    for name, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text, kind)
        yield name, buchberger(polys, polys[0].order)


def all_bases(kind):
    yield from fixture_bases(kind)
    for label, systems in (("random", random_systems), ("rational", rational_systems)):
        for seed, order, polys in systems(kind):
            yield f"{label}-{seed}", buchberger(polys, order)


def linear_form(order, k):
    n = order.nvars
    return Polynomial(order, {Monomial(int(v == i) for v in range(n)): k**i for i in range(n)})


def oracle(basis, rank, signature):
    return separating.separating_form_mismatch(standard_monomials(basis), rank, signature)


def argv(polys):
    return ["solve", *chain.from_iterable(("--poly", p) for p in polys), "--check"]


@pytest.fixture
def used_k(monkeypatch):
    """The values of k the oracle tries, in order."""
    calls = []
    original = separating.separating_charpoly

    def spy(q, k):
        calls.append(k)
        return original(q, k)

    monkeypatch.setattr(separating, "separating_charpoly", spy)
    return calls


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_charpoly_matches_berkowitz_on_the_multiplication_matrix(kind):
    for name, basis in fixture_bases(kind):
        q = standard_monomials(basis)
        for k in (1, 2, 5):
            matrix = division_multiplication_matrix(linear_form(basis.order, k), basis, q)
            expected = primitive(berkowitz_charpoly(matrix.entries))
            assert separating_charpoly(q, k) == expected, (name, k)


def test_charpoly_matches_berkowitz_on_a_dense_system():
    _, polys = parse_system("\n".join(DENSE_3_3))
    basis = buchberger(polys, polys[0].order)
    q = standard_monomials(basis)
    matrix = division_multiplication_matrix(linear_form(basis.order, 1), basis, q)
    assert q.dimension == 27
    expected = primitive(berkowitz_charpoly(matrix.entries))
    assert separating_charpoly(q, 1) == expected


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_oracle_agrees_with_hermite_inertia(kind):
    for name, basis in all_bases(kind):
        report = hermite_report(basis)
        assert oracle(basis, report.rank, report.signature) is None, name


@pytest.mark.parametrize(
    "shift",
    [(1, 0), (-1, 0), (1, -1), (-1, 1)],
    ids=["rank+1", "rank-1", "signature+2", "signature-2"],
)
def test_oracle_rejects_wrong_counts_on_fixtures(shift):
    dpos, dneg = shift
    for name, basis in fixture_bases("grevlex"):
        report = hermite_report(basis)
        result = linalg.inertia(report.form.entries)
        if result.positive + dpos < 0 or result.negative + dneg < 0:
            continue
        rank = result.rank + dpos + dneg
        signature = result.signature + dpos - dneg
        assert oracle(basis, rank, signature) is not None, name


def test_symmetric_pair_needs_k_2(used_k, capsys):
    assert main(argv(SYMMETRIC_PAIR)) == EXIT_OK
    assert used_k == [1, 2]
    out = capsys.readouterr().out
    assert "number of complex solutions: 4" in out
    assert "number of real solutions: 4" in out


def test_non_radical_pair_takes_the_exact_path(used_k, capsys):
    _, polys = parse_system("\n".join(NON_RADICAL_PAIR))
    basis = buchberger(polys, polys[0].order)
    assert not squarefree_mod_p(separating_charpoly(standard_monomials(basis), 1))
    assert main(argv(NON_RADICAL_PAIR)) == EXIT_OK
    assert used_k == [1]
    out = capsys.readouterr().out
    assert "quotient dimension: 6" in out
    assert "number of complex solutions: 3" in out
    assert "number of real solutions: 3" in out


def test_squared_dense_system_takes_the_integer_exact_path(monkeypatch, capsys):
    parts = []
    original = separating.integer_squarefree_part

    def spy(chi):
        parts.append(original(chi))
        return parts[-1]

    monkeypatch.setattr(separating, "integer_squarefree_part", spy)
    _, polys = parse_system("\n".join(SQUARED_DENSE))
    report = hermite_report(buchberger(polys, polys[0].order))
    assert (report.form.basis.dimension, report.rank, report.signature) == (50, 25, 1)
    start = time.perf_counter()
    assert main(["solve", *(f"--poly={p}" for p in SQUARED_DENSE), "--check"]) == EXIT_OK
    assert time.perf_counter() - start < 10
    assert [len(part) - 1 for part in parts] == [25]
    out = capsys.readouterr().out
    assert "quotient dimension: 50" in out
    assert f"number of complex solutions: {report.rank}" in out
    assert f"number of real solutions: {report.signature}" in out


def test_unit_ideal_passes(capsys):
    assert main(argv(["x1", "x1+1"])) == EXIT_OK
    assert "number of complex solutions: 0" in capsys.readouterr().out


def test_ring_traces_are_the_division_trace_functional():
    """The tau that a ring owns, which `hermite_form` and `mismatch` read,
    equals the trace functional of the division route on the same ring."""
    for kind in ORDER_KINDS:
        for seed, order, polys in chain(random_systems(kind), rational_systems(kind)):
            basis = buchberger(polys, order)
            ring = standard_monomials(basis)
            assert tau_by_monomial(ring) == division_trace_functional(basis, ring), seed


def test_oracle_never_reads_h_or_berkowitz(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle ran Berkowitz")

    monkeypatch.setattr(linalg, "inertia_via_charpoly", forbidden)
    _, polys = parse_system("\n".join(CIRCLE_HYPERBOLA))
    basis = buchberger(polys, polys[0].order)
    report = hermite_report(basis)
    blank = HermiteForm((), report.form.basis)
    blind = HermiteReport(blank, report.rank, report.signature, 4, 2, report.quotient_dimension)
    assert separating.mismatch(blind) is None


@pytest.mark.parametrize(
    "polys, shift, message",
    [
        (CIRCLE_HYPERBOLA, (1, 0), "exceeds the quotient dimension"),
        (NON_RADICAL_PAIR, (1, 0), "the rank is too high"),
        (CIRCLE_HYPERBOLA, (0, -1), "more than rank 3"),
        (NON_RADICAL_PAIR, (-1, 0), "more than rank 2"),
        (CIRCLE_HYPERBOLA, (1, -1), "!= signature 4"),
        (CIRCLE_HYPERBOLA, (-1, 1), "!= signature 0"),
        (NON_RADICAL_PAIR, (-1, 1), "!= signature 1"),
    ],
    ids=["rank+1", "rank+1-bound", "rank-1", "rank-1-non-radical", "signature+2", "signature-2",
         "signature-2-non-radical"],
)
def test_check_exits_4_when_the_inertia_is_wrong(monkeypatch, capsys, used_k, polys, shift, message):
    true_inertia = linalg.inertia

    def wrong(entries):
        result = true_inertia(entries)
        return InertiaResult(result.positive + shift[0], result.negative + shift[1], result.zero)

    monkeypatch.setattr(linalg, "inertia", wrong)
    start = time.perf_counter()
    assert main(argv(polys)) == EXIT_ORACLE_MISMATCH
    assert time.perf_counter() - start < 10
    assert message in capsys.readouterr().err
    if message == "the rank is too high":
        # rank 4 on three solutions in a dimension-6 quotient: every l_k up
        # to the bound C(4, 2) * (2 - 1) + 1 is tried, none separates four
        assert used_k == list(range(1, comb(4, 2) * (2 - 1) + 2))


@pytest.mark.parametrize(
    "polys, entry, message",
    [
        # circle-hyperbola has the basis 1, x2, x1, x2^2 under grevlex
        (CIRCLE_HYPERBOLA, 0, "tau(1) = 5 != dimension 4"),
        (CIRCLE_HYPERBOLA, 1, "tau(x2) = 1 != trace of its matrix 0"),
        (CIRCLE_HYPERBOLA, 2, "tau(x1) = -1 != "),
        # no direct check reads tau(x2^2); Newton's identities stop being integral
        (CIRCLE_HYPERBOLA, 3, "Newton identity 3 of a linear form is not integral"),
        # the basis 1, x2: x1 is no standard monomial, and tau(x2) is entry 1
        (["x1-2", "x2^2-3"], 1, "tau(x2) = 1 != trace of its matrix 0"),
    ],
    ids=["tau(1)", "tau(x2)", "tau(x1)", "tau(x2^2)", "tau(x2)-x1-not-standard"],
)
def test_check_exits_4_on_a_wrong_trace_functional(monkeypatch, capsys, polys, entry, message):
    true_traces = quotient._traces

    def perturbed(transposed, steps):
        nums, den = true_traces(transposed, steps)
        return {**nums, entry: nums.get(entry, 0) + den}, den

    monkeypatch.setattr(quotient, "_traces", perturbed)
    err = io.StringIO()
    config = RunConfiguration(inline_polynomials=tuple(polys), cross_check=True)
    assert run_solve(config, io.StringIO(), err) == EXIT_ORACLE_MISMATCH
    assert message in err.getvalue()


def test_a_fractional_trace_gives_a_fractional_newton_sum(monkeypatch):
    _, polys = parse_system("\n".join(CIRCLE_HYPERBOLA))
    basis = buchberger(polys, polys[0].order)
    assert separating_charpoly(standard_monomials(basis), 1) == [7, -6, -4, 2, 1]
    true_traces = quotient._traces

    def fractional(transposed, steps):
        nums, den = true_traces(transposed, steps)
        tau = {k: Fraction(x, den) for k, x in nums.items()}
        tau[3] = tau.get(3, 0) + Fraction(1, 3)
        return linalg.vector(tau)

    monkeypatch.setattr(quotient, "_traces", fractional)
    with pytest.raises(ValueError, match="Newton sum 3 of a linear form is not an integer"):
        separating_charpoly(standard_monomials(basis), 1)


@pytest.mark.parametrize("kind", ["lex", "grevlex"])
def test_chi_of_x1_is_the_primitive_generator(kind):
    # In one variable the basis is g = gcd of the inputs, and l_1 = x1.
    rng = Random(f"chi-x1-{kind}")
    order = MonomialOrder(kind, 1)
    for _ in range(60):
        f = rand_monic_univariate(rng, 6)
        a, b = rand_monic_univariate(rng, 3), rand_monic_univariate(rng, 3)
        basis = buchberger([to_multivariate(f * a, order), to_multivariate(f * b, order)], order)
        expected = primitive(poly_gcd(f * a, f * b))
        assert separating_charpoly(standard_monomials(basis), 1) == expected, (f, a, b)


@pytest.mark.parametrize("delta, chi", [(-2, [0, -1, 0, 1]), (2, [0, -3, 0, 1])], ids=["-2", "+2"])
def test_check_exits_4_when_chi_of_x1_is_not_the_generator(monkeypatch, delta, chi):
    # x1^3 - 2*x1 has the basis 1, x1, x1^2 and tau(x1^2) = 4.  Shifting it
    # by an even delta keeps tau(1), tau(x1) and Newton's identities exact,
    # and makes chi = t^3 - (2 + delta/2)*t.  The Hermite matrix has
    # determinant (4 + delta)^2 * (2 - delta): with delta = -2 it stays
    # positive definite, so chi = t^3 - t counts (3, 3) like the pipeline and
    # only chi != g shows the fault; with delta = +2 the rank drops to 2.
    true_traces = quotient._traces

    def perturbed(transposed, steps):
        nums, den = true_traces(transposed, steps)
        return {**nums, 2: nums.get(2, 0) + delta * den}, den

    monkeypatch.setattr(quotient, "_traces", perturbed)
    _, polys = parse_system("x1^3-2*x1")
    basis = buchberger(polys, polys[0].order)
    report = hermite_report(basis)
    assert separating_charpoly(report.form.basis, 1) == chi
    if delta < 0:
        assert squarefree_mod_p(chi)
        assert (report.rank, report.signature) == (len(chi) - 1, real_root_count(chi)) == (3, 3)
    err = io.StringIO()
    config = RunConfiguration(inline_polynomials=("x1^3-2*x1",), cross_check=True)
    assert run_solve(config, io.StringIO(), err) == EXIT_ORACLE_MISMATCH
    assert "chi of x1 is not the primitive generator of the basis" in err.getvalue()
