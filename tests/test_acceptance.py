"""Acceptance suite: every shipping criterion, each at its stated tolerance.

Every test prints one PASS/FAIL line (run with `pytest -s` to see them all);
all assertions are exact except the explicit wall-clock bounds.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from hermitecount import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    buchberger,
    hermite_form,
    hermite_report,
    parse_system,
    standard_monomials,
)
from hermitecount.cli import EXIT_NOT_ZERO_DIMENSIONAL, main, run_bench
from hermitecount.groebner import normal_form
from hermitecount.linalg import inertia, inertia_via_charpoly
from hermitecount.quotient import multiplication_matrix
from hermitecount.univariate import UnivariatePolynomial, squarefree_part, sturm_count

from support import (
    FIXTURE_SYSTEMS,
    basis_index,
    certified_diagonal,
    classic_hermite_matrix,
    mul_term,
    permutation_equal,
    rand_monic_univariate,
    rand_symmetric,
    to_multivariate,
)

CIRCLE_HYPERBOLA_FORM = [
    [4, 0, -2, 0],
    [0, 0, 4, 6],
    [-2, 4, 4, 0],
    [0, 6, 0, -4],
]
TANGENT_LINE_FORM = [[2, 0], [0, 0]]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def solve(text, kind=GREVLEX):
    _, polys = parse_system(text, kind)
    return buchberger(polys, polys[0].order)


def test_criterion_1_circle_hyperbola_fixture():
    with criterion(1, "circle-hyperbola fixture: 4 complex / 2 real and the known 4x4 form"):
        start = time.perf_counter()
        report = hermite_report(solve("x1*x2+x2-1\nx1^2+x2^2-1"))
        elapsed = time.perf_counter() - start
        assert report.complex_count == 4
        assert report.real_count == 2
        assert report.quotient_dimension == 4
        assert permutation_equal(report.form.rows(), CIRCLE_HYPERBOLA_FORM)
        assert elapsed < 1.0, f"took {elapsed:.3f}s, expected well under 1s"


def test_criterion_2_tangent_line_fixture():
    with criterion(2, "tangent-line fixture: matrix [[2,0],[0,0]], 1 complex / 1 real"):
        report = hermite_report(solve("x1-1\nx1^2+x2^2-1"))
        assert permutation_equal(report.form.rows(), TANGENT_LINE_FORM)
        assert report.complex_count == 1
        assert report.real_count == 1


def test_criterion_3_positive_dimensional_rejection(capsys):
    with criterion(3, "positive-dimensional input rejected with exit code 3"):
        code = main(["solve", "--poly", "x1-x2"])
        err = capsys.readouterr().err
        assert code == EXIT_NOT_ZERO_DIMENSIONAL == 3
        assert "the ideal is not zero-dimensional" in err


def test_criterion_4_diagonal_root_model():
    with criterion(4, "diag(1 x r, 2 x s, -2 x s) has rank r+2s and signature r, r+2s <= 10"):
        checked = 0
        for r in range(11):
            for s in range((10 - r) // 2 + 1):
                diag = [1] * r + [2] * s + [-2] * s
                n = len(diag)
                matrix = [
                    [Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)
                ]
                for result in (inertia(matrix), inertia_via_charpoly(matrix)):
                    assert result.rank == r + 2 * s
                    assert result.signature == r
                checked += 1
        assert checked == 36  # all (r, s) with r + 2s <= 10


FORCED_UNIVARIATE_CASES = [
    UnivariatePolynomial.from_roots([1, 1]),                      # (t-1)^2
    UnivariatePolynomial.from_roots([-2, -2, -2]),                # (t+2)^3
    UnivariatePolynomial([1, 0, 1]),                              # t^2+1
    UnivariatePolynomial([1, 0, 1]) * UnivariatePolynomial.from_roots([1, 1]),
    UnivariatePolynomial([1, 1, 1]) * UnivariatePolynomial([1, 1, 1]),
    UnivariatePolynomial([1, 0, 1]) * UnivariatePolynomial([4, 0, 1]),
    UnivariatePolynomial.from_roots([0, 0, 1, -1, Fraction(1, 2)]),
    UnivariatePolynomial([2, 0, 1]) * UnivariatePolynomial([2, 0, 1]),
]


def test_criterion_5_univariate_equivalence_suite():
    with criterion(5, "100 univariate cases: classic rank/signature = squarefree/Sturm = pipeline"):
        start = time.perf_counter()
        rng = Random(20240817)
        cases = list(FORCED_UNIVARIATE_CASES)
        while len(cases) < 100:
            cases.append(rand_monic_univariate(rng, 8))
        order = MonomialOrder(GREVLEX, 1)
        for f in cases:
            classic = inertia(classic_hermite_matrix(f))
            assert classic.rank == squarefree_part(f).degree
            assert classic.signature == sturm_count(f)
            report = hermite_report(buchberger([to_multivariate(f, order)], order))
            assert report.complex_count == classic.rank
            assert report.real_count == classic.signature
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s, expected under a minute"


def test_criterion_6_inertia_oracle_agreement():
    with criterion(6, "200 random symmetric matrices: congruence = charpoly inertia, exact diagonal"):
        rng = Random(20240818)
        for _ in range(200):
            dim = rng.randint(0, 12)
            matrix = rand_symmetric(rng, dim)
            primary = inertia(matrix)
            oracle = inertia_via_charpoly(matrix)
            assert primary == oracle
            certified_diagonal(matrix)


def test_criterion_7_order_invariance():
    with criterion(7, "rank and signature agree under lex, grlex and grevlex on every fixture"):
        for name, text in FIXTURE_SYSTEMS:
            results = {
                kind: hermite_report(solve(text, kind)) for kind in ("lex", "grlex", "grevlex")
            }
            ranks = {r.rank for r in results.values()}
            signatures = {r.signature for r in results.values()}
            assert len(ranks) == 1, f"{name}: ranks {ranks}"
            assert len(signatures) == 1, f"{name}: signatures {signatures}"


def _sphere_times_monotone(results):
    spheres = [r for r in results if r.family == "sphere"]
    assert [r.parameter for r in spheres] == list(range(2, 6))
    return all(a.seconds <= b.seconds for a, b in zip(spheres, spheres[1:]))


def test_criterion_8_scaling_families(capsys):
    with criterion(8, "sphere family to n=5 and degree family to d=7: counts exact, time grows with n"):
        results = run_bench(max_spheres=5, max_degree=7, repeats=5)
        capsys.readouterr()
        for r in results:
            if r.family == "sphere":
                assert (r.complex_count, r.real_count) == (1, 1)
            else:
                d = r.parameter
                f = UnivariatePolynomial([0, -1] + [0] * (d - 2) + [1])  # t^d - t
                assert r.complex_count == squarefree_part(f).degree
                assert r.real_count == sturm_count(f)
        if not _sphere_times_monotone(results):
            # single retry: workload quadruples per step but timers can jitter
            results = run_bench(max_spheres=5, max_degree=2, repeats=5)
            capsys.readouterr()
            assert _sphere_times_monotone(results), (
                "sphere-family time not monotone in n across two runs"
            )


def test_criterion_9_nilpotent_annihilation():
    with criterion(9, "nilpotent quotient element has an exactly zero row and column"):
        basis = solve("x1-1\nx1^2+x2^2-1")  # reduced basis {x1 - 1, x2^2}
        quotient = standard_monomials(basis)
        x2 = Monomial((0, 1))
        assert x2 in quotient.monomials
        x2_poly = Polynomial(basis.order, {x2: 1})
        power = normal_form(x2_poly * x2_poly, basis)
        assert power.is_zero()  # x2^m = 0 with m = 2 <= dim A + 1
        for mono in quotient.monomials:
            product = mul_term(x2_poly, 1, mono)
            assert multiplication_matrix(product, basis, quotient).trace() == 0
        form = hermite_form(basis, quotient)
        row = basis_index(quotient)[x2]
        dim = quotient.dimension
        assert all(form.entries[row][j] == 0 for j in range(dim))
        assert all(form.entries[i][row] == 0 for i in range(dim))
