"""Newton sums, the classic Hankel criterion, and the Sturm/squarefree oracles."""

from fractions import Fraction
from random import Random

import pytest

from hermitecount import (
    GREVLEX,
    MonomialOrder,
    UnivariatePolynomial,
    buchberger,
    from_multivariate,
    hermite_report,
    inertia,
    squarefree_part,
    sturm_count,
)
from hermitecount.univariate import poly_gcd

from support import classic_hermite_matrix, newton_sums, rand_monic_univariate, to_multivariate


def uni(*ascending):
    return UnivariatePolynomial(ascending)


def test_newton_sums_complex_pair():
    sums = newton_sums(uni(1, 0, 1), 3)  # t^2 + 1, roots +/- i
    assert sums.values == (2, 0, -2)


def test_newton_sums_linear_matches_first_identity():
    for a in (Fraction(5), Fraction(-7, 3), Fraction(0)):
        sums = newton_sums(uni(-a, 1), 2)  # t - a
        assert sums.values == (1, a)


def test_newton_sums_three_real_roots():
    sums = newton_sums(uni(0, -1, 0, 1), 5)  # t^3 - t, roots -1, 0, 1
    assert sums.values == (3, 0, 2, 0, 2)


def test_newton_sums_requires_monic_positive_degree():
    with pytest.raises(ValueError):
        newton_sums(uni(1, 0, 2), 3)
    with pytest.raises(ValueError):
        newton_sums(uni(5), 1)
    with pytest.raises(ValueError):
        newton_sums(UnivariatePolynomial(), 1)


def test_newton_sums_match_power_sums_of_known_roots():
    rng = Random(42)
    for _ in range(25):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        f = UnivariatePolynomial.from_roots(roots)
        count = 2 * f.degree - 1
        sums = newton_sums(f, count)
        for k in range(count):
            assert sums[k] == sum((r ** k for r in roots), Fraction(0))


def test_classic_matrix_complex_pair():
    h = classic_hermite_matrix(uni(1, 0, 1))
    assert h == [[2, 0], [0, -2]]
    result = inertia(h)
    assert (result.rank, result.signature) == (2, 0)


def test_classic_matrix_three_real_roots():
    h = classic_hermite_matrix(uni(0, -1, 0, 1))
    assert h == [[3, 0, 2], [0, 2, 0], [2, 0, 2]]
    result = inertia(h)
    assert (result.rank, result.signature) == (3, 3)


def test_classic_matrix_single_root():
    h = classic_hermite_matrix(uni(-5, 1))
    assert h == [[1]]
    result = inertia(h)
    assert (result.rank, result.signature) == (1, 1)


def test_squarefree_part_examples():
    assert squarefree_part(uni(1, -2, 1)) == uni(-1, 1)  # (t-1)^2 -> t-1
    assert squarefree_part(uni(1, 0, 1)) == uni(1, 0, 1)
    assert squarefree_part(uni(0, 0, -1, 1)) == uni(0, -1, 1)  # t^2(t-1) -> t^2-t
    with pytest.raises(ValueError):
        squarefree_part(UnivariatePolynomial())


def test_sturm_count_examples():
    assert sturm_count(uni(1, 0, 1)) == 0
    assert sturm_count(uni(0, -1, 0, 1)) == 3
    assert sturm_count(uni(0, 0, 1)) == 1  # t^2: one distinct real root
    assert sturm_count(uni(7)) == 0
    with pytest.raises(ValueError):
        sturm_count(UnivariatePolynomial())


def test_gcd_and_division():
    rng = Random(99)
    for _ in range(20):
        a = rand_monic_univariate(rng, 5)
        b = rand_monic_univariate(rng, 5)
        g = poly_gcd(a, b)
        assert (a % g).is_zero() and (b % g).is_zero()
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_criterion_consistency_random():
    # rank counts distinct complex roots, signature the distinct real ones
    rng = Random(20240813)
    for _ in range(100):
        f = rand_monic_univariate(rng, 8)
        result = inertia(classic_hermite_matrix(f))
        assert result.rank == squarefree_part(f).degree
        assert result.signature == sturm_count(f)


def test_pipeline_equivalence_on_one_variable_systems():
    rng = Random(31337)
    order = MonomialOrder(GREVLEX, 1)
    for _ in range(25):
        f = rand_monic_univariate(rng, 6)
        basis = buchberger([to_multivariate(f, order)], order)
        report = hermite_report(basis)
        classic = inertia(classic_hermite_matrix(f))
        assert report.complex_count == classic.rank == squarefree_part(f).degree
        assert report.real_count == classic.signature == sturm_count(f)


def test_multivariate_round_trip():
    order = MonomialOrder(GREVLEX, 1)
    f = uni(Fraction(1, 3), 0, -2, 1)
    assert from_multivariate(to_multivariate(f, order)) == f


def test_non_monic_inputs_are_normalized_upstream():
    # root sets are unchanged by scaling; oracles accept non-monic input
    f = uni(2, 0, 2)  # 2t^2 + 2
    assert squarefree_part(f) == uni(1, 0, 1)
    assert sturm_count(f) == 0
    g = f.monic()
    assert newton_sums(g, 3).values == (2, 0, -2)
