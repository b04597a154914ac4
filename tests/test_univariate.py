"""Newton sums, the classic Hankel criterion, the Sturm/squarefree oracles,
and the integer layer: the squarefree test mod p and the Descartes count."""

import functools
from fractions import Fraction
from random import Random

import pytest

from hermitecount import GREVLEX, MonomialOrder, buchberger, hermite_report
from hermitecount.linalg import inertia
from hermitecount.separating import PRIME, integer_squarefree_part, real_root_count, squarefree_mod_p
from hermitecount.univariate import UnivariatePolynomial, poly_gcd, squarefree_part, sturm_count

from support import classic_hermite_matrix, newton_sums, primitive, rand_monic_univariate, to_multivariate


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


def test_non_monic_inputs_are_normalized_upstream():
    # root sets are unchanged by scaling; oracles accept non-monic input
    f = uni(2, 0, 2)  # 2t^2 + 2
    assert squarefree_part(f) == uni(1, 0, 1)
    assert sturm_count(f) == 0
    g = f.monic()
    assert newton_sums(g, 3).values == (2, 0, -2)


def uni_from_ints(coefficients):
    return UnivariatePolynomial(coefficients)


def rand_root_factor(rng):
    """A factor with rational roots at the bisection points 0, +-1, 1/2 and
    1/2^j, at other small rationals, or with clustered and complex roots."""
    style = rng.randrange(6)
    if style == 0:
        root = rng.choice([0, 1, -1, Fraction(1, 2), Fraction(-1, 2)])
    elif style == 1:
        root = rng.choice((1, -1)) * Fraction(1, 2 ** rng.randint(1, 12))
    elif style == 2:
        root = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
    elif style == 3:  # t^e - c: e clustered roots on a circle
        e = rng.randint(2, 19)
        return UnivariatePolynomial([-rng.choice((1, -1)) * rng.randint(1, 99)] + [0] * (e - 1) + [1])
    elif style == 4:  # a close pair of real roots
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return UnivariatePolynomial.from_roots([a, a + Fraction(1, 2 ** rng.randint(8, 30))])
    else:  # irreducible or real-irrational quadratic
        return UnivariatePolynomial([rng.randint(-20, 20), rng.randint(-5, 5), 1])
    return UnivariatePolynomial.from_roots([root])


@functools.cache
def squarefree_integer_polynomials():
    """200 seeded squarefree primitive integer polynomials of degree at most
    about 30, plus the fixed cases the bisection must handle."""
    fixed = [
        [7],
        [-3],
        [0, 1],
        [5, -2],
        [-1, 2],
        [0, -1, 0, 1],  # 0, +-1
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # t^19 - 1
        [-7] + [0] * 18 + [1],  # t^19 - 7
        [7] + [0] * 18 + [1],  # t^19 + 7
        primitive(UnivariatePolynomial.from_roots([Fraction(1, 2 ** j) for j in range(12)])),
        primitive(UnivariatePolynomial.from_roots([0, 1, -1, Fraction(1, 2), Fraction(-1, 2)])),
    ]
    rng = Random(20261018)
    for _ in range(200):
        f = UnivariatePolynomial([rng.randint(1, 9)])
        for _ in range(rng.randint(1, 5)):
            if f.degree < 12:
                f = f * rand_root_factor(rng)
        fixed.append(primitive(squarefree_part(f)))
    return fixed


def test_descartes_count_matches_sturm_on_squarefree_polynomials():
    cases = squarefree_integer_polynomials()
    assert len(cases) >= 200
    assert {len(f) - 1 for f in cases} >= {0, 1, 19}
    for f in cases:
        assert real_root_count(f) == sturm_count(uni_from_ints(f)), f


def test_descartes_count_examples():
    assert real_root_count([1]) == 0
    assert real_root_count([0, 3]) == 1
    assert real_root_count([1, 0, 1]) == 0
    assert real_root_count([-2, 0, 1]) == 2
    assert real_root_count([-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]) == 1
    assert real_root_count(primitive(UnivariatePolynomial.from_roots([1, 2, 3, 4, 5]))) == 5


def test_mod_p_test_passes_squarefree_polynomials():
    # 2^61 - 1 divides neither a leading coefficient nor a discriminant here
    for f in squarefree_integer_polynomials():
        assert squarefree_part(uni_from_ints(f)).degree == len(f) - 1
        assert squarefree_mod_p(f), f
        assert integer_squarefree_part(f) == primitive(squarefree_part(uni_from_ints(f))), f


def test_mod_p_test_never_passes_a_square_factor():
    rng = Random(2**61 - 1)
    for _ in range(200):
        g = UnivariatePolynomial([rng.randint(-30, 30) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 30)])
        h = UnivariatePolynomial([rng.randint(-30, 30) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 30)])
        f = primitive(g * g * h)
        assert not squarefree_mod_p(f), f
        assert integer_squarefree_part(f) == primitive(squarefree_part(g * g * h)), f
    # a degree that drops mod PRIME says nothing, so the test fails
    assert not squarefree_mod_p([1, 0, PRIME])
    assert not squarefree_mod_p([-PRIME, 1, PRIME])
    assert squarefree_mod_p([1, 0, PRIME + 1])
    assert squarefree_mod_p([5]) and squarefree_mod_p([3, 2])
    assert not squarefree_mod_p([]) and not squarefree_mod_p([3, PRIME])
