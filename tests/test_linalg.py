"""Exact inertia: congruence diagonalization against the characteristic
polynomial oracle."""

import copy
from random import Random

import pytest

from hermitecount import (
    ORDER_KINDS,
    InertiaResult,
    buchberger,
    characteristic_polynomial,
    congruence_diagonalize,
    hermite_form,
    inertia,
    inertia_via_charpoly,
    parse_system,
    standard_monomials,
)

from support import (
    FIXTURE_SYSTEMS,
    certified_diagonal,
    gaussian_rank,
    mat_mul,
    rand_fraction,
    rand_invertible,
    rand_symmetric,
    random_systems,
    reference_characteristic_polynomial,
    transpose,
)

TRACE_FORM_4X4 = [
    [4, 0, -2, 0],
    [0, 0, 4, 6],
    [-2, 4, 4, 0],
    [0, 6, 0, -4],
]


def test_congruence_rank_deficient_diagonal():
    assert certified_diagonal([[2, 0], [0, 0]]) == [2, 0]
    assert inertia([[2, 0], [0, 0]]) == InertiaResult(1, 0, 1)


# One matrix per pivoting branch: a later nonzero diagonal is swapped in; the
# rescue plants 2*M[i][j] at i == k, or at i > k and is then swapped to k; the
# trailing block becomes zero and the sweep stops early.
PIVOT_BRANCHES = {
    "swap": [[0, 1], [1, 2]],
    "rescue-at-k": [[0, 1], [1, 0]],
    "rescue-below-k": [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    "zero-block": [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
}


@pytest.mark.parametrize("matrix", PIVOT_BRANCHES.values(), ids=PIVOT_BRANCHES.keys())
def test_congruence_pivot_branches(matrix):
    original = copy.deepcopy(matrix)
    certified_diagonal(matrix)
    assert inertia(matrix) == inertia_via_charpoly(matrix)
    assert matrix == original


def test_congruence_hyperbolic_pair():
    assert inertia([[0, 1], [1, 0]]) == InertiaResult(1, 1, 0)


def test_congruence_identity():
    assert inertia([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == InertiaResult(3, 0, 0)


def test_congruence_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        congruence_diagonalize([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        inertia_via_charpoly([[0, 1], [0, 0]])


def test_inertia_of_known_indefinite_form():
    result = inertia(TRACE_FORM_4X4)
    assert (result.rank, result.signature) == (4, 2)


def test_inertia_zero_matrix():
    for n in (1, 3, 5):
        zero = [[0] * n for _ in range(n)]
        assert inertia(zero) == InertiaResult(0, 0, n)


def test_inertia_of_diagonal_root_model():
    # diag(1 x r, 2 x s, -2 x s) has rank r + 2s and signature r
    for r in range(5):
        for s in range(4):
            diag = [1] * r + [2] * s + [-2] * s
            n = len(diag)
            m = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            result = inertia(m)
            assert result.rank == r + 2 * s
            assert result.signature == r


def test_charpoly_examples():
    assert characteristic_polynomial([[2, 0], [0, 0]]).coefficients == (0, -2, 1)
    assert characteristic_polynomial([[1, 0], [0, 1]]).coefficients == (1, -2, 1)
    assert characteristic_polynomial([[0, 1], [1, 0]]).coefficients == (-1, 0, 1)
    assert characteristic_polynomial([]).coefficients == (1,)


def test_charpoly_on_nonsymmetric_matrix():
    # det(tI - A) for A = [[0, 1], [0, 0]] is t^2
    assert characteristic_polynomial([[0, 1], [0, 0]]).coefficients == (0, 0, 1)


def rand_square(rng, dim, shape):
    """A random rational dim x dim matrix of the given shape."""
    if shape == "zero":
        return [[0] * dim for _ in range(dim)]
    m = [[rand_fraction(rng, 20) if rng.random() < 0.7 else 0 for _ in range(dim)] for _ in range(dim)]
    if shape == "singular" and dim:
        # the last row is a rational combination of the others (zero if dim 1)
        weights = [rand_fraction(rng, 5) for _ in range(dim - 1)]
        m[-1] = [sum(w * row[c] for w, row in zip(weights, m)) for c in range(dim)]
    return m


@pytest.mark.parametrize("shape", ["general", "singular", "zero"])
def test_charpoly_matches_fraction_berkowitz(shape):
    rng = Random(f"charpoly-{shape}")
    for dim in [0, 1, 1, 2, 3] + [rng.randint(2, 9) for _ in range(25)]:
        m = rand_square(rng, dim, shape)
        expected = reference_characteristic_polynomial(m)
        assert characteristic_polynomial(m) == expected
        if shape != "general" and dim:
            assert expected.coefficients[0] == 0  # det == 0


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_charpoly_matches_fraction_berkowitz_on_fixture_forms(kind):
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text, kind)
        basis = buchberger(polys, polys[0].order)
        form = hermite_form(basis, standard_monomials(basis))
        assert characteristic_polynomial(form.entries) == reference_characteristic_polynomial(form.entries)


def test_inertia_via_charpoly_examples():
    assert inertia_via_charpoly([[2, 0], [0, 0]]) == InertiaResult(1, 0, 1)
    assert inertia_via_charpoly([[0, 1], [1, 0]]) == InertiaResult(1, 1, 0)
    assert inertia_via_charpoly([[0, 0], [0, 0]]) == InertiaResult(0, 0, 2)


def test_empty_matrix_inertia():
    assert inertia([]) == InertiaResult(0, 0, 0)
    assert inertia_via_charpoly([]) == InertiaResult(0, 0, 0)


def test_oracle_agreement_and_congruence_validity_random():
    rng = Random(20240814)
    for _ in range(60):
        dim = rng.randint(1, 10)
        m = rand_symmetric(rng, dim)
        primary = inertia(m)
        oracle = inertia_via_charpoly(m)
        assert primary == oracle
        certified_diagonal(m)
        assert primary.rank == gaussian_rank(m)


def test_sylvester_stability_under_congruence():
    rng = Random(555)
    for _ in range(20):
        dim = rng.randint(1, 6)
        m = rand_symmetric(rng, dim)
        p = rand_invertible(rng, dim)
        transformed = mat_mul(mat_mul(transpose(p), m), p)
        assert inertia(transformed) == inertia(m)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_hermite_matrices_match_congruence_certificate(kind):
    systems = [parse_system(text, kind)[1] for _, text in FIXTURE_SYSTEMS]
    systems += [polys for _, _, polys in random_systems(kind)]
    for polys in systems:
        basis = buchberger(polys, polys[0].order)
        form = hermite_form(basis, standard_monomials(basis))
        certified_diagonal(form.entries)


def test_gaussian_rank_on_rectangular():
    assert gaussian_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert gaussian_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert gaussian_rank([]) == 0


def test_inertia_result_identities():
    r = InertiaResult(3, 2, 1)
    assert r.rank == 5
    assert r.signature == 1
    assert r.positive + r.negative + r.zero == 6
