"""Exact inertia: congruence diagonalization against the characteristic
polynomial oracle."""

import copy
from decimal import Decimal
from fractions import Fraction
from math import gcd
from random import Random

import pytest

from hermitecount import (
    ORDER_KINDS,
    buchberger,
    hermite_form,
    linalg,
    parse_system,
    standard_monomials,
)
from hermitecount.linalg import InertiaResult, Symmetric, inertia, inertia_via_charpoly

from support import (
    DENSE_2_5,
    FIXTURE_SYSTEMS,
    assert_view_matches_dense,
    berkowitz_charpoly,
    certified_diagonal,
    congruence_certificate,
    congruence_diagonalize,
    gaussian_rank,
    mat_mul,
    rand_fraction,
    rand_invertible,
    rand_nonzero_fraction,
    rand_symmetric,
    random_systems,
    reference_characteristic_polynomial,
    staircase_pool,
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


# One matrix per pivoting branch.  The first four are named for the branches
# that a search of the whole trailing block would take on them; the row-local
# rule rescues "swap" and "rescue-at-k" with t = 1 at k = 0, skips the zero
# row 0 of "rescue-below-k" and then rescues at k = 1, and skips the rows of
# "zero-block" that the first pivot leaves zero.  "rescue-minus" needs t = -1,
# as 2*M[0][1] + M[1][1] == 0, and "zero-rows-first" skips two zero rows
# before a block with a nonzero pivot.
PIVOT_BRANCHES = {
    "swap": [[0, 1], [1, 2]],
    "rescue-at-k": [[0, 1], [1, 0]],
    "rescue-below-k": [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    "zero-block": [[1, 1, 0], [1, 1, 0], [0, 0, 0]],
    "rescue-minus": [[0, 1], [1, -2]],
    "zero-rows-first": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 3, 1], [0, 0, 1, 0]],
}


@pytest.mark.parametrize("matrix", PIVOT_BRANCHES.values(), ids=PIVOT_BRANCHES.keys())
def test_congruence_pivot_branches(matrix):
    original = copy.deepcopy(matrix)
    certified_diagonal(matrix)
    assert inertia(matrix) == inertia_via_charpoly(matrix)
    assert matrix == original
    view = Symmetric.from_rows(matrix)
    columns = copy.deepcopy(view.columns)
    assert_view_matches_dense(view, matrix)
    assert view.columns == columns  # the sweep reads the columns and never writes them


def test_congruence_on_mostly_zero_diagonals_matches_charpoly():
    """Small symmetric integer matrices whose diagonals are mostly zero, so
    that most pivots need the rescue, some with t = -1, and rows go zero."""
    rng = Random(16)
    for _ in range(2000):
        dim = rng.randint(1, 7)
        m = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            m[i][i] = rng.randint(-3, 3) if rng.random() < 0.25 else 0
            for j in range(i + 1, dim):
                m[i][j] = m[j][i] = rng.randint(-3, 3)
        certified_diagonal(m)
        assert inertia(m) == inertia_via_charpoly(m), m
        assert_view_matches_dense(Symmetric.from_rows(m), m)


def rand_row_rational_symmetric(rng, dim, zero_diagonal):
    """A symmetric matrix whose upper-triangle row i is over its own
    denominator, up to 10^6, with numerators up to 200 bits and about a third
    of the entries zero.  With `zero_diagonal`, three diagonal entries in four
    are zero, and the first pivot is planted to need the rescue with t = -1."""
    dens = [rng.randint(1, 10**6) for _ in range(dim)]
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < 0.3 or (i == j and zero_diagonal and rng.random() < 0.75):
                continue
            m[i][j] = m[j][i] = Fraction(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 200)), dens[i])
    j = next((j for j in range(1, dim) if m[0][j]), None)
    if zero_diagonal and j is not None:
        m[0][0], m[j][j] = Fraction(0), -2 * m[0][j]
    return m


def test_integer_row_congruence_matches_certificate():
    """The integer-row sweep against the Fraction certificate, where every row
    has its own denominator: on large rationals, on mostly-zero diagonals whose
    pivots need the rescue with either t, and on the trace form of dense(2,5)."""
    rng = Random(17)
    rescues, diagonals = [], []
    for n in range(300):
        dim = rng.randint(1, 8)
        m = rand_row_rational_symmetric(rng, dim, n % 2 == 1)
        diagonals += certified_diagonal(m, rescues)
        assert_view_matches_dense(Symmetric.from_rows(m), m)
    # small numerators over small row denominators, where 2*M[k][j] + M[j][j]
    # cancels deep in the sweep too
    for _ in range(300):
        dim = rng.randint(2, 7)
        dens = [rng.randint(1, 4) for _ in range(dim)]
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                if i != j or rng.random() < 0.25:
                    m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), dens[i])
        diagonals += certified_diagonal(m, rescues)
        assert_view_matches_dense(Symmetric.from_rows(m), m)
    assert {t for _, _, t in rescues} == {-1, 1}
    assert any(t == -1 and k > 0 for k, _, t in rescues)
    assert any(j > k + 1 for k, j, _ in rescues)
    assert any(d < 0 for d in diagonals) and any(d > 0 for d in diagonals)
    _, polys = parse_system("\n".join(DENSE_2_5))
    basis = buchberger(polys, polys[0].order)
    form = hermite_form(basis, standard_monomials(basis))
    assert len(form.entries) == 25
    certified_diagonal(form.entries)
    assert inertia(form.entries) == InertiaResult(13, 12, 0)


def test_congruence_hyperbolic_pair():
    assert inertia([[0, 1], [1, 0]]) == InertiaResult(1, 1, 0)


def test_congruence_identity():
    assert inertia([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == InertiaResult(3, 0, 0)


def test_congruence_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        congruence_diagonalize([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        inertia_via_charpoly([[0, 1], [0, 0]])


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[0.5]], r"entry \(0,0\) is float"),
        ([[1, Decimal("0.5")], [Decimal("0.5"), 2]], r"entry \(0,1\) is Decimal"),
        # a zero pivot in row 0, so the sweep would rescue it first
        ([[0, 1, 0], [1, 0, 0], [0, 0, 0.25]], r"entry \(2,2\) is float"),
    ],
    ids=["float", "decimal", "float-past-a-zero-pivot"],
)
def test_entries_that_are_not_int_or_fraction_raise_type_error(entries, message):
    for function in (congruence_diagonalize, inertia, inertia_via_charpoly):
        with pytest.raises(TypeError, match=message):
            function(entries)


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
    assert berkowitz_charpoly([[2, 0], [0, 0]]).coefficients == (0, -2, 1)
    assert berkowitz_charpoly([[1, 0], [0, 1]]).coefficients == (1, -2, 1)
    assert berkowitz_charpoly([[0, 1], [1, 0]]).coefficients == (-1, 0, 1)
    assert berkowitz_charpoly([]).coefficients == (1,)


def test_charpoly_on_nonsymmetric_matrix():
    # det(tI - A) for A = [[0, 1], [0, 0]] is t^2
    assert berkowitz_charpoly([[0, 1], [0, 0]]).coefficients == (0, 0, 1)


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
        assert berkowitz_charpoly(m) == expected
        if shape != "general" and dim:
            assert expected.coefficients[0] == 0  # det == 0


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_charpoly_matches_fraction_berkowitz_on_fixture_forms(kind):
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text, kind)
        basis = buchberger(polys, polys[0].order)
        form = hermite_form(basis, standard_monomials(basis))
        assert berkowitz_charpoly(form.entries) == reference_characteristic_polynomial(form.entries)


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


def assert_inertia_is_the_signs_of_the_certificate(entries, rescues=None):
    diagonal, _ = congruence_certificate(entries, rescues)
    signs = [(d > 0) - (d < 0) for d in diagonal]
    assert inertia(entries) == InertiaResult(signs.count(1), signs.count(-1), signs.count(0))
    assert congruence_diagonalize(entries) == diagonal


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_inertia_is_the_signs_of_the_certificate_diagonal(kind):
    systems = [parse_system(text, kind)[1] for _, text in FIXTURE_SYSTEMS]
    systems += [polys for _, _, polys in random_systems(kind)]
    # staircase instances: H is 85 nonzeros of 5 929, most rows empty past the diagonal
    systems += [parse_system(text, kind)[1] for seed in (7, 11) for text in staircase_pool(seed)[:3]]
    rescues = []
    for polys in systems:
        basis = buchberger(polys, polys[0].order)
        assert_inertia_is_the_signs_of_the_certificate(hermite_form(basis, standard_monomials(basis)).entries, rescues)
    # rank-deficient forms, and the pivot branches
    rng = Random(f"rank-deficient-{kind}")
    for dim in range(1, 8):
        rows = [[rand_fraction(rng, 9) for _ in range(dim)] for _ in range(rng.randint(0, dim - 1))]
        gram = [[sum((a[i] * a[j] for a in rows), Fraction(0)) for j in range(dim)] for i in range(dim)]
        assert_inertia_is_the_signs_of_the_certificate(gram, rescues)
    for entries in PIVOT_BRANCHES.values():
        assert_inertia_is_the_signs_of_the_certificate(entries, rescues)
    assert rescues


def test_gaussian_rank_on_rectangular():
    assert gaussian_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert gaussian_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert gaussian_rank([]) == 0


def test_inertia_result_identities():
    r = InertiaResult(3, 2, 1)
    assert r.rank == 5
    assert r.signature == 1
    assert r.positive + r.negative + r.zero == 6


def _fractions(v, n):
    nums, den = v
    return [Fraction(nums.get(r, 0), den) for r in range(n)]


def _is_lowest(v):
    nums, den = v
    return den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1


def _rand_coords(rng, n):
    """Sparse coordinates, a mix of ints and Fractions, zeros included."""
    return {r: rng.choice((rng.randint(-9, 9), rand_fraction(rng, 60))) for r in range(n) if rng.random() < 0.5}


def test_vector_kernel_matches_fraction_arithmetic():
    rng = Random(18)
    for _ in range(300):
        n = rng.randint(1, 7)
        coords = [_rand_coords(rng, n) for _ in range(n)]
        dense = [[Fraction(c.get(r, 0)) for r in range(n)] for c in coords]  # by columns
        matrix = [linalg.vector(c) for c in coords]
        assert [_fractions(column, n) for column in matrix] == dense
        x_coords = _rand_coords(rng, n)
        x = linalg.vector(x_coords)
        product = linalg.apply(matrix, x)
        assert _fractions(product, n) == [
            sum((column[r] * x_coords.get(k, 0) for k, column in enumerate(dense)), Fraction(0))
            for r in range(n)
        ]
        transposed = linalg.transpose(matrix)
        assert [_fractions(row, n) for row in transposed] == [list(row) for row in zip(*dense)]
        assert linalg.transpose(transposed) == matrix
        assert all(map(_is_lowest, [*matrix, x, product, *transposed]))
        for k, column in enumerate(matrix):
            assert linalg.apply(matrix, ({k: 1}, 1)) is column
        scale = rng.randint(1, 10**6)
        assert linalg.lowest({**{r: scale * y for r, y in x[0].items()}, n: 0}, scale * x[1]) == x


def test_transpose_takes_short_rows_directly():
    # Rows of M are the columns of M^T.  Each row gets 0, 1 or several terms,
    # ints or Fractions over mixed denominators, so every branch of
    # `transpose` runs: the empty row, the one-term row over one gcd, and the
    # combination over the lcm.
    rng = Random(29)
    kinds = {0: 0, 1: 0, 2: 0}
    for _ in range(200):
        n = rng.randint(2, 12)
        dense = [[Fraction(0)] * n for _ in range(n)]  # by rows
        for row in dense:
            size = rng.choice((0, 1, 1, rng.randint(2, n)))
            kinds[min(size, 2)] += 1
            for c in rng.sample(range(n), size):
                row[c] = rng.choice((Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)), rand_nonzero_fraction(rng, 90)))
        matrix = [linalg.vector(dict(enumerate(column))) for column in zip(*dense)]
        transposed = linalg.transpose(matrix)
        assert [_fractions(column, n) for column in transposed] == dense
        assert all(map(_is_lowest, transposed))
        assert linalg.transpose(transposed) == matrix
    assert min(kinds.values()) > 100


def test_vector_clears_ints_and_fractions():
    assert linalg.vector({}) == ({}, 1)
    assert linalg.vector({0: 4, 2: 0, 5: -6}) == ({0: 4, 5: -6}, 1)
    assert linalg.vector({(1, 0): Fraction(1, 6), (0, 2): -2, (0, 0): Fraction(3, 4)}) == (
        {(1, 0): 2, (0, 2): -24, (0, 0): 9},
        12,
    )
