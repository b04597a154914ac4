"""Buchberger's algorithm, normal forms, and the staircase of standard monomials."""

from fractions import Fraction
from itertools import permutations
from operator import add, le
from random import Random
from time import perf_counter

import pytest

from hermitecount import (
    GREVLEX,
    GRLEX,
    LEX,
    ORDER_KINDS,
    Monomial,
    MonomialOrder,
    NotZeroDimensionalError,
    Polynomial,
    buchberger,
    fglm,
    parse_system,
    standard_monomials,
)
from hermitecount import groebner, quotient
from hermitecount.groebner import is_zero_dimensional
from hermitecount.linalg import inertia
from hermitecount.quotient import change_order, charpoly_report, hankel_form, hermite_form, shape_position
from hermitecount.separating import audit_basis

import support
from support import (
    FIXTURE_SYSTEMS,
    _naive_reduce,
    exponent_key,
    gebauer_moeller_buchberger,
    integer_content,
    katsura,
    mul_term,
    naive_buchberger,
    normal_form,
    parse_polynomial,
    rand_dense_system,
    rand_polynomial,
    rand_sparse_system,
    random_systems,
    rational_systems,
    s_pair_audit,
)

ORDER2 = MonomialOrder(GREVLEX, 2)
VARS2 = ["x1", "x2"]


def p2(text):
    return parse_polynomial(text, VARS2)


@pytest.fixture
def line_circle_basis():
    return buchberger([p2("x1-1"), p2("x1^2+x2^2-1")], ORDER2)


def test_buchberger_line_circle(line_circle_basis):
    assert [g for g in line_circle_basis] == [p2("x1-1"), p2("x2^2")]


def test_buchberger_single_polynomial_normalizes():
    basis = buchberger([p2("2*x1^2+4")], ORDER2)
    assert list(basis) == [p2("x1^2+2")]


def test_buchberger_unit_ideal():
    basis = buchberger([p2("x1"), p2("x1+1")], ORDER2)
    assert list(basis) == [p2("1")]


def test_buchberger_rejects_all_zero_input():
    with pytest.raises(NotZeroDimensionalError):
        buchberger([Polynomial(ORDER2)], ORDER2)
    with pytest.raises(NotZeroDimensionalError):
        buchberger([], ORDER2)


def test_buchberger_zero_ideal_without_variables():
    order = MonomialOrder(GREVLEX, 0)
    for polys in ([Polynomial(order)], []):
        basis = buchberger(polys, order)
        assert basis.generators == ()
        assert standard_monomials(basis).monomials == (Monomial(()),)
    assert list(buchberger([Polynomial(order, {Monomial(()): 5})], order)) == [Polynomial(order, {Monomial(()): 1})]


def test_buchberger_drops_zero_generators(line_circle_basis):
    with_zero = buchberger(
        [p2("x1-1"), Polynomial(ORDER2), p2("x1^2+x2^2-1")], ORDER2
    )
    assert with_zero.generators == line_circle_basis.generators


# `support.normal_form` divides by a basis with the engine's own routine,
# `groebner._reduce`, on the engine's monomial codes: these tests check that
# division.


def test_normal_form_of_circle_modulo_basis(line_circle_basis):
    assert not normal_form(p2("x1^2+x2^2-1"), line_circle_basis)


def test_normal_form_keeps_standard_support(line_circle_basis):
    p = p2("x2+1/2")
    assert normal_form(p, line_circle_basis) == p


def test_normal_form_replaces_leading_variable(line_circle_basis):
    assert normal_form(p2("x1*x2"), line_circle_basis) == p2("x2")


def test_normal_form_order_mismatch(line_circle_basis):
    with pytest.raises(ValueError):
        normal_form(parse_polynomial("x1", VARS2, "lex"), line_circle_basis)


def test_is_zero_dimensional_cases(line_circle_basis):
    assert is_zero_dimensional(line_circle_basis)
    assert not is_zero_dimensional(buchberger([p2("x1-x2")], ORDER2))
    assert is_zero_dimensional(buchberger([p2("1")], ORDER2))
    # x2 has only the mixed leading monomial x1*x2 until x2^3 joins.
    assert not is_zero_dimensional(buchberger([p2("x1^2"), p2("x1*x2")], ORDER2))
    assert is_zero_dimensional(buchberger([p2("x1^2"), p2("x1*x2"), p2("x2^3")], ORDER2))
    order = MonomialOrder(GREVLEX, 0)
    assert is_zero_dimensional(buchberger([], order))
    assert is_zero_dimensional(buchberger([Polynomial(order, {Monomial(()): 5})], order))


def test_standard_monomials_line_circle(line_circle_basis):
    quotient = standard_monomials(line_circle_basis)
    assert quotient.monomials == (Monomial((0, 0)), Monomial((0, 1)))
    assert quotient.dimension == 2


def test_standard_monomials_unit_ideal():
    quotient = standard_monomials(buchberger([p2("1")], ORDER2))
    assert quotient.monomials == ()
    assert quotient.dimension == 0


def test_standard_monomials_paper_system():
    _, polys = parse_system("x1*x2+x2-1\nx1^2+x2^2-1")
    quotient = standard_monomials(buchberger(polys, ORDER2))
    assert quotient.dimension == 4
    assert Monomial((0, 0)) in quotient.monomials


def test_standard_monomials_guards_positive_dimension():
    with pytest.raises(NotZeroDimensionalError):
        standard_monomials(buchberger([p2("x1-x2")], ORDER2))


def test_basis_generators_are_monic_and_reduced():
    for _, text in FIXTURE_SYSTEMS:
        variables, polys = parse_system(text)
        basis = buchberger(polys, polys[0].order)
        audit_basis(standard_monomials(basis))  # monic, reduced, originals to zero, commuting


def test_normal_form_is_linear_and_idempotent():
    rng = Random(20240815)
    _, polys = parse_system("x1*x2+x2-1\nx1^2+x2^2-1")
    basis = buchberger(polys, ORDER2)
    for _ in range(25):
        p = rand_polynomial(rng, ORDER2, max_terms=5, max_exponent=3, bound=20)
        q = rand_polynomial(rng, ORDER2, max_terms=5, max_exponent=3, bound=20)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        def combination(p, q):
            return Polynomial(ORDER2, [*((m, a * c) for m, c in p.terms), *((m, b * c) for m, c in q.terms)])

        assert normal_form(combination(p, q), basis) == combination(normal_form(p, basis), normal_form(q, basis))
        nf = normal_form(p, basis)
        assert normal_form(nf, basis) == nf


def test_membership_of_original_generators():
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text)
        basis = buchberger(polys, polys[0].order)
        for f in polys:
            assert not normal_form(f, basis)


def test_canonicity_under_generator_permutation():
    rng = Random(4)
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text)
        basis = buchberger(polys, polys[0].order)
        for _ in range(3):
            shuffled = polys[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled, polys[0].order).generators == basis.generators


def test_quotient_dimension_is_order_invariant():
    for _, text in FIXTURE_SYSTEMS:
        dims = set()
        for kind in ORDER_KINDS:
            _, polys = parse_system(text, kind)
            basis = buchberger(polys, polys[0].order)
            dims.add(standard_monomials(basis).dimension)
        assert len(dims) == 1, f"{text!r} gave dimensions {dims}"


def test_standard_monomials_sorted_ascending():
    for kind in ORDER_KINDS:
        _, polys = parse_system("x1*x2+x2-1\nx1^2+x2^2-1", kind)
        order = polys[0].order
        quotient = standard_monomials(buchberger(polys, order))
        keys = [exponent_key(order)(m.exponents) for m in quotient.monomials]
        assert keys == sorted(keys)


def test_lex_staircase_can_exceed_generator_degree():
    # under lex the circle-hyperbola quotient basis is {1, x2, x2^2, x2^3}:
    # standard monomials may exceed the max generator degree, which is why the
    # staircase (not a degree-bounded expansion) defines the basis
    _, polys = parse_system("x1*x2+x2-1\nx1^2+x2^2-1", "lex")
    basis = buchberger(polys, polys[0].order)
    quotient = standard_monomials(basis)
    assert quotient.dimension == 4
    assert max(sum(m.exponents) for m in quotient.monomials) == 3


def test_wide_staircase_is_enumerated_by_closure():
    # 898 standard monomials in an exponent box of 2.7e7 points
    _, polys = parse_system("x1^300\nx2^300\nx3^300\nx1*x2\nx2*x3\nx1*x3")
    order = polys[0].order
    quotient = standard_monomials(buchberger(polys, order))
    assert quotient.dimension == 898
    keys = [exponent_key(order)(m.exponents) for m in quotient.monomials]
    assert keys == sorted(set(keys))


# Differential oracle: the signature engine must return exactly the basis of
# the coprime-only engine with Polynomial division, term for term and in the
# same order.


def assert_matches_naive_buchberger(polys, order):
    basis = buchberger(polys, order)
    assert [g.terms for g in basis] == [g.terms for g in naive_buchberger(polys, order)]
    s_pair_audit(basis)  # also positive-dimensional bases, which have no staircase to audit
    return basis


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_fixture_systems_match_naive_buchberger(kind):
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text, kind)
        assert_matches_naive_buchberger(polys, polys[0].order)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_random_systems_match_naive_buchberger(kind):
    for _, order, polys in random_systems(kind):
        assert_matches_naive_buchberger(polys, order)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_rational_systems_match_naive_buchberger(kind):
    # Non-integer coefficients, negative leading coefficients and non-unit
    # content: the engine clears denominators and makes generators primitive,
    # and must still return the monic basis, and normal forms, of Fraction
    # division.
    rng = Random(f"normal forms:{kind}")
    negative = content = 0
    for _, order, polys in rational_systems(kind):
        negative += sum(p.leading_coefficient() < 0 for p in polys if p)
        content += sum(integer_content(p) > 1 for p in polys if p)
        basis = assert_matches_naive_buchberger(polys, order)
        for _ in range(3):
            p = rand_polynomial(rng, order)
            assert normal_form(p, basis).terms == _naive_reduce(p, basis.generators).terms
    assert negative > 20 and content > 20


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_sparse_systems_match_naive_buchberger(kind):
    # coinciding lcms exercise criterion F: exactly one pair per lcm is kept
    for seed in range(30):
        order = MonomialOrder(kind, 3)
        assert_matches_naive_buchberger(rand_sparse_system(Random(seed), order), order)


def test_lex_dense_systems_match_naive_buchberger():
    # dense(3,2) under lex: lex coefficients far larger than grevlex ones
    order = MonomialOrder(LEX, 3)
    for seed in range(3):
        assert_matches_naive_buchberger(rand_dense_system(Random(seed), order, 2), order)


# Differential oracle: the Gebauer-Moeller pair loop that the signature
# engine replaced, on the same primitive generators and heap division.


def assert_matches_gebauer_moeller(polys, order):
    basis = buchberger(polys, order)
    expected = gebauer_moeller_buchberger(polys, order)
    assert basis == expected
    assert [g.terms for g in basis] == [g.terms for g in expected]
    return basis


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_fixture_systems_match_gebauer_moeller(kind):
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text, kind)
        assert_matches_gebauer_moeller(polys, polys[0].order)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_random_and_rational_systems_match_gebauer_moeller(kind):
    for _, order, polys in [*random_systems(kind), *rational_systems(kind)]:
        assert_matches_gebauer_moeller(polys, order)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_sparse_systems_match_gebauer_moeller(kind):
    order = MonomialOrder(kind, 3)
    for seed in range(60):
        assert_matches_gebauer_moeller(rand_sparse_system(Random(seed), order), order)


@pytest.mark.parametrize("n", [4, 5])
def test_katsura_matches_gebauer_moeller(n):
    basis = assert_matches_gebauer_moeller(katsura(n), MonomialOrder(GREVLEX, n + 1))
    assert standard_monomials(basis).dimension == 2**n


def test_every_input_order_gives_the_same_basis():
    # The engine sorts its inputs; the fourth input lies in the ideal of the
    # first two, so some orders reduce it to zero before its round.
    order = MonomialOrder(GREVLEX, 3)
    for seed in range(3):
        polys = rand_dense_system(Random(seed), order, 2)
        polys.append(Polynomial(order, [*mul_term(polys[0], 1, Monomial((0, 0, 1))).terms, *polys[1].terms]))
        expected = gebauer_moeller_buchberger(polys, order)
        for shuffled in permutations(polys):
            basis = buchberger(shuffled, order)
            assert [g.terms for g in basis] == [g.terms for g in expected]


def test_signature_criteria_regressions():
    # Sparse seed 11 under grevlex needs x1^4, which a rewrite criterion
    # that drops one J-pair too many misses; lex seeds 19 and 37 end in the
    # unit ideal and in {x3, x1*x2}.
    order = MonomialOrder(GREVLEX, 3)
    basis = assert_matches_gebauer_moeller(rand_sparse_system(Random(11), order), order)
    assert Monomial((4, 0, 0)) in basis.leading_monomials()
    lex = MonomialOrder(LEX, 3)
    for seed in (19, 37):
        assert_matches_gebauer_moeller(rand_sparse_system(Random(seed), lex), lex)
    f, g = p2("x1^2+x2^2-5"), p2("x1*x2-2")
    circle = assert_matches_gebauer_moeller([f, g], ORDER2)
    # an input in the ideal of the earlier ones, and repeated inputs
    in_ideal = p2("(x1^2+x2^2-5)*(x2+3) - (x1*x2-2)*x1")
    assert assert_matches_gebauer_moeller([f, g, in_ideal], ORDER2).generators == circle.generators
    assert assert_matches_gebauer_moeller([g, f, g, f, f], ORDER2).generators == circle.generators
    # an input whose leading monomial an earlier one divides
    assert_matches_gebauer_moeller([p2("x1^3-x2"), p2("x1-x2^2+1")], ORDER2)
    # the unit ideal, from an input and from a J-pair
    assert list(assert_matches_gebauer_moeller([p2("x1^2-1"), p2("x1^2-2")], ORDER2)) == [p2("1")]
    assert list(assert_matches_gebauer_moeller([p2("x1*x2-1"), p2("x1^2")], ORDER2)) == [p2("1")]
    with pytest.raises(NotZeroDimensionalError):
        buchberger([Polynomial(ORDER2), Polynomial(ORDER2)], ORDER2)


def count_zero_reductions(monkeypatch, module, engine, polys, order):
    """How many nonzero polynomials `engine` reduces to zero, counted on the
    `_reduce` that `module` calls."""
    true_reduce, zeros = module._reduce, [0]

    def counted(acc, *args):
        nonzero = bool(acc)
        result = true_reduce(acc, *args)
        zeros[0] += nonzero and not result[0]
        return result

    with monkeypatch.context() as patched:
        patched.setattr(module, "_reduce", counted)
        engine(polys, order)
    return zeros[0]


def test_no_reductions_to_zero_on_regular_sequences(monkeypatch):
    cases = [(katsura(n), MonomialOrder(GREVLEX, n + 1), old) for n, old in ((4, 18), (5, 48))]
    order = MonomialOrder(GREVLEX, 3)
    cases += [(rand_dense_system(Random(seed), order, 2), order, 5) for seed in range(4)]
    for polys, order, old in cases:
        assert count_zero_reductions(monkeypatch, groebner, buchberger, polys, order) == 0
        assert count_zero_reductions(monkeypatch, support, gebauer_moeller_buchberger, polys, order) == old


def test_work_on_the_inputs_the_engine_is_slow_on(monkeypatch):
    # In grlex the engine completes the basis of each input prefix, which
    # can be far larger than the final one: katsura-5 takes 44 s against
    # 0.2 s by the pair loop, too long to run here.  On inputs that are not
    # regular sequences it keeps elements whose leads are not minimal:
    # sparse seed 17 takes about 10 times as long as the pair loop.  Each
    # case is bounded in divisions (69, 202 and 192 now) and in seconds
    # (0.01, 0.05 and 0.05 on 2 x86-64 vCPUs), with headroom.
    true_reduce, divisions = groebner._reduce, [0]

    def counted(*args):
        divisions[0] += 1
        return true_reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counted)
    sparse = [rand_sparse_system(Random(17), MonomialOrder(kind, 4)) for kind in (GRLEX, GREVLEX)]
    for polys, most, seconds in ((katsura(4, GRLEX), 80, 1), (sparse[0], 230, 3), (sparse[1], 220, 3)):
        divisions[0], start = 0, perf_counter()
        basis = buchberger(polys, polys[0].order)
        assert perf_counter() - start < seconds
        assert divisions[0] <= most
        assert basis == gebauer_moeller_buchberger(polys, polys[0].order)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_monomial_codes_agree_with_exponent_tuples(kind):
    # One int per monomial: code order is the monomial order reversed, the
    # guard test is divisibility and the sum of codes is the product, on
    # fields as narrow as one exponent bit and on exponents next to the guard.
    rng = Random(f"codes-{kind}")
    for n in range(1, 6):
        order = MonomialOrder(kind, n)
        key = exponent_key(order)
        for width in (2, 3, 5, 9):
            monomials = groebner._Monomials(order, width)
            top = (1 << width - 1) - 1  # the largest exponent that fits

            def draw():
                return tuple(rng.choice((0, 1, top - 1, top, rng.randint(0, top))) for _ in range(n))

            for _ in range(150):
                a, b = draw(), draw()
                ca, cb = monomials.encode(a), monomials.encode(b)
                assert monomials.decode(ca) == a and monomials.support(ca) == {v: e for v, e in enumerate(a) if e}
                assert (ca < cb) == (key(a) > key(b)) and (ca == cb) == (a == b)
                assert (not (cb - ca) & monomials.guard) == all(map(le, a, b))
                product = tuple(map(add, a, b))
                assert bool((ca + cb) & monomials.guard) == (max(product) > top)
                if max(product) <= top:
                    assert ca + cb == monomials.encode(product)
                lcm = tuple(map(max, a, b))
                cofactor = monomials.cofactor(monomials.support(ca), monomials.support(cb))
                assert cofactor == monomials.encode(tuple(x - y for x, y in zip(lcm, a)))


def test_an_outgrown_field_restarts_the_engine_with_wider_ones(monkeypatch):
    # From the narrowest fields the input allows, a new monomial outgrows
    # them, and the engine starts again with fields twice as wide.
    order3 = MonomialOrder(LEX, 3)
    _, huge = parse_system("x1^1000000000 - 1\nx2 - 1")
    systems = [katsura(4), rand_dense_system(Random(1), order3, 2), huge]
    unforced = [buchberger(polys, polys[0].order) for polys in systems]
    widths = []
    true_monomials = groebner._Monomials

    def counted(order, width):
        widths.append(width)
        return true_monomials(order, width)

    monkeypatch.setattr(groebner, "_WIDTH", 2)
    monkeypatch.setattr(groebner, "_Monomials", counted)
    restarts = 0
    for polys, basis in zip(systems, unforced):
        order = polys[0].order
        widths.clear()
        assert buchberger(polys, order) == basis == gebauer_moeller_buchberger(polys, order)
        largest = max(e for p in polys for m, _ in p.terms for e in m.exponents)
        assert widths == [(largest.bit_length() + 1) << k for k in range(len(widths))]
        restarts += len(widths) - 1
    assert restarts


def _sympy_basis(sympy, polys, order):
    """sympy's reduced basis as {exponents: Fraction} dicts, each divided by
    its leading coefficient under the same order."""
    gens = sympy.symbols(f"x1:{order.nvars + 1}")
    exprs = [
        sympy.Poly.from_dict(
            {m.exponents: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms},
            *gens,
        ).as_expr()
        for p in polys
    ]
    basis = []
    for g in sympy.groebner(exprs, *gens, order=order.kind).polys:
        lc = g.LC(order=order.kind)
        basis.append(
            {exps: Fraction(int(c.p), int(c.q)) / Fraction(int(lc.p), int(lc.q)) for exps, c in g.terms()}
        )
    return basis


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_bases_match_sympy(kind):
    sympy = pytest.importorskip("sympy")
    systems = [parse_system(text, kind)[1] for _, text in FIXTURE_SYSTEMS]
    systems += [polys for _, _, polys in random_systems(kind)]
    for polys in systems:
        order = polys[0].order
        ours = [{m.exponents: c for m, c in g.terms} for g in buchberger(polys, order)]
        theirs = _sympy_basis(sympy, polys, order)
        assert ours == sorted(theirs, key=lambda g: exponent_key(order)(max(g, key=exponent_key(order))))


# Differential oracle for the change of order: FGLM on the grevlex ring, and
# `change_order`, must return the whole basis that Buchberger computes in the
# target order, the input polynomials included, term for term.


def assert_fglm_matches_buchberger(polys, order):
    ring = buchberger(polys, MonomialOrder(GREVLEX, order.nvars))
    basis = fglm(standard_monomials(ring), order)
    expected = buchberger(polys, order)
    for got in (basis, change_order(ring, order)):
        assert got == expected
        # Polynomial equality ignores the order its terms are sorted in
        assert [g.terms for g in got] == [g.terms for g in expected]
        assert [p.terms for p in got.original] == [p.terms for p in expected.original]
    return basis


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_fglm_on_fixture_systems(kind):
    for _, text in FIXTURE_SYSTEMS:
        _, polys = parse_system(text, kind)
        assert_fglm_matches_buchberger(polys, polys[0].order)


@pytest.mark.parametrize("kind", [LEX, GRLEX])
def test_fglm_on_random_systems(kind):
    for _, order, polys in random_systems(kind):
        assert_fglm_matches_buchberger(polys, order)


@pytest.mark.parametrize("kind", [LEX, GRLEX])
def test_fglm_on_rational_systems(kind):
    for _, order, polys in rational_systems(kind):
        assert_fglm_matches_buchberger(polys, order)


@pytest.mark.parametrize("kind", [LEX, GRLEX])
def test_fglm_on_sparse_rings(kind):
    # mixed exponent widths, squares(4), the unit ideal, no variables, and
    # staircase instances at seeds 7 and 11: the target walk's integer keys
    # take W = dim + 2
    texts = ["x1^200\nx2^3\nx1*x2", "x1^3\nx2^200\nx1*x2", "x1^2-1\nx2^2-2\nx3^2-3\nx4^2-4", "x1\nx1+1", "5", "0"]
    texts += [text for seed in (7, 11) for text in support.staircase_pool(seed)[:4]]
    for text in texts:
        _, polys = parse_system(text, GREVLEX)
        assert_fglm_matches_buchberger(polys, MonomialOrder(kind, polys[0].order.nvars))


def test_fglm_on_lex_dense_systems():
    # the systems of test_lex_dense_systems_match_naive_buchberger: shape
    # position, with lex coefficients far larger than grevlex ones
    order = MonomialOrder(LEX, 3)
    for seed in range(3):
        basis = assert_fglm_matches_buchberger(rand_dense_system(Random(seed), order, 2), order)
        assert basis.generators[0].leading_monomial() == Monomial((0, 0, 8))


def test_fglm_edge_ideals():
    order = MonomialOrder(LEX, 2)
    unit = assert_fglm_matches_buchberger([p2("x1"), p2("x1+1")], order)
    assert list(unit) == [Polynomial(order, {Monomial((0, 0)): 1})]
    # not radical: dimension 6 with three points
    nilpotent = assert_fglm_matches_buchberger([p2("x1^2"), p2("x2^3-x2")], order)
    assert standard_monomials(nilpotent).dimension == 6
    one = MonomialOrder(LEX, 1)
    assert_fglm_matches_buchberger([parse_polynomial("x1^5-3*x1^2+1/2", ["x1"], "lex")], one)
    none = MonomialOrder(LEX, 0)
    for polys in ([Polynomial(none)], [], [Polynomial(none, {Monomial(()): 5})]):
        assert_fglm_matches_buchberger(polys, none)


def test_change_order_builds_a_ring_only_when_a_leading_monomial_changes(monkeypatch):
    built = []
    build = quotient.standard_monomials

    def counted(basis):
        built.append(basis.order.kind)
        return build(basis)

    monkeypatch.setattr(quotient, "standard_monomials", counted)
    grlex = MonomialOrder(GRLEX, 3)
    # x1^2 - x3 leads by x1^2 under either order: the grevlex basis is the grlex one
    kept = [parse_polynomial(s, ["x1", "x2", "x3"], GREVLEX) for s in ("x1^2-x3", "x2^2-x1", "x3^2-x2")]
    assert change_order(buchberger(kept, kept[0].order), grlex) == buchberger(kept, grlex)
    assert built == []
    # x1*x3 - x2^2 leads by x2^2 under grevlex and by x1*x3 under grlex
    moved = [parse_polynomial(s, ["x1", "x2", "x3"], GREVLEX) for s in ("x2^2-x1*x3", "x1^3-1", "x3^3-2")]
    assert change_order(buchberger(moved, moved[0].order), grlex) == buchberger(moved, grlex)
    assert built == [GREVLEX]
    # leads kept, but the staircase is infinite
    with pytest.raises(NotZeroDimensionalError):
        change_order(buchberger([p2("x1*x2")], ORDER2), MonomialOrder(GRLEX, 2))


def test_fglm_rejects_a_foreign_ring():
    # a hand-built ring is refused in test_quotient_basis_mismatch_is_rejected
    ring = standard_monomials(buchberger([p2("x1-1"), p2("x2^2-2")], ORDER2))
    with pytest.raises(ValueError, match="variables"):
        fglm(ring, MonomialOrder(LEX, 3))


# The shape certificate against FGLM on the same systems: when it passes,
# FGLM's lex staircase is 1, x_n, ..., x_n^(D-1), and the Hankel matrix of
# the traces is the lex H, entry for entry and type for type.  The counts
# that chi of x_n gives are the inertia of the grevlex H, on radical and
# non-radical ideals alike.


def shape_certificate_against_fglm(polys, non_radical):
    nvars = polys[0].nvars
    ring = buchberger(polys, MonomialOrder(GREVLEX, nvars))
    quotient = standard_monomials(ring)
    lex = fglm(quotient, MonomialOrder(LEX, nvars))
    lex_ring = standard_monomials(lex)
    powers = [tuple(j if u == nvars - 1 else 0 for u in range(nvars)) for j in range(lex_ring.dimension)]
    shape = shape_position(quotient)
    if shape is None:
        # 2^61 - 1 is never unlucky here: a failure means another staircase
        assert [m.exponents for m in lex_ring.monomials] != powers
        return False
    staircase, krylov = shape
    assert [m.exponents for m in lex_ring.monomials] == powers
    assert staircase == lex_ring
    index = {m: k for k, m in enumerate(quotient.monomials)}
    for exps, (nums, den) in zip(powers, krylov):
        power = normal_form(Polynomial(ring.order, {Monomial(exps): 1}), ring)
        assert {index[m]: c for m, c in power.terms} == {k: Fraction(x, den) for k, x in nums.items()}
    report = charpoly_report(quotient, krylov)
    result = inertia(hermite_form(ring, quotient).entries)
    assert (report.rank, report.signature) == (result.rank, result.signature)
    assert (report.complex_count, report.real_count) == (result.rank, result.signature)
    assert report.form.basis is quotient and report.form.entries is None
    if report.rank < quotient.dimension:
        non_radical.append(quotient.dimension)
    got, expected = hankel_form(quotient, staircase, krylov), hermite_form(lex, lex_ring)
    assert got == expected
    assert [list(map(type, row)) for row in got.entries] == [list(map(type, row)) for row in expected.entries]
    return True


def test_shape_certificate_on_the_fglm_test_sets():
    systems = [parse_system(text)[1] for _, text in FIXTURE_SYSTEMS]
    systems += [polys for _, _, polys in random_systems(GREVLEX)]
    systems += [polys for _, _, polys in rational_systems(GREVLEX)]
    dense = [rand_dense_system(Random(seed), MonomialOrder(GREVLEX, 3), 2) for seed in range(3)]
    non_radical = []
    certified = [shape_certificate_against_fglm(polys, non_radical) for polys in systems + dense]
    assert certified[-3:] == [True] * 3
    assert 0 < certified.count(False) < certified.count(True)
    # chi counts on its squarefree part where the ideal is not radical
    assert 0 < len(non_radical) < certified.count(True)
