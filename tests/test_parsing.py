"""Parsing and formatting of polynomial-system text."""

import re
import time
from fractions import Fraction
from math import comb
from random import Random

import pytest

from hermitecount import (
    GREVLEX,
    LEX,
    ORDER_KINDS,
    Monomial,
    MonomialOrder,
    ParseError,
    Polynomial,
    parse_system,
)

from hermitecount import parsing, poly
from hermitecount.parsing import format_monomial

from support import format_polynomial, int_str_limit, parse_polynomial, rand_expression, rand_fraction, rand_polynomial


def test_parse_system_two_polynomials():
    variables, polys = parse_system("x1*x2+x2-1\nx1^2+x2^2-1")
    assert variables == ["x1", "x2"]
    assert len(polys) == 2
    order = MonomialOrder(GREVLEX, 2)
    assert polys[0] == Polynomial(
        order, {Monomial((1, 1)): 1, Monomial((0, 1)): 1, Monomial((0, 0)): -1}
    )
    assert polys[1] == Polynomial(
        order, {Monomial((2, 0)): 1, Monomial((0, 2)): 1, Monomial((0, 0)): -1}
    )


def test_parse_system_zero_polynomial_accepted():
    variables, polys = parse_system("0")
    assert variables == []
    assert len(polys) == 1
    assert not polys[0]


def test_parse_system_rejects_negative_exponent():
    with pytest.raises(ParseError) as excinfo:
        parse_system("x1^-1")
    assert excinfo.value.line == 1
    assert excinfo.value.column == 4


def test_parse_system_rejects_empty_input():
    for text in ("", "   \n  # only a comment\n"):
        with pytest.raises(ParseError):
            parse_system(text)


def test_parse_system_auto_variables_in_numeric_order():
    variables, _ = parse_system("x10+x2\nx1*x2")
    assert variables == ["x1", "x2", "x10"]


def test_parse_system_vars_header_sets_order_and_names():
    variables, polys = parse_system("vars: b, a\nb^2-a\na-1")
    assert variables == ["b", "a"]
    assert polys[0] == Polynomial(
        MonomialOrder(GREVLEX, 2), {Monomial((2, 0)): 1, Monomial((0, 1)): -1}
    )


def test_parse_system_unknown_name_without_header():
    with pytest.raises(ParseError) as excinfo:
        parse_system("y+1")
    assert "undeclared identifier y" in str(excinfo.value)


def test_parse_system_comments_and_blank_lines():
    text = "# a circle\nx1^2+x2^2-1  # unit circle\n\n# a line\nx1-x2\n"
    variables, polys = parse_system(text)
    assert variables == ["x1", "x2"]
    assert len(polys) == 2


def test_parse_system_duplicate_header_variable():
    with pytest.raises(ParseError):
        parse_system("vars: a, a\na+1")


def test_parse_polynomial_expands_binomial_square():
    p = parse_polynomial("(x1+x2)^2 - x1^2 - x2^2", ["x1", "x2"])
    assert p == Polynomial(MonomialOrder(GREVLEX, 2), {Monomial((1, 1)): 2})


def test_parse_polynomial_adds_equal_fractions():
    p = parse_polynomial("1/2*x1 + 1/2*x1", ["x1", "x2"])
    assert p == Polynomial(MonomialOrder(GREVLEX, 2), {Monomial((1, 0)): 1})


def test_parse_polynomial_undeclared_identifier_is_named():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x3", ["x1", "x2"])
    assert "undeclared identifier x3" in str(excinfo.value)


def test_parse_polynomial_malformed_rational():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("1/x1", ["x1"])
    assert "rational" in excinfo.value.reason
    with pytest.raises(ParseError):
        parse_polynomial("1/0", ["x1"])


def test_parse_polynomial_unary_minus_and_nesting():
    p = parse_polynomial("-(x1 - (2 - x1))", ["x1"])
    assert p == Polynomial(
        MonomialOrder(GREVLEX, 1), {Monomial((1,)): -2, Monomial((0,)): 2}
    )
    assert parse_polynomial("--x1", ["x1"]) == parse_polynomial("x1", ["x1"])


def test_parse_polynomial_power_binds_tighter_than_product():
    p = parse_polynomial("2*x1^3", ["x1"])
    assert p == Polynomial(MonomialOrder(GREVLEX, 1), {Monomial((3,)): 2})
    q = parse_polynomial("-x1^2", ["x1"])
    assert q == Polynomial(MonomialOrder(GREVLEX, 1), {Monomial((2,)): -1})


def test_format_zero():
    assert format_polynomial(Polynomial(MonomialOrder(GREVLEX, 2)), ["x1", "x2"]) == "0"


def test_format_circle():
    order = MonomialOrder(GREVLEX, 2)
    p = Polynomial(order, {Monomial((2, 0)): 1, Monomial((0, 2)): 1, Monomial((0, 0)): -1})
    assert format_polynomial(p, ["x1", "x2"]) == "x1^2+x2^2-1"


def test_format_negative_fraction_coefficient():
    order = MonomialOrder(GREVLEX, 2)
    p = Polynomial(order, {Monomial((1, 0)): Fraction(-1, 2)})
    assert format_polynomial(p, ["x1", "x2"]) == "-1/2*x1"


def test_format_monomial_unit_and_powers():
    assert format_monomial(Monomial((0, 0)), ["x1", "x2"]) == "1"
    assert format_monomial(Monomial((1, 3)), ["x1", "x2"]) == "x1*x2^3"


def test_round_trip_random_polynomials():
    rng = Random(20240812)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        kind = rng.choice(ORDER_KINDS)
        order = MonomialOrder(kind, nvars)
        p = rand_polynomial(rng, order)
        names = [f"x{i + 1}" for i in range(nvars)]
        assert parse_polynomial(format_polynomial(p, names), names, kind) == p


def test_round_trip_through_system_parse():
    text = "x1^2+x2^2-1\n2*x1*x2-1/3"
    variables, polys = parse_system(text)
    rendered = "\n".join(format_polynomial(p, variables) for p in polys)
    assert parse_system(rendered) == (variables, polys)


def test_error_positions_are_reported():
    cases = [
        ("x1+\n", 1, 4),
        ("x1*x2\nx1^2+*2", 2, 6),
        ("x1?1", 1, 3),
        ("x1^x2", 1, 4),
        ("(x1+1", 1, 6),
        ("vars:\nx+1", 1, 6),
        ("vars:", 1, 6),
        ("x1+1 # note\r\n\tx2 ? 1", 2, 5),
        ("x1*x2\r\n#?\n\t3€", 3, 3),
        ("x1 # ?\n2x1", 2, 2),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError) as excinfo:
            parse_system(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)
        assert f"{line}:{column}" in str(excinfo.value)


def test_fuzzed_inputs_never_crash():
    rng = Random(987654321)
    alphabet = "x12 +-*/^()#\n,:abc\t?"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            variables, polys = parse_system(text)
        except ParseError as exc:
            assert isinstance(exc.line, int) and exc.line >= 1
            assert isinstance(exc.column, int) and exc.column >= 1
        else:
            assert isinstance(variables, list)
            assert all(isinstance(p, Polynomial) for p in polys)


def test_deep_nesting_is_rejected_not_crashing():
    with pytest.raises(ParseError):
        parse_system("(" * 500 + "x1" + ")" * 500)


def test_long_runs_of_unary_minus_parse_without_recursion():
    assert parse_polynomial("-" * 5000 + "x1^2", ["x1"]) == parse_polynomial("x1^2", ["x1"])
    assert parse_polynomial("-" * 5001 + "x1^2", ["x1"]) == parse_polynomial("-x1^2", ["x1"])
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x1*" + "-" * 5000, ["x1"])
    assert "expected a factor at end of input" in str(excinfo.value)


def test_overlong_integer_literals_are_positioned():
    limit = int_str_limit()
    if limit is None:
        pytest.skip("this interpreter converts integers of any length")
    digits = "9" * (limit + 1)
    cases = [
        (f"x1-{digits}", 1, 4),
        (f"x1\n1/{digits}*x1", 2, 3),
        (f"x1^{digits}", 1, 4),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError, match="exceeds the interpreter's int conversion limit") as excinfo:
            parse_system(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)


WIDE_SUM = "(" + "+".join(f"x{i}" for i in range(1, 601)) + ")"
# 249 001 products, under _MAX_PRODUCTS unless weighted by the 499 variables
WIDE_SQUARE = "(" + "+".join(f"x{i}" for i in range(1, 500)) + ")"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("(x1+x2+x3+x4)^40", 1, 14),
        ("x1-1\n(x1+x2+x3+x4+1)^29*(x1-x2+x3+1)^29", 2, 16),
        ("(x1+x2)^100000", 1, 8),
        (f"{WIDE_SUM}*{WIDE_SUM}", 1, len(WIDE_SUM) + 1),
        (f"{WIDE_SQUARE}*{WIDE_SQUARE}", 1, len(WIDE_SQUARE) + 1),
    ],
    ids=["power", "power-product", "binomial", "product", "many-variables"],
)
def test_expansion_beyond_the_product_bound_is_positioned(text, line, column):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="term products") as excinfo:
        parse_system(text)
    assert time.perf_counter() - start < 1
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("(99*x1)^4000000-1", 1, 8),
        ("x1\n(99/97*x1)^200000", 2, 11),
        ("(3*x1)^300000*(3*x1)^300000", 1, 14),
    ],
    ids=["power", "rational-power", "product"],
)
def test_coefficient_growth_beyond_the_bit_bound_is_positioned(text, line, column):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="coefficients of over") as excinfo:
        parse_system(text)
    assert time.perf_counter() - start < 1
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


def long_sum(terms, digits):
    """A sum of `terms` variables with seeded rationals of `digits` digits."""
    rng, low = Random(digits), 10 ** (digits - 1)
    coefficients = [f"{rng.randrange(low, 10 * low)}/{rng.randrange(low, 10 * low)}" for _ in range(terms)]
    return "(" + "+".join(f"{c}*x{i}" for i, c in enumerate(coefficients, 1)) + ")"


@pytest.mark.parametrize(
    "text, line, column",
    [
        (f"{long_sum(50, 2000)}*{long_sum(50, 2000)}", 1, len(long_sum(50, 2000)) + 1),
        (f"x1\n{long_sum(4, 1000)}^10", 2, len(long_sum(4, 1000)) + 1),
    ],
    ids=["product", "power"],
)
def test_long_coefficients_beyond_the_weighted_bound_are_positioned(text, line, column):
    # without the weighted bound the product parsed in 1.6 s and the power in 8.7 s
    start = time.perf_counter()
    with pytest.raises(ParseError, match="term products weighted by coefficient size") as excinfo:
        parse_system(text)
    assert time.perf_counter() - start < 1
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


def test_products_of_lone_terms_are_left_to_the_bit_bound(monkeypatch):
    # Weighted like products of sums, (7/5*x1)^375000 (about 2 s) and this 1x1 product of
    # 645 678 bits (0.3 s) would pass _MAX_PRODUCTS; only the bit bound stops lone terms.
    # The stub powers one term at once.
    monkeypatch.setattr(parsing, "pow_terms", lambda a, e, n: {tuple(k * e for k in m): c**e for m, c in a.items()})
    for text in ["(7/5*x1)^375000", "(7/5*x1)^115000*(7/5*x1)^115000"]:
        _, (p,) = parse_system(text)
        assert len(p.terms) == 1, text
    with pytest.raises(ParseError, match="coefficients of over"):
        parse_system("(7/5*x1)^375001")


def test_powers_of_unit_coefficients_cost_no_bits():
    for text in ["x1^4000000", "x1^1000000000", "(-x1)^4000001"]:
        _, (p,) = parse_system(text)
        assert len(p.terms) == 1, text
    _, (zero,) = parse_system("0^1000000000")
    assert not zero.terms


def test_expansion_within_the_product_bound_parses():
    # the wide staircases x_i^400 and x_i^300 parse in test_cli and test_groebner
    _, (p,) = parse_system("(x1+x2+x3+x4)^20")
    assert len(p.terms) == comb(23, 3)


def test_power_product_bound_covers_pow_terms(monkeypatch):
    # The a-priori bound is at least the products pow_terms spends.
    spent = []
    mul = poly.mul_terms

    def counting(a, b):
        spent.append(len(a) * len(b))
        return mul(a, b)

    monkeypatch.setattr(poly, "mul_terms", counting)
    rng = Random(7)
    for _ in range(60):
        names = [f"x{i}" for i in range(1, rng.randint(1, 3) + 1)]
        terms = parse_polynomial(rand_expression(rng, names, 2), names)._term_dict()
        exponent = rng.randint(0, 9)
        spent.clear()
        poly.pow_terms(terms, exponent, len(names))
        assert sum(spent) <= parsing._power_products(terms, len(names), exponent)


def one_term_power_loop(nvars: int, degree: int, exponent: int) -> int:
    """The count that `_power_products` summed along the repeated squaring of
    a one-term base of degree `degree` before its closed form: each a^k has
    min(C(1 + k - 1, k), ...) = 1 term, and each product weighs _weight(0, n)."""

    def terms(k: int) -> int:
        return min(comb(k, k), comb(nvars + k * degree, nvars)) if k else 1

    total, result, power = 0, 0, 1
    while exponent and total <= parsing._MAX_PRODUCTS:
        if exponent & 1:
            total += terms(result) * terms(power) * parsing._weight(0, nvars)
            result += power
        exponent >>= 1
        if exponent:
            total += terms(power) ** 2 * parsing._weight(0, nvars)
            power *= 2
    return total


@pytest.mark.parametrize("nvars", [1, 3, 96, 200, 1000])
def test_one_term_power_bound_is_the_loop_in_closed_form(nvars):
    for degree in (0, 1, 3):
        base = {(degree,) + (0,) * (nvars - 1): Fraction(7, 5)}
        for exponent in [*range(70), 255, 256, 1000, 12345]:
            expected = one_term_power_loop(nvars, degree, exponent)
            assert parsing._power_products(base, nvars, exponent, bits=3) == expected, (degree, exponent)


@pytest.mark.parametrize("count, digits", [(100, 300), (200, 1000)])
def test_one_term_powers_in_many_variables_decide_at_once(count, digits):
    # counting the squarings in a loop took 2.2 s on (100, 300); (200, 1000) ran over 90 s
    names = [f"x{i}" for i in range(1, count + 1)]
    start = time.perf_counter()
    _, (p,) = parse_system(f"vars: {', '.join(names)}\n{names[-1]}^{'9' * digits}")
    assert time.perf_counter() - start < 1
    assert p.terms == ((Monomial((0,) * (count - 1) + (10**digits - 1,)), 1),)


def test_long_sums_parse_in_linear_time():
    # adding each summand to a copy of the running sum took 13.9 s on this line
    terms = {(i % 200, i // 200): (i % 17 - 8) or 9 for i in range(32_000)}
    text = "+".join(f"{c}*x1^{a}*x2^{b}" for (a, b), c in terms.items()).replace("+-", "-")
    start = time.perf_counter()
    _, (p,) = parse_system(text)
    assert time.perf_counter() - start < 5
    assert p == Polynomial(MonomialOrder(GREVLEX, 2), {Monomial(e): c for e, c in terms.items()})


def test_long_vars_headers_parse_in_linear_time():
    # a list lookup per declared name made the header quadratic: 20 000 names took 2.4-3.3 s
    names = [f"v{i}" for i in range(20_000)]
    start = time.perf_counter()
    variables, (p,) = parse_system(f"vars: {', '.join(names)}\nv0-1")
    assert time.perf_counter() - start < 1
    assert variables == names
    assert p.nvars == 20_000 and len(p.terms) == 2


def test_flat_sums_parse_to_their_terms():
    """Sums shaped like the benchmark's dense systems (`-7*x1^2*x2`, `1*x2`),
    terms in any order, with rationals and repeated or cancelling monomials,
    parse to the sum of their terms with Fraction coefficients only."""
    rng = Random(22)
    for _ in range(300):
        nvars, degree = rng.randint(1, 4), rng.randint(1, 4)
        names = [f"x{i + 1}" for i in range(nvars)]
        summands, expected = [], {}
        for _ in range(rng.randint(1, 40)):
            e = tuple(rng.randint(0, degree) for _ in range(nvars))
            c = Fraction(rng.randint(-9, 9)) if rng.random() < 0.7 else rand_fraction(rng)
            factors = [f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k]
            summands.append("*".join([str(c), *factors]))
            expected[e] = expected.get(e, 0) + c
        text = "+".join(summands).replace("+-", "-")
        p = parse_polynomial(text, names)
        order = MonomialOrder(GREVLEX, nvars)
        assert p == Polynomial(order, {Monomial(e): c for e, c in expected.items()}), text
        assert all(type(c) is Fraction for _, c in p.terms), text


def test_parse_with_lex_order_sorts_with_lex():
    p = parse_polynomial("x2^3+x1", ["x1", "x2"], LEX)
    assert p.leading_monomial() == Monomial((1, 0))


def _sympy_terms(sympy, expr, variables) -> dict:
    """{exponents: Fraction} of a sympy expression over the symbols `variables`."""
    if not variables:
        return {(): Fraction(int(expr.p), int(expr.q))} if expr else {}
    poly = sympy.Poly(expr, *variables)
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_random_expressions_match_sympy_expand(kind):
    """Seeded expression texts parse to the terms of sympy's expansion, both
    through parse_polynomial over declared names and through parse_system,
    which finds the variables in the text; terms come out strictly
    descending under the order, with Fraction coefficients."""
    sympy = pytest.importorskip("sympy")
    rng = Random(f"expressions:{kind}")
    for _ in range(334):
        names = [f"x{i + 1}" for i in range(rng.randint(1, 3))]
        text = rand_expression(rng, names)
        symbols = {name: sympy.Symbol(name) for name in names}
        expanded = sympy.expand(sympy.sympify(text.replace("^", "**"), locals=symbols))
        found, (auto,) = parse_system(text, kind)
        assert found == sorted(set(re.findall(r"x\d", text)))
        for variables, p in ((names, parse_polynomial(text, names, kind)), (found, auto)):
            expected = _sympy_terms(sympy, expanded, [symbols[v] for v in variables])
            assert {m.exponents: c for m, c in p.terms} == expected, text
            assert all(type(c) is Fraction for _, c in p.terms), text
            keys = [p.order.descending_key(m.exponents) for m, _ in p.terms]
            assert all(a < b for a, b in zip(keys, keys[1:])), text
