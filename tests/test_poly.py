"""Core algebra: monomial orders, canonical polynomials and the parser's
term arithmetic."""

from fractions import Fraction
from random import Random

import pytest

from hermitecount import GREVLEX, GRLEX, LEX, ORDER_KINDS, Monomial, MonomialOrder, Polynomial
from hermitecount.poly import mul_terms, neg_terms, pow_terms

from support import all_monomials, monic, mul_term, parse_polynomial, rand_polynomial, subtract

GREVLEX2 = MonomialOrder(GREVLEX, 2)


def poly(order, mapping):
    return Polynomial(order, {Monomial(k): v for k, v in mapping.items()})


def terms(mapping):
    return {k: Fraction(v) for k, v in mapping.items()}


def compare(order, a, b):
    """-1, 0 or 1 as the exponent tuple a is below, equal to or above b."""
    ka, kb = order.exponent_key(a), order.exponent_key(b)
    return (ka > kb) - (ka < kb)


def test_compare_grevlex_degree_tie_breaks_at_last_variable():
    assert compare(GREVLEX2, (2, 1), (1, 2)) == 1


def test_compare_reflexive_equal():
    for kind in ORDER_KINDS:
        assert compare(MonomialOrder(kind, 3), (1, 2, 0), (1, 2, 0)) == 0


def test_compare_lex_first_variable_decides():
    assert compare(MonomialOrder(LEX, 2), (0, 3), (1, 0)) == -1


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_trusted_monomials_equal_validated_ones():
    rng = Random(5)
    for kind in ORDER_KINDS:
        order = MonomialOrder(kind, 3)
        p = rand_polynomial(rng, order)
        rebuilt = Polynomial._from_sorted(order, [(m.exponents, c) for m, c in p.terms])
        assert rebuilt.terms == p.terms
        assert all(type(m) is Monomial for m, _ in rebuilt.terms)
    assert Monomial._trusted((2, 0, 1)) == Monomial([2, 0, 1])
    assert hash(Monomial._trusted((2, 0, 1))) == hash(Monomial((2, 0, 1)))


# Sums are the parser's own loop, so they are checked through the text.


def test_add_cancellation():
    assert parse_polynomial("(x1 + 1) + (-x1)", ["x1", "x2"]) == poly(GREVLEX2, {(0, 0): 1})


def test_add_identity():
    p = poly(GREVLEX2, {(2, 1): Fraction(3, 4), (0, 0): -2})
    assert parse_polynomial("(3/4*x1^2*x2 - 2) + 0", ["x1", "x2"]) == p


def test_add_partial_cancellation():
    text = "(x1^2 + x2^2 - 1) + (1 - x2^2)"
    assert parse_polynomial(text, ["x1", "x2"]) == poly(GREVLEX2, {(2, 0): 1})


def test_mul_difference_of_squares():
    p = terms({(1, 0): 1, (0, 1): 1})
    q = terms({(1, 0): 1, (0, 1): -1})
    assert mul_terms(p, q) == terms({(2, 0): 1, (0, 2): -1})


def test_mul_identity():
    p = terms({(3, 1): Fraction(1, 2), (0, 1): -5})
    assert mul_terms(p, terms({(0, 0): 1})) == p


def test_mul_mixed_quadratic_terms():
    # (x1*x2 + x2 - 1) * (x1 - 1) = x1^2*x2 - x1 - x2 + 1
    p = terms({(1, 1): 1, (0, 1): 1, (0, 0): -1})
    q = terms({(1, 0): 1, (0, 0): -1})
    assert mul_terms(p, q) == terms({(2, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})


def test_ring_axioms_on_random_polynomials():
    # the parser's products and negation, with the reference subtraction of the oracles
    rng = Random(20240811)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        order = MonomialOrder(rng.choice(ORDER_KINDS), nvars)
        a, b, c = (rand_polynomial(rng, order) for _ in range(3))
        ta, tb, tc = (p._term_dict() for p in (a, b, c))

        def product(x, y):
            return Polynomial._from_terms(order, mul_terms(x, y))

        assert mul_terms(ta, tb) == mul_terms(tb, ta)
        assert mul_terms(mul_terms(ta, tb), tc) == mul_terms(ta, mul_terms(tb, tc))
        b_plus_c = subtract(b, Polynomial._from_terms(order, neg_terms(tc)))
        assert product(ta, b_plus_c._term_dict()) == subtract(product(ta, tb), product(ta, neg_terms(tc)))
        assert subtract(a, a) == Polynomial(order)
        assert Polynomial._from_terms(order, neg_terms(ta)) == subtract(Polynomial(order), a)


def test_canonical_form_after_operations():
    rng = Random(7)
    for _ in range(40):
        order = MonomialOrder(GREVLEX, rng.randint(1, 3))
        p = Polynomial._from_terms(order, mul_terms(*(rand_polynomial(rng, order)._term_dict() for _ in range(2))))
        monos = [m for m, _ in p.terms]
        assert len(set(monos)) == len(monos)
        assert all(c != 0 for _, c in p.terms)
        keys = [order.exponent_key(m.exponents) for m in monos]
        assert keys == sorted(keys, reverse=True)


def test_constructor_rejects_terms_of_another_ring():
    with pytest.raises(ValueError, match="term has 1 variables, polynomial ring has 2"):
        Polynomial(GREVLEX2, {Monomial((1,)): 1})


def test_constructor_merges_duplicate_monomials():
    m = Monomial((1, 1))
    p = Polynomial(GREVLEX2, [(m, Fraction(1, 2)), (m, Fraction(1, 2)), (m, -1)])
    assert not p


def test_order_laws_exhaustive():
    for kind in ORDER_KINDS:
        for nvars in (1, 2, 3):
            order = MonomialOrder(kind, nvars)
            monos = [m.exponents for m in all_monomials(nvars, 4)]
            # antisymmetry and totality via keys
            for a in monos:
                for b in monos:
                    ca, cb = compare(order, a, b), compare(order, b, a)
                    assert ca == -cb
                    assert (ca == 0) == (a == b)
            # transitivity holds because compare is induced by a total key
            ordered = sorted(monos, key=order.exponent_key)
            for x, y, z in zip(ordered, ordered[1:], ordered[2:]):
                assert compare(order, x, y) <= 0 and compare(order, y, z) <= 0
                assert compare(order, x, z) <= 0
            # term-order axiom: 1 is minimal and m < m * x_i
            unit = (0,) * nvars
            for m in monos:
                if m != unit:
                    assert compare(order, unit, m) == -1
                for i in range(nvars):
                    assert compare(order, m, m[:i] + (m[i] + 1,) + m[i + 1 :]) == -1


def test_multiplication_compatibility_of_orders():
    # a < b implies a*c < b*c, exhaustively in 2 variables up to degree 3
    for kind in ORDER_KINDS:
        order = MonomialOrder(kind, 2)
        monos = [m.exponents for m in all_monomials(2, 3)]
        for a in monos:
            for b in monos:
                if compare(order, a, b) == -1:
                    for c in monos:
                        ac, bc = (tuple(map(sum, zip(x, c))) for x in (a, b))
                        assert compare(order, ac, bc) == -1


def test_polynomial_power():
    p = terms({(1, 0): 1, (0, 0): 1})
    assert pow_terms(p, 0, 2) == terms({(0, 0): 1})
    assert pow_terms(p, 3, 2) == terms({(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    assert pow_terms({}, 0, 2) == terms({(0, 0): 1})
    assert pow_terms({}, 5, 2) == {}


def test_leading_term_and_degree():
    p = poly(GREVLEX2, {(1, 1): 2, (0, 1): 1})
    assert p.leading_monomial() == Monomial((1, 1))
    assert p.leading_coefficient() == 2
    assert sum(p.leading_monomial().exponents) == 2
    with pytest.raises(ValueError):
        Polynomial(GREVLEX2).leading_monomial()
    with pytest.raises(ValueError):
        Polynomial(GREVLEX2).leading_coefficient()


def test_with_order_resorts_terms():
    order_lex = MonomialOrder(LEX, 2)
    p = poly(order_lex, {(0, 3): 1, (1, 0): 1})
    assert p.leading_monomial() == Monomial((1, 0))
    q = p.with_order(MonomialOrder(GRLEX, 2))
    assert q.leading_monomial() == Monomial((0, 3))
    assert q == p


def test_monic_and_scale():
    # the reference oracles' helpers, on the validating constructor
    p = poly(GREVLEX2, {(2, 0): Fraction(-2), (0, 0): 4})
    m = monic(p)
    assert m.leading_coefficient() == 1
    assert m == poly(GREVLEX2, {(2, 0): 1, (0, 0): -2})
    assert not mul_term(p, 0, Monomial((0, 0)))
