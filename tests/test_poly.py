"""Core algebra: monomial orders and exact polynomial arithmetic."""

from fractions import Fraction
from random import Random

import pytest

from hermitecount import GREVLEX, GRLEX, LEX, ORDER_KINDS, Monomial, MonomialOrder, Polynomial

from support import all_monomials, rand_polynomial

GREVLEX2 = MonomialOrder(GREVLEX, 2)


def poly(order, mapping):
    return Polynomial(order, {Monomial(k): v for k, v in mapping.items()})


def test_compare_grevlex_degree_tie_breaks_at_last_variable():
    order = GREVLEX2
    assert order.compare(Monomial((2, 1)), Monomial((1, 2))) == 1


def test_compare_reflexive_equal():
    for kind in ORDER_KINDS:
        order = MonomialOrder(kind, 3)
        m = Monomial((1, 2, 0))
        assert order.compare(m, m) == 0


def test_compare_lex_first_variable_decides():
    order = MonomialOrder(LEX, 2)
    assert order.compare(Monomial((0, 3)), Monomial((1, 0))) == -1


def test_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        GREVLEX2.compare(Monomial((1,)), Monomial((1, 0)))
    with pytest.raises(ValueError):
        MonomialOrder(LEX, 3).key(Monomial((1, 0)))


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


def test_add_cancellation():
    p = poly(GREVLEX2, {(1, 0): 1, (0, 0): 1})
    q = poly(GREVLEX2, {(1, 0): -1})
    assert p + q == poly(GREVLEX2, {(0, 0): 1})


def test_add_identity():
    p = poly(GREVLEX2, {(2, 1): Fraction(3, 4), (0, 0): -2})
    assert p + Polynomial.zero(GREVLEX2) == p


def test_add_partial_cancellation():
    p = poly(GREVLEX2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    q = poly(GREVLEX2, {(0, 0): 1, (0, 2): -1})
    assert p + q == poly(GREVLEX2, {(2, 0): 1})


def test_mul_difference_of_squares():
    p = poly(GREVLEX2, {(1, 0): 1, (0, 1): 1})
    q = poly(GREVLEX2, {(1, 0): 1, (0, 1): -1})
    assert p * q == poly(GREVLEX2, {(2, 0): 1, (0, 2): -1})


def test_mul_identity():
    p = poly(GREVLEX2, {(3, 1): Fraction(1, 2), (0, 1): -5})
    assert p * Polynomial.constant(GREVLEX2, 1) == p


def test_mul_mixed_quadratic_terms():
    # (x1*x2 + x2 - 1) * (x1 - 1) = x1^2*x2 - x1 - x2 + 1
    p = poly(GREVLEX2, {(1, 1): 1, (0, 1): 1, (0, 0): -1})
    q = poly(GREVLEX2, {(1, 0): 1, (0, 0): -1})
    assert p * q == poly(GREVLEX2, {(2, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})


def test_dimension_mismatch_in_arithmetic():
    p = poly(GREVLEX2, {(1, 0): 1})
    q = poly(MonomialOrder(GREVLEX, 3), {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_order_mismatch_in_arithmetic():
    p = poly(GREVLEX2, {(1, 0): 1})
    q = poly(MonomialOrder(LEX, 2), {(1, 0): 1})
    with pytest.raises(ValueError):
        p + q


def test_ring_axioms_on_random_polynomials():
    rng = Random(20240811)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        order = MonomialOrder(rng.choice(ORDER_KINDS), nvars)
        a = rand_polynomial(rng, order)
        b = rand_polynomial(rng, order)
        c = rand_polynomial(rng, order)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(order)


def test_canonical_form_after_operations():
    rng = Random(7)
    for _ in range(40):
        order = MonomialOrder(GREVLEX, rng.randint(1, 3))
        p = rand_polynomial(rng, order) * rand_polynomial(rng, order)
        monos = [m for m, _ in p.terms]
        assert len(set(monos)) == len(monos)
        assert all(c != 0 for _, c in p.terms)
        keys = [order.key(m) for m in monos]
        assert keys == sorted(keys, reverse=True)


def test_constructor_merges_duplicate_monomials():
    m = Monomial((1, 1))
    p = Polynomial(GREVLEX2, [(m, Fraction(1, 2)), (m, Fraction(1, 2)), (m, -1)])
    assert p.is_zero()


def test_order_laws_exhaustive():
    for kind in ORDER_KINDS:
        for nvars in (1, 2, 3):
            order = MonomialOrder(kind, nvars)
            monos = all_monomials(nvars, 4)
            keys = {m: order.key(m) for m in monos}
            # antisymmetry and totality via keys
            for a in monos:
                for b in monos:
                    ca, cb = order.compare(a, b), order.compare(b, a)
                    assert ca == -cb
                    assert (ca == 0) == (a == b)
            # transitivity holds because compare is induced by a total key
            ordered = sorted(monos, key=lambda m: keys[m])
            for x, y, z in zip(ordered, ordered[1:], ordered[2:]):
                assert order.compare(x, y) <= 0 and order.compare(y, z) <= 0
                assert order.compare(x, z) <= 0
            # term-order axiom: 1 is minimal and m < m * x_i
            unit = Monomial.unit(nvars)
            for m in monos:
                if m != unit:
                    assert order.compare(unit, m) == -1
                for i in range(nvars):
                    assert order.compare(m, m * Monomial.variable(i, nvars)) == -1


def test_multiplication_compatibility_of_orders():
    # a < b implies a*c < b*c, exhaustively in 2 variables up to degree 3
    for kind in ORDER_KINDS:
        order = MonomialOrder(kind, 2)
        monos = all_monomials(2, 3)
        for a in monos:
            for b in monos:
                if order.compare(a, b) == -1:
                    for c in monos:
                        assert order.compare(a * c, b * c) == -1


def test_polynomial_power():
    p = poly(GREVLEX2, {(1, 0): 1, (0, 0): 1})
    assert p ** 0 == Polynomial.constant(GREVLEX2, 1)
    assert p ** 3 == poly(
        GREVLEX2, {(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1}
    )
    with pytest.raises(ValueError):
        p ** -1


def test_leading_term_and_degree():
    p = poly(GREVLEX2, {(1, 1): 2, (0, 1): 1})
    assert p.leading_monomial() == Monomial((1, 1))
    assert p.leading_coefficient() == 2
    assert p.degree == 2
    assert Polynomial.zero(GREVLEX2).degree == -1
    with pytest.raises(ValueError):
        Polynomial.zero(GREVLEX2).leading_monomial()


def test_monic_and_scale():
    p = poly(GREVLEX2, {(2, 0): Fraction(-2), (0, 0): 4})
    m = p.monic()
    assert m.leading_coefficient() == 1
    assert m == poly(GREVLEX2, {(2, 0): 1, (0, 0): -2})
    assert p.scale(0).is_zero()


def test_with_order_resorts_terms():
    order_lex = MonomialOrder(LEX, 2)
    p = poly(order_lex, {(0, 3): 1, (1, 0): 1})
    assert p.leading_monomial() == Monomial((1, 0))
    q = p.with_order(MonomialOrder(GRLEX, 2))
    assert q.leading_monomial() == Monomial((0, 3))
    assert q == p
