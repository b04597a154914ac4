"""Polynomial systems from text.

Grammar (UTF-8, `#` starts a comment running to end of line):

    file     := [varsline] polyline+
    varsline := "vars:" ident ("," ident)*
    polyline := polynomial NEWLINE
    polynomial := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := rational | ident ["^" natural] | "(" polynomial ")" ["^" natural] | "-" factor
    rational := natural ["/" natural]

Multiplication is always explicit (`2*x1`, never `2x1`).  Without a `vars:`
header, identifiers must look like `x<digits>` and are declared in numeric
order; with a header, any identifiers are accepted in the declared order.

The variables are fixed from the tokens before any line is parsed, so each
line is evaluated directly, in one linear pass, and becomes a `Polynomial`
once.  `format_monomial` writes a standard monomial back as text for output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from math import comb
from operator import add
from typing import Sequence

from .poly import GREVLEX, Monomial, MonomialOrder, Polynomial, TermDict, mul_terms, neg_terms, pow_terms

_MAX_NESTING = 200
# Products of two terms that one `*` or `^` may expand into: about 2 s at the
# 8 us a product measured with small Fraction coefficients on 2 x86-64 vCPUs.
_MAX_PRODUCTS = 250_000
# Coefficient bits, as `_bits` estimates them, that one `*` or `^` may reach:
# (7/5*x1)^375000 reaches them in about 2 s on 2 x86-64 vCPUs.
_MAX_BITS = 750_000
# Products weigh (1 + b/_WEIGHT_BITS)^2 in _MAX_PRODUCTS, b the coefficient bits of both
# operands: fitted on 300- to 4000-digit rationals (1.8 ms at b = 26 600) on 2 x86-64 vCPUs.
# A product of two lone terms, as in a one-term power, is left to _MAX_BITS alone.
_WEIGHT_BITS = 1280
# Products in n variables weigh 1 + n // _WEIGHT_VARS as much: `mul_terms` took 7.9 us at n = 4, 48 at 512.
_WEIGHT_VARS = 96
_AUTO_VAR = re.compile(r"^x(\d+)$")
_TOKEN = re.compile(
    r"(?P<skip>[ \t\r]+|#[^\n]*)|(?P<newline>\n)|(?P<nat>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),:])|(?P<other>.)"
)


class ParseError(ValueError):
    """Rejection of malformed input, carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    """Tokens of `text`; an operator's kind is its own text."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        column = m.start() - line_start + 1
        if kind == "other":
            raise ParseError(f"unknown character {m.group()!r}", line, column)
        tokens.append(_Token(m.group() if kind == "op" else kind, m.group(), line, column))
        if kind == "newline":
            line, line_start = line + 1, m.end()
    return tokens


def _natural(tok: _Token) -> int:
    """The value of a `nat` token.  CPython 3.10.7+ refuses to convert more
    digits than `sys.get_int_max_str_digits()` (4300 by default)."""
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(tok.text)} digits exceeds the interpreter's "
            "int conversion limit (PYTHONINTMAXSTRDIGITS)",
            tok.line,
            tok.column,
        ) from None


def _weight(bits: int, nvars: int) -> int:  # 1 below 530 bits and 96 variables
    return (1 + nvars // _WEIGHT_VARS) * ((bits + _WEIGHT_BITS) ** 2 // _WEIGHT_BITS**2)


def _power_products(a: TermDict, nvars: int, exponent: int, bits: int = 0) -> int:
    """A bound on the term products of `pow_terms(a, exponent, nvars)`, each of
    a^i by a^j weighted by `_weight((i + j) * bits, nvars)`, counted along its repeated
    squaring until it passes _MAX_PRODUCTS: a^k has at most C(len(a) + k - 1, k)
    terms (k-multisets of a's terms) and C(nvars + k*d, nvars) (d = deg a);
    in O(1) for one term, whose products are left to _MAX_BITS."""
    if len(a) == 1:
        return _weight(0, nvars) * (exponent.bit_count() + exponent.bit_length() - 1) if exponent else 0
    size, degree = len(a), max(map(sum, a), default=0)

    def terms(k: int) -> int:
        return min(comb(size + k - 1, k), comb(nvars + k * degree, nvars)) if k else 1

    total, result, power = 0, 0, 1
    while exponent and total <= _MAX_PRODUCTS:
        if exponent & 1:
            total += terms(result) * terms(power) * _weight((result + power) * bits, nvars)
            result += power
        exponent >>= 1
        if exponent:
            total += terms(power) ** 2 * _weight(2 * power * bits, nvars)
            power *= 2
    return total


def _size(c: int | Fraction) -> int:
    """The largest bit_length() - 1 of c's numerator and denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length()) - 1


def _bits(a: TermDict) -> int:
    """Coefficient size that a product adds and a power multiplies: the
    largest `_size` of a coefficient, so +-1 costs nothing, plus the bits of
    the term count, which bounds the multinomial coefficients of a power."""
    return max(map(_size, a.values())) + (len(a) - 1).bit_length() if a else 0


def _bound(tok: _Token, products: int, bits: int) -> None:
    """Rejects, at `tok`, a `*` or `^` past _MAX_BITS or, weighted, _MAX_PRODUCTS."""
    what = f"expanding this {'power' if tok.kind == '^' else 'product'}"
    if bits > _MAX_BITS:
        raise ParseError(f"{what} makes coefficients of over {_MAX_BITS} bits", tok.line, tok.column)
    if products > _MAX_PRODUCTS:
        what += f" takes over {_MAX_PRODUCTS} term products weighted by coefficient size and variable count"
        raise ParseError(what, tok.line, tok.column)


def _terms(value: tuple | TermDict) -> TermDict:
    return dict([value]) if type(value) is tuple else value


class _ExprParser:
    """Recursive-descent parser of one line per `parse` over the variables
    in `index`; `auto` says they are the `x<digits>` identifiers (no header).
    A value is a lone term, an (exponents, nonzero int or Fraction) pair, or a
    `TermDict` that its receiver owns: lone terms multiply and power on their
    exponents, a sum accumulates into one dict, and `poly` does the rest."""

    def __init__(self, index: dict[str, int], auto: bool):
        self.index = index
        self.auto = auto
        self.one = (0,) * len(index)

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, message: str) -> ParseError:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.column + len(last.text) if last else 1
            return ParseError(f"{message} at end of input", line, col)
        return ParseError(message, tok.line, tok.column)

    def parse(self, tokens: list[_Token]) -> TermDict:
        self.tokens, self.pos, self.depth = tokens, 0, 0
        value = self.polynomial()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return {e: c if type(c) is Fraction else Fraction(c) for e, c in value.items()}

    def polynomial(self) -> TermDict:
        total = _terms(self.term())
        while (tok := self._peek()) is not None and tok.kind in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            for e, c in [rhs] if type(rhs) is tuple else rhs.items():
                c = total.get(e, 0) + c if tok.kind == "+" else total.get(e, 0) - c
                if c:
                    total[e] = c
                else:
                    del total[e]
        return total

    def term(self) -> tuple | TermDict:
        value = self.factor()
        while (tok := self._peek()) is not None and tok.kind == "*":
            self.pos += 1
            rhs = self.factor()
            if type(value) is tuple and type(rhs) is tuple:
                _bound(tok, 1, _size(value[1]) + _size(rhs[1]))
                value = tuple(map(add, value[0], rhs[0])), value[1] * rhs[1]
                continue
            value, rhs = _terms(value), _terms(rhs)
            products, bits = len(value) * len(rhs), _bits(value) + _bits(rhs)
            _bound(tok, products * _weight(bits, len(self.index)) if products > 1 else products, bits)
            value = mul_terms(value, rhs)
        return value

    def factor(self) -> tuple | TermDict:
        # "-" factor, counted in a loop: a run of signs costs no recursion.
        negate = False
        while (tok := self._peek()) is not None and tok.kind == "-":
            self.pos += 1
            negate = not negate
        value = self.primary()
        if (caret := self._peek()) is not None and caret.kind == "^":
            self.pos += 1
            exponent, n = self.exponent(), len(self.index)
            bits = _bits(terms := _terms(value))
            _bound(caret, _power_products(terms, n, exponent, bits), exponent * bits)
            if type(value) is tuple:
                value = tuple([k * exponent for k in value[0]]), value[1] ** exponent
            else:
                value = pow_terms(value, exponent, n)
        if not negate:
            return value
        return (value[0], -value[1]) if type(value) is tuple else neg_terms(value)

    def primary(self) -> tuple | TermDict:
        tok = self._peek()
        if tok is None:
            raise self._fail("expected a factor")
        if tok.kind == "nat":
            self.pos += 1
            value: int | Fraction = _natural(tok)
            if self._peek() is not None and self._peek().kind == "/":
                self.pos += 1
                den = self._peek()
                self.pos += 1
                if den is None or den.kind != "nat":
                    raise self._fail("malformed rational: expected a denominator")
                denominator = _natural(den)
                if denominator == 0:
                    raise ParseError("malformed rational: zero denominator", den.line, den.column)
                value = Fraction(value, denominator)
            return (self.one, value) if value else {}
        if tok.kind == "ident":
            self.pos += 1
            var = self.index.get(tok.text)
            if var is None:
                hint = " (use a vars: header for names other than x1, x2, ...)" if self.auto else ""
                raise ParseError(f"undeclared identifier {tok.text}{hint}", tok.line, tok.column)
            return self.one[:var] + (1,) + self.one[var + 1 :], 1
        if tok.kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError("expression nested too deeply", tok.line, tok.column)
            self.pos += 1
            value = self.polynomial()
            closing = self._peek()
            if closing is None or closing.kind != ")":
                raise self._fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        raise self._fail(f"unexpected {tok.text!r}")

    def exponent(self) -> int:
        tok = self._peek()
        if tok is None or tok.kind != "nat":
            if tok is not None and tok.kind == "-":
                raise ParseError("exponent must be a non-negative integer literal", tok.line, tok.column)
            raise self._fail("exponent must be a non-negative integer literal")
        self.pos += 1
        return _natural(tok)


def parse_system(text: str, kind: str = GREVLEX) -> tuple[list[str], list[Polynomial]]:
    """Parse a polynomial system: optional `vars:` header, one polynomial per line.

    Returns the ordered variable names and the polynomials in canonical form
    over the full variable set.  Without a header, variables are the `x<digits>`
    identifiers that occur, ordered numerically.
    """
    lines = [
        list(line)
        for newline, line in groupby(_tokenize(text), key=lambda t: t.kind == "newline")
        if not newline
    ]

    declared: dict[str, None] | None = None  # ordered, with O(1) duplicate lookups
    if lines and lines[0][0].kind == "ident" and lines[0][0].text == "vars" \
            and len(lines[0]) > 1 and lines[0][1].kind == ":":
        colon, *header = lines.pop(0)[1:]
        declared = {}
        expect_name = True
        for tok in header:
            if expect_name:
                if tok.kind != "ident":
                    raise ParseError("expected a variable name", tok.line, tok.column)
                if tok.text in declared:
                    raise ParseError(f"duplicate variable {tok.text}", tok.line, tok.column)
                declared[tok.text] = None
            elif tok.kind != ",":
                raise ParseError("expected ','", tok.line, tok.column)
            expect_name = not expect_name
        if expect_name:
            last = header[-1] if header else colon
            raise ParseError("expected a variable name", last.line, last.column + len(last.text))

    if not lines:
        raise ParseError("empty system: no polynomials", 1, 1)

    if declared is not None:
        names = list(declared)
    else:
        # x<digits> identifiers sort by their numeric suffix.
        found = {t.text for line in lines for t in line if t.kind == "ident" and _AUTO_VAR.match(t.text)}
        names = sorted(found, key=lambda s: (int(_AUTO_VAR.match(s).group(1)), s))
    parser = _ExprParser({name: i for i, name in enumerate(names)}, auto=declared is None)
    parsed = [parser.parse(line) for line in lines]
    order = MonomialOrder(kind, len(names))
    return names, [Polynomial._from_terms(order, terms) for terms in parsed]


def format_monomial(m: Monomial, variables: Sequence[str]) -> str:
    """Power-product text like `x1*x2^2`; the unit monomial prints as `1`."""
    if len(variables) != m.nvars:
        raise ValueError(f"{len(variables)} names for a monomial in {m.nvars} variables")
    parts = []
    for name, e in zip(variables, m.exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"

