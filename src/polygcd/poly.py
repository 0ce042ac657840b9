"""Integer polynomials: parsing, evaluation, and gcd over Z[x].

Coefficient order is LEADING-FIRST throughout the package: ``(1, 0, 3)``
is ``x^2 + 3``.  This is the reverse of the constant-first convention many
libraries use, so it is worth stating once and loudly.  The zero polynomial
is the empty coefficient tuple.

All values are immutable after construction and every function here is
pure, so everything is safe to share across threads.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from functools import reduce
from typing import NamedTuple

from .errors import CapExceeded, InputError, ParseError
from .ntheory import _digits

__all__ = [
    "IntPoly",
    "MonicIntPoly",
    "parse_poly",
    "gcd_over_Z",
]

# Largest degree the parser expands to.  The resultant of two degree-100
# inputs already takes seconds, and an unchecked power such as x^200000 or
# (x+1)^3000 would expand for minutes before anything else could refuse it.
MAX_DEGREE = 100

# Largest coefficient bound, in bits: 2^99999999999 has degree 0 but 10^11
# bits.  It exceeds the 4300 digits (about 14 300 bits) Python prints by
# default, so every constant the CLI can print can be written as a power.
MAX_COEFF_BITS = 2**14


class IntPoly(NamedTuple("IntPoly", [("coeffs", tuple[int, ...])])):
    """Dense univariate polynomial over Z, coefficients leading-first."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        coeffs = tuple(map(operator.index, coeffs))
        i = 0
        while i < len(coeffs) and coeffs[i] == 0:
            i += 1
        return super().__new__(cls, coeffs[i:])

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise InputError("the zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, n: int) -> int:
        """Exact value at an integer point, by Horner's rule."""
        acc = 0
        for c in self.coeffs:
            acc = acc * n + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        deg = self.degree
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = deg - i
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = "x" if e == 1 else f"x^{e}"
            else:
                body = f"{mag}*x" if e == 1 else f"{mag}*x^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


class MonicIntPoly(IntPoly):
    """An IntPoly whose leading coefficient is exactly 1 and degree is >= 1."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        self = super().__new__(cls, coeffs)
        if self.degree < 1:
            raise InputError(f"expands to degree {self.degree}; need degree >= 1")
        if self.coeffs[0] != 1:
            try:
                shown = f"is {self.coeffs[0]}"
            except ValueError:  # too long to print: name its digit count instead
                shown = f"has {_digits(self.coeffs[0])} digits"
            raise InputError(f"is not monic: leading coefficient {shown}, expected 1")
        return self

    @classmethod
    def parse(cls, text: str) -> MonicIntPoly:
        return cls(parse_poly(text).coeffs)


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (whitespace insignificant):
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' natlit)?
#   base   := intlit | 'x' | '(' expr ')' | '-' factor
#
# Exponents must be nonnegative integer literals.
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    # Integer literals are ASCII digits only: str.isdigit would also pass
    # other scripts' digits and superscripts such as "²".
    limit = sys.get_int_max_str_digits()
    out: list[_Token] = []
    for match in re.finditer(r"[0-9]+|\S", text):
        tok, pos = match.group(), match.start()
        if tok[0] in "0123456789":
            if limit and len(tok) > limit:
                raise CapExceeded(
                    f"integer literal at position {pos} has more than {limit} digits,"
                    " the interpreter's limit for reading an integer"
                )
            out.append(_Token("int", tok, pos))
        elif tok in "x+-*^()":
            out.append(_Token(tok, tok, pos))
        else:
            raise ParseError(f"unexpected character {tok!r}", pos)
    out.append(_Token("eof", "", len(text)))
    return out


class _Parser:
    # Each rule returns the expanded polynomial as a leading-first list of
    # coefficients with no leading zero; parse_poly makes the one IntPoly.
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._index = 0

    def peek(self) -> _Token:
        return self._tokens[self._index]

    def advance(self) -> _Token:
        tok = self._tokens[self._index]
        self._index += 1
        return tok

    def expr(self) -> list[int]:
        poly = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            poly = _add(poly, rhs if op == "+" else _neg(rhs))
        return poly

    def term(self) -> list[int]:
        poly = self.factor()
        while self.peek().kind == "*":
            pos = self.advance().pos
            rhs = self.factor()
            _check_size(len(poly) + len(rhs) - 2, _log2_l1(poly) + _log2_l1(rhs), 1, pos)
            poly = _mul(poly, rhs)
        return poly

    def factor(self) -> list[int]:
        base = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(
                    "exponent must be a nonnegative integer literal", tok.pos
                )
            self.advance()
            exponent = int(tok.text)
            _check_size((len(base) - 1) * exponent, _log2_l1(base), exponent, tok.pos)
            base = _pow(base, exponent)
        return base

    def base(self) -> list[int]:
        tok = self.advance()
        if tok.kind == "int":
            value = int(tok.text)
            return [value] if value else []
        if tok.kind == "x":
            return [1, 0]
        if tok.kind == "(":
            poly = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return poly
        if tok.kind == "-":
            return _neg(self.factor())
        if tok.kind == "eof":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def _add(a: list[int], b: list[int]) -> list[int]:
    # Coefficients align at the constant term, so add the reversed lists.
    out = [x + y for x, y in itertools.zip_longest(reversed(a), reversed(b), fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out[::-1]


def _neg(a: list[int]) -> list[int]:
    return [-c for c in a]


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pow(base: list[int], exponent: int) -> list[int]:
    result = [1]
    while exponent:
        if exponent & 1:
            result = _mul(result, base)
        exponent >>= 1
        if exponent:
            base = _mul(base, base)
    return result


def _check_size(degree: int, log2_l1: float, exponent: int, pos: int) -> None:
    # Called before a product or power is expanded, never after.  The sum L1
    # of |coefficients| bounds each one and L1(a*b) <= L1(a)*L1(b), so the
    # result's bound is 2^(exponent*log2_l1); dividing keeps a huge exponent
    # out of float arithmetic.
    if degree > MAX_DEGREE:
        raise CapExceeded(
            f"degree {degree} at position {pos} exceeds the parser cap {MAX_DEGREE}"
        )
    if log2_l1 > 0 and exponent > MAX_COEFF_BITS / log2_l1:
        raise CapExceeded(
            f"coefficient bound at position {pos} exceeds the parser cap 2^{MAX_COEFF_BITS}"
        )


def _log2_l1(coeffs: list[int]) -> float:
    return math.log2(sum(map(abs, coeffs)) or 1)


def parse_poly(text: str) -> IntPoly:
    """Parse an expression in ``x`` over Z and expand it exactly.

    Accepted syntax: integer literals, ``x``, ``+ - * ^``, parentheses,
    unary minus; ``^`` takes a nonnegative integer literal.  Raises
    ParseError with the offending position on bad input, and CapExceeded
    before expanding any product or power above degree ``MAX_DEGREE`` or
    with a coefficient bound above ``2^MAX_COEFF_BITS``.
    """
    parser = _Parser(text)
    if parser.peek().kind == "eof":
        raise ParseError("empty input", 0)
    poly = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.pos)
    return IntPoly(poly)


# ---------------------------------------------------------------------------
# gcd over Z[x]
# ---------------------------------------------------------------------------


def gcd_over_Z(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] with positive leading coefficient.

    Computed by the primitive polynomial remainder sequence: each
    pseudo-remainder is divided by its content, so every step stays in Z[x].
    The result is the constant 1 exactly when f and g are coprime over Q.
    """
    if f.is_zero() and g.is_zero():
        raise InputError("gcd of two zero polynomials is undefined")
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    a = _primitive(a)
    if a[0] < 0:
        a = [-c for c in a]
    return IntPoly(tuple(a))


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # prem(a, b): the remainder of lc(b)**(deg a - deg b + 1) * a modulo b.
    deg_b = len(b) - 1
    lead = b[0]
    rem = list(a)
    steps = len(a) - len(b) + 1
    while rem and len(rem) - 1 >= deg_b:
        top = rem[0]
        rem = [lead * c for c in rem[1:]]
        for k in range(1, len(b)):
            rem[k - 1] -= top * b[k]
        while rem and rem[0] == 0:
            rem.pop(0)
        steps -= 1
    if steps > 0 and rem:
        scale = lead**steps
        rem = [c * scale for c in rem]
    return rem


def _content(coeffs: list[int]) -> int:
    return reduce(math.gcd, coeffs, 0)


def _primitive(coeffs: list[int]) -> list[int]:
    # The zero polynomial (content 0) stays empty.
    content = _content(coeffs)
    return [c // content for c in coeffs]
