"""Tiny recursive-descent parser for rational-function expressions.

Grammar: + - * / ^ with integer exponents, parentheses, integer and p/q
literals, and a single variable (t for function-field inputs, z for loop
exponents).  "(t^2+1)/(t-3)" and "z^-1 + z^-2" are typical inputs.

Limits, each a ParseError raised before the work it bounds:
  - an exponent may not exceed MAX_EXPONENT = 1000 in absolute value
    ("t^1001");
  - no intermediate result may have a numerator or denominator of degree
    above MAX_DEGREE = 1000.  The bound is checked from the operands'
    degrees before each sum, product, quotient and power, so
    "(t+1)^1000*(t+2)^1000" fails before the product is formed, while
    "t^-1000" and "(t+1)^1000" are accepted.
Together they bound the work of any one expression.  A place given by
parse_place may not have degree above MAX_PLACE_DEGREE = 60: the squarefree
check gcd(q, q') and the inverse mod q of a residue are Fraction Euclid
runs.  Cold, `residue --f 1/q --g t^2 --place q` took 0.2 s at degree 60 for
q = t^60 + t + 1, and for dense q with integer coefficients in [-9, 9] 0.25 s
at degree 20, 1.0 s at 40 and 8.7 s at 60.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ReductionError
from .polynomials import RationalFunction
from .residues import laurent_coefficients
from .segal_wilson import LoopExponent

_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z]+|\^|\+|-|\*|/|\(|\))")

MAX_EXPONENT = 1000
MAX_DEGREE = 1000
MAX_PLACE_DEGREE = 60


class ParseError(ValueError):
    pass


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # past int()'s limit on digits
        raise ParseError("integer literal of %d digits is too long" % len(tok))


def _check_degree(*degrees: int) -> None:
    """ParseError if the largest of the given degree bounds is over
    MAX_DEGREE."""
    bound = max(degrees)
    if bound > MAX_DEGREE:
        raise ParseError(
            "intermediate degree %d exceeds the limit %d" % (bound, MAX_DEGREE)
        )


def _degrees(f: RationalFunction):
    return f.num.degree, f.den.degree


class _Parser:
    def __init__(self, text: str, var: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError("bad character at %r" % text[pos:])
            self.tokens.append(m.group(1))
            pos = m.end()
        self.pos = 0
        self.var = var

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got))

    def parse(self) -> RationalFunction:
        out = self.expr()
        if self.peek() is not None:
            raise ParseError("trailing input at %r" % self.peek())
        return out

    def expr(self) -> RationalFunction:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            (an, ad), (bn, bd) = _degrees(out), _degrees(rhs)
            _check_degree(an + bd, bn + ad, ad + bd)
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> RationalFunction:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            (an, ad), (bn, bd) = _degrees(out), _degrees(rhs)
            if op == "/":
                if rhs.is_zero():
                    raise ParseError("division by zero")
                _check_degree(an + bd, ad + bn)
                out = out / rhs
            else:
                _check_degree(an + bn, ad + bd)
                out = out * rhs
        return out

    def factor(self) -> RationalFunction:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ParseError("expected integer exponent, got %r" % tok)
            n = sign * _integer(tok)
            if abs(n) > MAX_EXPONENT:
                raise ParseError(
                    "exponent %d exceeds the limit %d" % (n, MAX_EXPONENT)
                )
            if n < 0 and base.is_zero():
                raise ParseError("zero to a negative power")
            _check_degree(*(abs(n) * d for d in _degrees(base)))
            base = base**n
        return base

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == "(":
            out = self.expr()
            self.expect(")")
            return out
        if tok.isdigit():
            return RationalFunction.from_const(Fraction(_integer(tok)))
        if tok == self.var:
            return RationalFunction.variable()
        raise ParseError("unexpected token %r (variable is %r)" % (tok, self.var))


def parse_rational_function(text: str, var: str = "t") -> RationalFunction:
    try:
        return _Parser(text, var).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply")


def parse_place(text: str):
    from .places import Place

    text = text.strip()
    if text.lower() in ("inf", "oo", "infinity"):
        return Place.infinity()
    f = parse_rational_function(text, "t")
    if not f.is_polynomial() or f.num.degree < 1:
        raise ParseError("a finite place is a nonconstant polynomial, got %r" % text)
    if f.num.degree > MAX_PLACE_DEGREE:
        raise ParseError(
            "place of degree %d exceeds the limit %d" % (f.num.degree, MAX_PLACE_DEGREE)
        )
    return Place.finite(f.num.monic())


def parse_loop_exponent(text: str, side: str) -> LoopExponent:
    """Parse a finite Laurent polynomial in z into a loop exponent; the
    plus side must use positive degrees only, the minus side negative."""
    try:
        coeffs = laurent_coefficients(parse_rational_function(text, "z"))
    except ReductionError:
        raise ParseError("loop exponent must be a Laurent polynomial in z") from None
    if 0 in coeffs:
        raise ParseError("loop exponent cannot have a constant term")
    if side == "plus":
        if any(d < 0 for d in coeffs):
            raise ParseError("plus-side exponent needs positive degrees only")
        return LoopExponent("plus", coeffs)
    if any(d > 0 for d in coeffs):
        raise ParseError("minus-side exponent needs negative degrees only")
    return LoopExponent("minus", {-d: c for d, c in coeffs.items()})
