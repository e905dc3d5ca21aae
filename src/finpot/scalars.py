"""Exact scalars: rationals and single-generator number fields.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  Number fields are Q[x]/(p) for a monic p: a field when p is
irreducible, an etale algebra (a product of fields) when p is squarefree.
Their elements interoperate with ``int`` and ``Fraction`` through coercion,
so each linear-algebra kernel in this package runs one loop over either
kind of scalar.  The arithmetic core lives here.  _int_coeffs is the one
Fraction -> integer boundary (the all-Fraction test and the lcm scaling)
of every integer kernel.  _add_product is the one termwise product of
coefficient lists, truncated to its accumulator; _poly_mul runs it on ints
for all-Fraction lists, on the stored scalars otherwise.  _Ring and _power
give the exact value types one subtraction and one power.

One scalar rule holds where values leave the library: a rational value is
a Fraction, whichever kernel computed it.  canonical is that rule; the
series and polynomial constructors and the scalar results of determinants
apply it.  Operators are exempt and keep the scalars they are given: a
Q(i) operator whose entries are all rational still names its field, which
restrict_scalars reads from the entries.  JSON input reaches the package
through parse_rational and parse_integer, which read literals only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul


def parse_rational(text: str) -> Fraction:
    """A signed integer or p/q literal as a Fraction.  Exponent and decimal
    notation ("1e30000000" would build a 30-million-digit integer), a
    literal past int()'s digit limit and any non-str are a ValueError."""
    if not isinstance(text, str) or not re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", text):
        raise ValueError("not an integer or p/q literal: %r" % (text,))
    return Fraction(text)


def parse_integer(x) -> int:
    """An int, or a str holding a signed integer literal; a float or a bool
    is a ValueError, so 1.5 is refused instead of truncated."""
    if type(x) is int or isinstance(x, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", x):
        return int(x)
    raise ValueError("not an integer: %r" % (x,))


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def canonical(x):
    """x under the package's scalar rule: a Fraction for every rational
    value (an int, a Fraction, a NumberFieldElement with no term of degree
    >= 1), any other NumberFieldElement unchanged."""
    if type(x) is Fraction:
        return x
    if isinstance(x, NumberFieldElement):
        return x.coeffs[0] if x.is_rational() else x
    return Fraction(x)


def _int_coeffs(cs):
    """(numerators, D) with cs[i] = numerators[i] / D, D the lcm of the
    denominators, if every entry of cs (iterated twice) is a Fraction;
    None if any entry is an int or a field element."""
    if not all(type(x) is Fraction for x in cs):
        return None
    d = lcm(*(x.denominator for x in cs))
    return [x.numerator * (d // x.denominator) for x in cs], d


def _power(x, n: int, one):
    """x ** n for n >= 0 by square-and-multiply, starting from one."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _Ring:
    """x - y as x + (-y), y - x as y + (-x), for a type with _coerce (None
    for an operand it does not take), + and unary -."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)


def _poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add_product(acc, a, b):
    """Add a[i] * b[k - i] into acc[k] for every k < len(acc), over the
    nonzero a[i]; returns acc.  Terms of degree len(acc) and up are never
    formed, so a truncated product costs only the terms it keeps."""
    n = len(acc)
    for i, x in enumerate(a[:n]):
        if x != 0:
            for k, y in enumerate(b[: n - i], i):
                acc[k] += x * y
    return acc


def _poly_mul(a, b, n=None):
    """Product of coefficient lists by _add_product, cut to its first n
    coefficients when n is given.  When every coefficient is a Fraction,
    each list becomes integers over the lcm of its denominators and the
    loop runs on ints, with one Fraction per result coefficient; otherwise
    it runs on the stored scalars."""
    if not a or not b:
        return []
    fa, fb = _int_coeffs(a), _int_coeffs(b)
    n = len(a) + len(b) - 1 if n is None else n
    if fa is None or fb is None:
        return _poly_trim(_add_product([Fraction(0)] * n, a, b))
    (a, da), (b, db) = fa, fb
    den = da * db
    return _poly_trim([Fraction(c, den) for c in _add_product([0] * n, a, b)])


def _poly_divmod(a, b):
    """(quotient, remainder) of coefficient lists; each step subtracts
    only the nonzero terms of b, so a sparse divisor costs its support."""
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    terms = [(j, y) for j, y in enumerate(b) if y != 0]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c != 0:
            q[i] = c = c * inv
            for j, y in terms:
                a[i + j] -= c * y
    return q, _poly_trim(a)


class NumberField:
    """Q[x]/(modulus) for a monic modulus over Q.

    The modulus is a coefficient list, lowest degree first; only monicity is
    enforced here.  An irreducible modulus gives a number field; a
    squarefree one gives an etale algebra, the product of the fields of its
    irreducible factors, in which `inverse` works for every element coprime
    to the modulus and `field_trace` is the sum of the factors' traces.
    Nothing in the package needs irreducibility: Place asks for a
    squarefree modulus, and computes in the etale algebra.
    """

    def __init__(self, modulus):
        modulus = [Fraction(c) for c in modulus]
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self._power_sums = None

    def power_sums(self):
        """(s_0, ..., s_{d-1}): s_k is the sum of the k-th powers of the
        modulus's roots, the trace of x^k.  Newton's identities give them
        from the modulus coefficients c_i, s_k = -(k c_{d-k} +
        sum_{0<i<k} c_{d-i} s_{k-i}), over the nonzero c_i only; computed
        once per field."""
        if self._power_sums is None:
            c, d = self.modulus, self.degree
            nonzero = [(i, c[d - i]) for i in range(1, d) if c[d - i] != 0]
            s = [Fraction(d)]
            for k in range(1, d):
                acc = k * c[d - k]
                for i, ci in nonzero:
                    if i >= k:
                        break
                    acc += ci * s[k - i]
                s.append(-acc)
            self._power_sums = tuple(s)
        return self._power_sums

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return "NumberField(%s)" % (list(self.modulus),)

    def element(self, coeffs) -> "NumberFieldElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) >= len(self.modulus):
            _, cs = _poly_divmod(cs, list(self.modulus))
        cs = cs + [Fraction(0)] * (self.degree - len(cs))
        return NumberFieldElement(self, tuple(cs[: self.degree]))

    def generator(self) -> "NumberFieldElement":
        return self.element([0, 1])

    def zero(self) -> "NumberFieldElement":
        return self.element([])

    def one(self) -> "NumberFieldElement":
        return self.element([1])


class NumberFieldElement(_Ring):
    """Element of a NumberField, stored as the reduced representative."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == field.degree

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([Fraction(other)])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElement(
            self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        return self.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm; it
        exists exactly when the element is coprime to the modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")

        # invariants: r0 = s0 * self (mod modulus), r1 = s1 * self (mod modulus)
        r0, r1 = list(self.field.modulus), _poly_trim(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            # s0 - q * s1, accumulated into a copy of s0
            acc = s0 + [Fraction(0)] * (len(q) + len(s1) - 1 - len(s0))
            s0, s1 = s1, _poly_trim(_add_product(acc, [-x for x in q], s1))
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible: not coprime to the modulus")
        inv = 1 / r0[0]
        return self.field.element([c * inv for c in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        return _power(self.inverse() if n < 0 else self, abs(n), self.field.one())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a rational-valued element equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def regular_matrix(self):
        """Matrix of multiplication by self on the basis 1, x, ..., x^(d-1).

        Returned as a list of rows; column j holds the coordinates of
        self * x^j.
        """
        d = self.field.degree
        cols = []
        cur = self
        for _ in range(d):
            cols.append(cur.coeffs)
            cur = cur * self.field.generator()
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            else:
                var = "x" if i == 1 else "x^%d" % i
                terms.append(var if c == 1 else "%s*%s" % (format_rational(c), var))
        return " + ".join(terms) if terms else "0"


def field_norm(e: NumberFieldElement) -> Fraction:
    """Norm down to Q: determinant of the multiplication-by-e map."""
    from .matrices import det  # matrices imports this module

    return det(e.regular_matrix())


def field_trace(e: NumberFieldElement) -> Fraction:
    """Trace down to Q of the multiplication-by-e map: sum a_k s_k for
    e = sum a_k x^k, with s_k the field's power sums."""
    return sum(map(mul, e.coeffs, e.field.power_sums()), Fraction(0))


def scalar_is_zero(x) -> bool:
    if isinstance(x, NumberFieldElement):
        return x.is_zero()
    return x == 0
