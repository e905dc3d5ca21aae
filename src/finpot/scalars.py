"""Exact scalars: rationals and single-generator number fields.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  Number fields are Q[x]/(p) for a monic p: a field when p is
irreducible, an etale algebra (a product of fields) when p is squarefree.
Their elements are integer numerators over one denominator, and
interoperate with ``int`` and ``Fraction`` through coercion, so each
linear-algebra kernel in this package runs one loop over either kind of
scalar.  The arithmetic core lives here.  _int_coeffs, integers over
their lcm D for an all-Fraction list and the entries over D = 1 otherwise,
is the one way into every exact kernel, and _over the one way back.
_add_product is the one termwise product of coefficient lists, truncated
to its accumulator; _poly_mul runs it on the numerators of _int_coeffs.
_int_divmod is the one division of integer coefficient lists, exact or
pseudo; _poly_divmod runs it for lists of Fractions and refuses any other
coefficient (_rational_ints, the Q-only gate).  _Ring
gives the other exact value types one subtraction, and _power all of them
one power.

Linear algebra over Q in Q[x]/(p) reads one form, an element's integer
multiplication matrix (NumberFieldElement._int_matrix), built by the same
integer reduction (NumberField._reduce) as the product: regular_matrix is
that matrix over its denominator, inverse one reduced matrices._bareiss on
its integer rows, field_norm matrices.int_det of it and field_trace its
diagonal sum.

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
from math import gcd, lcm
from operator import add, sub


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
        return Fraction(x.nums[0], x.den) if x.is_rational() else x
    return Fraction(x)


def _int_coeffs(cs):
    """(numerators, D) with cs[i] = numerators[i] / D: integers over D the
    lcm of the denominators if every entry of cs (iterated twice) is a
    Fraction, otherwise the entries themselves over D = 1."""
    if not all(type(x) is Fraction for x in cs):
        return list(cs), 1
    d = lcm(*(x.denominator for x in cs))
    return [x.numerator * (d // x.denominator) for x in cs], d


def _over(x, D: int):
    """The value x / D of a numerator x over D: a Fraction for an int x,
    x itself for D = 1, otherwise x * Fraction(1, D)."""
    if type(x) is int:
        return Fraction(x, D)
    return x if D == 1 else x * Fraction(1, D)


def _rational_ints(cs):
    """_int_coeffs(cs) for a list of Fractions; TypeError when a
    coefficient lies outside Q."""
    if not all(type(x) is Fraction for x in cs):
        raise TypeError("coefficients outside Q in %s" % (list(cs),))
    return _int_coeffs(cs)


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
    coefficients when n is given: one loop on the numerators of
    _int_coeffs, ints for an all-Fraction list and the stored scalars
    otherwise, and one _over per result coefficient."""
    if not a or not b:
        return []
    (a, da), (b, db) = _int_coeffs(a), _int_coeffs(b)
    n = len(a) + len(b) - 1 if n is None else n
    den = da * db
    return _poly_trim([_over(c, den) for c in _add_product([0] * n, a, b)])


def _int_divmod(a, b):
    """(q, s, r, p) for int lists a and b, lc(b) nonzero: a = sum_i
    (q[i] / s[i]) t^i b + r / p, each s[i] and p a power of lc(b).  The
    entries in play are scaled by lc(b) only at a step whose leading entry
    lc(b) does not divide, and a lower entry takes the scale p when the
    steps reach it.  So an exact division runs on a itself (every s[i] = p
    = 1), and r is a pseudo-remainder with no more powers of lc(b) than the
    steps need.  Each step subtracts only the nonzero terms of b, so a
    sparse divisor costs its support."""
    a = list(a)
    n, lead = len(b) - 1, b[-1]
    terms = [(j, y) for j, y in enumerate(b[:n]) if y]
    q, s = [0] * max(0, len(a) - n), [1] * max(0, len(a) - n)
    p = 1
    for i in range(len(a) - 1 - n, -1, -1):
        a[i] *= p
        c = a[i + n]
        if c % lead:
            for m in range(i, i + n):
                a[m] *= lead
            c, p = c * lead, p * lead
        if c:
            q[i] = c = c // lead
            s[i] = p
            for j, y in terms:
                a[i + j] -= c * y
    return q, s, _poly_trim(a[:n]), p


def _poly_divmod(a, b):
    """(quotient, remainder) of lists of Fractions: one _int_divmod of the
    numerators a = A / da, b = B / db over their lcms, and one Fraction per
    result coefficient: quotient digit q[i] db / (s[i] da), remainder
    r / (p da).  TypeError for any other coefficient (_rational_ints)."""
    (a, da), (b, db) = _rational_ints(a), _rational_ints(b)
    q, s, r, p = _int_divmod(a, b)
    return [Fraction(x * db, y * da) for x, y in zip(q, s)], [Fraction(x, p * da) for x in r]


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
        self._table = None

    def _reduction(self):
        """(rows, E): rows[k - d] holds the nonzero terms (i, c), c an int,
        of E * (x^k mod modulus) for d <= k <= 2d - 2, E the least common
        denominator.  Built on the first product, not per field."""
        if self._table is None:
            d = self.degree
            low = [-c for c in self.modulus[:-1]]  # x^d mod modulus
            rows, row = [], low
            for _ in range(d - 1):
                rows.append(row)
                row = [(row[i - 1] if i else 0) + row[-1] * low[i] for i in range(d)]
            nums, e = _int_coeffs([c for row in rows for c in row])
            self._table = ([[(i, c) for i, c in enumerate(nums[k : k + d]) if c]
                            for k in range(0, len(nums), d)], e)
        return self._table

    def _reduce(self, acc):
        """E * (acc mod modulus) as d ints, for an int coefficient list acc
        of length 2d - 1 (E from _reduction): acc's low d terms times E,
        plus each higher term times its row of the table."""
        rows, e = self._reduction()
        out = [x * e for x in acc[: self.degree]]
        for c, row in zip(acc[self.degree :], rows):
            if c:
                for i, t in row:
                    out[i] += c * t
        return out

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return "NumberField(%s)" % (list(self.modulus),)

    def element(self, coeffs) -> "NumberFieldElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            _, cs = _poly_divmod(cs, self.modulus)
        nums, den = _int_coeffs(cs)
        return NumberFieldElement(self, nums + [0] * (self.degree - len(nums)), den)

    def generator(self) -> "NumberFieldElement":
        return self.element([0, 1])

    def zero(self) -> "NumberFieldElement":
        return self.element([])

    def one(self) -> "NumberFieldElement":
        return self.element([1])


class NumberFieldElement:
    """Element of a NumberField: the reduced representative sum_{i<d}
    nums[i] x^i / den, stored as d ints over one int den > 0, divided by
    their gcd on construction.  That form is canonical, so equality compares
    integers; coeffs reads it as d Fractions.  A product is one integer
    _add_product reduced by the field's integer table of x^k mod modulus
    (NumberField._reduction); sums, negation and products by an int or a
    Fraction work on the numerators."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums, den: int):
        g = gcd(den, *nums)
        self.field = field
        self.nums = tuple(nums) if g == 1 else tuple(x // g for x in nums)
        self.den = den // g

    @property
    def coeffs(self):
        """The coefficients of 1, x, ..., x^(d-1), as d Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is not self.field and other.field != self.field:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            nums = (other.numerator,) + (0,) * (self.field.degree - 1)
            return NumberFieldElement(self.field, nums, other.denominator)
        return None

    def _combine(self, o, op):
        """self op o for op add or sub, over a shared denominator if any."""
        a, b = self.den, o.den
        if a == b:
            return type(self)(self.field, list(map(op, self.nums, o.nums)), a)
        return type(self)(self.field, [op(x * b, y * a) for x, y in zip(self.nums, o.nums)], a * b)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._combine(o, add)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._combine(o, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._combine(self, sub)

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(self.field, [x * other.numerator for x in self.nums],
                                      self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        acc = _add_product([0] * (2 * field.degree - 1), self.nums, o.nums)
        den = self.den * o.den * field._reduction()[1]
        return NumberFieldElement(field, field._reduce(acc), den)

    __rmul__ = __mul__

    def _int_matrix(self):
        """(M, s): M an integer matrix (a list of rows) and M / s the
        regular matrix.  Column j holds the numerators of s * self * x^j,
        the shifted nums reduced by NumberField._reduce, with s = den * E."""
        field = self.field
        d = field.degree
        cols = [field._reduce([0] * j + list(self.nums) + [0] * (d - 1 - j)) for j in range(d)]
        return [list(row) for row in zip(*cols)], self.den * field._reduction()[1]

    def inverse(self) -> "NumberFieldElement":
        """Multiplicative inverse, the solution v of M v = s e_0 for
        (M, s) = _int_matrix(): one reduced matrices._bareiss on the integer
        rows [M | s e_0] leaves D v in the last column, D the last pivot.
        It exists exactly when the element is coprime to the modulus, that
        is when M has full rank."""
        from .matrices import _bareiss  # matrices imports this module

        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        m, s = self._int_matrix()
        d = self.field.degree
        m = [row + [0] for row in m]
        m[0][d] = s
        if _bareiss(m, d, reduce=True)[0] != list(range(d)):
            raise ZeroDivisionError("element not invertible: not coprime to the modulus")
        den = m[-1][d - 1]
        sign = -1 if den < 0 else 1
        return NumberFieldElement(self.field, [sign * row[d] for row in m], sign * den)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        return _power(self.inverse() if n < 0 else self, abs(n), self.field.one())

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.nums == o.nums and self.den == o.den

    def __hash__(self):
        # a rational-valued element equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field, self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self):
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def regular_matrix(self):
        """Matrix of multiplication by self on the basis 1, x, ..., x^(d-1),
        as a list of rows of Fractions; column j holds the coordinates of
        self * x^j.  It is _int_matrix's M over s."""
        m, s = self._int_matrix()
        return [[Fraction(x, s) for x in row] for row in m]

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
    """Norm down to Q: determinant of the multiplication-by-e map, the
    integer determinant of e's _int_matrix M over s^d."""
    from .matrices import int_det  # matrices imports this module

    m, s = e._int_matrix()
    return Fraction(int_det(m), s ** len(m))


def field_trace(e: NumberFieldElement) -> Fraction:
    """Trace down to Q of the multiplication-by-e map: the diagonal sum of
    e's _int_matrix M over s."""
    m, s = e._int_matrix()
    return Fraction(sum(row[i] for i, row in enumerate(m)), s)


def scalar_is_zero(x) -> bool:
    if isinstance(x, NumberFieldElement):
        return x.is_zero()
    return x == 0
