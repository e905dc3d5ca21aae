"""Univariate polynomials and rational functions over Q, exact throughout.

Coefficient lists are stored lowest degree first with a nonzero leading
coefficient (the zero polynomial is the empty list): Fractions, and
NumberFieldElements only for values outside Q (det_poly over a number
field), by scalars.canonical.
Rational functions are kept normalized: monic denominator, gcd(num, den) = 1.

Q[t] arithmetic runs on Python ints, each list its numerators over their
lcm (scalars._rational_ints), with one Fraction per output coefficient:
division is scalars._poly_divmod; gcd (_int_gcd) the primitive part of
the last remainder of scalars._subres, the subresultant PRS; a rational
function keeps _normal_form's integer lists (n, d), and its +, *, / and
derivative form the next n / d from them.  Nothing here factors:
split_power, the squarefree decomposition (squarefree_parts) and the
coprime basis (coprime_basis) run end to end on the same lists, with gcds
and exact divisions by primitive divisors only.  All of it is over Q: a
NumberFieldElement coefficient is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .scalars import (_add_product, _int_divmod, _poly_divmod, _poly_mul, _poly_trim, _power,
                      _rational_ints, _Ring, _subres, canonical, format_rational)


class Polynomial(_Ring):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [canonical(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([c])

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = 1 / self.leading()
        return Polynomial([c * inv for c in self.coeffs])

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([other])
        return other if isinstance(other, Polynomial) else None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(_poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Polynomial([1]))

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _poly_divmod(self.coeffs, other.coeffs)
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial(_derivative(self.coeffs))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The monic gcd over Q (zero for two zeros), from _int_gcd on the
        numerators; TypeError for coefficients outside Q."""
        return _monic(_int_gcd(*_int_pair(self, other)))

    def evaluate(self, x):
        """Horner evaluation; x may be a Fraction, NumberFieldElement, etc."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def shift(self, a) -> "Polynomial":
        """Substitute t -> t + a."""
        out = Polynomial()
        for c in reversed(self.coeffs):
            out = out * Polynomial([a, 1]) + Polynomial([c])
        return out

    def reversed_coeffs(self, length: int):
        """Coefficients of t^(length-1) * p(1/t), padded to `length`."""
        cs = list(self.coeffs) + [Fraction(0)] * (length - len(self.coeffs))
        return list(reversed(cs[:length]))

    def __repr__(self):
        return "Polynomial(%s)" % (list(self.coeffs),)

    def __str__(self):
        return format_polynomial(self, "t")


def format_polynomial(p: Polynomial, var: str) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(format_rational(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else format_rational(c) + "*")
            terms.append(head + (var if i == 1 else "%s^%d" % (var, i)))
    return " + ".join(terms).replace("+ -", "- ")


def _int_mul(a, b):
    return _add_product([0] * (len(a) + len(b) - 1), a, b) if a and b else []


def _derivative(a):
    return [i * x for i, x in enumerate(a)][1:]


def _int_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _int_pair(u: Polynomial, v: Polynomial):
    """Int lists (n, d), multiples of u and v with n / d = u / v: each
    one's numerators over its lcm, times the other's lcm."""
    (n, a), (d, b) = _rational_ints(u.coeffs), _rational_ints(v.coeffs)
    return [x * b for x in n], [x * a for x in d]


def _primitive(a):
    c = gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _monic(a):
    """The monic Polynomial of an int list, one Fraction per coefficient."""
    return Polynomial([Fraction(x, a[-1]) for x in a])


def _int_gcd(a, b):
    """A primitive gcd of trimmed int lists, up to sign (empty for two
    empty lists): the primitive part of the last nonzero member of their
    subresultant PRS (scalars._subres)."""
    if len(a) < len(b):
        a, b = b, a
    return _primitive(_subres(a, b)[0] if b else a)


def _normal_form(n, d):
    """Int lists (n, d) for n / d in lowest terms: gcd(n, d) = 1 in Q[t] and
    no common integer content.  One _int_gcd g, exact divisions of n and d
    by it (g is primitive, so the quotients are integral by Gauss's lemma),
    then one division by the content of both lists."""
    n = _poly_trim(n)
    if not d:
        raise ZeroDivisionError("zero denominator")
    g = _int_gcd(n, d)
    if len(g) > 1:
        n, d = _int_divmod(n, g)[0], _int_divmod(d, g)[0]  # exact: no scaling
    c = gcd(*n, *d)
    return (n, d) if c == 1 else ([x // c for x in n], [x // c for x in d])


def split_power(cs, pi):
    """(m, cs / pi^m) for nonzero lists of Fractions cs and pi, with m the
    multiplicity of pi in cs: exact divisions of cs's numerators by pi's
    primitive part p, which never scale (Gauss's lemma), and for m > 0 one
    Fraction per output coefficient.  Raises ValueError when pi is
    constant: it divides every cs without end."""
    if len(pi) < 2:
        raise ValueError("split_power needs pi of degree >= 1")
    (a, da), p = _rational_ints(cs), _primitive(_rational_ints(pi)[0])
    m = 0
    while len(a) >= len(p):
        q, _, r, _ = _int_divmod(a, p)
        if r:
            break
        m, a = m + 1, q
    scale = (p[-1] / pi[-1]) ** m / da  # pi = (pi[-1] / p[-1]) p
    return m, [x * scale for x in a] if m else list(cs)


def _yun(p):
    """Yun's loop on a nonzero int list p: [(a, m)] with p a constant times
    prod a^m, each a primitive, squarefree and nonconstant, the a pairwise
    coprime and the m distinct.  b and c share one scale, so d = c - b' is
    Yun's d up to it, and each quotient, by a primitive gcd, is integral."""
    dp = _derivative(p)
    a = _int_gcd(p, dp)
    b, c = _int_divmod(p, a)[0], _int_divmod(dp, a)[0]
    out, m = [], 1
    while len(b) > 1:
        d = _poly_trim(_int_add(c, [-x for x in _derivative(b)]))
        a = _int_gcd(b, d)
        if len(a) > 1:
            out.append((a, m))
        b, c = _int_divmod(b, a)[0], _int_divmod(d, a)[0]
        m += 1
    return out


def squarefree_parts(p: Polynomial):
    """Yun's squarefree decomposition of a nonzero p: the list of (q, m)
    with p = lc(p) * prod q^m, each q monic, squarefree and nonconstant,
    the q pairwise coprime and the m distinct.  Only gcds and exact
    divisions, on p's numerators, no factoring (Yun 1976)."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    return [(_monic(a), m) for a, m in _yun(_rational_ints(p.coeffs)[0])]


def coprime_basis(polys):
    """A coprime squarefree basis of the nonzero polys: monic, squarefree,
    pairwise coprime nonconstant polynomials such that each input is a
    constant times a product of their powers.  Factor refinement by gcds
    only (Bach, Driscoll & Shallit 1993), on primitive int lists: each Yun
    part a meets the basis once, since for squarefree a and b with g =
    gcd(a, b) the parts g, b/g and a/g are squarefree and pairwise coprime."""
    basis = []
    for p in polys:
        for a, _ in _yun(_rational_ints(p.coeffs)[0]):
            refined = []
            for b in basis:
                g = _int_gcd(a, b)
                if len(g) > 1:  # g leaves both; no division by a unit gcd
                    refined.append(g)
                    a, b = _int_divmod(a, g)[0], _int_divmod(b, g)[0]
                if len(b) > 1:
                    refined.append(b)
            if len(a) > 1:
                refined.append(a)
            basis = refined
    return [_monic(b) for b in basis]


class RationalFunction(_Ring):
    """Quotient of polynomials over Q, normalized by _normal_form: monic
    denominator, gcd(num, den) = 1.  The normal form's int lists (n, d),
    with num = n / lc(d) and den = d / lc(d), stay in `_ints`, which +, *, /,
    - and derivative read.  TypeError for coefficients outside Q."""

    __slots__ = ("num", "den", "_ints")

    def __init__(self, num: Polynomial, den: Polynomial = Polynomial([1])):
        self._set(*_normal_form(*_int_pair(num, den)))

    def _set(self, n, d) -> "RationalFunction":
        """Store the normal int lists (n, d), and num and den with one
        Fraction per coefficient."""
        self._ints = n, d
        self.num, self.den = (Polynomial([Fraction(x, d[-1]) for x in p]) for p in (n, d))
        return self

    @classmethod
    def _of(cls, n, d) -> "RationalFunction":
        """n / d for int lists n and d."""
        return cls.__new__(cls)._set(*_normal_form(n, d))

    @classmethod
    def from_const(cls, c) -> "RationalFunction":
        c = Fraction(canonical(c))
        return cls._of([c.numerator], [c.denominator])

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls(Polynomial.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_const(other)
        return other if isinstance(other, RationalFunction) else None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (n1, d1), (n2, d2) = self._ints, other._ints
        return RationalFunction._of(_int_add(_int_mul(n1, d2), _int_mul(n2, d1)), _int_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        n, d = self._ints  # already normal: no gcd
        return RationalFunction.__new__(RationalFunction)._set([-x for x in n], d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (n1, d1), (n2, d2) = self._ints, other._ints
        return RationalFunction._of(_int_mul(n1, n2), _int_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        (n1, d1), (n2, d2) = self._ints, other._ints
        return RationalFunction._of(_int_mul(n1, d2), _int_mul(d1, n2))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, n: int) -> "RationalFunction":
        return _power(1 / self if n < 0 else self, abs(n), RationalFunction.from_const(1))

    def derivative(self) -> "RationalFunction":
        n, d = self._ints
        return RationalFunction._of(_int_add(_int_mul(_derivative(n), d),
                                             _int_mul([-x for x in n], _derivative(d))),
                                    _int_mul(d, d))

    def shift(self, a) -> "RationalFunction":
        """Substitute t -> t + a."""
        return RationalFunction(self.num.shift(a), self.den.shift(a))

    def valuation_at(self, q: Polynomial) -> int:
        """Order of vanishing (negative at poles) at each place dividing the
        squarefree q; ValueError when those places see different orders."""
        if self.is_zero():
            raise ValueError("valuation of the zero function")
        v, num = split_power(self.num.coeffs, q.coeffs)
        w, den = split_power(self.den.coeffs, q.coeffs)
        if q.degree > 1 and Polynomial(_poly_mul(num, den)).gcd(q).degree > 0:
            raise ValueError("the places dividing %s see different orders" % (q,))
        return v - w

    def __repr__(self):
        if self.is_polynomial():
            return "RationalFunction(%s)" % (str(self.num),)
        return "RationalFunction((%s)/(%s))" % (str(self.num), str(self.den))

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return "(%s)/(%s)" % (str(self.num), str(self.den))
