"""Univariate polynomials and rational functions over Q, exact throughout.

Coefficient lists are stored lowest degree first with a nonzero leading
coefficient (the zero polynomial is the empty list): Fractions, and
NumberFieldElements only for values outside Q (det_poly over a number
field), by scalars.canonical.
Rational functions are kept normalized: monic denominator, gcd(num, den) = 1.
Nothing here factors over Q: the squarefree decomposition (squarefree_parts)
and the coprime squarefree basis of several polynomials (coprime_basis)
need only gcds and exact divisions.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import _poly_divmod, _poly_mul, _power, _Ring, canonical, format_rational


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
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

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


def split_power(cs, pi):
    """(m, cs / pi^m) for nonzero coefficient lists cs and pi, with m the
    multiplicity of pi in cs, by exact division on the lists.  Raises
    ValueError when pi is constant: it divides every cs without end."""
    if len(pi) < 2:
        raise ValueError("split_power needs pi of degree >= 1")
    m = 0
    while len(cs) >= len(pi):
        q, r = _poly_divmod(cs, pi)
        if r:
            break
        m, cs = m + 1, q
    return m, list(cs)


def squarefree_parts(p: Polynomial):
    """Yun's squarefree decomposition of a nonzero p: the list of (q, m)
    with p = lc(p) * prod q^m, each q monic, squarefree and nonconstant,
    the q pairwise coprime and the m distinct.  Only gcds and exact
    divisions over Q, no factoring (Yun 1976)."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    dp = p.derivative()
    a = p.gcd(dp)
    b, c = p // a, dp // a
    out = []
    m = 1
    while b.degree > 0:
        d = c - b.derivative()
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a, m))
        b, c = b // a, d // a
        m += 1
    return out


def coprime_basis(polys):
    """A coprime squarefree basis of the nonzero polys: monic, squarefree,
    pairwise coprime nonconstant polynomials such that each input is a
    constant times a product of their powers.  Factor refinement by gcds
    only (Bach, Driscoll & Shallit 1993): each Yun part a meets the basis
    once, since for squarefree a and b with g = gcd(a, b) the parts g, b/g
    and a/g are squarefree and pairwise coprime."""
    basis = []
    for p in polys:
        for a, _ in squarefree_parts(p):
            refined = []
            for b in basis:
                g = a.gcd(b)
                if g.degree > 0:  # g leaves both; no division by a unit gcd
                    refined.append(g)
                    a, b = a // g, b // g
                if b.degree > 0:
                    refined.append(b)
            if a.degree > 0:
                refined.append(a)
            basis = refined
    return basis


class RationalFunction(_Ring):
    """Quotient of polynomials, normalized with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = Polynomial([1])):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading()
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_const(cls, c) -> "RationalFunction":
        return cls(Polynomial([c]))

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
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, n: int) -> "RationalFunction":
        return _power(1 / self if n < 0 else self, abs(n), RationalFunction.from_const(1))

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

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
