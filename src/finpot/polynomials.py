"""Univariate polynomials and rational functions over Q, exact throughout.

Coefficient lists are stored lowest degree first with a nonzero leading
coefficient (the zero polynomial is the empty list): Fractions, and
NumberFieldElements only for values outside Q (det_poly over a number
field), by scalars.canonical.
Rational functions are kept normalized: monic denominator, gcd(num, den) = 1.
Irreducible factorization over Q, and irreducibility from degree 2 up, are
delegated to sympy; the rest is local, including the squarefree
decomposition (squarefree_parts), which needs only gcds.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import _poly_divmod, _poly_mul, canonical, format_rational


class Polynomial:
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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
        out = Polynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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


def _to_sympy(p: Polynomial):
    import sympy  # imported on first use: it dominates the package import time

    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        or [0],
        sympy.Symbol("x"),
    )


def _from_sympy(sp) -> Polynomial:
    return Polynomial([Fraction(str(c)) for c in reversed(sp.all_coeffs())])


def is_irreducible(p: Polynomial) -> bool:
    """True for irreducible nonconstant polynomials over Q; sympy decides
    degree 2 and up, since every polynomial of degree 1 is irreducible."""
    if p.degree <= 1:
        return p.degree == 1
    return _to_sympy(p).is_irreducible


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


def factor_monic_irreducibles(p: Polynomial):
    """Factor p over Q: list of (monic irreducible Polynomial, multiplicity)."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    _, factors = _to_sympy(p).factor_list()
    return [(_from_sympy(f).monic(), int(m)) for f, m in factors]


class RationalFunction:
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_const(other)
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return (1 / self) ** (-n)
        out = RationalFunction.from_const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def shift(self, a) -> "RationalFunction":
        """Substitute t -> t + a."""
        return RationalFunction(self.num.shift(a), self.den.shift(a))

    def valuation_at(self, pi: Polynomial) -> int:
        """Order of vanishing along the irreducible pi (negative at poles)."""
        if self.is_zero():
            raise ValueError("valuation of the zero function")
        return split_power(self.num.coeffs, pi.coeffs)[0] - split_power(
            self.den.coeffs, pi.coeffs
        )[0]

    def __repr__(self):
        if self.is_polynomial():
            return "RationalFunction(%s)" % (str(self.num),)
        return "RationalFunction((%s)/(%s))" % (str(self.num), str(self.den))

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return "(%s)/(%s)" % (str(self.num), str(self.den))
