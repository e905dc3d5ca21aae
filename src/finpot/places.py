"""Closed points of the projective line over Q and exact local expansions.

A finite place is a monic irreducible pi(t); its local parameter is pi
itself and its residue field is Q[theta]/(pi).  The expansion of a rational
function is the pi-adic digit expansion: f = sum_i r_i(t) pi^i with digit
polynomials of degree < deg(pi), reported through the residue-field elements
r_i(theta).  This is the coefficientwise-linear section of the completion
(exact re-summation, digit by digit); it is not a ring map, but the residue
functional Tr(r_{-1}(theta)) it induces is the classical residue.  The place
at infinity expands in w = 1/t, where plain substitution applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SeriesDomainError
from .polynomials import Polynomial, RationalFunction, is_irreducible
from .scalars import NumberField, NumberFieldElement
from .series import TruncatedLaurentSeries, series_inv, series_mul


class Place:
    """A closed point of P^1 over Q."""

    __slots__ = ("kind", "minimal_poly", "degree", "field")

    def __init__(self, kind: str, minimal_poly: Polynomial = None):
        if kind == "infinity":
            self.kind = kind
            self.minimal_poly = None
            self.degree = 1
            self.field = None
            return
        if kind != "finite":
            raise ValueError("kind must be 'finite' or 'infinity'")
        if minimal_poly is None or not minimal_poly.is_monic():
            raise ValueError("finite place needs a monic minimal polynomial")
        if not is_irreducible(minimal_poly):
            raise ValueError("minimal polynomial must be irreducible over Q")
        self.kind = kind
        self.minimal_poly = minimal_poly
        self.degree = minimal_poly.degree
        self.field = (
            NumberField(list(minimal_poly.coeffs)) if self.degree > 1 else None
        )

    @classmethod
    def finite(cls, minimal_poly: Polynomial) -> "Place":
        return cls("finite", minimal_poly)

    @classmethod
    def at_zero(cls) -> "Place":
        return cls("finite", Polynomial([0, 1]))

    @classmethod
    def infinity(cls) -> "Place":
        return cls("infinity")

    def is_infinity(self) -> bool:
        return self.kind == "infinity"

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        return self.kind == other.kind and self.minimal_poly == other.minimal_poly

    def __hash__(self):
        return hash((self.kind, self.minimal_poly))

    def __repr__(self):
        if self.is_infinity():
            return "Place(infinity)"
        return "Place(%s)" % (str(self.minimal_poly),)

    def residue_trace(self, c) -> Fraction:
        """Trace of a residue-field element down to Q."""
        from .scalars import field_trace

        if isinstance(c, NumberFieldElement):
            return field_trace(c)
        return Fraction(c) * self.degree if self.degree > 1 else Fraction(c)


@dataclass
class LocalExpansion:
    place: Place
    series: TruncatedLaurentSeries

    def resum(self) -> RationalFunction:
        """Rebuild the rational function carried by the known digits:
        sum_i lift(c_i) * parameter^i, with the digit lift theta -> t."""
        if self.place.is_infinity():
            param = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
        else:
            param = RationalFunction(self.place.minimal_poly)
        out = RationalFunction(Polynomial())
        for d, c in sorted(self.series.coeffs.items()):
            if isinstance(c, NumberFieldElement):
                lift = RationalFunction(Polynomial(list(c.coeffs)))
            else:
                lift = RationalFunction(Polynomial([c]))
            out = out + lift * param**d
        return out


def _inverse_mod_power(d1: Polynomial, pi: Polynomial, n: int) -> Polynomial:
    """Inverse of d1 modulo pi^n (d1 coprime to pi), by Newton lifting."""
    field = NumberField(list(pi.coeffs)) if pi.degree > 1 else None
    if field is None:
        # pi = t - a: invert the value d1(a), then lift
        a = -pi.coeffs[0]
        v = d1.evaluate(a)
        if v == 0:
            raise ZeroDivisionError("d1 not coprime to pi")
        x = Polynomial([1 / v])
    else:
        elem = field.element(list((d1 % pi).coeffs))
        x = Polynomial(list(elem.inverse().coeffs))
    k = 1
    while k < n:
        k = min(2 * k, n)
        mod = pi**k
        # x <- x (2 - d1 x) mod pi^k
        x = (x * (Polynomial([2]) - d1 * x)) % mod
    return x % (pi**n)


def _digits(p: Polynomial, pi: Polynomial, count: int):
    """First `count` pi-adic digits of p (polynomials of degree < deg pi)."""
    out = []
    cur = p
    for _ in range(count):
        r = cur % pi
        out.append(r)
        cur = (cur - r) // pi
    return out


def _digit_value(place: Place, r: Polynomial):
    if place.degree == 1:
        return r[0]
    return place.field.element(list(r.coeffs))


def local_expand(f: RationalFunction, p: Place, prec: int) -> LocalExpansion:
    """Laurent expansion of f in the local parameter, exact below `prec`."""
    if f.is_zero():
        raise SeriesDomainError("cannot expand the zero function at a place")
    if p.is_infinity():
        return LocalExpansion(p, _expand_at_infinity(f, prec))
    pi = p.minimal_poly
    v = f.valuation_at(pi)
    if prec <= v:
        return LocalExpansion(
            p, TruncatedLaurentSeries.zero("u", prec, min_degree=min(v, prec - 1))
        )
    # peel the parameter power: f = pi^v * n1/d1 with n1, d1 coprime to pi
    num, den = f.num, f.den
    for _ in range(max(0, v)):
        num = num // pi
    for _ in range(max(0, -v)):
        den = den // pi
    count = prec - v
    inv = _inverse_mod_power(den, pi, count)
    rep = (num * inv) % (pi**count)
    digits = _digits(rep, pi, count)
    coeffs = {}
    for i, r in enumerate(digits):
        if not r.is_zero():
            coeffs[v + i] = _digit_value(p, r)
    return LocalExpansion(
        p, TruncatedLaurentSeries("u", coeffs, min(v, 0), prec)
    )


def _expand_at_infinity(f: RationalFunction, prec: int) -> TruncatedLaurentSeries:
    """Expansion in w = 1/t: w^v N(w) / D(w), with N and D the reversed
    numerator and denominator and v the order of vanishing at infinity."""
    num, den = f.num, f.den
    v = den.degree - num.degree
    if prec <= v:
        return TruncatedLaurentSeries.zero("u", prec, min_degree=min(v, prec - 1))
    count = prec - v
    n, d = (
        TruncatedLaurentSeries(
            "u", dict(enumerate(p.reversed_coeffs(p.degree + 1)[:count])), 0, count
        )
        for p in (num, den)
    )
    quotient = series_mul(n, series_inv(d))
    return TruncatedLaurentSeries(
        "u", {k + v: c for k, c in quotient.coeffs.items()}, min(v, 0), prec
    )


def substitute_inverse(f: RationalFunction) -> RationalFunction:
    """f(1/t) as a rational function of t (swaps 0 and infinity)."""
    n, d = f.num, f.den
    m = max(n.degree, d.degree)
    # n(1/t) * t^m has the reversed, m+1-padded coefficient list of n
    nn = Polynomial(n.reversed_coeffs(m + 1))
    dd = Polynomial(d.reversed_coeffs(m + 1))
    return RationalFunction(nn, dd)


def relevant_places(*functions: RationalFunction):
    """Finite places where any of the numerators/denominators vanish, plus
    the place at infinity (the full pole/zero locus of the inputs)."""
    from .polynomials import factor_monic_irreducibles

    seen = {}
    for f in functions:
        for poly in (f.num, f.den):
            if poly.degree < 1:
                continue
            for fac, _ in factor_monic_irreducibles(poly):
                if fac.degree >= 1:
                    seen.setdefault(fac, None)
    places = [Place.finite(fac) for fac in sorted(seen, key=lambda q: (q.degree, q.coeffs))]
    places.append(Place.infinity())
    return places
