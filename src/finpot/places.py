"""Closed points of the projective line over Q and exact local expansions.

A finite place is a monic irreducible pi(t); its local parameter is pi
itself and its residue field is Q[theta]/(pi).  The expansion of a rational
function is the pi-adic digit expansion: f = sum_i r_i(t) pi^i with digit
polynomials of degree < deg(pi), reported through the residue-field elements
r_i(theta).  This is the coefficientwise-linear section of the completion
(exact re-summation, digit by digit); it is not a ring map, but the residue
functional Tr(r_{-1}(theta)) it induces is the classical residue.

One digit recurrence computes every expansion.  Write f = pi^v n/d with n
and d coprime to pi, and let inv = d^-1 mod pi: 1/d(a) for pi = t - a, the
residue-field inverse when deg pi > 1.  Each digit is r = n inv mod pi, and
n then becomes (n - r d)/pi, an exact division that keeps deg n bounded.
The place at infinity runs the same recurrence on f(1/t) with pi = t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SeriesDomainError
from .polynomials import Polynomial, RationalFunction, is_irreducible, split_power
from .scalars import (
    NumberField,
    NumberFieldElement,
    _add_product,
    _poly_divmod,
    _poly_trim,
    scalar_is_zero,
)
from .series import TruncatedLaurentSeries


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


def _residue(cs, pi, field):
    """cs mod pi in the residue field: the value at a when pi = t - a."""
    if field is not None:
        return field.element(cs)
    out = Fraction(0)
    for c in reversed(cs):
        out = out * -pi[0] + c
    return out


def local_expand(f: RationalFunction, p: Place, prec: int) -> LocalExpansion:
    """Laurent expansion of f in the local parameter, exact below `prec`."""
    if f.is_zero():
        raise SeriesDomainError("cannot expand the zero function at a place")
    if p.is_infinity():
        f, pi = substitute_inverse(f), (Fraction(0), Fraction(1))
    else:
        pi = p.minimal_poly.coeffs
    v, num = split_power(f.num.coeffs, pi)
    w, den = split_power(f.den.coeffs, pi)
    v -= w
    if prec <= v:
        return LocalExpansion(
            p, TruncatedLaurentSeries.zero("u", prec, min_degree=min(v, prec - 1))
        )
    inv = 1 / _residue(den, pi, p.field)
    coeffs = {}
    for i in range(v, prec):
        r = _residue(num, pi, p.field) * inv
        if not scalar_is_zero(r):
            coeffs[i] = r
            neg = [-c for c in r.coeffs] if p.field else [-r]
            num = num + [Fraction(0)] * (len(neg) + len(den) - 1 - len(num))
            num = _add_product(num, neg, den)  # num - r * den
        num = _poly_divmod(_poly_trim(num), pi)[0]
    return LocalExpansion(
        p, TruncatedLaurentSeries("u", coeffs, min(v, 0), prec)
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
