"""Closed points of the projective line over Q and exact local expansions.

A finite place is a monic squarefree q(t), its local parameter is q and its
residue algebra Q[theta]/(q): a field when q is irreducible, else the etale
product of the fields of the places dividing q, whose residues it sums
(Tate 1968).  The expansion of a rational function is the q-adic digit
expansion f = sum_i r_i(t) q^i, digits of degree < deg(q) reported as the
algebra elements r_i(theta).  This is the coefficientwise-linear section of
the completion; it is not a ring map, but the residue functional
Tr(r_{-1}(theta)) it induces is the classical residue.

One digit recurrence, expand_digits, computes every expansion.  Write
f = q^v n/d with q not dividing d, and let inv = d^-1 mod q: 1/d(a) for
q = t - a, the inverse in Q[theta]/(q) when deg q > 1, which exists when
the places dividing q see one order.  Each digit is r = n inv mod q, and n
then becomes (n - r d)/q, an exact division that keeps deg n bounded.  The
place at infinity runs it on the reversed lists of f(1/t) with q = t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SeriesDomainError
from .polynomials import Polynomial, RationalFunction, coprime_basis, split_power
from .scalars import (
    NumberField,
    _add_product,
    _poly_divmod,
    _poly_trim,
    scalar_is_zero,
)
from .series import TruncatedLaurentSeries


class Place:
    """Infinity, or the places dividing a monic squarefree polynomial (one
    gcd with its derivative checks it): a closed point when irreducible."""

    __slots__ = ("kind", "minimal_poly", "degree", "field")

    def __init__(self, kind: str, minimal_poly: Polynomial = None):
        if kind == "infinity":
            self.kind, self.minimal_poly, self.degree, self.field = kind, None, 1, None
            return
        if kind != "finite":
            raise ValueError("kind must be 'finite' or 'infinity'")
        self._set_finite(minimal_poly)
        if minimal_poly.gcd(minimal_poly.derivative()).degree > 0:
            raise ValueError("place polynomial must be squarefree")

    def _set_finite(self, q: Polynomial) -> None:
        """Every check of a finite place but squarefreeness, then the slots."""
        if q is None or not q.is_monic() or q.degree < 1:
            raise ValueError("finite place needs a monic nonconstant polynomial")
        self.kind, self.minimal_poly, self.degree = "finite", q, q.degree
        self.field = NumberField(q.coeffs) if q.degree > 1 else None

    @classmethod
    def _squarefree(cls, q: Polynomial) -> "Place":
        """Place.finite(q) for a q known to be squarefree, with no gcd."""
        place = object.__new__(cls)
        place._set_finite(q)
        return place

    @classmethod
    def finite(cls, minimal_poly: Polynomial) -> "Place":
        return cls("finite", minimal_poly)

    @classmethod
    def at_zero(cls) -> "Place":
        return cls._squarefree(Polynomial([0, 1]))

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


@dataclass
class LocalExpansion:
    place: Place
    series: TruncatedLaurentSeries


def _residue(cs, pi, algebra):
    """cs mod pi in the algebra: the value at a when pi = t - a."""
    if algebra is not None:
        return algebra.element(cs)
    out = Fraction(0)
    for c in reversed(cs):
        out = out * -pi[0] + c
    return out


def expand_digits(num, den, pi, algebra, prec: int):
    """(v, digits) for the function num/den, coefficient lists with num
    nonzero, in powers of the monic squarefree pi: v is the order of pi in
    num/den, and digits maps each i with v <= i < prec to its nonzero digit,
    a value of `algebra` (NumberField(pi), or None for the value at a when
    pi = t - a).  Raises SeriesDomainError when the part of den prime to pi
    is not a unit mod pi: the places dividing pi see unequal pole orders."""
    v, num = split_power(num, pi)
    w, den = split_power(den, pi)
    v -= w
    digits = {}
    if v > 0 and prec <= v:  # pi divides num, so den, prime to num, is a unit mod pi
        return v, digits
    try:
        inv = 1 / _residue(den, pi, algebra)
    except ZeroDivisionError:
        raise SeriesDomainError("the places dividing %s see unequal orders"
                                % (Polynomial(pi),)) from None
    for i in range(v, prec):
        if i > v:  # the next numerator, (num - r den)/pi, from the last digit r
            if not scalar_is_zero(r):
                neg = [-c for c in r.coeffs] if algebra else [-r]
                num = num + [Fraction(0)] * (len(neg) + len(den) - 1 - len(num))
                num = _add_product(num, neg, den)
            num = _poly_divmod(_poly_trim(num), pi)[0]
        r = _residue(num, pi, algebra) * inv
        if not scalar_is_zero(r):
            digits[i] = r
    return v, digits


def local_expand(f: RationalFunction, p: Place, prec: int) -> LocalExpansion:
    """Laurent expansion of f in the local parameter, exact below `prec`."""
    if f.is_zero():
        raise SeriesDomainError("cannot expand the zero function at a place")
    if p.is_infinity():
        # f(1/t) as t^m n(1/t) / (t^m d(1/t)), not normalised: the gcd is 1,
        # and scaling both lists by one constant leaves every digit as it is
        m = max(f.num.degree, f.den.degree) + 1
        num, den = (_poly_trim(q.reversed_coeffs(m)) for q in (f.num, f.den))
        pi = (Fraction(0), Fraction(1))
    else:
        num, den, pi = f.num.coeffs, f.den.coeffs, p.minimal_poly.coeffs
    v, digits = expand_digits(num, den, pi, p.field, prec)
    if prec <= v:
        series = TruncatedLaurentSeries.zero("u", prec, min_degree=min(v, prec - 1))
    else:
        series = TruncatedLaurentSeries("u", digits, min(v, 0), prec)
    return LocalExpansion(p, series)


def substitute_inverse(f: RationalFunction) -> RationalFunction:
    """f(1/t) as a rational function of t (swaps 0 and infinity)."""
    n, d = f.num, f.den
    m = max(n.degree, d.degree)
    # n(1/t) * t^m has the reversed, m+1-padded coefficient list of n
    nn = Polynomial(n.reversed_coeffs(m + 1))
    dd = Polynomial(d.reversed_coeffs(m + 1))
    return RationalFunction(nn, dd)


def relevant_places(*functions: RationalFunction):
    """The places of a coprime squarefree basis of every numerator and
    denominator, sorted by (degree, coefficients), then infinity: the full
    pole/zero locus of the inputs.  Nothing is factored, and the basis is
    squarefree, so no gcd checks it again (Place._squarefree)."""
    basis = coprime_basis(p for f in functions for p in (f.num, f.den) if p.degree > 0)
    places = [Place._squarefree(q) for q in sorted(basis, key=lambda q: (q.degree, q.coeffs))]
    places.append(Place.infinity())
    return places
