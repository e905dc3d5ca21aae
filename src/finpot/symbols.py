"""Local symbols on Q(t): the 2-cocycle attached to a half-space, the
commutator pairing, their characteristic properties, and the product
formula over all places of the projective line.

reciprocity_check sums the residues of f dg over the squarefree parts of
its poles, one trace each, plus the place at infinity (residues.residue_sum).
Its product of cocycles is exp(z^2 * sum / 2), since symbol values
multiply by adding exponents.  The route through relevant_places,
residue_classical and cocycle gives the same sum and product place by place.

For the implemented half-space models every symbol value is the exponential
of a z^2 monomial, exp(z^2 * r) with r rational; SymbolValue asserts that
shape at construction.  The cocycle is computed from the residue; for
degree-1 places it is also computable as a determinant of a product of
operator exponentials of half-space compressions (residues.Compression),
and the two routes must agree.  That route builds the product with
exponentials.exp_product, whose terms are finite because the generators
sum to zero, and hands it to det_series: it has no series arithmetic and
no truncation of its own.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError
from .exponentials import det_series, exp_product
from .places import Place, local_expand
from .polynomials import Polynomial, RationalFunction
from .residues import Compression, _at_origin, residue_classical, residue_sum
from .scalars import NumberFieldElement
from .series import TruncatedLaurentSeries, series_exp, series_log

DEFAULT_Z_PREC = 8


class SymbolValue:
    """A series in z with constant term 1 whose log is a pure z^2 monomial.
    exp(z^2 r) carries r only from precision 3 up, so a lower precision
    raises PrecisionError.  Values compare and hash by (variable, r)."""

    __slots__ = ("series", "exponent")

    def __init__(self, series: TruncatedLaurentSeries):
        _check_precision(series.precision)
        log = series_log(series)
        bad = [d for d in log.coeffs if d != 2]
        if bad:
            raise ValueError(
                "symbol value is not exp(z^2 * r): log has terms at %s" % bad
            )
        self.series = series
        self.exponent = log.coeffs.get(2, Fraction(0))

    @classmethod
    def from_exponent(
        cls, r, prec: int = DEFAULT_Z_PREC, variable: str = "z"
    ) -> "SymbolValue":
        _check_precision(prec)
        out = object.__new__(cls)
        mono = TruncatedLaurentSeries.from_terms(variable, {2: r}, prec, 0)
        out.series = series_exp(mono)
        out.exponent = mono.coefficient(2)
        return out

    def __mul__(self, other: "SymbolValue") -> "SymbolValue":
        self.series._check_var(other.series)
        return SymbolValue.from_exponent(
            self.exponent + other.exponent,
            min(self.series.precision, other.series.precision),
            self.series.variable,
        )

    def __eq__(self, other):
        if not isinstance(other, SymbolValue):
            return NotImplemented
        self.series._check_var(other.series)
        return self.exponent == other.exponent

    def __hash__(self):
        return hash((self.series.variable, self.exponent))

    def is_one(self) -> bool:
        return self.exponent == 0

    def __repr__(self):
        return "SymbolValue(%s)" % (self.series,)


def _check_precision(prec: int) -> None:
    if prec < 3:
        raise PrecisionError("exp(z^2 r) carries r only from precision 3, not %d" % prec)


def cocycle(
    f: RationalFunction,
    g: RationalFunction,
    p: Place,
    prec_z: int = DEFAULT_Z_PREC,
) -> SymbolValue:
    """c(f, g) = exp(z^2 * res_p(f dg) / 2)."""
    r = residue_classical(f, g, p)
    return SymbolValue.from_exponent(Fraction(r) / 2, prec_z)


def pairing(
    f: RationalFunction,
    g: RationalFunction,
    p: Place,
    prec_z: int = DEFAULT_Z_PREC,
) -> SymbolValue:
    """{f, g} = exp(z^2 * res_p(f dg)): the symbol with the doubled exponent,
    equal to c(f,g)/c(g,f) by antisymmetry of the residue."""
    r = residue_classical(f, g, p)
    return SymbolValue.from_exponent(Fraction(r), prec_z)


def cocycle_identity_check(
    f: RationalFunction,
    g: RationalFunction,
    h: RationalFunction,
    p: Place,
    prec_z: int = DEFAULT_Z_PREC,
) -> bool:
    """c(f,g) c(f+g,h) = c(g,h) c(f,g+h), exactly to precision."""
    for s in (f + g, g + h):
        if s.is_zero():
            raise ValueError("cocycle identity needs nonzero pairwise sums")
    lhs = cocycle(f, g, p, prec_z) * cocycle(f + g, h, p, prec_z)
    rhs = cocycle(g, h, p, prec_z) * cocycle(f, g + h, p, prec_z)
    return lhs == rhs


# -- operator route ----------------------------------------------------------


def _det_of_exponential_product(
    coeff_dicts, signs, cut: int, prec_z: int
) -> TruncatedLaurentSeries:
    """Determinant over the series field of prod_i exp(sign_i z m_i), with
    m_i the compression of the i-th Laurent polynomial at the cut.  Single
    factors have no determinant, but the signed compressions sum to zero,
    so every term of the product is a finite sum of nested commutators
    near the cut, and det_series takes it as any series."""
    generators = [Compression({k: sign * c for k, c in coeffs.items()}, cut)
                  for coeffs, sign in zip(coeff_dicts, signs)]
    return det_series(exp_product(generators, prec_z))


def cocycle_via_operators(
    f: RationalFunction,
    g: RationalFunction,
    place: Place = None,
    cut: int = 0,
    prec_z: int = DEFAULT_Z_PREC,
) -> SymbolValue:
    """Determinant route for degree-1 places: the determinant of
    exp(z f1) exp(z g1) exp(-z (f1+g1)), f1 and g1 the half-space
    compressions with the given cut.  Must agree with the residue route."""
    fc, gc = _at_origin(f, g, place)
    sum_c = {k: fc.get(k, 0) + gc.get(k, 0) for k in {*fc, *gc}}
    return SymbolValue(_det_of_exponential_product([fc, gc, sum_c], [1, 1, -1], cut, prec_z))


def pairing_via_operators(
    f: RationalFunction,
    g: RationalFunction,
    place: Place = None,
    cut: int = 0,
    prec_z: int = DEFAULT_Z_PREC,
) -> SymbolValue:
    """The four-exponential commutator determinant
    det(exp(z f1) exp(z g1) exp(-z f1) exp(-z g1)): equal to the pairing
    exp(z^2 res(f dg)), the series analogue of the trace-commutator formula
    for determinants of exponential group commutators."""
    fc, gc = _at_origin(f, g, place)
    return SymbolValue(_det_of_exponential_product([fc, gc, fc, gc], [1, 1, -1, -1], cut, prec_z))


def c4_check(
    g: RationalFunction,
    h: RationalFunction,
    p: Place,
    prec_z: int = DEFAULT_Z_PREC,
) -> bool:
    """c(h g^{-1}, g) = exp(z^2/2 tr on A/(A & gA)) exp(-z^2/2 tr on gA/(A & gA)),
    the traces taken for multiplication by h on the digit bases of the
    finite-dimensional quotients at the place."""
    if g.is_zero():
        raise ValueError("g must be nonzero")
    if p.is_infinity():
        raise ValueError("property check implemented for finite places")
    pi = p.minimal_poly
    if h.is_zero() or h.valuation_at(pi) < 0:
        raise ValueError("h must map the local integers into themselves")
    v = g.valuation_at(pi)
    tr_a = _quotient_trace(h, p, 0, v) if v > 0 else Fraction(0)
    tr_ga = _quotient_trace(h, p, v, 0) if v < 0 else Fraction(0)
    expected = SymbolValue.from_exponent(
        Fraction(tr_a, 2) - Fraction(tr_ga, 2), prec_z
    )
    return cocycle(h / g, g, p, prec_z) == expected


def _quotient_trace(h: RationalFunction, p: Place, lo: int, hi: int) -> Fraction:
    """Trace of multiplication by h on span{t^j pi^i : 0 <= j < deg, lo <= i < hi},
    modulo pi^hi and the sub-block below pi^lo."""
    pi = p.minimal_poly
    d = p.degree
    total = Fraction(0)
    for i in range(lo, hi):
        for j in range(d):
            basis_el = RationalFunction(Polynomial([0] * j + [1])) * (
                RationalFunction(pi) ** i
            )
            image = h * basis_el
            if image.is_zero():
                continue
            exp = local_expand(image, p, hi)
            c = exp.series.coefficient(i)
            if isinstance(c, NumberFieldElement):
                total += c.coeffs[j]
            elif j == 0:
                total += c
    return total


def c5_check(
    f: RationalFunction,
    g: RationalFunction,
    a_half,
    b_half,
    place: Place = None,
    prec_z: int = DEFAULT_Z_PREC,
) -> bool:
    """c_{A+B}(f,g) c_{A&B}(f,g) = c_A(f,g) c_B(f,g) for half-space cuts,
    all four sides computed by the operator route."""
    ca, cb = a_half.cut, b_half.cut
    vals = {
        cut: cocycle_via_operators(f, g, place, cut, prec_z)
        for cut in {min(ca, cb), max(ca, cb), ca, cb}
    }
    lhs = vals[min(ca, cb)] * vals[max(ca, cb)]
    rhs = vals[ca] * vals[cb]
    return lhs == rhs


def reciprocity_check(
    f: RationalFunction,
    g: RationalFunction,
    prec_z: int = DEFAULT_Z_PREC,
):
    """Sum of residues of f dg and product of the symbols c(f, g) over
    every place of the projective line: (sum, product) with sum 0 and
    product 1.  The finite places come in squarefree parts of the poles of
    f dg, one trace in Q[t]/(q) per part, with no factoring; the product
    is exp(z^2 * sum / 2), the product of the per-place cocycles."""
    if f.is_zero() or g.is_zero():
        raise ValueError("reciprocity needs nonzero functions")
    total = residue_sum(f, g)
    return total, SymbolValue.from_exponent(total / 2, prec_z)
