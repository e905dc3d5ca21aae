"""Residues of rational differentials f dg over Q(t), by two routes.

The coefficient route reads the residue off the exact digit expansion of
f g' / q' in powers of a monic squarefree q: the trace down to Q of digit
-1, in the etale algebra Q[t]/(q), is the sum of the residues at the places
dividing q (Tate 1968, where the residue is itself a trace).  _residue_at
is that one routine.  When the places dividing q see unequal pole orders
of f dg it splits q by one gcd and adds the two halves.  residue_classical
runs it at a given place, and squarefree_residues over the squarefree
parts (Yun) of the denominator of f g'; residue_sum adds the place at
infinity, where the residue is minus the t^-1 coefficient of f g' in
powers of 1/t, from one polynomial division.  Nothing is factored.
The operator route realizes multiplication by f and g on the basis
e_i <-> t^i in a window that starts at the cut, which makes them the
compressions to the upper half-space V+ = span{e_i : i >= cut} truncated at
the window's top, and takes the trace of the finite-rank commutator of the
compressions.  _window_model sizes the window once, from the pole orders
and degrees, for this commutator and for the symbol route's exponential
products alike.  The two routes must agree wherever both apply.
"""

from __future__ import annotations

from fractions import Fraction

from .determinants import tate_trace
from .errors import ReductionError, SeriesDomainError, WindowExhaustedError
from .operators import FinitePotentOperator, SparseOperator
from .places import Place, expand_digits, substitute_inverse
from .polynomials import Polynomial, RationalFunction, split_power, squarefree_parts
from .scalars import NumberField, NumberFieldElement, _poly_mul, field_trace


def _differential(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """f g', the coefficient of f dg against dt."""
    if f.is_zero() or g.is_zero():
        raise ValueError("residue needs nonzero functions")
    return f * g.derivative()


def _residue_at(omega: RationalFunction, q: Polynomial) -> Fraction:
    """Trace down to Q of digit -1 of omega / q' in powers of the monic
    squarefree q, in Q[t]/(q): the sum of res(omega dt) over the places
    dividing q.  If they see unequal pole orders (never at degree 1), the
    rest of omega's denominator shares a factor h with q: sum at h and q/h."""
    algebra = NumberField(q.coeffs) if q.degree > 1 else None
    den = _poly_mul(omega.den.coeffs, q.derivative().coeffs)
    try:
        _, digits = expand_digits(omega.num.coeffs, den, q.coeffs, algebra, 0)
    except SeriesDomainError:
        h = Polynomial(split_power(omega.den.coeffs, q.coeffs)[1]).gcd(q)
        return _residue_at(omega, h) + _residue_at(omega, q // h)
    c = digits.get(-1, Fraction(0))
    return field_trace(c) if isinstance(c, NumberFieldElement) else c


def _residue_at_infinity(omega: RationalFunction) -> Fraction:
    """res at infinity of omega dt: minus the t^-1 coefficient of omega in
    1/t.  Of q + r/d (d monic of degree m, deg r < m) only r/d has one,
    r_(m-1); a constant d leaves index -1, which reads 0."""
    return -(omega.num % omega.den)[omega.den.degree - 1]


def _part_residues(omega: RationalFunction):
    """(q, residue sum over the places dividing q) for each squarefree
    part q of omega's denominator, in Q[t]/(q)."""
    for q, _ in squarefree_parts(omega.den):
        yield q, _residue_at(omega, q)


def residue_classical(f: RationalFunction, g: RationalFunction, p: Place) -> Fraction:
    """res_p(f dg) via the digit expansion of f g' d(parameter): at a
    reducible place, the sum over the places dividing it."""
    omega = _differential(f, g)
    if omega.is_zero():
        return Fraction(0)
    if p.is_infinity():
        return _residue_at_infinity(omega)
    return _residue_at(omega, p.minimal_poly)


def squarefree_residues(f: RationalFunction, g: RationalFunction):
    """[(q, r)] over the squarefree parts q of the denominator of f g'
    (the poles of f dg), with r the sum of res_p(f dg) over the places p
    dividing q, each r one trace in Q[t]/(q).  Together they hold every
    finite place where f dg has a residue.  No factoring."""
    return list(_part_residues(_differential(f, g)))


def residue_sum(f: RationalFunction, g: RationalFunction) -> Fraction:
    """Sum of res_p(f dg) over every place of P^1, 0 by the residue
    theorem: the squarefree_residues and the place at infinity, from one
    f g'.  No factoring."""
    omega = _differential(f, g)
    if omega.is_zero():
        return Fraction(0)
    return sum((r for _, r in _part_residues(omega)), _residue_at_infinity(omega))


def laurent_coefficients(f: RationalFunction) -> dict:
    """Coefficients of a Laurent polynomial in t: requires den = t^k."""
    den = f.den
    k = den.degree
    if any(c != 0 for c in den.coeffs[:-1]):
        raise ReductionError(
            "function has finite poles away from the place: %s" % (f,)
        )
    return {i - k: c for i, c in enumerate(f.num.coeffs) if c != 0}


def reduce_to_origin(f: RationalFunction, place: Place) -> dict:
    """Laurent coefficients of f transported so the place sits at t = 0.

    Degree-1 places only: t - a shifts by a, infinity substitutes 1/t.
    Raises ReductionError when f has poles away from the place.
    """
    if place.is_infinity():
        return laurent_coefficients(substitute_inverse(f))
    if place.degree != 1:
        raise ReductionError("operator route needs a degree-1 place")
    a = -place.minimal_poly.coeffs[0]
    return laurent_coefficients(f.shift(a) if a != 0 else f)


def multiplication_window(coeffs: dict, lo: int, hi: int) -> SparseOperator:
    """Multiplication by sum c_k t^k on span{e_lo..e_hi}: entries
    (j + k, j) = c_k inside the window.  With lo the cut this is the
    half-space compression pi+ f pi+, truncated at hi."""
    entries = {}
    for k, c in coeffs.items():
        for j in range(max(lo, lo - k), hi + 1):
            i = j + k
            if lo <= i <= hi:
                entries[(i, j)] = c
    return SparseOperator(entries)


def _window_model(coeff_dicts, signs, cut: int, depth: int):
    """The windowed half-space model for products of at most `depth`
    compressions: (windows, content_end, exact_end), with windows the
    multiplication_windows on [cut, hi] scaled by the signs.

    With band the largest pole order or degree (at least 1), the window
    follows from the input:
      - [T_f, T_g] = H_g H~_f - H_f H~_g, a difference of Hankel products
        (Boettcher & Silbermann), lies in [cut, cut + band)^2;
      - each further factor widens it by at most band, so the content of
        a product of depth factors lies below content_end = cut +
        (depth - 1) band;
      - truncation at hi moves entries only within depth band of hi, so
        entries below exact_end = hi - depth band are those of the
        infinite model.
    hi = content_end + (depth + 1) band + 4 leaves a guard strip
    [content_end, exact_end) of width band + 4 that must read exactly zero
    (split_window_content)."""
    band = max([1] + [max(-min(c), max(c)) for c in coeff_dicts if c])
    content_end = cut + (depth - 1) * band
    hi = content_end + (depth + 1) * band + 4
    windows = [
        multiplication_window(c, cut, hi).scale(Fraction(sign))
        for c, sign in zip(coeff_dicts, signs)
    ]
    return windows, content_end, hi - depth * band


def split_window_content(op: SparseOperator, content_end: int, exact_end: int):
    """The entries of op whose row and column lie below content_end.

    Entries below exact_end are those of the infinite model, which
    vanishes from content_end on; so the guard strip [content_end,
    exact_end) must be exactly zero, and what lies beyond it is
    truncation junk.  A nonzero entry in the strip raises
    WindowExhaustedError: the content would not be exact.
    """
    content = {}
    for (i, j), c in op.entries.items():
        top = max(i, j)
        if top < content_end:
            content[(i, j)] = c
        elif top < exact_end:
            raise WindowExhaustedError("content reaches the window's guard strip")
    return SparseOperator(content)


def residue_tate(f: RationalFunction, g: RationalFunction, place: Place = None) -> Fraction:
    """res(f dg) as the trace of [f1, g1], f1 = pi+ f pi+ and g1 = pi+ g pi+
    on the windowed model of the place (degree 1; defaults to t = 0), with
    the window of _window_model at cut 0 and depth 2."""
    if place is None:
        place = Place.at_zero()
    coeffs = [reduce_to_origin(f, place), reduce_to_origin(g, place)]
    (mf, mg), content_end, exact_end = _window_model(coeffs, [1, 1], 0, 2)
    comm = mf.compose(mg).add(mg.compose(mf).scale(Fraction(-1)))
    return tate_trace(FinitePotentOperator(split_window_content(comm, content_end, exact_end)))
