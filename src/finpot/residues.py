"""Residues of rational differentials f dg over Q(t), by two routes.

The coefficient route reads the residue off the exact digit expansion of
f g' / pi' at the place (trace of the parameter^{-1} coefficient down to Q),
which it expands once.
The operator route realizes multiplication by f and g on the basis
e_i <-> t^i in a window that starts at the cut, which makes them the
compressions to the upper half-space V+ = span{e_i : i >= cut} truncated at
the window's top, and takes the trace of the finite-rank commutator of the
compressions.  The two routes must agree wherever both apply.
"""

from __future__ import annotations

from fractions import Fraction

from .determinants import tate_trace
from .errors import ReductionError, WindowExhaustedError
from .operators import FinitePotentOperator, SparseOperator
from .places import Place, local_expand, substitute_inverse
from .polynomials import RationalFunction


def residue_classical(
    f: RationalFunction, g: RationalFunction, p: Place, prec: int = 0
) -> Fraction:
    """res_p(f dg) via the digit expansion of f g' d(parameter)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("residue needs nonzero functions")
    omega = f * g.derivative()
    if omega.is_zero():
        return Fraction(0)
    if p.is_infinity():
        # pull back through t -> 1/t; the residue at infinity becomes the
        # residue at zero of the transported differential
        fw = substitute_inverse(f)
        gw = substitute_inverse(g)
        return residue_classical(fw, gw, Place.at_zero())
    pi = p.minimal_poly
    # f dg = (f g' / pi') dpi
    h = omega / RationalFunction(pi.derivative())
    # without a pole the expansion at precision 0 is zero at degree -1
    exp = local_expand(h, p, max(prec, 0))
    return p.residue_trace(exp.series.coefficient(-1))


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


def _band(coeffs: dict) -> tuple:
    """(pole order, degree) of a Laurent coefficient dict."""
    if not coeffs:
        return 0, 0
    return max(0, -min(coeffs)), max(0, max(coeffs))


def split_window_content(op: SparseOperator, content_end: int, exact_end: int):
    """Separate true content from window-edge artifacts.

    The infinite-model operator vanishes outside the box below content_end;
    window truncation fabricates junk near the edge, but only at indices
    beyond exact_end.  A clean separation zone [content_end, exact_end)
    must be exactly zero; entries below it are the content, entries beyond
    are discarded.  Returns the content or None when the zones overlap or
    the separation is dirty (window too small).
    """
    if content_end > exact_end:
        return None
    content = {}
    for (i, j), c in op.entries.items():
        top = max(i, j)
        if top < content_end:
            content[(i, j)] = c
        elif top < exact_end:
            return None
    return SparseOperator(content)


def residue_tate(
    f: RationalFunction,
    g: RationalFunction,
    window: int = None,
    place: Place = None,
) -> Fraction:
    """res(f dg) as the trace of [f1, g1], f1 = pi+ f pi+ and g1 = pi+ g pi+
    on the windowed model of the place (degree 1; defaults to t = 0).

    The true commutator is supported in a finite box near the corner; the
    window must leave an exactly-zero separation zone between that box and
    the truncation artifacts at the edge, else it doubles (3 retries)."""
    if place is None:
        place = Place.at_zero()
    fc = reduce_to_origin(f, place)
    gc = reduce_to_origin(g, place)
    pf, df = _band(fc)
    pg, dg_ = _band(gc)
    band = max(pf, df, pg, dg_, 1)
    content_end = max(pf, df, pg, dg_, 1)
    w = window if window is not None else max(
        2 * (max(pf, pg) + max(df, dg_)), content_end + 3 * band + 4
    )
    for _ in range(4):
        mf = multiplication_window(fc, 0, w)
        mg = multiplication_window(gc, 0, w)
        comm = mf.compose(mg).add(mg.compose(mf).scale(Fraction(-1)))
        content = split_window_content(comm, content_end, w - 2 * band)
        if content is not None:
            return tate_trace(FinitePotentOperator(content))
        w *= 2
    raise WindowExhaustedError("commutator content kept reaching the window edge")
