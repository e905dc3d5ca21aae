"""Truncated Laurent series with exact coefficients.

A series knows its variable tag, a lower storage bound ``min_degree``
(degrees below it are exactly zero), and an exclusive ``precision`` (degrees
at or above it are unknown, not zero).  Products propagate the sharp big-O
law prec = min(prec_a + val_b, prec_b + val_a); for the usual valuation-0
operands this is the minimum of the two precisions.  Coefficients are
stored under the scalar rule of scalars.canonical: Fractions, and
NumberFieldElements only for values outside Q.

This is the package's one series layer: series_mul runs on coefficient
lists, and series_exp, series_log and series_inv run exact coefficient
recurrences (Brent & Kung 1978); every exp, log or quotient elsewhere calls
them.  series_log and series_inv run one pass of _dot steps, which the
series determinant also divides by.  series_exp runs one recurrence,
_exp_numerators, for every input: h_k = H_k / (k! D^k), with the H_k
integers over the lcm D of the denominators for all-Fraction input (the
loop pairing rounds them directly) and the stored scalars with D = 1
otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import PrecisionError, SeriesDomainError, VariableMismatchError
from .scalars import (NumberFieldElement, _int_coeffs, _poly_mul, _Ring, canonical,
                      format_rational, parse_integer, parse_rational, scalar_is_zero)


def _inv_scalar(c):
    return c.inverse() if isinstance(c, NumberFieldElement) else 1 / Fraction(c)


class TruncatedLaurentSeries(_Ring):
    __slots__ = ("variable", "min_degree", "precision", "coeffs")

    def __init__(self, variable: str, coeffs, min_degree: int, precision: int):
        if precision <= min_degree:
            raise PrecisionError(
                "empty precision window [%d, %d)" % (min_degree, precision)
            )
        self.variable = variable
        self.min_degree = min_degree
        self.precision = precision
        clean = {}
        for d, c in dict(coeffs).items():
            d = int(d)
            if scalar_is_zero(c):
                continue
            if d < min_degree or d >= precision:
                raise ValueError(
                    "stored degree %d outside window [%d, %d)"
                    % (d, min_degree, precision)
                )
            clean[d] = canonical(c)
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_terms(cls, variable, terms, precision, min_degree=None):
        terms = {int(d): c for d, c in dict(terms).items() if not scalar_is_zero(c)}
        if min_degree is None:
            min_degree = min([0] + list(terms))
        return cls(variable, terms, min_degree, precision)

    @classmethod
    def one(cls, variable, precision):
        return cls(variable, {0: Fraction(1)}, 0, precision)

    @classmethod
    def zero(cls, variable, precision, min_degree=0):
        return cls(variable, {}, min_degree, precision)

    # -- basics --------------------------------------------------------------

    def coefficient(self, d: int):
        if d >= self.precision:
            raise PrecisionError(
                "degree %d at or beyond precision %d" % (d, self.precision)
            )
        return self.coeffs.get(d, Fraction(0))

    def valuation(self):
        """Degree of the lowest known nonzero coefficient (None if none)."""
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: Fraction(1)}

    def _check_var(self, other):
        if self.variable != other.variable:
            raise VariableMismatchError(
                "series variables differ: %r vs %r" % (self.variable, other.variable)
            )

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return TruncatedLaurentSeries(
                self.variable,
                {0: other},
                min(0, self.min_degree),
                self.precision,
            )
        if isinstance(other, TruncatedLaurentSeries):
            return other
        return None

    def truncate(self, precision: int) -> "TruncatedLaurentSeries":
        precision = min(precision, self.precision)
        return TruncatedLaurentSeries(
            self.variable,
            {d: c for d, c in self.coeffs.items() if d < precision},
            min(self.min_degree, precision - 1),
            precision,
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.variable, self.precision, tuple(sorted(self.coeffs.items()))))

    def same_to_precision(self, other) -> bool:
        """Equality of all coefficients below the common precision."""
        self._check_var(other)
        p = min(self.precision, other.precision)
        a = {d: c for d, c in self.coeffs.items() if d < p}
        b = {d: c for d, c in other.coeffs.items() if d < p}
        return a == b

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_var(other)
        prec = min(self.precision, other.precision)
        out = {}
        for d in set(self.coeffs) | set(other.coeffs):
            if d < prec:
                out[d] = self.coeffs.get(d, 0) + other.coeffs.get(d, 0)
        return TruncatedLaurentSeries(
            self.variable, out, min(self.min_degree, other.min_degree), prec
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedLaurentSeries(
            self.variable,
            {d: -c for d, c in self.coeffs.items()},
            self.min_degree,
            self.precision,
        )

    def scale(self, c) -> "TruncatedLaurentSeries":
        if scalar_is_zero(c):
            return TruncatedLaurentSeries.zero(
                self.variable, self.precision, self.min_degree
            )
        return TruncatedLaurentSeries(
            self.variable,
            {d: c * x for d, x in self.coeffs.items()},
            self.min_degree,
            self.precision,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return self.scale(other)
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return series_mul(self, other)

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedLaurentSeries":
        """Multiply by variable^k."""
        return TruncatedLaurentSeries(
            self.variable,
            {d + k: c for d, c in self.coeffs.items()},
            self.min_degree + k,
            self.precision + k,
        )

    def __repr__(self):
        return "TruncatedLaurentSeries(%r, %s, prec=%d)" % (
            self.variable,
            {d: str(c) for d, c in sorted(self.coeffs.items())},
            self.precision,
        )

    def __str__(self):
        return format_series(self)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "var": self.variable,
            "min": self.min_degree,
            "prec": self.precision,
            "coeffs": {
                str(d): format_rational(c) for d, c in sorted(self.coeffs.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedLaurentSeries":
        return cls(
            data["var"],
            {parse_integer(d): parse_rational(c) for d, c in data.get("coeffs", {}).items()},
            parse_integer(data["min"]),
            parse_integer(data["prec"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "TruncatedLaurentSeries":
        return cls.from_json_dict(json.loads(text))


def format_series(s: TruncatedLaurentSeries) -> str:
    """Human form "1 + 1/2*z^2 + O(z^8)"."""
    parts = []
    for d in sorted(s.coeffs):
        c = s.coeffs[d]
        cs = format_rational(c) if not isinstance(c, NumberFieldElement) else repr(c)
        if d == 0:
            parts.append(cs)
        else:
            var = s.variable if d == 1 else "%s^%d" % (s.variable, d)
            parts.append(var if cs == "1" else "%s*%s" % (cs, var))
    parts.append("O(%s^%d)" % (s.variable, s.precision))
    return " + ".join(parts).replace("+ -", "- ")


def series_mul(
    a: TruncatedLaurentSeries, b: TruncatedLaurentSeries
) -> TruncatedLaurentSeries:
    """Product, correct for every degree below the resulting precision, by
    scalars._poly_mul on the coefficient lists from the valuations, forming
    only the terms below that precision; the constructor stores each
    rational coefficient as a Fraction."""
    a._check_var(b)
    va, vb = min(a.coeffs, default=a.precision), min(b.coeffs, default=b.precision)
    prec = min(a.precision + vb, b.precision + va)
    out = {}
    if a.coeffs and b.coeffs:
        n, zero = prec - va - vb, Fraction(0)
        la, lb = ([s.coeffs.get(d, zero) for d in range(v, min(v + n, max(s.coeffs) + 1))]
                  for s, v in ((a, va), (b, vb)))
        out = {va + vb + k: x for k, x in enumerate(_poly_mul(la, lb, n))}
    return TruncatedLaurentSeries(a.variable, out, a.min_degree + b.min_degree, prec)


def _dot(pairs, h, k):
    """sum of c * h[k - j] over the (j, c) in pairs (sorted by j), j <= k,
    and the nonzero h[k - j]."""
    s = 0
    for j, c in pairs:
        if j > k:
            break
        x = h[k - j]
        if x:
            s = s + c * x
    return s


def series_inv(a: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    """Inverse of a series whose lowest known coefficient a_v is nonzero:
    u^-v sum_k b_k u^k with b_0 = 1/a_v, b_k = -b_0 sum_{j>=1} a_{v+j} b_{k-j}."""
    v = a.valuation()
    if v is None:
        raise SeriesDomainError("cannot invert a series with no known nonzero term")
    n = a.precision - v
    b = [_inv_scalar(a.coeffs[v])]
    rest = sorted((d - v, c) for d, c in a.coeffs.items() if d != v)
    for k in range(1, n):
        b.append(-b[0] * _dot(rest, b, k))
    # min_degree as the former geometric sum reported it: its r-th power of
    # 1 - u^-v a / a_v (r < n) was stored from r (min_degree - v)
    low = (n - 1) * (a.min_degree - v) if rest else 0
    return TruncatedLaurentSeries(
        a.variable, {k - v: c for k, c in enumerate(b)}, low - v, n - v
    )


def _exp_numerators(coeffs, n):
    """(H, D) with exp(a)_k = H_k / (k! D^k) for 0 <= k < n (H_0 = 1), where
    a = sum_j a_j z^j is given by coeffs {j: a_j}, j >= 1, a_j = A_j / D.
    When every a_j is a Fraction, D is the lcm of their denominators and
    the A_j and H_k are integers; otherwise D = 1 and the A_j are the
    stored scalars.  The recurrence k h_k = sum_j j a_j h_{k-j} becomes
    H_k = sum_j j A_j D^(j-1) (k-1)!/(k-j)! H_{k-j}, the falling factorial
    (k-1)!/(k-j)! built up along j, over the nonzero H_{k-j} only."""
    form = _int_coeffs(coeffs.values())
    nums, D = (list(coeffs.values()), 1) if form is None else form
    weighted = sorted((j, j * A * D ** (j - 1)) for j, A in zip(coeffs, nums))
    H = [1]
    for k in range(1, n):
        s, falling, reached = 0, 1, 1
        for j, w in weighted:
            if j > k:
                break
            for i in range(reached, j):
                falling *= k - i
            reached = j
            x = H[k - j]
            if x:
                s += w * falling * x
        H.append(s)
    return H, D


def series_exp(a: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    """exp of a series with no constant and no polar part, h_k = H_k /
    (k! D^k) from the one recurrence _exp_numerators, one division per
    coefficient: a Fraction of an integer H_k, otherwise a product by
    1 / (k! D^k)."""
    if any(d <= 0 for d in a.coeffs):
        raise SeriesDomainError(
            "series_exp needs valuation >= 1, got terms at degrees %s"
            % sorted(d for d in a.coeffs if d <= 0)
        )
    H, D = _exp_numerators(a.coeffs, a.precision)
    h, den = [Fraction(1)], 1
    for k in range(1, len(H)):
        den *= k * D
        x = H[k]
        h.append(Fraction(x, den) if type(x) is int else x * Fraction(1, den))
    return TruncatedLaurentSeries(a.variable, dict(enumerate(h)), 0, a.precision)


def series_log(a: TruncatedLaurentSeries) -> TruncatedLaurentSeries:
    """log of a series with constant term exactly 1, by the recurrence
    k b_k = k a_k - sum_{0<j<k} a_j (k-j) b_{k-j} (b_0 = 0), run on k b_k."""
    if a.coefficient(0) != 1 or any(d < 0 for d in a.coeffs):
        raise SeriesDomainError("series_log needs constant term 1 and no polar part")
    rest = sorted((j, c) for j, c in a.coeffs.items() if j > 0)
    kb = [Fraction(0)]
    for k in range(1, a.precision):
        kb.append(k * a.coeffs.get(k, 0) - _dot(rest, kb, k))
    b = {k: c * Fraction(1, k) for k, c in enumerate(kb) if k}
    return TruncatedLaurentSeries(a.variable, b, 0, a.precision)
