"""Loop-group pairing through truncated Toeplitz sections, exactly.

A loop exponent is a finite Laurent polynomial without constant term, on the
plus side f = sum a_n z^n or the minus side f~ = sum b_m z^-m.  Multiplying
by exp(f) and compressing to the nonnegative-degree half gives a unipotent
triangular Toeplitz block; the pairing is the determinant of the commutator
of the plus and minus blocks.  The truncated pairing takes the T x T
principal corner of that commutator built exactly on an enlarged stage
(size T + 28, inverses realized by negated exponents, which coincide with
the exact matrix inverses of the triangular sections).  It converges
factorially fast to exp(sum_n n a_n b_n), the closed trace form, which in
turn equals the residue res_{t=0}(f~ df) computed by the residue machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import det, int_det, mat_inverse, mat_mul
from .places import Place
from .polynomials import Polynomial, RationalFunction
from .residues import residue_classical
from .scalars import _int_coeffs
from .series import TruncatedLaurentSeries, series_exp


class LoopExponent:
    """side 'plus': f = sum_{n>=1} a_n z^n; side 'minus': f~ = sum b_m z^-m.
    Finite support, no constant term."""

    __slots__ = ("side", "coeffs")

    def __init__(self, side: str, coeffs):
        if side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")
        clean = {}
        for n, c in dict(coeffs).items():
            n = int(n)
            if n < 1:
                raise ValueError("exponent degrees are indexed from 1")
            c = Fraction(c)
            if c != 0:
                clean[n] = c
        self.side = side
        self.coeffs = clean

    def support(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def negated(self) -> "LoopExponent":
        return LoopExponent(self.side, {n: -c for n, c in self.coeffs.items()})

    def combined(self, other: "LoopExponent") -> "LoopExponent":
        if self.side != other.side:
            raise ValueError("can only combine exponents on the same side")
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, Fraction(0)) + c
        return LoopExponent(self.side, out)

    def as_rational_function(self) -> RationalFunction:
        """The exponent as an element of Q(t) (z -> t)."""
        if not self.coeffs:
            return RationalFunction(Polynomial())
        top = max(self.coeffs)
        if self.side == "plus":
            cs = [Fraction(0)] * (top + 1)
            for n, c in self.coeffs.items():
                cs[n] = c
            return RationalFunction(Polynomial(cs))
        cs = [Fraction(0)] * (top + 1)
        for n, c in self.coeffs.items():
            cs[top - n] = c
        return RationalFunction(Polynomial(cs), Polynomial([0] * top + [1]))

    def __repr__(self):
        return "LoopExponent(%r, %s)" % (
            self.side,
            {n: str(c) for n, c in sorted(self.coeffs.items())},
        )


@dataclass
class ToeplitzBlock:
    size: int
    matrix: list

    def __post_init__(self):
        for i in range(self.size):
            if self.matrix[i][i] != 1:
                raise ValueError("block must be unipotent")


def exp_symbol(e: LoopExponent, length: int):
    """Power-series coefficients h_0..h_{length-1} of exp(f) in |degree|."""
    if length < 1:
        raise ValueError("length must be >= 1")
    mono = TruncatedLaurentSeries.from_terms("z", e.coeffs, length, 0)
    h = series_exp(mono)
    return [h.coefficient(k) for k in range(length)]


def toeplitz_block(e: LoopExponent, T: int) -> ToeplitzBlock:
    """H+ -> H+ compression of multiplication by exp(f) on z^0..z^{T-1}:
    lower unipotent triangular for the plus side, upper for the minus."""
    if T < 1:
        raise ValueError("T must be >= 1")
    h = exp_symbol(e, T)
    if e.side == "plus":
        rows = [[h[i - j] if 0 <= i - j else Fraction(0) for j in range(T)] for i in range(T)]
    else:
        rows = [[h[j - i] if 0 <= j - i else Fraction(0) for j in range(T)] for i in range(T)]
    return ToeplitzBlock(T, rows)


def _lower_upper_corner(g, h, n: int):
    """M(i,k) = sum_{q=0}^{min(i,k)} g[i-q] h[k-q], the exact entries of the
    (lower Toeplitz of g) . (upper Toeplitz of h) product; O(n^2) by the
    corner-anchored diagonal recurrence."""
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        M[i][0] = g[i] * h[0]
    for k in range(n):
        M[0][k] = g[0] * h[k]
    for i in range(1, n):
        gi = g[i]
        prev = M[i - 1]
        cur = M[i]
        for k in range(1, n):
            cur[k] = prev[k - 1] + gi * h[k]
    return M


def sw_pairing_truncated(f: LoopExponent, ftilde: LoopExponent, T: int) -> Fraction:
    """T x T principal-corner determinant of atilde a atilde^{-1} a^{-1},
    built exactly on a stage of size T + 28.  Exact rational.

    The four triangular sections are scaled to integer vectors over common
    denominators so the stage products and the final determinant run on raw
    big integers (one rational normalization at the very end)."""
    if f.side != "plus" or ftilde.side != "minus":
        raise ValueError("pairing takes a plus exponent and a minus exponent")
    if T <= f.support() + ftilde.support():
        raise ValueError("T must exceed the combined support")
    n = T + 28
    g, dg = _int_coeffs(exp_symbol(f, n))
    gi, dgi = _int_coeffs(exp_symbol(f.negated(), n))
    gt, dgt = _int_coeffs(exp_symbol(ftilde, n))
    gti, dgti = _int_coeffs(exp_symbol(ftilde.negated(), n))
    # a . atilde^{-1} has exact stage-independent entries (lower times upper)
    middle = _lower_upper_corner(g, gti, n)
    # P = atilde . middle . a^{-1}, rows/cols < T, internal sums on the stage
    at_rows = [
        [sum(gt[q - i] * middle[q][m] for q in range(i, n)) for m in range(n)]
        for i in range(T)
    ]
    corner = [
        [sum(at_rows[i][m] * gi[m - j] for m in range(j, n)) for j in range(T)]
        for i in range(T)
    ]
    scale = dg * dgi * dgt * dgti
    return Fraction(int_det(corner), scale**T)


def sw_pairing_closed(f: LoopExponent, ftilde: LoopExponent) -> Fraction:
    """Exponent r with pairing = exp(r): the trace of the block commutator,
    r = sum_{n>=1} n a_n b_n."""
    if f.side != "plus" or ftilde.side != "minus":
        raise ValueError("pairing takes a plus exponent and a minus exponent")
    return sum(
        (Fraction(n) * c * ftilde.coeffs[n] for n, c in f.coeffs.items() if n in ftilde.coeffs),
        Fraction(0),
    )


def sw_vs_tate_check(f: LoopExponent, ftilde: LoopExponent) -> bool:
    """The closed pairing exponent equals res_{t=0}(f~ df), exactly."""
    r = sw_pairing_closed(f, ftilde)
    frf = f.as_rational_function()
    ftrf = ftilde.as_rational_function()
    if frf.is_zero() or ftrf.is_zero():
        return r == 0
    return residue_classical(ftrf, frf, Place.at_zero()) == r


def sw_group_cocycle_check(g1: LoopExponent, g2: LoopExponent, T: int) -> bool:
    """For two plus-side elements the compressed blocks multiply exactly
    (a1 a2 = a3 with g3 = g1 g2), so det(a1 a2 a3^{-1}) = 1 at any T."""
    if g1.side != "plus" or g2.side != "plus":
        raise ValueError("group cocycle check takes plus-side elements")
    a1 = toeplitz_block(g1, T).matrix
    a2 = toeplitz_block(g2, T).matrix
    a3 = toeplitz_block(g1.combined(g2), T).matrix
    value = det(mat_mul(mat_mul(a1, a2), mat_inverse(a3)))
    return value == 1
