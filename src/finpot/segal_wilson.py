"""Loop-group pairing through truncated Toeplitz sections, with a bound.

A loop exponent is a finite Laurent polynomial without constant term, on the
plus side f = sum a_n z^n or the minus side f~ = sum b_m z^-m.  Multiplying
by exp(f) and compressing to the nonnegative-degree half gives a unipotent
triangular Toeplitz block a = T(exp f), and likewise a~ = T(exp f~); the
pairing is the determinant of the commutator a~ a a~^-1 a^-1.

Widom's identity T(uv) = T(u) T(v) + H(u) H(v~) (Widom 1976), with H(u) the
Hankel matrix (u_{i+j+1}) and v~(z) = v(1/z), gives that commutator in
closed form.  The Hankel term vanishes when u has no positive powers or v no
negative ones, so with phi = exp(f + f~) and psi = 1/phi, a~ a = T(phi),
a~^-1 a^-1 = T(psi) and a~ a a~^-1 a^-1 = I - H(phi) H(psi~):

    C_ij = delta_ij - sum_{m>=0} phi_{i+m+1} psi_{-(m+j+1)}.

The truncated pairing is det C_T, with C_T the T x T principal corner.  It
converges factorially fast in T to exp(sum_n n a_n b_n), the closed trace
form, which in turn equals the residue res_{t=0}(f~ df) computed by the
residue machinery.

det C_T is not a rational number, so it is returned as an interval: a value
rounded to a multiple of 2^-128 and a rational bound with
|value - det C_T| <= bound <= 2^-128 prod_i max(1, |row_i|_1), the rows
those of the computed corner.  The corner is built in W-bit fixed point
from the exact coefficients h of the four exponentials: each h_k comes from
the integer numerators of the exp recurrence, h_k = H_k / (k! D^k), and is
rounded once to a multiple of 2^-W, which gives the same integers as
rounding the reduced Fraction of exp_symbol.  Then
phi_k = sum_j h_{k+j} h~_j cut at N terms (psi likewise), the Hankel sum cut
at M terms, every entry within 2^-P of C_T's, and its determinant rounded
as in the last paragraph.  P, W, N and M are set once, from rational bounds,
evaluated as integer fractions with ceiling divisions:

- Cauchy's estimate on the circle of radius r,
  |phi_k| <= exp(sum |a_n| r^n + sum |b_n| r^-n) r^-k, and the like for the
  h and for psi; each cutoff takes the radius in _RADII of least cutoff;
- sum_k |phi_k| <= exp(sum |a_n| + sum |b_n|) = 2^s at most, which sets
  W = P + 2s + 5 against the rounding of the h and of the products;
- exp(x) <= 2^(13x/9), from the Taylor sum of e plus its remainder.

Hadamard's inequality bounds every term of det(C + E) - det C expanded by
rows, so |det(C + E) - det C| <= prod(|c_i| + |e_i|) - prod |c_i| (a
perturbation bound of the kind in Ipsen & Rehman 2008).  With |e_i|_1 <=
T 2^-P and P = 140 + 2 bitlen(T) this adds at most 2^-139 prod_i
max(1, |c_i|_1) to the 2^-129 of the final rounding.

That rounding of det C (C the integer corner) is certified from one
fixed-point LU, without the exact determinant.  Gaussian elimination with
partial pivoting runs on a copy of C at scale 2^W and applies the same row
operations to 2^W I, which gives an integer X, unit lower triangular at
scale 2^W, near 2^W L^-1 for P C = L U.  A row swap at step k exchanges only
the columns < k of X's two rows, so X stays triangular however its entries
were rounded, and det X = 2^(WT) exactly.  Y = X P C, formed exactly, then
has det Y = sign(P) 2^(WT) det C and is upper triangular up to short rows
s_i below the diagonal; with u_i the rest of row i, the expansion above
gives |det Y - prod y_ii| <= prod(|u_i| + |s_i|) - prod |u_i|.  Rounding is
monotone, so when both ends of that enclosure round alike, that is det C's
rounding.  When they do not, or a pivot is zero, the exact int_det (Bareiss
1968) decides: this happens for corners with large rows, such as
f = 10z, f~ = 10z^-1 at T = 20, where the enclosure is as vacuous as the
bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, prod
from operator import add, mul

from .matrices import det, int_det, mat_inverse, mat_mul
from .places import Place
from .polynomials import Polynomial, RationalFunction
from .residues import residue_classical
from .scalars import _int_coeffs
from .series import TruncatedLaurentSeries, _exp_numerators, series_exp


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


def exp_symbol(e: LoopExponent, length: int):
    """Power-series coefficients h_0..h_{length-1} of exp(f) in |degree|."""
    if length < 1:
        raise ValueError("length must be >= 1")
    mono = TruncatedLaurentSeries.from_terms("z", e.coeffs, length, 0)
    h = series_exp(mono)
    return [h.coefficient(k) for k in range(length)]


def toeplitz_block(e: LoopExponent, T: int) -> list:
    """H+ -> H+ compression of multiplication by exp(f) on z^0..z^{T-1}:
    lower unipotent triangular for the plus side, upper for the minus."""
    if T < 1:
        raise ValueError("T must be >= 1")
    h = exp_symbol(e, T)
    if e.side == "plus":
        return [[h[i - j] if 0 <= i - j else Fraction(0) for j in range(T)] for i in range(T)]
    return [[h[j - i] if 0 <= j - i else Fraction(0) for j in range(T)] for i in range(T)]


def _log2_ceil(x) -> int:
    """The least b >= 0 with x <= 2^b, for x > 0."""
    return (ceil(x) - 1).bit_length()


# Radii r for the Cauchy estimates, each with a rational lam <= log2 r
# (r^q >= 2^p for lam = p/q), so that r^-n <= 2^(-lam n).  Radii near 1
# serve exponents of high degree, large radii serve small coefficients.
_RADII = (
    (Fraction(17, 16), Fraction(1, 12)),
    (Fraction(9, 8), Fraction(1, 6)),
    (Fraction(5, 4), Fraction(5, 16)),
    (Fraction(3, 2), Fraction(4, 7)),
) + tuple((Fraction(2**e), Fraction(e)) for e in range(1, 7))

# Per radius r = p/q with lam = u/v: (p, q, u, v, log2 r/(r^2 - 1) and
# log2 1/(r^2 - 1) rounded up), the integer form _sizes reads.
_RADIUS_TERMS = tuple(
    (r.numerator, r.denominator, lam.numerator, lam.denominator,
     _log2_ceil(r / (r * r - 1)), _log2_ceil(1 / (r * r - 1)))
    for r, lam in _RADII
)

# The value is rounded to a multiple of 2^-_VALUE_BITS.
_VALUE_BITS = 128


def _size(e: LoopExponent, p: int, q: int):
    """(num, den) with sum |c_n| (p/q)^n = num / den, in integers."""
    (nums, den), top = _int_coeffs(e.coeffs.values()), e.support()
    num = sum(abs(a) * p**n * q**(top - n) for n, a in zip(e.coeffs, nums))
    return num, den * q**top


def _exp_bits(*sizes) -> int:
    """An integer b with exp(x) <= 2^b for x >= 0 the sum of the
    (num, den) sizes.  The Taylor sum of e to 1/12! plus its remainder 2/13!
    is below 2^(13/9) (its 9th power is below 2^13), so exp(x) <= 2^(13x/9)."""
    num, den = 0, 1
    for a, b in sizes:
        num, den = num * b + a * den, den * b
    return -(-13 * num // (9 * den))


def _entry_bits(T: int) -> int:
    """P: every entry of the fixed-point corner is within 2^-P of C_T's."""
    return 140 + 2 * T.bit_length()


def _sizes(f: LoopExponent, ftilde: LoopExponent, T: int):
    """Entry precision P, working bits W, and the cutoffs N of phi_k's and
    psi_-k's inner sums and M of the Hankel sum, such that every entry of
    the fixed-point corner is within 2^-P of C_T's (see the module
    docstring; the products of two errors are covered for any M below
    2^(P + 2s + 3), so for every M that can be run).  Each cutoff takes the
    radius of least cutoff; every size is an integer fraction and every
    ceiling a ceiling division."""
    P = _entry_bits(T)
    s = _exp_bits(_size(f, 1, 1), _size(ftilde, 1, 1))
    Ns, Ms = [], []
    for p, q, u, v, log_n, log_m in _RADIUS_TERMS:
        fr, fi, tr, ti = _size(f, p, q), _size(f, q, p), _size(ftilde, p, q), _size(ftilde, q, p)
        # |h_{k+j} h~_j| <= exp(size(f, r) + size(f~, r)) r^(-k-2j), summed over j >= N
        Ns.append(-(-(_exp_bits(fr, tr) + log_n + P + s + 4) * v // (2 * u)))
        # |phi_{i+m+1} psi_-(m+j+1)| <= exp(...) r^(-2m-2), summed over m >= M
        Ms.append(-(-(_exp_bits(fr, ti, fi, tr) + log_m + P + 2) * v // (2 * u)))
    return P, P + 2 * s + 5, min(Ns), min(Ms)


def _lagged_sums(a, ga, b, gb, count: int, n: int, W: int):
    """[0] + [sum_{j<n} a[k+j] b[j] / 2^W, rounded, for 0 < k < count].  a
    is zero off the multiples of ga and b off those of gb (exp of an
    exponent in z^g is a series in z^g), so only the j on the sparser of
    the two grids are summed."""
    half = 1 << (W - 1)
    out = [0]
    for k in range(1, count):
        j0, step = ((-k) % ga, ga) if ga > gb else (0, gb)
        out.append((sum(map(mul, a[k + j0:k + n:step], b[j0:n:step])) + half) >> W)
    return out


def _fixed_symbol(e: LoopExponent, n: int, W: int):
    """exp_symbol(e, n) rounded to integers at scale 2^W: each h_k =
    H_k / (k! D^k) from _exp_numerators, rounded once as
    (2 H_k 2^W + den) // (2 den) with den = k! D^k, which rounds the same
    rational as the reduced Fraction."""
    H, D = _exp_numerators(e.coeffs, n)
    out, den = [1 << W], 1
    for k in range(1, n):
        den *= k * D
        out.append(((H[k] << (W + 1)) + den) // (den << 1))
    return out


def _corner(f: LoopExponent, ftilde: LoopExponent, T: int):
    """(corner, W): the T x T Widom corner C_T in W-bit fixed point, as
    integer rows at scale 2^W, each entry within 2^-P of C_T's for
    P = _entry_bits(T)."""
    _, W, N, M = _sizes(f, ftilde, T)
    one, half, K = 1 << W, 1 << (W - 1), T + M
    length = K + N - 1
    h, ht = _fixed_symbol(f, length, W), _fixed_symbol(ftilde, N, W)
    hi, hti = _fixed_symbol(f.negated(), N, W), _fixed_symbol(ftilde.negated(), length, W)
    g, gt = gcd(*f.coeffs) or 1, gcd(*ftilde.coeffs) or 1
    # phi_k = sum_j h_{k+j} h~_j and psi_-k = sum_j h'_j h~'_{j+k}, 0 < k < K
    phi = _lagged_sums(h, g, ht, gt, K, N, W)
    psi = _lagged_sums(hti, gt, hi, g, K, N, W)
    # E_ij = sum_{m<M} phi_{i+m+1} psi_-(m+j+1), at scale 2^2W, by the
    # corner-anchored diagonal recurrence
    E = [[sum(map(mul, phi[1:M + 1], psi[j + 1:j + M + 1])) for j in range(T)]]
    for i in range(1, T):
        prev = E[-1]
        row = [sum(map(mul, phi[i + 1:i + M + 1], psi[1:M + 1]))]
        for j in range(1, T):
            row.append(prev[j - 1] - phi[i] * psi[j] + phi[i + M] * psi[j + M])
        E.append(row)
    corner = [[(one if i == j else 0) - ((x + half) >> W) for j, x in enumerate(row)]
              for i, row in enumerate(E)]
    return corner, W


def _round_scaled(v: int, shift: int) -> int:
    """v 2^(128 - shift) rounded to an integer, halves up."""
    return ((v << _VALUE_BITS) + (1 << (shift - 1))) >> shift


def _certified_rounded_det(corner, W: int):
    """_round_scaled(det corner, W T) for a T x T integer matrix, from the
    fixed-point LU enclosure of the module docstring without the exact
    determinant; None when the enclosure straddles a rounding boundary or
    a pivot is zero."""
    n = len(corner)
    a = [row[:] for row in corner]
    # x[i] holds columns 0..i of X, unit lower triangular at scale 2^W
    x = [[0] * i + [1 << W] for i in range(n)]
    order, sign = list(range(n)), 1
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        pivot = a[p][k]
        if not pivot:
            return None
        if p != k:
            a[k], a[p], order[k], order[p], sign = a[p], a[k], order[p], order[k], -sign
            # the diagonal 2^W of X stays in place: only columns < k move
            x[k][:k], x[p][:k] = x[p][:k], x[k][:k]
        ak, xk = a[k], x[k]
        for i in range(k + 1, n):
            m = (a[i][k] << W) // pivot
            if m:
                a[i] = [u - (m * v >> W) for u, v in zip(a[i], ak)]
                x[i][:k + 1] = [u - (m * v >> W) for u, v in zip(x[i], xk)]
    # Y = X P C exactly; row i of X has no terms past column i
    columns = list(zip(*(corner[r] for r in order)))
    y = [[sum(map(mul, xi, col)) for col in columns] for xi in x]
    upper = [sum(map(abs, yi[i:])) for i, yi in enumerate(y)]
    lower = [sum(map(abs, yi[:i])) for i, yi in enumerate(y)]
    centre = sign * prod(yi[i] for i, yi in enumerate(y))
    radius = prod(map(add, upper, lower)) - prod(upper)
    shift = 2 * W * n
    low = _round_scaled(centre - radius, shift)
    return low if low == _round_scaled(centre + radius, shift) else None


def _rounded_det(corner, W: int) -> int:
    """det(corner) 2^(128 - W T) rounded to an integer, halves up: certified
    by _certified_rounded_det, or else from the exact int_det."""
    out = _certified_rounded_det(corner, W)
    return _round_scaled(int_det(corner), W * len(corner)) if out is None else out


def sw_pairing_interval(f: LoopExponent, ftilde: LoopExponent, T: int):
    """(value, bound): det C_T, C_T the T x T principal corner of
    atilde a atilde^{-1} a^{-1}, rounded to a Fraction over 2^128, and a
    Fraction bound with |value - det C_T| <= bound
    <= 2^-128 prod_i max(1, |row_i|_1), the rows those of the computed
    corner."""
    if f.side != "plus" or ftilde.side != "minus":
        raise ValueError("pairing takes a plus exponent and a minus exponent")
    if T <= f.support() + ftilde.support():
        raise ValueError("T must exceed the combined support")
    corner, W = _corner(f, ftilde, T)
    value = Fraction(_rounded_det(corner, W), 1 << _VALUE_BITS)
    # Hadamard: |det(C + D) - det C| <= prod(|c_i| + |d_i|) - prod |c_i|,
    # with |d_i|_1 <= T 2^-P; rounded up to a multiple of 2^-W
    norms = [sum(map(abs, row)) for row in corner]
    grown = prod(n + (T << (W - _entry_bits(T))) for n in norms) - prod(norms)
    bound = Fraction(-(-grown >> (W * T - W)), 1 << W) + Fraction(1, 2 << _VALUE_BITS)
    return value, bound


def sw_pairing_truncated(f: LoopExponent, ftilde: LoopExponent, T: int) -> Fraction:
    """The value of sw_pairing_interval: det C_T rounded to a Fraction over
    2^128, without its bound."""
    return sw_pairing_interval(f, ftilde, T)[0]


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
    a1 = toeplitz_block(g1, T)
    a2 = toeplitz_block(g2, T)
    a3 = toeplitz_block(g1.combined(g2), T)
    value = det(mat_mul(mat_mul(a1, a2), mat_inverse(a3)))
    return value == 1
