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
e_i <-> t^i as their compressions f+ = pi+ f pi+ to the upper half-space
V+ = span{e_i : i >= cut}, exact infinite operators (Compression), and
takes the trace of [f+, g+], a finite difference of Hankel products (Tate
1968).  The symbol route takes the same compressions for its exponential
products.  The two routes must agree wherever both apply.
"""

from __future__ import annotations

from fractions import Fraction

from .determinants import tate_trace
from .errors import ReductionError, SeriesDomainError
from .operators import FinitePotentOperator, SparseOperator
from .places import Place, expand_digits, substitute_inverse
from .polynomials import Polynomial, RationalFunction, split_power, squarefree_parts
from .scalars import NumberField, NumberFieldElement, _int_coeffs, _over, _poly_mul, field_trace


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


class Compression:
    """T_f = pi+ f pi+ on V+ = span{e_i : i >= cut}, e_i <-> t^i, for the
    Laurent polynomial f = sum c_k t^k: the infinite operator e_j -> sum
    c_k e_{j+k} over j, j + k >= cut, its c_k kept once as the numerators
    of scalars._int_coeffs over one denominator.  Compressions of one cut
    add as compressions; their commutators are finite and exact."""

    __slots__ = ("cut", "_nums", "_den")

    def __init__(self, coeffs: dict, cut: int = 0):
        nums, self._den = _int_coeffs(list(coeffs.values()))
        self._nums = {k: n for k, n in zip(coeffs, nums) if n}
        self.cut = cut

    def is_zero(self) -> bool:
        return not self._nums

    def _check_cut(self, other: "Compression") -> None:
        if self.cut != other.cut:
            raise ValueError("compressions at cuts %d and %d" % (self.cut, other.cut))

    def __add__(self, other: "Compression") -> "Compression":
        """T_f + T_g = T_{f+g}, at one cut."""
        self._check_cut(other)
        coeffs = {k: _over(n, self._den) for k, n in self._nums.items()}
        for k, n in other._nums.items():
            coeffs[k] = coeffs.get(k, 0) + _over(n, other._den)
        return Compression(coeffs, self.cut)

    def _columns(self, other: "Compression") -> range:
        """[cut, cut + max(n_f, n_g)), n_f = max(0, -min deg f): the columns
        outside which [T_f, T_g] vanishes (commutator)."""
        poles = max([0] + [-k for k in (*self._nums, *other._nums)])
        return range(self.cut, self.cut + poles)

    def commutator(self, x) -> FinitePotentOperator:
        """[T_f, x] for x a tail-free operator or a compression of one cut:
        one loop on the numerators, over the product of the denominators.

        - x finite, with entries a at (i, j): T_f x has c_k a at (i + k, j)
          for i, i + k >= cut, and x T_f has a c_k at (i, j - k) for
          j, j - k >= cut.
        - x = T_g, g = sum b_k t^k: for j >= cut, T_f T_g e_j is the sum of
          b_k c_l e_{j+k+l} over j + k >= cut and j + k + l >= cut, and
          T_{fg} e_j the same sum over j + k + l >= cut alone.  They differ
          only in terms with j + k < cut, so j < cut + n_g, as k >= -n_g.
          So T_{fg} - T_f T_g = H(f) H(g~) vanishes on the columns
          j >= cut + n_g, and T_{fg} - T_g T_f on j >= cut + n_f.  Their
          difference [T_f, T_g] = H(g) H(f~) - H(f) H(g~) (Boettcher &
          Silbermann) vanishes on the columns j >= cut + max(n_f, n_g)
          (_columns).  Below them it is the difference of the two
          products: c_l b_k ([j + k >= cut] - [j + l >= cut]) at
          (j + k + l, j) for j + k + l >= cut.
        """
        cut, terms, out = self.cut, self._nums.items(), {}
        if isinstance(x, Compression):
            self._check_cut(x)
            den = x._den
            for j in self._columns(x):
                for k, b in x._nums.items():
                    for l, c in terms:
                        sign = (j + k >= cut) - (j + l >= cut)
                        if sign and j + k + l >= cut:
                            key = (j + k + l, j)
                            out[key] = out.get(key, 0) + sign * c * b
        else:
            nums, den = x.finite_part._ints()
            for (i, j), a in nums.items():
                for k, c in terms:
                    if i >= cut and i + k >= cut:
                        key = (i + k, j)
                        out[key] = out.get(key, 0) + c * a
                    if j >= cut and j - k >= cut:
                        key = (i, j - k)
                        out[key] = out.get(key, 0) - a * c
        return FinitePotentOperator(SparseOperator._from_ints(out, den * self._den))


def _at_origin(f: RationalFunction, g: RationalFunction, place: Place = None):
    """reduce_to_origin of f and of g at the place, by default t = 0."""
    place = place or Place.at_zero()
    return reduce_to_origin(f, place), reduce_to_origin(g, place)


def residue_tate(f: RationalFunction, g: RationalFunction, place: Place = None) -> Fraction:
    """res(f dg) as the trace of [f+, g+], with f+ and g+ the compressions
    at cut 0 at the place (degree 1; defaults to t = 0)."""
    tf, tg = (Compression(c) for c in _at_origin(f, g, place))
    return tate_trace(tf.commutator(tg))
