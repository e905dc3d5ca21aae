"""Exact dense linear algebra over Q and number fields, and determinants of
matrices of truncated series.

Matrices are plain lists of row lists.  Scalars only need +, -, *, equality
against 0 and exact inversion, so the same routines serve Fraction and
NumberFieldElement entries.  Each kernel is one loop: it runs on Python
ints for all-Fraction input and on the field's own scalars otherwise.

Every elimination runs on the fraction-free loop _bareiss (Bareiss 1968):
det, int_det (the loop pairing's integer corner), and reduced_echelon,
which kernel_basis and mat_inverse (the right half of the reduced echelon
form of [a | I]) read.  Number-field scalars reach it only as entries: their
inverse at a pivot and their norm come from scalars' subresultant PRS.
The pivot is the first nonzero entry at or below the current row, and
every other row becomes
(pivot * row - entry * pivot row) / previous pivot, an exact division: '//'
on ints, a product with the inverse of the previous pivot otherwise.  The
Gauss-Jordan form leaves d times the reduced echelon form, d the last pivot
(Nakos, Turner & Williams 1997), which reduced_echelon divides out once.

Every kernel reads its input through scalars._int_coeffs and returns
through scalars._over.  An elimination takes each row over its own lcm
(_rows), integers for an all-Fraction row and the row itself over 1
otherwise, which changes neither the pivots, nor the kernel, nor the
reduced echelon form; the answer is divided by the product of the row lcms
once at the end (Fraction normalisation is canonical, so the values are
the same Fractions).  The products scale the whole matrix by one lcm
(_scaled) instead; an elimination on that scaling is much slower on rows
with unlike denominators.  The other kernels follow the same rule:

  mat_mul, charpoly,    one product loop (_mul) on B = D*M (_scaled),
  power_traces          with results over D^k; Faddeev-LeVerrier on B (on
                        an integer B every tr(N_k)/k is an exact '//')
  det_series_matrix     Bareiss over K[z]/(z^p) on the coefficient lists
                        of _rows (_series_bareiss_det), p the least
                        precision of the entries, by scalars._add_product
                        and series._dot
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import prod
from operator import mul

from .errors import NotInvertibleError, VariableMismatchError
from .scalars import _add_product, _int_coeffs, _over, scalar_is_zero
from .series import TruncatedLaurentSeries, _dot, _inv_scalar


def identity(n):
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _scaled(a):
    """(B, D) with a = B / D, scalars._int_coeffs over the whole matrix:
    B of ints over the least D when every entry of a is a Fraction, a copy
    of a over D = 1 otherwise.  The products scale this way, one D for all
    of a."""
    nums, d = _int_coeffs([x for row in a for x in row])
    nums = iter(nums)
    return [list(islice(nums, len(row))) for row in a], d


def _mul(a, b):
    """a * b, entry (i, j) the sum from 0 of a[i][p] * b[p][j]: one loop for
    ints and for the field's own scalars, which may hold a rational value
    as either type (scalars.canonical sorts that out at the boundary)."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_mul(a, b):
    """a * b, the product of B = D*a and B' = D'*b (_scaled) over D*D'."""
    (ia, da), (ib, db) = _scaled(a), _scaled(b)
    den = da * db
    return [[_over(x, den) for x in row] for row in _mul(ia, ib)]


def mat_trace(a):
    n = len(a)
    if n == 0:
        return Fraction(0)
    s = a[0][0]
    for i in range(1, n):
        s = s + a[i][i]
    return s


def _bareiss(m, ncols: int, reduce: bool = False):
    """Fraction-free elimination (Bareiss 1968) of the rows of m, in place,
    over its first ncols columns; returns (pivot columns, sign of the row
    permutation).

    A column with no nonzero entry at or below the current row is passed
    over.  Otherwise the first such entry p is swapped up, and every row
    below it (with reduce=True, every other row) becomes
    (p * row - entry * pivot row) / previous pivot.  The division is exact,
    since each entry is then a minor of m (Sylvester's identity): '//' on a
    matrix of ints, otherwise p and entry are first multiplied by the
    inverse of the previous pivot.  So the last pivot of a square
    matrix of full rank is its determinant up to the sign.  With
    reduce=True every pivot ends equal to the last one, d, and the pivot
    rows over d are the reduced echelon form (Nakos, Turner & Williams
    1997).
    """
    rows = len(m)
    ints = all(type(x) is int for row in m for x in row)
    pivots = []
    sign, prev, inv = 1, 1, Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if not scalar_is_zero(m[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        lo = 0 if reduce else c + 1
        top, p = m[r][lo:], m[r][c]
        scaled_p = None if ints else p * inv
        for i in range(0 if reduce else r + 1, rows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if ints:
                row[lo:] = [(p * x - f * y) // prev for x, y in zip(row[lo:], top)]
            else:
                g = f * inv
                row[lo:] = [scaled_p * x - g * y for x, y in zip(row[lo:], top)]
        prev = p
        if not ints:
            inv = _inv_scalar(p)
        pivots.append(c)
    return pivots, sign


def _rows(a):
    """(rows, den) to run _bareiss on: each row of a as scalars._int_coeffs
    gives it, integers over the lcm of its own denominators for an
    all-Fraction row and the row itself over 1 otherwise, and den the
    product of those lcms.  Row scaling changes neither the pivots, nor the
    kernel, nor the reduced echelon form, and keeps the integers of rows
    with unlike denominators smaller than one D for the whole matrix
    would."""
    forms = [_int_coeffs(row) for row in a]
    return [row for row, _ in forms], prod(d for _, d in forms)


def _bareiss_det(m):
    """Determinant of the square matrix m (consumed) by _bareiss: the sign
    times the last pivot; None when a column has no pivot."""
    pivots, sign = _bareiss(m, len(m))
    if len(pivots) < len(m):
        return None
    if not m:
        return 1
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def det(a):
    """Determinant by _bareiss on the rows of _rows, over the product of
    their denominators at the end."""
    m, den = _rows(a)
    out = _bareiss_det(m)
    return Fraction(0) if out is None else _over(out, den)


def int_det(m) -> int:
    """Determinant of a square matrix of Python ints, by _bareiss."""
    out = _bareiss_det([row[:] for row in m])
    return 0 if out is None else out


def mat_inverse(a):
    """Exact inverse, the right half of the reduced echelon form of [a | I];
    raises NotInvertibleError unless its pivots are the columns of a."""
    n = len(a)
    m, _ = _rows([list(row) + irow for row, irow in zip(a, identity(n))])
    if _bareiss(m, 2 * n, reduce=True)[0] != list(range(n)):
        raise NotInvertibleError("matrix is singular")
    return _divided([row[n:] for row in m], m[-1][n - 1] if n else 1)


def reduced_echelon(a):
    """(pivot columns, R): R the nonzero rows of the reduced echelon form of
    a, from one reduced _bareiss with its last pivot d divided out.  With C
    the pivot columns of a, a = C * R."""
    m, _ = _rows(a)
    pivots, _ = _bareiss(m, len(a[0]) if a else 0, reduce=True)
    rows = m[: len(pivots)]
    return pivots, _divided(rows, rows[-1][pivots[-1]] if pivots else 1)


def _divided(rows, d):
    """rows over d: Fractions from ints, otherwise products with 1/d."""
    if type(d) is int:
        return [[Fraction(x, d) for x in row] for row in rows]
    inv = _inv_scalar(d)
    return [[x * inv for x in row] for row in rows]


def kernel_basis(a):
    """Basis of the right kernel, as vectors (lists), from reduced_echelon."""
    return _kernel_vectors(*reduced_echelon(a), len(a[0]) if a else 0)


def _kernel_vectors(pivots, r, cols):
    """The kernel basis of a matrix with cols columns and reduced echelon
    form (pivots, r): for each non-pivot column fc, the vector with 1 at fc,
    -r[i][fc] at the i-th pivot column and 0 elsewhere."""
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, c in zip(r, pivots):
            v[c] = -row[fc]
        basis.append(v)
    return basis


def charpoly(a):
    """Characteristic polynomial det(xI - a) by the Faddeev-LeVerrier
    recurrence; returns coefficients lowest degree first (exact).

    Only divisions by the integers 2..n occur, so the result is exact over
    Q and over number fields alike.  The recurrence runs on B = D*a
    (_scaled), and c_k(a) = c_k(B) / D^k.  On an integer B the c_k are
    integers, so every tr(M_k) / k is an exact '//'.
    """
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    m, den = _scaled(a)
    # Souriau/Frame recurrence: M_k = A (M_{k-1} - c_{k-1} I), c_k = tr(M_k)/k,
    # giving det(xI - A) = x^n - c_1 x^(n-1) - c_2 x^(n-2) - ... - c_n.
    cs = [Fraction(1)]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        tr = mat_trace(mk)
        ck = tr // k if type(tr) is int else tr * Fraction(1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] - ck
            mk = _mul(m, mk)
    return [_over(-cs[n - i], den ** (n - i)) for i in range(n)] + [Fraction(1)]


def power_traces(a, upto: int):
    """[tr a, tr a^2, ..., tr a^upto], from one chain of matrix products on
    B = D*a (_scaled), with tr a^k = tr B^k / D^k."""
    m, den = _scaled(a)
    out, power = [], m
    for k in range(1, upto + 1):
        if k > 1:
            power = _mul(power, m)
        out.append(_over(mat_trace(power), den**k))
    return out


def elementary_symmetric(a):
    """[e_0, e_1, ..., e_n] of the eigenvalues of a (sums of principal
    minors), from the Faddeev-LeVerrier recurrence."""
    n = len(a)
    cp = charpoly(a)
    return [cp[n - k] if k % 2 == 0 else -cp[n - k] for k in range(n + 1)]


def _series_rows(m):
    """(rows of coefficient lists, den, p) with entry (i, j) = sum_k
    rows[i][j][k] z^k / den below p, the least precision of the entries of
    the nonempty square matrix m.  Each row of m is one row of _rows: a row
    of all-Fraction coefficients holds integers over the lcm of its own
    denominators, any other row the stored scalars over 1."""
    var = m[0][0].variable
    p = min(x.precision for row in m for x in row)
    if any(x.variable != var for row in m for x in row):
        raise VariableMismatchError("series entries in more than one variable")
    if p < 1 or any(k < 0 for row in m for x in row for k in x.coeffs):
        raise ValueError("det_series_matrix needs power series known at degree 0")
    # each row of m as one row of coefficients, scaled by _rows, then cut
    # back into one list of p coefficients per entry
    zero = Fraction(0)
    flat, den = _rows([[x.coeffs.get(k, zero) for x in row for k in range(p)] for row in m])
    return [[r[k : k + p] for k in range(0, len(r), p)] for r in flat], den, p


def _series_bareiss_det(m, p: int):
    """Determinant of the square matrix m of coefficient lists over
    K[z]/(z^p), by Bareiss elimination: the pivot is the first entry at or
    below the diagonal with a nonzero constant term.  Each new entry is two
    _add_product calls into one list, and its division by the previous pivot
    is exact (Sylvester's identity): a series division by the recurrence step
    _dot, since that pivot's constant term d0 is nonzero, then '//' d0 when
    every coefficient of m is an int, otherwise a product with 1/d0.  m is
    consumed."""
    n = len(m)
    ints = all(type(x) is int for row in m for e in row for x in e)
    sign, prev = 1, None
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c][0] != 0), None)
        if piv is None:
            raise NotInvertibleError("series matrix pivot has no unit entry")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        for i in range(c + 1, n):
            row = m[i]
            f = [-x for x in row[c]]
            for j in range(c + 1, n):
                num = _add_product(_add_product([0] * p, top[c], row[j]), f, top[j])
                if prev:
                    d, rest = prev
                    for k in range(p):
                        x = num[k] - _dot(rest, num, k)
                        num[k] = x // d if ints else x * d
                row[j] = num
        # the next rows divide by this pivot: by d0 on ints, else times 1/d0
        d0 = top[c][0]
        rest = [(k, x) for k, x in enumerate(top[c]) if k and x != 0]
        prev = (d0 if ints else _inv_scalar(d0), rest)
    out = m[n - 1][n - 1]
    return [sign * x for x in out]


def det_series_matrix(m, one_series):
    """Determinant of a matrix of truncated series of the form 1 + O(z).

    The entries are cut to the least precision p among them, and a term of
    negative degree raises ValueError.  The determinant is taken by Bareiss
    elimination over K[z]/(z^p) on the coefficient lists of _series_rows
    (_series_bareiss_det), over their denominator at the end.  Pivots must
    be units (constant term nonzero).  The result is one_series times that
    determinant.
    """
    if not m:
        return one_series
    rows, den, p = _series_rows(m)
    value = {k: _over(x, den) for k, x in enumerate(_series_bareiss_det(rows, p))}
    return one_series * TruncatedLaurentSeries(m[0][0].variable, value, 0, p)
