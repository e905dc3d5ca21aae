"""Exact dense linear algebra over Q, number fields, or truncated series.

Matrices are plain lists of row lists.  Scalars only need +, -, *, equality
against 0 and exact inversion, so the same routines serve Fraction,
NumberFieldElement, and (for determinants of unipotent perturbations)
TruncatedLaurentSeries entries.

Every elimination runs on one fraction-free loop, _bareiss (Bareiss 1968):
det, rank, column_space_basis, kernel_basis, solve_columns, mat_inverse and
the generic branch of det_series_matrix.  The pivot is the first unit at or
below the current row (a nonzero scalar, or a series with a nonzero
constant term), and every other row becomes (pivot * row - entry * pivot
row) / previous pivot, an exact division: '//' on ints, a product with the
inverse of the previous pivot otherwise.  The Gauss-Jordan form leaves d
times the reduced echelon form, d the last pivot (Nakos, Turner & Williams
1997), which kernel_basis, solve_columns and mat_inverse divide out once.

On all-Fraction input the loop runs on Python ints: each row is scaled to
integers over the lcm of its denominators, which changes neither the
pivots, nor the kernel, nor the reduced echelon form, and the rational
answer is built once at the end (Fraction normalisation is canonical, so
the values are the same Fractions).  The other Q kernels also run on ints:

  mat_mul, charpoly,    the matrix scaled once to B = D*M; products on ints,
  power_traces          Faddeev-LeVerrier on B (every tr(N_k)/k is an exact
                        integer division), results over D^k
  det_series_matrix     series entries of one precision p, min_degree >= 0:
                        Bareiss over Z[z]/(z^p) on integer coefficient lists

Number-field entries, and series with other coefficients or shapes, run the
same loops on their own scalars.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .errors import NotInvertibleError
from .scalars import _int_coeffs, scalar_is_zero
from .series import TruncatedLaurentSeries, _inv_scalar, series_inv


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _is_rational(a) -> bool:
    return all(type(x) is Fraction for row in a for x in row)


def _scaled(a):
    """(B, D) with a = B / D for the least integer D; None unless every
    entry of a is a Fraction."""
    if not _is_rational(a):
        return None
    d = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def _int_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_mul(a, b):
    scaled_a = _scaled(a)
    scaled_b = scaled_a and _scaled(b)
    if scaled_b:
        (ia, da), (ib, db) = scaled_a, scaled_b
        den = da * db
        return [[Fraction(x, den) for x in row] for row in _int_mul(ia, ib)]
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            s = 0
            for p in range(k):
                x = ai[p]
                if not scalar_is_zero(x):
                    s = s + x * b[p][j]
            row.append(s)
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_trace(a):
    n = len(a)
    if n == 0:
        return Fraction(0)
    s = a[0][0]
    for i in range(1, n):
        s = s + a[i][i]
    return s


def _is_unit(x) -> bool:
    """Pivot test: a nonzero field scalar, or a series whose constant term
    is nonzero."""
    if isinstance(x, TruncatedLaurentSeries):
        x = x.coefficient(0)
    return not scalar_is_zero(x)


def _inv(x):
    return series_inv(x) if isinstance(x, TruncatedLaurentSeries) else _inv_scalar(x)


def _bareiss(m, ncols: int, reduce: bool = False):
    """Fraction-free elimination (Bareiss 1968) of the rows of m, in place,
    over its first ncols columns; returns (pivot columns, sign of the row
    permutation).

    A column with no unit (_is_unit) at or below the current row is passed
    over.  Otherwise the first such entry p is swapped up, and every row
    below it (with reduce=True, every other row) becomes
    (p * row - entry * pivot row) / previous pivot.  The division is exact,
    since each entry is then a minor of m (Sylvester's identity): '//' on a
    matrix of ints, otherwise p and entry are first multiplied by the
    inverse of the previous pivot, a unit.  So the last pivot of a square
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
        piv = next((i for i in range(r, rows) if _is_unit(m[i][c])), None)
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
            inv = _inv(p)
        pivots.append(c)
    return pivots, sign


def _rows(a):
    """(rows, den) to run _bareiss on: on all-Fraction input, integer rows,
    each row of a over the lcm of its own denominators, and den the product
    of those lcms; otherwise a copy of a and den None.  Row scaling changes
    neither the pivots, nor the kernel, nor the reduced echelon form."""
    if not _is_rational(a):
        return [list(row) for row in a], None
    pairs = [_int_coeffs(row) for row in a]
    return [row for row, _ in pairs], prod(d for _, d in pairs)


def _divide_by(d):
    """x -> x / d: a Fraction for an int d, else a product with 1/d."""
    if type(d) is int:
        return lambda x: Fraction(x, d)
    inv = _inv(d)
    return lambda x: x * inv


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
    """Determinant by _bareiss; over Q on integer rows, divided at the end
    by the product of the row denominators."""
    m, den = _rows(a)
    out = _bareiss_det(m)
    if out is None:
        return Fraction(0)
    return out if den is None else Fraction(out, den)


def int_det(m) -> int:
    """Determinant of a square matrix of Python ints, by _bareiss."""
    out = _bareiss_det([row[:] for row in m])
    return 0 if out is None else out


def mat_inverse(a):
    """Exact inverse, from the reduced echelon form of [a | I]; raises
    NotInvertibleError on singular input."""
    n = len(a)
    m, _ = _rows([row[:] + irow for row, irow in zip(a, identity(n))])
    if len(_bareiss(m, n, reduce=True)[0]) < n:
        raise NotInvertibleError("matrix is singular")
    over = _divide_by(m[-1][n - 1] if n else 1)
    return [[over(x) for x in row[n:]] for row in m]


def _pivot_columns(a):
    return _bareiss(_rows(a)[0], len(a[0]) if a else 0)[0]


def rank(a) -> int:
    return len(_pivot_columns(a))


def column_space_basis(a):
    """Basis of the column span, as column vectors (lists)."""
    return [[row[c] for row in a] for c in _pivot_columns(a)]


def kernel_basis(a):
    """Basis of the right kernel, as vectors (lists), one per non-pivot
    column of the reduced echelon form."""
    m, _ = _rows(a)
    cols = len(m[0]) if m else 0
    pivots, _ = _bareiss(m, cols, reduce=True)
    over = _divide_by(m[len(pivots) - 1][pivots[-1]] if pivots else 1)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = over(-row[fc])
        basis.append(v)
    return basis


def solve_columns(basis_cols, targets):
    """Coordinates of each target vector in the span of basis_cols.

    basis_cols: list of independent column vectors (length n each);
    targets: list of column vectors in their span.  Returns the coordinate
    matrix C with target[j] = sum_i C[i][j] * basis_cols[i].
    """
    if not basis_cols:
        if any(any(not scalar_is_zero(x) for x in t) for t in targets):
            raise NotInvertibleError("target outside the span of an empty basis")
        return []
    k = len(basis_cols)
    aug, _ = _rows(list(zip(*basis_cols, *targets)))
    if len(_bareiss(aug, k, reduce=True)[0]) < k:
        raise NotInvertibleError("basis columns are dependent")
    if any(not scalar_is_zero(x) for row in aug[k:] for x in row[k:]):
        raise NotInvertibleError("target vector outside the span")
    over = _divide_by(aug[k - 1][k - 1])
    return [[over(x) for x in row[k:]] for row in aug[:k]]


def charpoly(a):
    """Characteristic polynomial det(xI - a) by the Faddeev-LeVerrier
    recurrence; returns coefficients lowest degree first (exact).

    Only divisions by the integers 2..n occur, so the result is exact over
    Q and over number fields alike.  Over Q the recurrence runs on the
    integer matrix B = D*a, whose coefficients c_k are integers, and
    c_k(a) = c_k(B) / D^k.
    """
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    scaled = _scaled(a)
    m, den = scaled if scaled else (a, None)
    # Souriau/Frame recurrence: M_k = A (M_{k-1} - c_{k-1} I), c_k = tr(M_k)/k,
    # giving det(xI - A) = x^n - c_1 x^(n-1) - c_2 x^(n-2) - ... - c_n.
    cs = [Fraction(1)]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = mat_trace(mk) // k if den else mat_trace(mk) * Fraction(1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] - ck
            mk = _int_mul(m, mk) if den else mat_mul(m, mk)
    out = [Fraction(0)] * (n + 1)
    out[n] = Fraction(1)
    for k in range(1, n + 1):
        out[n - k] = Fraction(-cs[k], den**k) if den else -cs[k]
    return out


def power_traces(a, upto: int):
    """[tr a, tr a^2, ..., tr a^upto], from a chain of matrix products; over
    Q on the integer matrix B = D*a, with tr a^k = tr B^k / D^k."""
    scaled = _scaled(a)
    if scaled is None:
        out, power = [], identity(len(a))
        for _ in range(upto):
            power = mat_mul(power, a)
            out.append(mat_trace(power))
        return out
    b, den = scaled
    out, power = [], b
    for k in range(1, upto + 1):
        if k > 1:
            power = _int_mul(power, b)
        out.append(Fraction(mat_trace(power), den**k))
    return out


def elementary_symmetric(a):
    """[e_0, e_1, ..., e_n] of the eigenvalues of a (sums of principal
    minors), from the Faddeev-LeVerrier recurrence."""
    n = len(a)
    cp = charpoly(a)
    return [cp[n - k] if k % 2 == 0 else -cp[n - k] for k in range(n + 1)]


def _series_rows(m):
    """(rows of integer coefficient lists, denominator, precision p) with
    entry (i, j) = sum_k rows[i][j][k] z^k / den, each row over the lcm of
    its own coefficient denominators; None unless m is a nonempty square
    matrix of series in one variable, all of precision p, min_degree >= 0
    and Fraction coefficients."""
    if not m or not all(type(x) is TruncatedLaurentSeries for row in m for x in row):
        return None
    first = m[0][0]
    p, var = first.precision, first.variable
    if not all(
        x.precision == p and x.variable == var and x.min_degree >= 0
        and all(type(c) is Fraction for c in x.coeffs.values())
        for row in m for x in row
    ):
        return None
    rows, den = [], 1
    for row in m:
        d = lcm(*(c.denominator for x in row for c in x.coeffs.values()))
        out = []
        for x in row:
            cs = [0] * p
            for k, c in x.coeffs.items():
                cs[k] = c.numerator * (d // c.denominator)
            out.append(cs)
        rows.append(out)
        den *= d
    return rows, den, p


def _series_bareiss_det(m, p: int):
    """Determinant of the square matrix m of integer coefficient lists, over
    Z[z]/(z^p), by Bareiss elimination with the pivot test of _bareiss (a
    nonzero constant term).  Each division by the previous pivot is exact
    (Sylvester's identity) and is done as a series division, since that
    pivot's constant term is nonzero.  m is consumed."""
    n = len(m)
    sign, prev = 1, None
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c][0]), None)
        if piv is None:
            raise NotInvertibleError("series matrix pivot has no unit entry")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        pc = [(k, x) for k, x in enumerate(top[c]) if x]
        for i in range(c + 1, n):
            row = m[i]
            f = [(k, x) for k, x in enumerate(row[c]) if x]
            for j in range(c + 1, n):
                num, x, y = [0] * p, row[j], top[j]
                for k, a in pc:
                    for q in range(p - k):
                        num[k + q] += a * x[q]
                for k, a in f:
                    for q in range(p - k):
                        num[k + q] -= a * y[q]
                if prev:
                    d0, rest = prev
                    for k in range(p):
                        acc = num[k]
                        for q, a in rest:
                            if q > k:
                                break
                            acc -= a * num[k - q]
                        num[k] = acc // d0
                row[j] = num
        prev = (pc[0][1], pc[1:])
    out = m[n - 1][n - 1]
    return [sign * x for x in out]


def det_series_matrix(m, one_series):
    """Determinant of a matrix of truncated series of the form 1 + O(z).

    Pivots must be units (constant term nonzero), so elimination with series
    inversion is exact to the working precision.  Series of one precision p
    with min_degree >= 0 and Fraction coefficients take fraction-free
    Bareiss on integer coefficient lists, other series _bareiss; the result
    is one_series times that determinant.
    """
    ints = _series_rows(m)
    if ints is not None:
        rows, den, p = ints
        cs = _series_bareiss_det(rows, p)
        var = m[0][0].variable
        value = {k: Fraction(x, den) for k, x in enumerate(cs) if x}
        return one_series * TruncatedLaurentSeries(var, value, 0, p)
    if not m:
        return one_series
    out = _bareiss_det([row[:] for row in m])
    if out is None:
        raise NotInvertibleError("series matrix pivot has no unit entry")
    return one_series * out
