"""Exact dense linear algebra over Q, number fields, or truncated series.

Matrices are plain lists of row lists.  Scalars only need +, -, *, equality
against 0/1 and exact inversion, so the same routines serve Fraction,
NumberFieldElement, and (for determinants of unipotent perturbations)
TruncatedLaurentSeries entries.  All of them run on one pivoting Gaussian
elimination kernel, _eliminate; the scalar type decides the pivot test
(nonzero, or a unit constant term for series) and the inverse.

When every entry is a Fraction, the hot paths run on Python ints instead and
build the rational answer once at the end (Fraction normalisation is
canonical, so the values are the same Fractions):

  det, rank,            rows scaled to integers over their lcm, then one
  column_space_basis    fraction-free Bareiss loop (_bareiss), which picks
                        the same pivots as _eliminate
  mat_mul, charpoly,    the matrix scaled once to B = D*M; products on ints,
  power_traces          Faddeev-LeVerrier on B (every tr(N_k)/k is an exact
                        integer division), results over D^k
  det_series_matrix     series entries of one precision p, min_degree >= 0:
                        Bareiss over Z[z]/(z^p) on integer coefficient lists

Number-field entries, and series with other coefficients or shapes, take the
generic _eliminate path.  kernel_basis, mat_inverse and solve_columns always
do.
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


def _int_rows(a):
    """(integer rows, their denominators) with a[i] = rows[i] / dens[i], each
    row over the lcm of its own denominators; None unless every entry of a
    is a Fraction."""
    if not _is_rational(a):
        return None
    pairs = [_int_coeffs(row) for row in a]
    return [row for row, _ in pairs], [d for _, d in pairs]


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


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if not scalar_is_zero(x)), 0) for row in a]


def mat_trace(a):
    n = len(a)
    if n == 0:
        return Fraction(0)
    s = a[0][0]
    for i in range(1, n):
        s = s + a[i][i]
    return s


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, TruncatedLaurentSeries) else scalar_is_zero(x)


def _is_unit(x) -> bool:
    """Pivot test: a nonzero field scalar, or a series whose constant term
    is nonzero."""
    if isinstance(x, TruncatedLaurentSeries):
        x = x.coefficient(0)
    return not scalar_is_zero(x)


def _inv(x):
    return series_inv(x) if isinstance(x, TruncatedLaurentSeries) else _inv_scalar(x)


def _eliminate(m, ncols: int, reduce: bool = False):
    """Gaussian elimination on the rows of m, in place, over its first ncols
    columns; returns (pivot columns, sign of the row permutation).

    A column with no unit (_is_unit) at or below the current row is passed
    over.  Otherwise the first such entry is swapped up and its row clears
    the column below it; with reduce=True the pivot row is first scaled to a
    unit pivot and clears the column above it too (reduced echelon form).
    """
    rows = len(m)
    pivots = []
    sign = 1
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
        inv = _inv(m[r][c])
        if reduce:
            m[r] = [inv * x for x in m[r]]
        for i in range(0 if reduce else r + 1, rows):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c] if reduce else m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, sign


def _bareiss(m, ncols: int):
    """Fraction-free elimination (Bareiss 1968) of the integer rows m, in
    place, over its first ncols columns; returns (pivot columns, sign of the
    row permutation).

    Pivots are found as in _eliminate: the first nonzero entry at or below
    the current row, swapped up.  Every row below is replaced by
    (pivot * row - entry * pivot row) / previous pivot, an exact division
    (each entry is then a minor of m), so the last pivot of a square matrix
    of full rank is its determinant up to the sign.
    """
    rows = len(m)
    pivots = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r][c + 1 :]
        p = m[r][c]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], top)]
            row[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign


def int_det(m) -> int:
    """Determinant of a square matrix of Python ints, by _bareiss."""
    m = [row[:] for row in m]
    pivots, sign = _bareiss(m, len(m))
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


def _det(a, one):
    """one times the determinant of a; None when a column has no pivot."""
    m = [row[:] for row in a]
    pivots, sign = _eliminate(m, len(m))
    if len(pivots) < len(m):
        return None
    out = one if sign > 0 else -one
    for i, row in enumerate(m):
        out = out * row[i]
    return out


def det(a):
    """Determinant by exact Gaussian elimination (field scalars); integer
    Bareiss over the row denominators on all-Fraction input."""
    ints = _int_rows(a)
    if ints is not None:
        rows, dens = ints
        return Fraction(int_det(rows), prod(dens))
    out = _det(a, Fraction(1))
    return Fraction(0) if out is None else out


def mat_inverse(a):
    """Exact inverse; raises NotInvertibleError on singular input."""
    n = len(a)
    m = [row[:] + irow for row, irow in zip(a, identity(n))]
    if len(_eliminate(m, n, reduce=True)[0]) < n:
        raise NotInvertibleError("matrix is singular")
    return [row[n:] for row in m]


def bareiss_echelon(a):
    """Row echelon form in Bareiss's fraction-free normalisation; returns
    (echelon rows, pivot columns).

    Row r is the Gaussian row times the previous Bareiss pivot, so over an
    integral domain every entry is a minor of a.
    """
    m = [row[:] for row in a]
    pivots, _ = _eliminate(m, len(m[0]) if m else 0)
    scale = 1
    for r, c in enumerate(pivots):
        m[r] = [scale * x for x in m[r]]
        scale = m[r][c]
    return m[: len(pivots)], pivots


def _pivot_columns(a):
    ints = _int_rows(a)
    if ints is None:
        return bareiss_echelon(a)[1]
    return _bareiss(ints[0], len(a[0]) if a else 0)[0]


def rank(a) -> int:
    return len(_pivot_columns(a))


def column_space_basis(a):
    """Basis of the column span, as column vectors (lists)."""
    return [[row[c] for row in a] for c in _pivot_columns(a)]


def kernel_basis(a):
    """Basis of the right kernel, as vectors (lists)."""
    m = [row[:] for row in a]
    cols = len(m[0]) if m else 0
    pivots, _ = _eliminate(m, cols, reduce=True)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[fc]
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
    aug = [list(row) for row in zip(*basis_cols, *targets)]
    if len(_eliminate(aug, k, reduce=True)[0]) < k:
        raise NotInvertibleError("basis columns are dependent")
    if any(not scalar_is_zero(x) for row in aug[k:] for x in row[k:]):
        raise NotInvertibleError("target vector outside the span")
    return [row[k:] for row in aug[:k]]


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
    Z[z]/(z^p), by Bareiss elimination with the pivot test of _eliminate (a
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
    Bareiss on integer coefficient lists; the result is one_series times
    that determinant, as on the generic path.
    """
    ints = _series_rows(m)
    if ints is not None:
        rows, den, p = ints
        cs = _series_bareiss_det(rows, p)
        var = m[0][0].variable
        value = {k: Fraction(x, den) for k, x in enumerate(cs) if x}
        return one_series * TruncatedLaurentSeries(var, value, 0, p)
    out = _det(m, one_series)
    if out is None:
        raise NotInvertibleError("series matrix pivot has no unit entry")
    return out
