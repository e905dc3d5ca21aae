"""Exact dense linear algebra over Q, number fields, or truncated series.

Matrices are plain lists of row lists.  Scalars only need +, -, *, equality
against 0/1 and exact inversion, so the same routines serve Fraction,
NumberFieldElement, and (for determinants of unipotent perturbations)
TruncatedLaurentSeries entries.  All of them run on one pivoting Gaussian
elimination kernel, _eliminate; the scalar type decides the pivot test
(nonzero, or a unit constant term for series) and the inverse.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertibleError
from .scalars import scalar_is_zero
from .series import TruncatedLaurentSeries, _inv_scalar, series_inv


def identity(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
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
    """Determinant by exact Gaussian elimination (field scalars)."""
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


def rank(a) -> int:
    return len(bareiss_echelon(a)[1])


def column_space_basis(a):
    """Basis of the column span, as column vectors (lists)."""
    return [[row[c] for row in a] for c in bareiss_echelon(a)[1]]


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
    Q and over number fields alike.
    """
    n = len(a)
    if n == 0:
        return [Fraction(1)]
    # Souriau/Frame recurrence: M_k = A (M_{k-1} - c_{k-1} I), c_k = tr(M_k)/k,
    # giving det(xI - A) = x^n - c_1 x^(n-1) - c_2 x^(n-2) - ... - c_n.
    cs = [Fraction(1)]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = mat_trace(mk) * Fraction(1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] - ck
            mk = mat_mul(a, mk)
    out = [Fraction(0)] * (n + 1)
    out[n] = Fraction(1)
    for k in range(1, n + 1):
        out[n - k] = -cs[k]
    return out


def elementary_symmetric(a):
    """[e_0, e_1, ..., e_n] of the eigenvalues of a (sums of principal
    minors), from the Faddeev-LeVerrier recurrence."""
    n = len(a)
    cp = charpoly(a)
    return [cp[n - k] if k % 2 == 0 else -cp[n - k] for k in range(n + 1)]


def det_series_matrix(m, one_series):
    """Determinant of a matrix of truncated series of the form 1 + O(z).

    Pivots must be units (constant term nonzero), so elimination with series
    inversion is exact to the working precision.
    """
    out = _det(m, one_series)
    if out is None:
        raise NotInvertibleError("series matrix pivot has no unit entry")
    return out
