"""Trace and determinant of finite potent operators, by several independent
routes that must agree exactly:

  ast               det(1 + core) on the Fitting core
  exterior          1 + sum of exterior-power traces (principal minors)
  charpoly          (-1)^N * charpoly(M)(-1) for the N x N certificate block M
  plemelj_smithies  sum mu^m alpha_m/m! with alpha_m a determinant in the
                    power traces
  logdet            exp of the power-sum log series

Everything is exact; eigenvalues are never extracted (each eigenvalue
statement is recast as a characteristic-polynomial coefficient identity).
Like Tate's trace, det(1 + phi) can be taken on any finite invariant subspace
containing phi^n(V), so all but tate_trace and the ast route read the
certificate block and leave the Fitting split (lift_ast) to those two.
In det_routes, exterior and charpoly are two sums over one Faddeev-LeVerrier
charpoly, Plemelj-Smithies and logdet read one list of power traces (the
tail is nilpotent, so its powers are traceless), and the ast route (Fitting
core) and det_one_plus (the Bareiss det(1 + M)) stand alone.

On a block over Q every route runs on the integer kernels of matrices: the
Bareiss det (det_one_plus, the ast route, the Plemelj-Smithies minors), the
integer Faddeev-LeVerrier charpoly and the integer power traces.  The routes
stay independent: the power traces come from matrix powers, not from the
charpoly by Newton's identities.  Number-field blocks run the same
elimination loop and the generic product loop on their own scalars.
Every scalar result passes through scalars.canonical (polynomials and
series through their constructors): a rational value is a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertibleError
from .fitting import fitting, lift_ast
from .matrices import (
    charpoly,
    det,
    elementary_symmetric,
    mat_inverse,
    mat_trace,
    power_traces,
)
from .operators import (
    FinitePotentOperator,
    SparseOperator,
    certify_finite_potent,
    op_add,
    op_compose,
)
from .polynomials import Polynomial
from .scalars import NumberFieldElement, canonical, scalar_is_zero
from .series import TruncatedLaurentSeries, series_exp


@dataclass(frozen=True)
class DetResult:
    value: object
    route: str


def tate_trace(phi: FinitePotentOperator):
    """Trace of the invariant-core restriction (nilpotent part contributes 0)."""
    return canonical(mat_trace(lift_ast(phi).core_matrix))


def _block(phi: FinitePotentOperator):
    """phi restricted to the certificate's invariant subspace W >= phi^n(V)."""
    return [list(row) for row in certify_finite_potent(phi).matrix]


def _one_plus(m):
    """1 + m for a square matrix m, added on the diagonal only."""
    return [[*row[:p], Fraction(1) + row[p], *row[p + 1 :]] for p, row in enumerate(m)]


def det_one_plus(phi: FinitePotentOperator):
    """det(1 + phi) = det(1 + phi|W) on the certificate block."""
    return canonical(det(_one_plus(_block(phi))))


def _core_symmetric(es):
    """[e_0, ..., e_N] of a certificate block cut at its core dimension n:
    the nilpotent part only appends zeros."""
    es = list(es)
    while scalar_is_zero(es[-1]):
        es.pop()
    return es


def exterior_trace(phi: FinitePotentOperator, r: int):
    """Trace of the induced map on the r-th exterior power: the r-th
    elementary symmetric value (sum of r x r principal minors).  Zero for r
    beyond the core dimension; for r = 1 an independent check of
    tate_trace, which runs on the Fitting core."""
    if r < 1:
        raise ValueError("exterior power index must be >= 1")
    es = _core_symmetric(elementary_symmetric(_block(phi)))
    return canonical(es[r]) if r < len(es) else Fraction(0)


def det_poly(phi: FinitePotentOperator) -> Polynomial:
    """det(1 + mu*phi) as an exact polynomial in mu."""
    return Polynomial(_core_symmetric(elementary_symmetric(_block(phi))))


def char_poly(matrix) -> Polynomial:
    """Exact characteristic polynomial det(xI - M), lowest degree first."""
    return Polynomial(charpoly(matrix))


def _plemelj_smithies_coeffs(traces):
    """sum_{m<=order} mu^m alpha_m/m!, with alpha_m the m x m determinant

        | p_1   m-1    0   ...   0  |
        | p_2   p_1   m-2  ...   0  |
        | ...                  ...  |
        | p_m  p_{m-1} ...      p_1 |

    built from the power traces [p_1, ..., p_order], as a list (number
    fields included)."""
    coeffs = [Fraction(1)]
    fact = 1
    for m in range(1, len(traces) + 1):
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                if j <= i:
                    row.append(traces[i - j])
                elif j == i + 1:
                    row.append(Fraction(m - 1 - i))
                else:
                    row.append(Fraction(0))
            rows.append(row)
        fact *= m
        coeffs.append(det(rows) * Fraction(1, fact))
    return coeffs


def plemelj_smithies_series(phi: FinitePotentOperator, order: int) -> Polynomial:
    """_plemelj_smithies_coeffs as a Polynomial.  Coincides with det_poly,
    with alpha_m = 0 beyond the core dimension."""
    block = _block(phi)
    if order < 0:
        raise ValueError("order must be >= 0")
    return Polynomial(_plemelj_smithies_coeffs(power_traces(block, order)))


def log_det_series(phi: FinitePotentOperator, prec: int) -> TruncatedLaurentSeries:
    """exp of the power-sum series sum_r (-1)^(r+1) p_r mu^r / r; agrees
    with det_poly to the requested precision."""
    return _log_det(power_traces(_block(phi), max(0, prec - 1)), prec)


def _log_det(traces, prec: int) -> TruncatedLaurentSeries:
    """log_det_series from the power traces [p_1, ..., p_(prec-1)]."""
    terms = {
        r: Fraction((-1) ** (r + 1), r) * traces[r - 1] for r in range(1, prec)
    }
    log_series = TruncatedLaurentSeries.from_terms("mu", terms, prec, 0)
    return series_exp(log_series)


def regularized_det_series(
    phi: FinitePotentOperator, m: int, prec: int
) -> TruncatedLaurentSeries:
    """det_poly with mu -> -mu, times exp(sum_{j<m} p_j mu^j / j); m = 2 is
    the Carleman-Fredholm normalization.  Terms of degree prec or more vanish
    mod mu^prec, so only the power traces below min(m, prec) and the
    coefficients of det_poly below prec are taken."""
    if m < 2:
        raise ValueError("regularization order must be >= 2")
    block = _block(phi)
    es = _core_symmetric(elementary_symmetric(block))
    base = TruncatedLaurentSeries.from_terms(
        "mu",
        {i: c * Fraction((-1) ** i) for i, c in enumerate(es[:prec])},
        prec,
        0,
    )
    top = min(m, prec)
    traces = power_traces(block, top - 1)
    expo = TruncatedLaurentSeries.from_terms(
        "mu",
        {j: traces[j - 1] * Fraction(1, j) for j in range(1, top)},
        prec,
        0,
    )
    return base * series_exp(expo)


def invert_one_plus(phi: FinitePotentOperator) -> FinitePotentOperator:
    """psi with (1 + phi)(1 + psi) = (1 + psi)(1 + phi) = 1.

    Assembled from the exact inverse on the finite block and the terminating
    geometric series on the tail; the composition is verified before
    returning."""
    if scalar_is_zero(det_one_plus(phi)):
        raise NotInvertibleError("det(1 + phi) = 0; 1 + phi is not invertible")
    support = sorted(phi.finite_part.support())
    n = len(support)
    inv = mat_inverse(_one_plus(phi.finite_part.block(support)))
    entries = {(support[r], support[c]): inv[r][c] - (1 if r == c else 0)
               for r in range(n) for c in range(n)}
    # (1 + T)^{-1} - 1 = sum_{k>=1} (-T)^k, terminating at the block size
    tail = power = neg = phi.tail.scale(Fraction(-1))
    for _ in range(phi.tail.nilpotency_degree() - 1):
        power = power.compose(neg)
        tail = tail.add(power)
    psi = FinitePotentOperator(SparseOperator(entries), tail)
    check = op_add(op_add(phi, psi), op_compose(phi, psi))
    if not check.is_zero():
        raise NotInvertibleError("inverse verification failed")
    return psi


def restrict_scalars(phi: FinitePotentOperator) -> FinitePotentOperator:
    """Replace each number-field entry by its regular-representation block
    over Q; basis index i becomes the block [d*i, d*i + d).  Requires
    1 + phi invertible and no tail (a tail's blow-up is a shift by d, which
    the tail type cannot express)."""
    if phi.has_tail():
        raise NotInvertibleError("restriction of scalars needs a tail-free operator")
    value = det_one_plus(phi)
    if scalar_is_zero(value):
        raise NotInvertibleError("1 + phi must be invertible for restriction")
    field = None
    for c in phi.finite_part.entries.values():
        if isinstance(c, NumberFieldElement):
            field = c.field
            break
    if field is None:
        return phi  # already rational
    d = field.degree
    entries = {}
    for (i, j), c in phi.finite_part.entries.items():
        if not isinstance(c, NumberFieldElement):
            c = field.element([c])
        block = c.regular_matrix()
        for r in range(d):
            for s in range(d):
                if not scalar_is_zero(block[r][s]):
                    entries[(d * i + r, d * j + s)] = block[r][s]
    return FinitePotentOperator(SparseOperator(entries))


def wedge_scaling_check(phi: FinitePotentOperator, m: int):
    """det of (1 + phi) on the span of the first m basis vectors: the
    certificate block followed by whole tail blocks.  Stable in m: every
    admissible m returns det_one_plus(phi)."""
    w = certify_finite_potent(phi).indices
    extra = m - len(w)
    if extra < 0:
        raise ValueError("m must cover the invariant block (>= %d)" % len(w))
    if phi.has_tail():
        b = phi.tail.block_size
        if extra % b != 0:
            raise ValueError("m must align with whole tail blocks of size %d" % b)
    elif extra != 0:
        raise ValueError("no tail: m must equal the invariant block size %d" % len(w))
    # tail blocks: e_(start + q) sits at len(w) + q
    indices = [*w, *range(phi.tail.start_index, phi.tail.start_index + extra)]
    block = phi.finite_part.add(phi.tail.on(indices)).block(indices)
    return canonical(det(_one_plus(block)))


def det_routes(phi: FinitePotentOperator):
    """All determinant routes as DetResult records (they must agree).  Each
    is summed from coefficient lists, so number-field entries work too."""
    block = _block(phi)
    ast = fitting(block)
    n = ast.core_dim
    value_ast = det(_one_plus(ast.core_matrix))
    es = elementary_symmetric(block)
    value_ext = sum(_core_symmetric(es)[1:], Fraction(1))
    # det(1 + M) = (-1)^N charpoly(-1) = e_N + ... + e_0 for the N x N block M
    value_cp = sum(reversed(es), Fraction(0))
    traces = power_traces(block, n + 1)
    value_ps = sum(_plemelj_smithies_coeffs(traces), Fraction(0))
    value_ld = sum(_log_det(traces, n + 2).coeffs.values(), Fraction(0))
    values = (value_ast, value_ext, value_cp, value_ps, value_ld)
    routes = ("ast", "exterior", "charpoly", "plemelj_smithies", "logdet")
    return tuple(DetResult(canonical(v), r) for v, r in zip(values, routes))


def routes_agree(phi: FinitePotentOperator) -> bool:
    results = det_routes(phi)
    first = results[0].value
    return all(r.value == first for r in results[1:])
