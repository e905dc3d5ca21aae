"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity by a route the library does not use:
cofactor determinants, explicit principal-minor sums, the
derivative-formula residue at a generic root of the place polynomial, the
Fitting split at the exponent d = dimension, sparse operator arithmetic
as a generic loop over the stored scalars, dense elimination by pivoting
Gaussian elimination with unit pivots (_eliminate), the generic product,
power-trace, convolution and series-determinant loops finpot once ran
beside its integer kernels, the series product as a double loop over
stored terms, local expansions by Newton lifting and series division and
their resummation, with the series inverse recurrence that finpot once
exported beside LocalExpansion.resum, the field trace from Newton's power
sums of the modulus's roots, as finpot took it before it read the trace
off the multiplication matrix, the irreducible places by sympy's
factoring, which finpot ran before it took places as
squarefree divisors, reciprocity as the loop over those places that
finpot ran before it summed residues over squarefree parts, products of
operator exponentials as a chain of full operator-series products, and
series determinants on the stored or closed cores and the content box
finpot used before it read the core off the series terms, the windowed
half-space model, whose truncated multiplication operators finpot took
before it took exact compressions, the truncated
loop pairing on a finite stage, as finpot computed it before it took the
corner from Widom's identity, the exp recurrence and the pairing's cutoff
sizing on Fractions, as finpot ran them before it ran both on integers,
the pairing's rounded corner determinant from the exact int_det, as finpot
took it before it certified the rounding from a fixed-point LU, the
action of an operator and of a composition from the stored finite entries
and the tail's image_of, without the tail.on and block views, and the
number-field product as a Fraction product of coefficient lists reduced
by polynomial division, as finpot formed it before it ran on integer
numerators, the finite-potency certificate checked by brute force on
a span of basis vectors, which finpot once exported, and Q[t] division,
gcd, rational-function normalisation, split_power, Yun's squarefree
decomposition and the coprime basis as the Fraction loops finpot ran
before it moved them onto primitive integer lists.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil

from finpot.errors import SeriesDomainError
from finpot.matrices import int_det
from finpot.places import LocalExpansion
from finpot.polynomials import Polynomial
from finpot.scalars import (NumberField, NumberFieldElement, _int_coeffs, _poly_divmod, _poly_mul,
                            scalar_is_zero)
from finpot.segal_wilson import _RADII, exp_symbol
from finpot.series import TruncatedLaurentSeries


def det_cofactor(m):
    """Recursive cofactor expansion (small matrices only)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total if total != 0 else Fraction(0)


def principal_minor_sum(m, r):
    """Sum of all r x r principal minors, by explicit enumeration."""
    n = len(m)
    if r > n:
        return Fraction(0)
    total = Fraction(0)
    for idx in combinations(range(n), r):
        sub = [[m[i][j] for j in idx] for i in idx]
        total += det_cofactor(sub)
    return total


# -- residue at a generic root ------------------------------------------------
#
# kappa-polynomials are plain coefficient lists (lowest first) over the
# residue field; scalars are Fractions (degree-1 place) or field elements.


def _kp_trim(p):
    p = list(p)
    while p and (p[-1] == 0 if not isinstance(p[-1], NumberFieldElement) else p[-1].is_zero()):
        p.pop()
    return p


def _kp_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _kp_trim(out)


def _kp_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x - y)
    return _kp_trim(out)


def _kp_deriv(p):
    return _kp_trim([i * c for i, c in enumerate(p)][1:])


def _kp_eval(p, x):
    out = 0
    for c in reversed(p):
        out = out * x + c
    return out


def _kp_divide_linear(p, theta):
    """Synthetic division of p by (t - theta): (quotient, remainder)."""
    acc = None
    horner = []
    for c in reversed(p):
        acc = c if acc is None else c + theta * acc
        horner.append(acc)
    return _kp_trim(list(reversed(horner[:-1]))), horner[-1]


def residue_generic_root(f, g, place):
    """res_p(f dg) = Tr(res_{t=theta}(f g' dt)) with theta a generic root of
    the place polynomial, via the derivative formula for a pole of order m:
    res = (n/h)^{(m-1)}(theta) / (m-1)!  where den = (t-theta)^m h."""
    omega = f * g.derivative()
    if omega.is_zero():
        return Fraction(0)
    if place.is_infinity():
        raise ValueError("oracle covers finite places")
    pi = place.minimal_poly
    if place.degree == 1:
        theta = -pi.coeffs[0]
        to_k = lambda c: Fraction(c)
        trace = lambda c: Fraction(c)
    else:
        field = place.field
        theta = field.generator()
        to_k = lambda c: field.element([c])
        trace = field_trace_newton
    num = [to_k(c) for c in omega.num.coeffs]
    den = [to_k(c) for c in omega.den.coeffs]
    m = 0
    while den:
        quot, rem = _kp_divide_linear(den, theta)
        is_zero = rem.is_zero() if isinstance(rem, NumberFieldElement) else rem == 0
        if not is_zero:
            break
        m += 1
        den = quot
    if m == 0:
        return Fraction(0)
    # (m-1)-fold derivative of num/den via the quotient rule
    n_cur, h_cur = num, den
    for _ in range(m - 1):
        n_cur, h_cur = (
            _kp_sub(_kp_mul(_kp_deriv(n_cur), h_cur), _kp_mul(n_cur, _kp_deriv(h_cur))),
            _kp_mul(h_cur, h_cur),
        )
    fact = 1
    for i in range(2, m):
        fact *= i
    n_val = _kp_eval(n_cur, theta)
    h_val = _kp_eval(h_cur, theta)
    if isinstance(h_val, NumberFieldElement):
        value = n_val * h_val.inverse() if isinstance(n_val, NumberFieldElement) else h_val.inverse() * n_val
    else:
        value = Fraction(n_val) / Fraction(h_val)
    value = value * Fraction(1, fact)
    return trace(value)


# -- series kernels as truncated sums -----------------------------------------
#
# The series product as finpot.series ran it before it took coefficient
# lists, and the truncated-Taylor exp/log and the geometric-sum inverse that
# finpot.series replaced with coefficient recurrences.  Each of the three
# loops over full series products by series_mul_dict, so they share no
# arithmetic with the library.


def series_mul_dict(a, b):
    """series_mul as the double loop over pairs of stored terms, each degree
    summed from int 0 below the big-O precision."""
    a._check_var(b)
    candidates = [a.precision + b.precision]
    if b.coeffs:
        candidates.append(a.precision + min(b.coeffs))
    if a.coeffs:
        candidates.append(b.precision + min(a.coeffs))
    prec = min(candidates)
    out = {}
    for da, ca in a.coeffs.items():
        for db, cb in b.coeffs.items():
            d = da + db
            if d < prec:
                out[d] = out.get(d, 0) + ca * cb
    return TruncatedLaurentSeries(a.variable, out, a.min_degree + b.min_degree, prec)


def series_exp_taylor(a):
    """sum_k a^k / k!, one series product per term."""
    prec = a.precision
    out = TruncatedLaurentSeries.one(a.variable, prec)
    term = TruncatedLaurentSeries.one(a.variable, prec)
    for k in range(1, prec):
        term = series_mul_dict(term, a).scale(Fraction(1, k))
        if term.is_zero():
            break
        out = out + term
    return out


def series_log_taylor(a):
    """sum_r (-1)^(r+1) (a - 1)^r / r, one series product per term."""
    prec = a.precision
    x = a - 1
    out = TruncatedLaurentSeries.zero(a.variable, prec)
    term = TruncatedLaurentSeries.one(a.variable, prec)
    sign = 1
    for r in range(1, prec):
        term = series_mul_dict(term, x)
        if term.is_zero():
            break
        out = out + term.scale(Fraction(sign, r))
        sign = -sign
    return out


def series_inv(a):
    """Inverse of a series whose lowest known coefficient a_v is nonzero, by
    the recurrence finpot once exported: u^-v sum_k b_k u^k with
    b_0 = 1/a_v, b_k = -b_0 sum_{j>=1} a_{v+j} b_{k-j}."""
    from finpot.series import _dot, _inv_scalar

    v = a.valuation()
    if v is None:
        raise SeriesDomainError("cannot invert a series with no known nonzero term")
    n = a.precision - v
    b = [_inv_scalar(a.coeffs[v])]
    rest = sorted((d - v, c) for d, c in a.coeffs.items() if d != v)
    for k in range(1, n):
        b.append(-b[0] * _dot(rest, b, k))
    # min_degree as the geometric sum reports it: its r-th power of
    # 1 - u^-v a / a_v (r < n) is stored from r (min_degree - v)
    low = (n - 1) * (a.min_degree - v) if rest else 0
    return TruncatedLaurentSeries(
        a.variable, {k - v: c for k, c in enumerate(b)}, low - v, n - v
    )


def series_inv_geometric(a):
    """a_v^-1 u^-v sum_r x^r with x = 1 - a / (a_v u^v)."""
    from finpot.series import _inv_scalar

    v = a.valuation()
    lead_inv = _inv_scalar(a.coeffs[v])
    u = a.shift(-v).scale(lead_inv)
    n = u.precision
    one = TruncatedLaurentSeries.one(a.variable, n)
    x = one - u
    inv = one
    term = one
    for _ in range(1, n):
        term = series_mul_dict(term, x)
        if term.is_zero():
            break
        inv = inv + term
    return inv.scale(lead_inv).shift(-v)


# -- Fitting split at the exponent d = dimension --------------------------------
#
# The decomposition finpot.fitting replaced with a chain of restrictions to
# the image (first with rank stabilisation of the powers of M): W and U
# from M^d by repeated squaring, and the nilpotency order of the U block by
# a separate search over its powers.  The bases and blocks come from the
# generic Gaussian elimination below (a column basis, a kernel and two
# solves), not from finpot's reduced echelon form.


def fitting_at_dimension(matrix):
    from finpot.fitting import ASTDecomposition
    from finpot.matrices import identity, mat_mul
    from finpot.scalars import scalar_is_zero

    def is_zero_matrix(a):
        return all(scalar_is_zero(x) for row in a for x in row)

    def mat_vec(a, v):
        return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]

    d = len(matrix)
    md, base, k = identity(d), [row[:] for row in matrix], d
    while k:
        if k & 1:
            md = mat_mul(md, base)
        base = mat_mul(base, base)
        k >>= 1
    core_cols = [[row[c] for row in md] for c in echelon_generic(md)[1]]
    nil_cols = kernel_basis_generic(md)
    core_matrix = solve_columns_generic(core_cols, [mat_vec(matrix, w) for w in core_cols])
    nil_matrix = solve_columns_generic(nil_cols, [mat_vec(matrix, u) for u in nil_cols])
    nil_degree, power = 0, identity(len(nil_matrix))
    while not is_zero_matrix(power):
        nil_degree += 1
        power = mat_mul(power, nil_matrix)
    return ASTDecomposition(core_cols, nil_cols, core_matrix, nil_matrix, nil_degree)


# -- sparse operator arithmetic over the stored scalars ------------------------
#
# SparseOperator add/scale/compose on the stored entries, with no integer
# numerators: each step is one scalar operation, and SparseOperator()
# re-coerces and drops zeros.


def sparse_add(a, b):
    from finpot.operators import SparseOperator

    out = dict(a.entries)
    for k, c in b.entries.items():
        out[k] = out.get(k, Fraction(0)) + c
    return SparseOperator(out)


def sparse_scale(a, c):
    from finpot.operators import SparseOperator

    return SparseOperator({k: c * v for k, v in a.entries.items()})


def sparse_compose(a, b):
    from finpot.operators import SparseOperator

    by_row = {}
    for (k, j), c in b.entries.items():
        by_row.setdefault(k, []).append((j, c))
    out = {}
    for (i, k), x in a.entries.items():
        for j, y in by_row.get(k, ()):
            key = (i, j)
            out[key] = out.get(key, Fraction(0)) + x * y
    return SparseOperator(out)


def apply_by_image_of(phi, vec):
    """op_apply as one loop over the vector: the finite part's stored
    entries in each column, then the tail's image_of the index."""
    out = {}
    for j, x in vec.items():
        column = [(i, c) for (i, k), c in phi.finite_part.entries.items() if k == j]
        for i, c in column + phi.tail.image_of(j):
            out[i] = out.get(i, Fraction(0)) + c * x
    return {i: v for i, v in out.items() if not scalar_is_zero(v)}


def compose_by_image_of(phi, psi, columns):
    """{j: (phi . psi)(e_j)} for j in columns, psi applied first, each
    factor by apply_by_image_of."""
    return {j: apply_by_image_of(phi, apply_by_image_of(psi, {j: Fraction(1)})) for j in columns}


def verify_certificate(phi, cert, span: int = 50) -> bool:
    """Brute-force check: apply phi cert.n times to each of `span` basis
    vectors straddling the interesting region and confirm every image lies
    in span(W).  Heuristic limit: only `span` (default 50) indices are
    tried, so True is evidence, not proof, for wider operators."""
    from finpot.operators import op_apply

    anchors = set(phi.finite_part.support())
    if phi.has_tail():
        anchors.add(phi.tail.start_index)
        anchors.add(phi.tail.start_index + 2 * phi.tail.block_size)
    lo = min(anchors) - 3 if anchors else -3
    wset = set(cert.indices)
    for i in range(lo, lo + span):
        vec = {i: Fraction(1)}
        for _ in range(cert.n):
            vec = op_apply(phi, vec)
        if any(ix not in wset for ix in vec):
            return False
    return True


# -- products of operator exponentials by series products ----------------------
#
# The chain the windowed symbol route ran before exponentials.exp_product:
# each factor's Taylor terms as an OperatorSeries, multiplied left to right
# by OperatorSeries.__mul__.


def exp_product_by_series(generators, prec):
    """prod_i exp(z M_i) below degree prec, one series product per factor,
    each factor 1 + sum_{j<prec} z^j M^j / j! by the Taylor loop."""
    from finpot.exponentials import OperatorSeries
    from finpot.operators import op_compose, op_scale

    prod = OperatorSeries.one("z", prec)
    for m in generators:
        terms, power, fact = {}, None, 1
        for j in range(1, prec):
            power = m if power is None else op_compose(power, m)
            fact *= j
            terms[j] = op_scale(power, Fraction(1, fact))
        prod = prod * OperatorSeries("z", prec, terms)
    return prod


# -- series determinants on a stored core ----------------------------------------
#
# det_series before it read W off the series terms: every OperatorSeries
# carried a core, exp_op took the certificate's W as it, a product merged
# its factors' cores by closure under their terms, and the windowed symbol
# route passed the support of its contents (the content box).


def core_closure(seed, operators, cap=10000):
    """Smallest superset of `seed` closed under the actions of `operators`;
    AssertionError once more than `cap` indices join."""
    from finpot.operators import op_apply

    core = set(seed)
    frontier = list(core)
    while frontier:
        idx = frontier.pop()
        for op in operators:
            for target in op_apply(op, {idx: Fraction(1)}):
                if target not in core:
                    core.add(target)
                    frontier.append(target)
                    assert len(core) <= len(seed) + cap, "core closure did not stabilize"
    return tuple(sorted(core))


def det_series_on_core(s, core):
    """det(1 + sum z^d term_d) on the block of an invariant core, its cells
    filled from each term's stored entries and the tail's images of the
    core."""
    pos = {i: p for p, i in enumerate(core)}
    cells = [[{0: Fraction(1)} if p == q else {} for q in pos.values()] for p in pos.values()]
    for d, t in s.terms.items():
        tail = [((i, j), c) for j in core for i, c in t.tail.image_of(j)]
        for (i, j), c in [*t.finite_part.entries.items(), *tail]:
            if i in pos and j in pos:
                cells[pos[i]][pos[j]][d] = c
    rows = [[TruncatedLaurentSeries(s.variable, c, 0, s.precision) for c in row] for row in cells]
    return det_series_matrix_generic(rows, TruncatedLaurentSeries.one(s.variable, s.precision))


# -- the windowed half-space model ----------------------------------------------
#
# The symbol and residue routes before they took exact compressions
# (residues.Compression): each compression truncated to a window [cut, hi],
# which adds a mirror copy of the content at the window's top, and the
# content read off below a guard strip that must be exactly zero.


def multiplication_window(coeffs: dict, lo: int, hi: int):
    """Multiplication by sum c_k t^k on span{e_lo..e_hi}: entries
    (j + k, j) = c_k inside the window.  With lo the cut this is the
    half-space compression pi+ f pi+, truncated at hi."""
    from finpot.operators import SparseOperator

    entries = {}
    for k, c in coeffs.items():
        for j in range(max(lo, lo - k), hi + 1):
            i = j + k
            if lo <= i <= hi:
                entries[(i, j)] = c
    return SparseOperator(entries)


def _window_model(coeff_dicts, signs, cut: int, depth: int):
    """The windowed model for products of at most `depth` compressions:
    (windows, content_end, exact_end), with windows the
    multiplication_windows on [cut, hi] scaled by the signs.

    With band the largest pole order or degree (at least 1):
      - [T_f, T_g] lies in [cut, cut + band)^2;
      - each further factor widens it by at most band, so the content of
        a product of depth factors lies below content_end = cut +
        (depth - 1) band;
      - truncation at hi moves entries only within depth band of hi, so
        entries below exact_end = hi - depth band are those of the
        infinite model.
    hi = content_end + (depth + 1) band + 4 leaves a guard strip
    [content_end, exact_end) of width band + 4 that must read exactly zero
    (split_window_content)."""
    band = max([1] + [max(-min(c), max(c)) for c in coeff_dicts if c])
    content_end = cut + (depth - 1) * band
    hi = content_end + (depth + 1) * band + 4
    windows = [
        multiplication_window(c, cut, hi).scale(Fraction(sign))
        for c, sign in zip(coeff_dicts, signs)
    ]
    return windows, content_end, hi - depth * band


def split_window_content(op, content_end: int, exact_end: int):
    """The entries of op whose row and column lie below content_end; an
    entry in the guard strip [content_end, exact_end) is an AssertionError,
    and what lies beyond it is truncation junk."""
    from finpot.operators import SparseOperator

    content = {}
    for (i, j), c in op.entries.items():
        top = max(i, j)
        if top < content_end:
            content[(i, j)] = c
        else:
            assert top >= exact_end, "content reaches the window's guard strip"
    return SparseOperator(content)


def window_exp_product_contents(coeff_dicts, signs, cut, prec_z):
    """{degree: content} of the window model's exponential product below
    degree prec_z, the terms of the exact product of compressions."""
    from finpot.exponentials import exp_product
    from finpot.operators import FinitePotentOperator

    windows, content_end, exact_end = _window_model(coeff_dicts, signs, cut, prec_z)
    prod = exp_product([FinitePotentOperator(w) for w in windows], prec_z)
    return {
        d: split_window_content(t.finite_part, content_end, exact_end)
        for d, t in prod.terms.items()
    }


def window_commutator_content(f_coeffs, g_coeffs, cut):
    """[T_f, T_g] as the window model's commutator at depth 2."""
    (mf, mg), content_end, exact_end = _window_model([f_coeffs, g_coeffs], [1, 1], cut, 2)
    comm = mf.compose(mg).add(mg.compose(mf).scale(Fraction(-1)))
    return split_window_content(comm, content_end, exact_end)


def det_of_exponential_product_on_box(coeff_dicts, signs, cut, prec_z):
    """symbols._det_of_exponential_product on the content box: the
    determinant on the rows and columns of the contents of the window
    product's terms."""
    from finpot.exponentials import OperatorSeries
    from finpot.operators import FinitePotentOperator

    contents = window_exp_product_contents(coeff_dicts, signs, cut, prec_z)
    box = set()
    for t in contents.values():
        box |= t.support()
    contents = {d: FinitePotentOperator(t) for d, t in contents.items()}
    return det_series_on_core(OperatorSeries("z", prec_z, contents), sorted(box))


# -- dense kernels over the stored scalars --------------------------------------
#
# det, charpoly, mat_mul, det_series_matrix, rank, kernel_basis, solve_columns
# and mat_inverse as finpot.matrices ran them on every input before it took
# integer kernels and fraction-free elimination: one scalar operation per
# step, elimination by pivoting Gaussian elimination (_eliminate) with a unit
# pivot on the reduced rows.  finpot has since dropped solve_columns, which
# fitting_at_dimension still solves with, and det_series_matrix: its one
# series determinant takes only the I + O(z) blocks of det_series.


def _is_zero(x) -> bool:
    from finpot.scalars import scalar_is_zero
    from finpot.series import TruncatedLaurentSeries

    return x.is_zero() if isinstance(x, TruncatedLaurentSeries) else scalar_is_zero(x)


def _is_unit(x) -> bool:
    """Pivot test: a nonzero field scalar, or a series whose constant term
    is nonzero."""
    from finpot.scalars import scalar_is_zero
    from finpot.series import TruncatedLaurentSeries

    if isinstance(x, TruncatedLaurentSeries):
        x = x.coefficient(0)
    return not scalar_is_zero(x)


def _inv(x):
    from finpot.series import TruncatedLaurentSeries, _inv_scalar

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


def _det_generic(a, one):
    m = [row[:] for row in a]
    pivots, sign = _eliminate(m, len(m))
    if len(pivots) < len(m):
        return None
    out = one if sign > 0 else -one
    for i, row in enumerate(m):
        out = out * row[i]
    return out


def det_generic(a):
    out = _det_generic(a, Fraction(1))
    return Fraction(0) if out is None else out


def echelon_generic(a):
    """(echelon rows, pivot columns) of a by _eliminate."""
    m = [row[:] for row in a]
    pivots, _ = _eliminate(m, len(m[0]) if m else 0)
    return m[: len(pivots)], pivots


def rank_generic(a):
    return len(echelon_generic(a)[1])


def mat_inverse_generic(a):
    from finpot.errors import NotInvertibleError

    n = len(a)
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    m = [row[:] + irow for row, irow in zip(a, ident)]
    if len(_eliminate(m, n, reduce=True)[0]) < n:
        raise NotInvertibleError("matrix is singular")
    return [row[n:] for row in m]


def reduced_echelon_generic(a):
    """(pivot columns, nonzero rows of the reduced echelon form) of a by
    _eliminate with reduce=True."""
    m = [row[:] for row in a]
    pivots, _ = _eliminate(m, len(m[0]) if m else 0, reduce=True)
    return pivots, m[: len(pivots)]


def kernel_basis_generic(a):
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


def solve_columns_generic(basis_cols, targets):
    from finpot.errors import NotInvertibleError
    from finpot.scalars import scalar_is_zero

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


def mat_mul_generic(a, b):
    from finpot.scalars import scalar_is_zero

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


def charpoly_generic(a):
    from finpot.matrices import mat_trace

    n = len(a)
    if n == 0:
        return [Fraction(1)]
    cs = [Fraction(1)]
    mk = [row[:] for row in a]
    for k in range(1, n + 1):
        ck = mat_trace(mk) * Fraction(1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] - ck
            mk = mat_mul_generic(a, mk)
    out = [Fraction(0)] * (n + 1)
    out[n] = Fraction(1)
    for k in range(1, n + 1):
        out[n - k] = -cs[k]
    return out


def det_series_matrix_generic(m, one_series):
    from finpot.errors import NotInvertibleError

    out = _det_generic(m, one_series)
    if out is None:
        raise NotInvertibleError("series matrix pivot has no unit entry")
    return out


def power_traces_generic(a, upto):
    """[tr a, ..., tr a^upto] from the identity-seeded chain of generic
    products."""
    from finpot.matrices import identity, mat_trace

    out, power = [], identity(len(a))
    for _ in range(upto):
        power = mat_mul_generic(power, a)
        out.append(mat_trace(power))
    return out


def det_series_matrix_fraction_free(m, one_series):
    """det_series_matrix's branch for series other than one-precision Q
    series before it took coefficient lists: fraction-free elimination
    (Bareiss 1968) on the series themselves, a pivot being a series with a
    nonzero constant term, every update multiplied by the inverse of the
    previous pivot."""
    from finpot.errors import NotInvertibleError

    if not m:
        return one_series
    m = [row[:] for row in m]
    n = len(m)
    sign, inv = 1, Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if _is_unit(m[i][c])), None)
        if piv is None:
            raise NotInvertibleError("series matrix pivot has no unit entry")
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top, p = m[c][c + 1:], m[c][c]
        scaled_p = p * inv
        for i in range(c + 1, n):
            g = m[i][c] * inv
            m[i][c + 1:] = [scaled_p * x - g * y for x, y in zip(m[i][c + 1:], top)]
        inv = _inv(p)
    return one_series * (m[-1][-1] if sign > 0 else -m[-1][-1])


def tail_compose_generic(s, t):
    """TailDescriptor.compose as the double loop over coefficient pairs."""
    from finpot.operators import TailDescriptor

    if s.is_none() or t.is_none():
        return TailDescriptor.none()
    b = s.block_size
    prod = [Fraction(0)] * (b - 1)
    for i, a in enumerate(s.coeffs, start=1):
        for j, c in enumerate(t.coeffs, start=1):
            if i + j < b:
                prod[i + j - 1] += a * c
    return TailDescriptor.jordan(b, s.start_index, prod)


def field_mul_fraction(a, b):
    """The coefficients of a * b for two elements of one NumberField, from
    Fractions: scalars._poly_mul of the coefficient lists, reduced modulo
    the modulus by scalars._poly_divmod and padded to the degree."""
    field = a.field
    prod = _poly_mul(list(a.coeffs), list(b.coeffs))
    if len(prod) > field.degree:
        prod = _poly_divmod(prod, list(field.modulus))[1]
    return tuple(prod + [Fraction(0)] * (field.degree - len(prod)))


def poly_mul_generic(a, b):
    """scalars._poly_mul as one scalar product per coefficient pair."""
    from finpot.scalars import _poly_trim

    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


# -- Q[t] on Fractions -----------------------------------------------------------
#
# Division, gcd, normalisation, split_power, Yun's loop and the coprime
# basis as finpot ran them before its integer pseudo-division and primitive
# PRS: one Fraction per operation.


def poly_divmod_fraction(a, b):
    """(quotient, remainder) of coefficient lists by the schoolbook loop on
    the stored scalars, each step a product by 1 / lc(b) and a subtraction
    over the nonzero terms of b."""
    from finpot.scalars import _poly_trim

    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c != 0:
            q[i] = c = c * inv
            for j, y in enumerate(b):
                if y != 0:
                    a[i + j] -= c * y
    return q, _poly_trim(a)


def poly_gcd_euclid(a, b):
    """The monic gcd of two Polynomials by Euclid's algorithm on Fractions
    (zero for two zeros)."""
    while not b.is_zero():
        a, b = b, Polynomial(poly_divmod_fraction(a.coeffs, b.coeffs)[1])
    return a.monic()


def rational_normal_fraction(num, den):
    """(num, den) of the quotient of two Polynomials, divided by their
    Euclid gcd and scaled so that den is monic, all on Fractions."""
    g = poly_gcd_euclid(num, den)
    if g.degree > 0:
        num, den = (Polynomial(poly_divmod_fraction(p.coeffs, g.coeffs)[0]) for p in (num, den))
    inv = 1 / den.leading()
    return Polynomial([c * inv for c in num.coeffs]), Polynomial([c * inv for c in den.coeffs])


def _quotient_fraction(a, b):
    return Polynomial(poly_divmod_fraction(a.coeffs, b.coeffs)[0])


def split_power_fraction(cs, pi):
    """(m, cs / pi^m), m the multiplicity of pi in cs, by repeated
    Fraction division."""
    m = 0
    while len(cs) >= len(pi):
        q, r = poly_divmod_fraction(cs, pi)
        if r:
            break
        m, cs = m + 1, q
    return m, list(cs)


def squarefree_parts_fraction(p):
    """Yun's squarefree decomposition of a nonzero Polynomial, each gcd by
    Euclid and each division by the schoolbook loop, on Fractions."""
    dp = p.derivative()
    a = poly_gcd_euclid(p, dp)
    b, c = _quotient_fraction(p, a), _quotient_fraction(dp, a)
    out = []
    m = 1
    while b.degree > 0:
        d = c - b.derivative()
        a = poly_gcd_euclid(b, d)
        if a.degree > 0:
            out.append((a, m))
        b, c = _quotient_fraction(b, a), _quotient_fraction(d, a)
        m += 1
    return out


def coprime_basis_fraction(polys):
    """Factor refinement of the squarefree_parts_fraction parts of polys by
    Euclid gcds and Fraction divisions, in the library's order."""
    basis = []
    for p in polys:
        for a, _ in squarefree_parts_fraction(p):
            refined = []
            for b in basis:
                g = poly_gcd_euclid(a, b)
                if g.degree > 0:
                    refined.append(g)
                    a, b = _quotient_fraction(a, g), _quotient_fraction(b, g)
                if b.degree > 0:
                    refined.append(b)
            if a.degree > 0:
                refined.append(a)
            basis = refined
    return basis


# -- local expansions by Newton lifting ----------------------------------------
#
# The expansion finpot.places replaced with one digit recurrence: den^-1
# mod pi^n by Newton lifting, num * den^-1 mod pi^n peeled into digits by
# n rounds of % and //, and a series inverse at infinity.  The valuation is
# the loop of Polynomial divisions that split_power replaced.


def valuation_by_division(f, pi):
    """Order of vanishing along the irreducible pi (negative at poles)."""
    if f.is_zero():
        raise ValueError("valuation of the zero function")

    def mult(p):
        m = 0
        while p.degree >= pi.degree:
            q, r = p.divmod(pi)
            if not r.is_zero():
                break
            m += 1
            p = q
        return m

    return mult(f.num) - mult(f.den)


def _inverse_mod_power(d1, pi, n):
    """Inverse of d1 modulo pi^n (d1 coprime to pi), by Newton lifting."""
    field = NumberField(list(pi.coeffs)) if pi.degree > 1 else None
    if field is None:
        # pi = t - a: invert the value d1(a), then lift
        a = -pi.coeffs[0]
        v = d1.evaluate(a)
        if v == 0:
            raise ZeroDivisionError("d1 not coprime to pi")
        x = Polynomial([1 / v])
    else:
        elem = field.element(list((d1 % pi).coeffs))
        x = Polynomial(list(elem.inverse().coeffs))
    k = 1
    while k < n:
        k = min(2 * k, n)
        mod = pi**k
        # x <- x (2 - d1 x) mod pi^k
        x = (x * (Polynomial([2]) - d1 * x)) % mod
    return x % (pi**n)


def _digits(p, pi, count):
    """First `count` pi-adic digits of p (polynomials of degree < deg pi)."""
    out = []
    cur = p
    for _ in range(count):
        r = cur % pi
        out.append(r)
        cur = (cur - r) // pi
    return out


def _digit_value(place, r):
    if place.degree == 1:
        return r[0]
    return place.field.element(list(r.coeffs))


def resum(expansion):
    """The rational function carried by the known digits of a
    LocalExpansion: sum_i lift(c_i) * parameter^i, with the digit lift
    theta -> t (LocalExpansion.resum before finpot dropped it)."""
    from finpot.polynomials import RationalFunction

    place = expansion.place
    if place.is_infinity():
        param = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
    else:
        param = RationalFunction(place.minimal_poly)
    out = RationalFunction(Polynomial())
    for d, c in sorted(expansion.series.coeffs.items()):
        if isinstance(c, NumberFieldElement):
            lift = RationalFunction(Polynomial(list(c.coeffs)))
        else:
            lift = RationalFunction(Polynomial([c]))
        out = out + lift * param**d
    return out


def local_expand_newton(f, p, prec):
    """Laurent expansion of f in the local parameter, exact below `prec`."""
    if f.is_zero():
        raise SeriesDomainError("cannot expand the zero function at a place")
    if p.is_infinity():
        return LocalExpansion(p, _expand_at_infinity(f, prec))
    pi = p.minimal_poly
    v = valuation_by_division(f, pi)
    if prec <= v:
        return LocalExpansion(
            p, TruncatedLaurentSeries.zero("u", prec, min_degree=min(v, prec - 1))
        )
    # peel the parameter power: f = pi^v * n1/d1 with n1, d1 coprime to pi
    num, den = f.num, f.den
    for _ in range(max(0, v)):
        num = num // pi
    for _ in range(max(0, -v)):
        den = den // pi
    count = prec - v
    inv = _inverse_mod_power(den, pi, count)
    rep = (num * inv) % (pi**count)
    digits = _digits(rep, pi, count)
    coeffs = {}
    for i, r in enumerate(digits):
        if not r.is_zero():
            coeffs[v + i] = _digit_value(p, r)
    return LocalExpansion(
        p, TruncatedLaurentSeries("u", coeffs, min(v, 0), prec)
    )


def _expand_at_infinity(f, prec):
    """Expansion in w = 1/t: w^v N(w) / D(w), with N and D the reversed
    numerator and denominator and v the order of vanishing at infinity."""
    num, den = f.num, f.den
    v = den.degree - num.degree
    if prec <= v:
        return TruncatedLaurentSeries.zero("u", prec, min_degree=min(v, prec - 1))
    count = prec - v
    n, d = (
        TruncatedLaurentSeries(
            "u", dict(enumerate(p.reversed_coeffs(p.degree + 1)[:count])), 0, count
        )
        for p in (num, den)
    )
    quotient = series_mul_dict(n, series_inv(d))
    return TruncatedLaurentSeries(
        "u", {k + v: c for k, c in quotient.coeffs.items()}, min(v, 0), prec
    )


# -- traces and reciprocity, place by place ------------------------------------
#
# The field trace from Newton's power sums, which field_trace ran before it
# took the diagonal of the multiplication matrix, and the reciprocity loop
# finpot ran before it summed residues over the squarefree parts of the
# poles: factor every numerator and denominator with sympy, then take the
# residue and the cocycle at each irreducible place.  sympy is a test-only
# dependency.


def field_trace_newton(e):
    """Trace down to Q of e = sum a_k x^k as sum a_k s_k, s_k the sum of
    the k-th powers of the modulus's roots, by Newton's identities from the
    modulus coefficients c_i: s_0 = d, s_k = -(k c_{d-k} + sum_{0<i<k}
    c_{d-i} s_{k-i})."""
    c, d = e.field.modulus, e.field.degree
    s = [Fraction(d)]
    for k in range(1, d):
        s.append(-(k * c[d - k] + sum((c[d - i] * s[k - i] for i in range(1, k)), Fraction(0))))
    return sum((a * x for a, x in zip(e.coeffs, s)), Fraction(0))


def sympy_factors(p):
    """[(monic irreducible Polynomial, multiplicity)] of a nonzero p, by
    sympy's factoring over Q."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x
    )
    return [
        (Polynomial([Fraction(str(c)) for c in reversed(fac.all_coeffs())]).monic(), int(m))
        for fac, m in poly.factor_list()[1]
    ]


def irreducible_places(*functions):
    """The irreducible places of every numerator and denominator, factored
    by sympy and sorted by (degree, coefficients), then infinity: the
    places relevant_places listed before it returned a coprime basis."""
    from finpot.places import Place

    seen = {q for f in functions for p in (f.num, f.den) if p.degree > 0
            for q, _ in sympy_factors(p)}
    places = [Place.finite(q) for q in sorted(seen, key=lambda q: (q.degree, q.coeffs))]
    return places + [Place.infinity()]


def reciprocity_by_places(f, g, prec_z=8):
    """(sum of res_p(f dg), product of c_p(f, g)) over the irreducible
    places of f and g, found by sympy."""
    from finpot.residues import residue_classical
    from finpot.symbols import SymbolValue, cocycle

    if f.is_zero() or g.is_zero():
        raise ValueError("reciprocity needs nonzero functions")
    total = Fraction(0)
    prod = SymbolValue.from_exponent(Fraction(0), prec_z)
    for p in irreducible_places(f, g):
        total += residue_classical(f, g, p)
        prod = prod * cocycle(f, g, p, prec_z)
    return total, prod


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


def sw_pairing_on_stage(f, ftilde, T: int, pad: int) -> Fraction:
    """T x T principal-corner determinant of atilde a atilde^{-1} a^{-1},
    built exactly on a stage of size T + pad: the exact rational that
    finpot returned as the truncated pairing (with pad = 28) before it took
    the corner from Widom's identity.  Its inner sums stop at the stage, so
    it differs from det C_T by a padding error that it does not bound."""
    n = T + pad
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


def series_exp_by_fractions(a):
    """exp of a series with no constant and no polar part by the recurrence
    k h_k = sum_{j<=k} j a_j h_{k-j} (h_0 = 1) on Fractions, as series_exp
    ran it before it ran on integer numerators."""
    weighted = sorted((j, j * c) for j, c in a.coeffs.items())
    h = [Fraction(1)]
    for k in range(1, a.precision):
        s = Fraction(0)
        for j, c in weighted:
            if j <= k:
                s += c * h[k - j]
        h.append(s / k)
    return TruncatedLaurentSeries(a.variable, dict(enumerate(h)), 0, a.precision)


def sizes_by_fractions(f, ftilde, T: int):
    """segal_wilson._sizes's (P, W, N, M) from Fraction sizes and math.ceil,
    as finpot computed them before it sized the pairing in integers."""

    def size(e, r):
        return sum(abs(c) * r**n for n, c in e.coeffs.items())

    def exp_bits(x):
        return ceil(Fraction(13, 9) * x)

    def log2_ceil(x):
        return (ceil(x) - 1).bit_length()

    P = 140 + 2 * T.bit_length()
    s = exp_bits(size(f, 1) + size(ftilde, 1))
    N = min(
        ceil((exp_bits(size(f, r) + size(ftilde, r)) + log2_ceil(r / (r * r - 1))
              + P + s + 4) / (2 * lam))
        for r, lam in _RADII
    )
    M = min(
        ceil((exp_bits(size(f, r) + size(ftilde, 1 / r) + size(f, 1 / r) + size(ftilde, r))
              + log2_ceil(1 / (r * r - 1)) + P + 2) / (2 * lam))
        for r, lam in _RADII
    )
    return P, P + 2 * s + 5, N, M


def rounded_det_exact(corner, W: int) -> int:
    """det(corner) 2^(128 - W T) rounded to an integer, halves up, from the
    exact Bareiss determinant, as sw_pairing_interval rounded it before the
    fixed-point LU enclosure."""
    shift = W * len(corner)
    return ((int_det(corner) << 128) + (1 << (shift - 1))) >> shift
