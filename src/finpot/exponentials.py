"""Operator-valued exponentials over truncated Laurent series.

exp_op(phi, k) is the unipotent series 1 + sum_j z^{jk} phi^j / j!.  Its
determinant over the series field is taken, as Tate takes the trace, on a
finite-dimensional subspace W invariant under the series and containing
the image of some power of (series - 1); the value does not depend on which
such W is used.  det_series reads W off the series terms (the rows of their
finite parts, closed under the tail blocks), so no series carries a core
and products of series need no search for one: determinants of products,
commutator identities and determinants of infinite exponential products
all stay finite, exact computations.

OperatorSeries is the one operator-series type and det_series the one block
determinant.  exp_product builds a product of exponentials from its
logarithmic derivative (Wilcox 1967), whose terms are nested commutators
of the generators, finite-potent operators or half-space compressions
(residues.Compression) that sum to zero, as the symbol route takes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .determinants import tate_trace
from .errors import (CompatibilityError, IncompatibleTailsError, PrecisionError,
                     StraddlingTailError, VariableMismatchError)
from .matrices import det_series_matrix
from .operators import (
    FinitePotentOperator,
    HalfSpaceSpec,
    op_add,
    op_commutator,
    op_compose,
    op_scale,
    op_sub,
)
from .residues import Compression
from .series import TruncatedLaurentSeries


class OperatorSeries:
    """Unipotent operator series: identity at degree 0 plus terms at
    degrees 1..precision-1.  Like a TruncatedLaurentSeries, it raises
    PrecisionError when no degree is known (precision < 1)."""

    __slots__ = ("variable", "precision", "terms")

    def __init__(self, variable: str, precision: int, terms: dict):
        if precision < 1:
            raise PrecisionError("empty precision window [0, %d)" % precision)
        self.variable = variable
        self.precision = precision
        self.terms = {
            int(d): t for d, t in terms.items() if 0 < int(d) < precision and not t.is_zero()
        }

    @classmethod
    def one(cls, variable: str, precision: int) -> "OperatorSeries":
        return cls(variable, precision, {})

    def truncate(self, precision: int) -> "OperatorSeries":
        precision = min(precision, self.precision)
        return OperatorSeries(
            self.variable,
            precision,
            {d: t for d, t in self.terms.items() if d < precision},
        )

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        if self.variable != other.variable:
            raise VariableMismatchError("operator series variables differ")
        prec = min(self.precision, other.precision)
        parts: dict = {}  # degree -> the operators summing to its term
        for d, t in [*self.terms.items(), *other.terms.items()]:
            parts.setdefault(d, []).append(t)
        for da, ta in self.terms.items():
            for db, tb in other.terms.items():
                if da + db < prec:
                    parts.setdefault(da + db, []).append(op_compose(ta, tb))
        terms = {d: op_add(*ops) for d, ops in parts.items() if d < prec}
        return OperatorSeries(self.variable, prec, terms)

    def same_to_precision(self, other: "OperatorSeries") -> bool:
        prec = min(self.precision, other.precision)
        a = {d: t for d, t in self.terms.items() if d < prec}
        b = {d: t for d, t in other.terms.items() if d < prec}
        return a == b

    def __repr__(self):
        return "OperatorSeries(%r, prec=%d, degrees=%s)" % (
            self.variable,
            self.precision,
            sorted(self.terms),
        )


def exp_op(
    phi: FinitePotentOperator, k: int = 1, prec: int = 10, variable: str = "z"
) -> OperatorSeries:
    """1 + sum_{j>=1, jk<prec} z^{jk} phi^j / j!: the terms of
    exp_product([phi], ceil(prec / k)), degree j placed at jk."""
    if k < 1:
        raise ValueError("degree weight k must be >= 1")
    terms = exp_product([phi], -(-prec // k)).terms
    return OperatorSeries(variable, prec, {j * k: t for j, t in terms.items()})


def _exp_ad(n, x: dict, top: int) -> dict:
    """exp(z ad n) applied to the operator series x (degree -> operator):
    sum_k z^k ad_n^k(x) / k!, through degree top; a lone term, such as a
    compression at degree 0, is kept as it is."""
    bracket = n.commutator if isinstance(n, Compression) else lambda t: op_commutator(n, t)
    parts: dict = {}
    for e, term in x.items():
        k = 0
        while True:
            parts.setdefault(e + k, []).append(term)
            k += 1
            if e + k > top:
                break
            term = op_scale(bracket(term), Fraction(1, k))
            if term.is_zero():
                break
    return {d: ops[0] if len(ops) == 1 else op_add(*ops) for d, ops in parts.items()}


def exp_product(generators, prec: int) -> OperatorSeries:
    """prod_i exp(z M_i) below degree prec, in the variable z.

    Y = prod_i exp(z M_i) solves Y' = L Y, where
    L = sum_i exp(z ad M_1) ... exp(z ad M_{i-1})(M_i), nested as
    M_1 + exp(z ad M_1)(M_2 + exp(z ad M_2)(M_3 + ...)); so
    d Y_d = sum_k L_k Y_{d-1-k} with Y_0 = 1.  A formal identity over
    End(V)[[z]] whose only divisions are by integers: the terms are those
    of the product of the truncated exponentials.  When sum_i M_i = 0,
    L_0 vanishes and every other L_k is a sum of nested commutators, so L
    and Y stay as localized as those commutators.  Compressions add in L_0,
    and a nonzero total raises ValueError: no term would be finite."""
    top = prec - 2  # Y_d for d < prec reads L_k for k <= prec - 2
    log_deriv: dict = {}
    add = Compression.__add__ if any(isinstance(m, Compression) for m in generators) else op_add
    for m in reversed(generators):
        log_deriv = _exp_ad(m, log_deriv, top)
        log_deriv[0] = add(m, log_deriv[0]) if 0 in log_deriv else m
    log_deriv = {k: t for k, t in log_deriv.items() if not t.is_zero()}
    if isinstance(log_deriv.get(0), Compression):
        raise ValueError("compressions with a nonzero sum have no finite exponential product")
    terms: dict = {}
    for d in range(1, prec):
        ops = [log_deriv[d - 1]] if d - 1 in log_deriv else []
        for k, lk in log_deriv.items():
            y = terms.get(d - 1 - k)
            if y is not None and not y.is_zero():
                ops.append(op_compose(lk, y))
        if ops:
            terms[d] = op_scale(op_add(*ops), Fraction(1, d))
    return OperatorSeries("z", prec, terms)


def det_series(s: OperatorSeries) -> TruncatedLaurentSeries:
    """Determinant over the series field of 1 + sum z^d term_d, as the
    determinant of its block on W: each row of the terms' finite parts,
    extended through the end of every tail block that holds it.

    - each finite part maps every basis vector into span(W);
    - a tail moves an index only upward inside its block, so W, a union of
      intervals that each end where a block of every tail around it ends,
      is invariant; the block is filled from the finite entries and the
      tails' entries in the columns of W (tail.on), which never share a
      cell within one term;
    - on V/W only the tails act.  Tails of one block geometry are
      polynomials in one nilpotent shift; tails of two geometries are never
      composed below the precision in a series from exp_op, exp_product or
      OperatorSeries.__mul__ (op_compose would raise).  So below the
      precision the logarithm of the quotient series is a sum of
      polynomials without constant term in those shifts, one per geometry:
      nilpotents of trace 0, and the quotient contributes 1.

    Raises IncompatibleTailsError when no such W is finite: a row lies
    where the blocks of two tail geometries never end at a common index.
    Above the highest tail start the block ends repeat with the lcm of the
    block sizes, so an interval that outgrows that period never closes."""
    blocks = {(t.tail.start_index, t.tail.block_size) for t in s.terms.values() if t.has_tail()}
    period = lcm(*(size for _, size in blocks))
    top = max((start for start, _ in blocks), default=0)
    w: set = set()
    for r in sorted(set().union(*(t.finite_part.rows() for t in s.terms.values()))):
        end = r
        while r not in w:
            nxt = max([end] + [a + ((end - a) // b + 1) * b - 1 for a, b in blocks if end >= a])
            if nxt == end:
                w.update(range(r, end + 1))
            elif nxt >= max(r, top) + period:
                raise IncompatibleTailsError("the series' tail blocks leave no finite invariant core")
            end = nxt
    pos = {i: p for p, i in enumerate(sorted(w))}
    cells = [[{0: Fraction(1)} if p == q else {} for q in pos.values()] for p in pos.values()]
    for d, t in s.terms.items():
        for (i, j), c in [*t.finite_part.entries.items(), *t.tail.on(pos).entries.items()]:
            if j in pos:
                cells[pos[i]][pos[j]][d] = c
    one = TruncatedLaurentSeries.one(s.variable, s.precision)
    rows = [[TruncatedLaurentSeries(s.variable, c, 0, s.precision) for c in row] for row in cells]
    return det_series_matrix(rows, one)


def zassenhaus_terms(f: FinitePotentOperator, g: FinitePotentOperator):
    """The first three commutator corrections (C1, C2, C3) of the splitting
    of exp(f + g) into exp(f) exp(g) times higher-degree exponentials."""
    c1 = op_commutator(f, g)
    c2 = op_sub(
        op_scale(op_commutator(c1, g), Fraction(2)),
        op_commutator(f, c1),
    )
    c3a = op_scale(op_commutator(op_commutator(c1, g), g), Fraction(3))
    c3b = op_scale(op_commutator(op_commutator(f, c1), g), Fraction(3))
    c3c = op_commutator(f, op_commutator(f, c1))
    c3 = op_add(op_sub(c3a, c3b), c3c)
    return c1, c2, c3


def zassenhaus_check(
    f: FinitePotentOperator, g: FinitePotentOperator, prec: int = 5
) -> bool:
    """Verify exp(f+g) = exp(f) exp(g) prod_i exp_{z^{i+1}}(-C_i/(i+1)!)
    degreewise through z^(prec-1); with C1..C3 this is valid for prec <= 5."""
    if prec > 5:
        raise ValueError("only C1..C3 are available: prec must be <= 5")
    lhs = exp_op(op_add(f, g), 1, prec)
    c1, c2, c3 = zassenhaus_terms(f, g)
    rhs = exp_op(f, 1, prec) * exp_op(g, 1, prec)
    for i, c in ((1, c1), (2, c2), (3, c3)):
        rhs = rhs * exp_op(op_scale(c, Fraction(-1, factorial(i + 1))), i + 1, prec)
    return lhs.same_to_precision(rhs)


def infinite_product_det(
    family,
    compat_m: int,
    half: HalfSpaceSpec = HalfSpaceSpec(0),
    prec: int = 10,
    variable: str = "z",
) -> TruncatedLaurentSeries:
    """Determinant of prod_i exp_{z^{w_i}}(phi_i) for a family compatible
    with the determinant: positions at or beyond compat_m must be traceless
    (checked), the value is the product over positions below compat_m, and
    stationarity is re-verified by extending the product to compat_m + 2.

    `family` is a list of (weight, operator); positions are 1-based.  Every
    factor must lie in E0 for V+ = span{e_i : i >= half.cut}, that is carry
    no tail (a finite support moves finitely many dimensions): a tail
    starting below the cut acts on both sides of it (StraddlingTailError),
    any other tail is a CompatibilityError.
    """
    if compat_m < 1:
        raise CompatibilityError("compat_m must be >= 1")
    for pos, (weight, phi) in enumerate(family, start=1):
        if weight < 1:
            raise ValueError("weights must be >= 1")
        if phi.has_tail():
            if phi.tail.start_index < half.cut:
                raise StraddlingTailError("tail starting at %d straddles the cut %d"
                                          % (phi.tail.start_index, half.cut))
            raise CompatibilityError(
                "factor at position %d is not in E0 for the given half-space" % pos
            )
        if pos >= compat_m and tate_trace(phi) != 0:
            raise CompatibilityError(
                "factor at position %d has nonzero trace beyond the witness" % pos
            )

    dets = [
        det_series(exp_op(phi, weight, prec, variable))
        for weight, phi in family[: compat_m + 2]
    ]
    value = TruncatedLaurentSeries.one(variable, prec)
    for d in dets[: compat_m - 1]:
        value = value * d
    extended = value
    for d in dets[compat_m - 1 :]:
        extended = extended * d
    if not value.same_to_precision(extended):
        raise CompatibilityError("product determinant is not stationary")
    return value
