"""Operator-valued exponentials over truncated Laurent series.

exp_op(phi, k) is the unipotent series 1 + sum_j z^{jk} phi^j / j!.  Its
determinant over the series field reduces to the finite common core: a
certified invariant subspace W with (a) every series term mapping W into W
and (b) some power of (series - 1) mapping everything into W.  Products of
such series merge their cores by closure, so determinants of products,
commutator identities and determinants of infinite exponential products all
stay finite, exact computations.

OperatorSeries is the one operator-series type and det_series the one block
determinant; the windowed symbol route uses both, its content box as core.
"""

from __future__ import annotations

from fractions import Fraction

from .determinants import tate_trace
from .errors import CompatibilityError, NoCommonCoreError
from .matrices import det_series_matrix
from .operators import (
    FinitePotentOperator,
    HalfSpaceSpec,
    certify_finite_potent,
    classify,
    op_add,
    op_apply,
    op_commutator,
    op_compose,
    op_entry,
    op_scale,
    op_sub,
)
from .series import TruncatedLaurentSeries
from .scalars import scalar_is_zero


def _core_closure(seed, operators, cap: int = 10000):
    """Smallest superset of `seed` closed under the actions of `operators`.
    Heuristic limit: NoCommonCoreError once more than `cap` indices join."""
    core = set(seed)
    frontier = list(core)
    steps = 0
    while frontier:
        idx = frontier.pop()
        for op in operators:
            for target in op_apply(op, {idx: Fraction(1)}):
                if target not in core:
                    core.add(target)
                    frontier.append(target)
                    steps += 1
                    if steps > cap:
                        raise NoCommonCoreError(
                            "core closure did not stabilize"
                        )
    return tuple(sorted(core))


class OperatorSeries:
    """Unipotent operator series: identity at degree 0 plus terms at
    degrees 1..precision-1, together with a common invariant core."""

    __slots__ = ("variable", "precision", "terms", "core")

    def __init__(self, variable: str, precision: int, terms: dict, core):
        self.variable = variable
        self.precision = precision
        self.terms = {
            int(d): t for d, t in terms.items() if 0 < int(d) < precision and not t.is_zero()
        }
        self.core = tuple(core)

    @classmethod
    def one(cls, variable: str, precision: int) -> "OperatorSeries":
        return cls(variable, precision, {}, ())

    def truncate(self, precision: int) -> "OperatorSeries":
        precision = min(precision, self.precision)
        return OperatorSeries(
            self.variable,
            precision,
            {d: t for d, t in self.terms.items() if d < precision},
            self.core,
        )

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        if self.variable != other.variable:
            raise ValueError("operator series variables differ")
        prec = min(self.precision, other.precision)
        parts: dict = {}  # degree -> the operators summing to its term
        for d, t in [*self.terms.items(), *other.terms.items()]:
            parts.setdefault(d, []).append(t)
        for da, ta in self.terms.items():
            for db, tb in other.terms.items():
                if da + db < prec:
                    parts.setdefault(da + db, []).append(op_compose(ta, tb))
        terms = {d: op_add(*ops) for d, ops in parts.items() if d < prec}
        all_ops = list(self.terms.values()) + list(other.terms.values())
        core = _core_closure(set(self.core) | set(other.core), all_ops)
        return OperatorSeries(self.variable, prec, terms, core)

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


def _exp_terms(phi: FinitePotentOperator, k: int, prec: int) -> dict:
    """The terms z^{jk} -> phi^j / j! of exp_{z^k}(phi) - 1, for jk < prec."""
    terms = {}
    power = None
    fact = 1
    j = 1
    while j * k < prec:
        power = phi if power is None else op_compose(power, phi)
        fact *= j
        scaled = op_scale(power, Fraction(1, fact))
        if scaled.is_zero():
            break
        terms[j * k] = scaled
        j += 1
    return terms


def exp_op(
    phi: FinitePotentOperator, k: int = 1, prec: int = 10, variable: str = "z"
) -> OperatorSeries:
    """1 + sum_{j>=1, jk<prec} z^{jk} phi^j / j!.

    The certificate's W is already a common core, with no closure to run:
    W is the row support of the finite part, so the finite part maps
    everything into span(W); W lies strictly below any tail start, so the
    tail neither acts on W nor maps into it.  Hence phi(W) <= span(W), and
    every term phi^j / j! maps W into W."""
    if k < 1:
        raise ValueError("degree weight k must be >= 1")
    cert = certify_finite_potent(phi)
    return OperatorSeries(variable, prec, _exp_terms(phi, k, prec), cert.indices)


def det_series(s: OperatorSeries) -> TruncatedLaurentSeries:
    """Determinant over the series field, as the determinant of the finite
    core block of 1 + sum z^d term_d."""
    one = TruncatedLaurentSeries.one(s.variable, s.precision)
    rows = []
    for i in s.core:
        row = []
        for j in s.core:
            coeffs = {0: Fraction(1)} if i == j else {}
            for d, t in s.terms.items():
                c = op_entry(t, i, j)
                if not scalar_is_zero(c):
                    coeffs[d] = c
            row.append(TruncatedLaurentSeries(s.variable, coeffs, 0, s.precision))
        rows.append(row)
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
        fact = 1
        for v in range(2, i + 2):
            fact *= v
        rhs = rhs * exp_op(op_scale(c, Fraction(-1, fact)), i + 1, prec)
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

    `family` is a list of (weight, operator); positions are 1-based.
    """
    if compat_m < 1:
        raise CompatibilityError("compat_m must be >= 1")
    for pos, (weight, phi) in enumerate(family, start=1):
        if weight < 1:
            raise ValueError("weights must be >= 1")
        cls = classify(phi, half)
        if not cls.in_E0:
            raise CompatibilityError(
                "factor at position %d is not in E0 for the given half-space" % pos
            )
        if pos >= compat_m and tate_trace(phi) != 0:
            raise CompatibilityError(
                "factor at position %d has nonzero trace beyond the witness" % pos
            )

    def partial(upto: int) -> TruncatedLaurentSeries:
        out = TruncatedLaurentSeries.one(variable, prec)
        for pos, (weight, phi) in enumerate(family, start=1):
            if pos > upto:
                break
            out = out * det_series(exp_op(phi, weight, prec, variable))
        return out

    value = partial(compat_m - 1)
    extended = partial(compat_m + 2)
    if not value.same_to_precision(extended):
        raise CompatibilityError("product determinant is not stationary")
    return value
