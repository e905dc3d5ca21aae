"""Endomorphisms of a vector space with basis indexed by Z.

The representable class is: a finite-support matrix (SparseOperator) plus an
optional homogeneous block tail.  A tail acts on every index i >= start_index
as a polynomial in the within-block shift: e_i -> sum_k coeffs[k-1] * e_{i+k},
with terms that would cross a block boundary dropped; blocks have size
block_size, so every tail is nilpotent.  When a tail is present the finite
part must live strictly below start_index, which makes the operator a direct
sum of its two pieces and keeps every certificate computation structural.

All results proved by this package are claims about operators representable
in this class; it is closed under the constructions used here (sums,
compositions and commutators subject to the structural tail checks,
inversion of 1 + phi) and admits a decidable finite-potency certificate.

SparseOperator.add, compose and scale run on an integer kernel when every
entry of every operand is a Fraction (and a scale factor is an int or a
Fraction): add and compose take each operand as integer numerators over the
lcm of its denominators and sum and multiply in int, scale multiplies
numerators and denominators, and one reduced Fraction is built per nonzero
result entry.  Operands with NumberFieldElement entries, alone or mixed with
Fractions, take the same loops over the stored scalars.  Both give the
same values and types.

The tail rule (which e_{i+k} a tail reaches from e_i) lives in one place,
TailDescriptor.image_of: op_apply, op_entry, the products of a tail with a
finite part and determinants.wedge_scaling_check all read it, and
TailDescriptor.compose multiplies shift polynomials with scalars._poly_mul.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm

from .errors import IncompatibleTailsError, StraddlingTailError
from .scalars import (
    NumberFieldElement,
    _poly_mul,
    format_rational,
    parse_rational,
    scalar_is_zero,
)


class SparseOperator:
    """Finite-support matrix: map (row, col) -> scalar, no stored zeros."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        clean = {}
        for (i, j), c in dict(entries).items():
            if not scalar_is_zero(c):
                clean[(int(i), int(j))] = (
                    c if isinstance(c, NumberFieldElement) else Fraction(c)
                )
        self.entries = clean

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(tuple(sorted((k, str(v)) for k, v in self.entries.items())))

    def __repr__(self):
        items = ", ".join(
            "(%d,%d)->%s" % (i, j, c) for (i, j), c in sorted(self.entries.items())
        )
        return "SparseOperator{%s}" % items

    def is_zero(self) -> bool:
        return not self.entries

    def rows(self):
        return {i for i, _ in self.entries}

    def cols(self):
        return {j for _, j in self.entries}

    def support(self):
        return self.rows() | self.cols()

    def get(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    @classmethod
    def _trusted(cls, entries: dict) -> "SparseOperator":
        """Wrap entries that are already nonzero Fractions keyed by int pairs,
        skipping __init__'s per-entry checks."""
        op = object.__new__(cls)
        op.entries = entries
        return op

    def add(self, *others: "SparseOperator") -> "SparseOperator":
        """self + other + ...; on the integer kernel, one common denominator
        and one reduction for the whole sum."""
        others = [op for op in others if op.entries]
        if not others:
            return self
        ints = _all_fractions(self, *others)
        if ints:
            den = _lcm_denominator(self, *others)
            out, zero = _numerators(self, den), 0
            parts = (_numerators(op, den) for op in others)
        else:
            out, zero, parts = dict(self.entries), Fraction(0), (op.entries for op in others)
        for part in parts:
            for k, c in part.items():
                out[k] = out.get(k, zero) + c
        return _over(out, den) if ints else SparseOperator(out)

    def scale(self, c) -> "SparseOperator":
        if isinstance(c, (int, Fraction)) and _all_fractions(self):
            p, q = Fraction(c).as_integer_ratio()
            if not p:
                return SparseOperator()
            return SparseOperator._trusted(
                {
                    k: Fraction(p * v.numerator, q * v.denominator)
                    for k, v in self.entries.items()
                }
            )
        return SparseOperator({k: c * v for k, v in self.entries.items()})

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """Matrix product self . other."""
        ints = _all_fractions(self, other)
        if ints:
            ld, rd = _lcm_denominator(self), _lcm_denominator(other)
            left, right, zero = _numerators(self, ld), _numerators(other, rd), 0
        else:
            left, right, zero = self.entries, other.entries, Fraction(0)
        by_row = {}
        for (k, j), c in right.items():
            by_row.setdefault(k, []).append((j, c))
        out = {}
        for (i, k), a in left.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, zero) + a * b
        return _over(out, ld * rd) if ints else SparseOperator(out)

    def apply(self, vec: dict) -> dict:
        out = {}
        by_col = {}
        for (i, j), c in self.entries.items():
            by_col.setdefault(j, []).append((i, c))
        for j, x in vec.items():
            if scalar_is_zero(x):
                continue
            for i, c in by_col.get(j, ()):
                out[i] = out.get(i, Fraction(0)) + c * x
        return {i: v for i, v in out.items() if not scalar_is_zero(v)}


# Integer kernel of SparseOperator arithmetic: all-Fraction operands become
# integer numerators over a common denominator (an lcm, so they stay small).


def _all_fractions(*ops) -> bool:
    return all(type(v) is Fraction for op in ops for v in op.entries.values())


def _lcm_denominator(*ops) -> int:
    return lcm(*(v.denominator for op in ops for v in op.entries.values()))


def _numerators(op: SparseOperator, den: int) -> dict:
    """{key: n} with entry = n / den; den must be a multiple of every
    denominator of op."""
    out = {}
    for k, v in op.entries.items():
        n, d = v.as_integer_ratio()
        out[k] = n * (den // d)
    return out


def _over(numerators: dict, den: int) -> SparseOperator:
    """The operator with entries n/den for the nonzero integers n."""
    return SparseOperator._trusted(
        {k: Fraction(n, den) for k, n in numerators.items() if n}
    )


@dataclass(frozen=True)
class TailDescriptor:
    """Block tail: e_i -> sum_k coeffs[k-1] e_{i+k} inside blocks of
    block_size indices starting at start_index (crossing terms drop)."""

    kind: str = "none"
    block_size: int = 0
    start_index: int = 0
    coeffs: tuple = ()

    @classmethod
    def none(cls) -> "TailDescriptor":
        return cls("none", 0, 0, ())

    @classmethod
    def jordan(cls, block_size: int, start_index: int, coeffs=(1,)) -> "TailDescriptor":
        if block_size < 1:
            raise ValueError("block_size must be positive")
        cs = [c if isinstance(c, NumberFieldElement) else Fraction(c) for c in coeffs]
        cs = cs[: max(0, block_size - 1)]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs or all(c == 0 for c in cs):
            return cls.none()
        return cls("jordan_blocks", block_size, start_index, tuple(cs))

    def is_none(self) -> bool:
        return self.kind == "none"

    def same_geometry(self, other: "TailDescriptor") -> bool:
        return (
            self.block_size == other.block_size
            and self.start_index == other.start_index
        )

    def lowest_power(self) -> int:
        """Smallest k with coeffs[k-1] nonzero (valuation of the shift poly)."""
        for k, c in enumerate(self.coeffs, start=1):
            if c != 0:
                return k
        raise ValueError("normalized tail cannot be zero")

    def nilpotency_degree(self) -> int:
        if self.is_none():
            return 1
        v = self.lowest_power()
        return -(-self.block_size // v)  # ceil(block_size / v)

    def image_of(self, i: int):
        """[(target index, coeff)] for the tail acting on e_i."""
        if self.is_none() or i < self.start_index:
            return []
        q = (i - self.start_index) % self.block_size
        out = []
        for k, c in enumerate(self.coeffs, start=1):
            if c != 0 and q + k < self.block_size:
                out.append((i + k, c))
        return out

    def add(self, other: "TailDescriptor") -> "TailDescriptor":
        if self.is_none():
            return other
        if other.is_none():
            return self
        if not self.same_geometry(other):
            raise IncompatibleTailsError(
                "tails with different geometry cannot be combined"
            )
        cs = [x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)]
        return TailDescriptor.jordan(self.block_size, self.start_index, cs)

    def scale(self, c) -> "TailDescriptor":
        if self.is_none() or c == 0:
            return TailDescriptor.none()
        return TailDescriptor.jordan(
            self.block_size, self.start_index, [c * x for x in self.coeffs]
        )

    def compose(self, other: "TailDescriptor") -> "TailDescriptor":
        if self.is_none() or other.is_none():
            return TailDescriptor.none()
        if not self.same_geometry(other):
            raise IncompatibleTailsError(
                "tails with different geometry cannot be composed"
            )
        # coeffs[k-1] multiplies s^k, so (s a)(s c) = s (s a c): the product's
        # list is a * c shifted up by one; jordan drops the powers s^b and up
        prod = [Fraction(0)] + _poly_mul(self.coeffs, other.coeffs)
        return TailDescriptor.jordan(self.block_size, self.start_index, prod)


class FinitePotentOperator:
    """finite_part + tail, with the finite support strictly below any tail."""

    __slots__ = ("finite_part", "tail")

    def __init__(self, finite_part: SparseOperator, tail: TailDescriptor = None):
        if tail is None:
            tail = TailDescriptor.none()
        if not tail.is_none():
            sup = finite_part.support()
            if sup and max(sup) >= tail.start_index:
                raise ValueError(
                    "finite part support must lie strictly below the tail start"
                )
        self.finite_part = finite_part
        self.tail = tail

    @classmethod
    def from_entries(cls, entries, tail: TailDescriptor = None) -> "FinitePotentOperator":
        if isinstance(entries, dict):
            mapping = entries
        else:
            mapping = {(i, j): c for i, j, c in entries}
        return cls(SparseOperator(mapping), tail)

    @classmethod
    def zero(cls) -> "FinitePotentOperator":
        return cls(SparseOperator())

    def __eq__(self, other):
        if not isinstance(other, FinitePotentOperator):
            return NotImplemented
        return self.finite_part == other.finite_part and self.tail == other.tail

    def __hash__(self):
        return hash((self.finite_part, self.tail))

    def __repr__(self):
        if self.tail.is_none():
            return "FinitePotentOperator(%r)" % (self.finite_part,)
        return "FinitePotentOperator(%r, tail=%r)" % (self.finite_part, self.tail)

    def is_zero(self) -> bool:
        return self.finite_part.is_zero() and self.tail.is_none()

    def has_tail(self) -> bool:
        return not self.tail.is_none()

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [
            [i, j, format_rational(c)]
            for (i, j), c in sorted(self.finite_part.entries.items())
        ]
        if self.tail.is_none():
            tail = None
        else:
            tail = {
                "kind": "jordan_blocks",
                "block_size": self.tail.block_size,
                "start": self.tail.start_index,
            }
            if list(self.tail.coeffs) != [Fraction(1)]:
                tail["coeffs"] = [format_rational(c) for c in self.tail.coeffs]
        return {"entries": entries, "tail": tail}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FinitePotentOperator":
        entries = {
            (int(i), int(j)): parse_rational(c) for i, j, c in data.get("entries", [])
        }
        tdata = data.get("tail")
        if tdata is None:
            tail = TailDescriptor.none()
        else:
            coeffs = [parse_rational(c) for c in tdata.get("coeffs", ["1"])]
            tail = TailDescriptor.jordan(
                int(tdata["block_size"]), int(tdata["start"]), coeffs
            )
        return cls(SparseOperator(entries), tail)

    @classmethod
    def from_json(cls, text: str) -> "FinitePotentOperator":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class HalfSpaceSpec:
    """V+ = span{e_i : i >= cut}."""

    cut: int = 0


@dataclass(frozen=True)
class OperatorClass:
    in_E: bool
    in_E1: bool
    in_E2: bool
    in_E0: bool


@dataclass(frozen=True)
class Certificate:
    """(n, W, M): phi(W) <= span(W) and phi^n(e_i) in span(W) for every i;
    M is the matrix of phi restricted to W (rows/cols in the order of W)."""

    n: int
    indices: tuple
    matrix: tuple


def op_apply(phi: FinitePotentOperator, vec: dict) -> dict:
    """Action on a finite-support vector {index: coefficient}."""
    out = phi.finite_part.apply(vec)
    if phi.has_tail():
        for j, x in vec.items():
            if scalar_is_zero(x):
                continue
            for i, c in phi.tail.image_of(j):
                out[i] = out.get(i, Fraction(0)) + c * x
    return {i: v for i, v in out.items() if not scalar_is_zero(v)}


def op_scale(phi: FinitePotentOperator, c) -> FinitePotentOperator:
    return FinitePotentOperator(phi.finite_part.scale(c), phi.tail.scale(c))


def op_entry(phi: FinitePotentOperator, i: int, j: int):
    """Matrix entry (i, j), tail contribution included."""
    val = phi.finite_part.get(i, j)
    for target, c in phi.tail.image_of(j):
        if target == i:
            val = val + c
    return val


def op_add(phi: FinitePotentOperator, *psis: FinitePotentOperator) -> FinitePotentOperator:
    """Sum phi + psi + ..., defined when the structural finite-rank-commutator
    check holds (at most one tail geometry; the tails fold left to right)
    and the sum stays in the representable class.  The finite parts are
    added in one SparseOperator.add."""
    tail = phi.tail
    for psi in psis:
        tail = tail.add(psi.tail)  # raises on incompatible geometry
    finite = phi.finite_part.add(*(psi.finite_part for psi in psis))
    if not tail.is_none():
        sup = finite.support()
        if sup and max(sup) >= tail.start_index:
            raise IncompatibleTailsError(
                "sum has finite support overlapping the tail region"
            )
    return FinitePotentOperator(finite, tail)


def op_sub(phi: FinitePotentOperator, psi: FinitePotentOperator) -> FinitePotentOperator:
    return op_add(phi, op_scale(psi, Fraction(-1)))


def _tail_after_sparse(tail: TailDescriptor, sp: SparseOperator) -> SparseOperator:
    """tail . sp as a finite-support matrix."""
    out = {}
    for (k, j), c in sp.entries.items():
        for i, tc in tail.image_of(k):
            out[(i, j)] = out.get((i, j), Fraction(0)) + tc * c
    return SparseOperator(out)


def _sparse_after_tail(sp: SparseOperator, tail: TailDescriptor) -> SparseOperator:
    """sp . tail as a finite-support matrix: only columns feeding sp's
    column support matter, and each has finitely many tail preimages."""
    if tail.is_none():
        return SparseOperator()
    by_col = {}
    for (i, k), c in sp.entries.items():
        by_col.setdefault(k, []).append((i, c))
    out = {}
    for k, targets in by_col.items():
        # tail(e_j) can hit e_k only for j = k - s, 1 <= s <= len(coeffs),
        # and only from j at or above the tail start
        for j in range(max(k - len(tail.coeffs), tail.start_index), k):
            for hit, tc in tail.image_of(j):
                if hit == k:
                    for i, c in targets:
                        out[(i, j)] = out.get((i, j), Fraction(0)) + c * tc
    return SparseOperator(out)


def op_compose(
    phi: FinitePotentOperator, psi: FinitePotentOperator
) -> FinitePotentOperator:
    """Composition phi . psi (apply psi first)."""
    tail = phi.tail.compose(psi.tail)  # raises on incompatible geometry
    finite = phi.finite_part.compose(psi.finite_part)
    finite = finite.add(_sparse_after_tail(phi.finite_part, psi.tail))
    finite = finite.add(_tail_after_sparse(phi.tail, psi.finite_part))
    if not tail.is_none():
        sup = finite.support()
        if sup and max(sup) >= tail.start_index:
            raise IncompatibleTailsError(
                "composition has finite support overlapping the tail region"
            )
    return FinitePotentOperator(finite, tail)


def op_commutator(
    phi: FinitePotentOperator, psi: FinitePotentOperator
) -> FinitePotentOperator:
    """[phi, psi]; tails of equal geometry commute, so the result carries no
    tail and is finite rank."""
    return op_sub(op_compose(phi, psi), op_compose(psi, phi))


def op_power(phi: FinitePotentOperator, k: int) -> FinitePotentOperator:
    if k < 1:
        raise ValueError("op_power needs k >= 1")
    out = phi
    for _ in range(k - 1):
        out = op_compose(out, phi)
    return out


def certify_finite_potent(phi: FinitePotentOperator) -> Certificate:
    """Structural certificate (n, W, M).

    W is the row support of the finite part: the finite part maps everything
    into span(W) and W into itself, while the tail (disjoint from W) is
    killed by its nilpotency degree.  n is the smallest exponent with
    phi^n(e_i) in span(W) for all i.
    """
    indices = tuple(sorted(phi.finite_part.rows()))
    pos = {i: p for p, i in enumerate(indices)}
    size = len(indices)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), c in phi.finite_part.entries.items():
        if j in pos:
            matrix[pos[i]][pos[j]] = c
    n = max(1, phi.tail.nilpotency_degree()) if phi.has_tail() else 1
    return Certificate(n, indices, tuple(tuple(r) for r in matrix))


def classify(phi: FinitePotentOperator, h: HalfSpaceSpec) -> OperatorClass:
    """Decide the mapping classes of phi relative to V+ = span{e_i: i >= cut}.

    A finite-support part never moves more than finitely many dimensions, so
    it is invisible to every commensurability condition; only the tail
    matters.  A tail shifts upward, hence it can sit inside V+ (start at or
    above the cut) but never wholly below it; a tail starting below the cut
    acts on both sides and is rejected as undecidable placement.
    """
    if phi.has_tail() and phi.tail.start_index < h.cut:
        raise StraddlingTailError(
            "tail starting at %d straddles the cut %d"
            % (phi.tail.start_index, h.cut)
        )
    in_e2 = not phi.has_tail()
    return OperatorClass(in_E=True, in_E1=True, in_E2=in_e2, in_E0=in_e2)


def verify_certificate(
    phi: FinitePotentOperator, cert: Certificate, span: int = 50
) -> bool:
    """Brute-force check: apply phi cert.n times to each of `span` basis
    vectors straddling the interesting region and confirm every image lies
    in span(W).  Heuristic limit: only `span` (default 50) indices are
    tried, so True is evidence, not proof, for wider operators."""
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
