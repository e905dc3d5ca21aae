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

SparseOperator.add, compose and scale are one loop each, on the
numerators of their operands (SparseOperator._ints, scalars._int_coeffs of
the entries): integers over the lcm of the denominators when every entry
is a Fraction, the stored scalars over 1 otherwise.  One _from_ints builds
each result.  On integer numerators one gcd brings the denominator back
down to the lcm, so no Fraction is built between products, and the reduced
Fractions of `entries` are built (scalars._over) when first read.  Any
other numerators take the denominator into the stored scalars, so an entry
given as a field element stays a field element.

Two views turn an operator into a finite matrix.  TailDescriptor.on(cols),
the tail's entries in those columns as a SparseOperator, is the only reader
of the tail rule (TailDescriptor.image_of); op_apply, op_compose
(through SparseOperator.compose) and exponentials.det_series take tails
from it.  SparseOperator.block(indices), the dense matrix on those indices,
fills the certificate and the blocks of the determinants module.
TailDescriptor.compose multiplies shift polynomials with scalars._poly_mul.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import IncompatibleTailsError
from .scalars import (
    NumberFieldElement,
    _int_coeffs,
    _over,
    _poly_mul,
    _poly_trim,
    format_rational,
    parse_integer,
    parse_rational,
    scalar_is_zero,
)


class SparseOperator:
    """Finite-support matrix: map (row, col) -> scalar, no stored zeros."""

    __slots__ = ("_entries", "_nums", "_den")

    def __init__(self, entries=()):
        clean = {}
        for (i, j), c in dict(entries).items():
            if not scalar_is_zero(c):
                clean[(int(i), int(j))] = (
                    c if isinstance(c, NumberFieldElement) else Fraction(c)
                )
        self._entries, self._nums, self._den = clean, None, 1

    @classmethod
    def _from_ints(cls, nums: dict, den: int) -> "SparseOperator":
        """Entries n/den for the nonzero numerators n.  When every n is an
        int, one gcd brings den down to the lcm of the reduced denominators;
        otherwise (gcd refuses the numerator) den is folded into the stored
        scalars (scalars._over), so field elements stay field elements."""
        nums = {k: n for k, n in nums.items() if n}
        op = object.__new__(cls)
        try:
            g = gcd(den, *nums.values())
        except TypeError:
            op._entries, op._nums, op._den = {k: _over(n, den) for k, n in nums.items()}, None, 1
            return op
        if g > 1:
            nums, den = {k: n // g for k, n in nums.items()}, den // g
        op._entries, op._nums, op._den = None, nums, den
        return op

    def _ints(self):
        """(numerators, denominator), scalars._int_coeffs of the entries:
        integers over their lcm when every entry is a Fraction, the entries
        over 1 otherwise."""
        if self._nums is None:
            nums, self._den = _int_coeffs(self._entries.values())
            self._nums = dict(zip(self._entries, nums))
        return self._nums, self._den

    @property
    def entries(self) -> dict:
        if self._entries is None:
            den = self._den
            self._entries = {k: _over(n, den) for k, n in self._nums.items()}
        return self._entries

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

    def _keys(self):
        return self._nums if self._entries is None else self._entries

    def is_zero(self) -> bool:
        return not self._keys()

    def rows(self):
        return {i for i, _ in self._keys()}

    def cols(self):
        return {j for _, j in self._keys()}

    def support(self):
        return self.rows() | self.cols()

    def get(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    def add(self, *others: "SparseOperator") -> "SparseOperator":
        """self + other + ...: the numerators of the operands (_ints) summed
        over the lcm of their denominators (an operand already over it read
        as it is, not rebuilt times 1), with one _from_ints."""
        others = [op for op in others if not op.is_zero()]
        if not others:
            return self
        forms = [op._ints() for op in (self, *others)]
        den = lcm(*(d for _, d in forms))
        parts = (nums if d == den else {k: n * (den // d) for k, n in nums.items()}
                 for nums, d in forms)
        out = dict(next(parts))
        for part in parts:
            for k, c in part.items():
                out[k] = out.get(k, 0) + c
        return SparseOperator._from_ints(out, den)

    def scale(self, c) -> "SparseOperator":
        """c * self: the numerators (_ints) times c's, over the product of
        the denominators, with one _from_ints."""
        (nums, den), ((p,), q) = self._ints(), _int_coeffs([c])
        return SparseOperator._from_ints({k: p * n for k, n in nums.items()}, q * den)

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """Matrix product self . other: of the numerators of both (_ints),
        over the product of their denominators, with one _from_ints."""
        if self.is_zero() or other.is_zero():
            return SparseOperator()
        (left, ld), (right, rd) = self._ints(), other._ints()
        by_row = {}
        for (k, j), c in right.items():
            by_row.setdefault(k, []).append((j, c))
        out = {}
        for (i, k), x in left.items():
            for j, y in by_row.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, 0) + x * y
        return SparseOperator._from_ints(out, ld * rd)

    def block(self, indices) -> list:
        """Dense matrix of the entries whose row and column both lie in
        indices, rows and columns in that order."""
        pos = {i: p for p, i in enumerate(indices)}
        out = [[Fraction(0)] * len(pos) for _ in pos]
        for (i, j), c in self.entries.items():
            if i in pos and j in pos:
                out[pos[i]][pos[j]] = c
        return out

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


@dataclass(frozen=True)
class TailDescriptor:
    """Block tail: e_i -> sum_k coeffs[k-1] e_{i+k} inside blocks of
    block_size indices starting at start_index (crossing terms drop).  No
    coeffs is no tail."""

    block_size: int = 0
    start_index: int = 0
    coeffs: tuple = ()

    @classmethod
    def none(cls) -> "TailDescriptor":
        return cls(0, 0, ())

    @classmethod
    def jordan(cls, block_size: int, start_index: int, coeffs=(1,)) -> "TailDescriptor":
        if block_size < 1:
            raise ValueError("block_size must be positive")
        cs = [c if isinstance(c, NumberFieldElement) else Fraction(c) for c in coeffs]
        cs = _poly_trim(cs[: block_size - 1])
        return cls(block_size, start_index, tuple(cs)) if cs else cls.none()

    def is_none(self) -> bool:
        return not self.coeffs

    def same_geometry(self, other: "TailDescriptor") -> bool:
        return (self.block_size, self.start_index) == (other.block_size, other.start_index)

    def nilpotency_degree(self) -> int:
        """ceil(block_size / v), v the valuation of the shift polynomial."""
        if self.is_none():
            return 1
        v = next(k for k, c in enumerate(self.coeffs, start=1) if c != 0)
        return -(-self.block_size // v)

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

    def on(self, cols) -> SparseOperator:
        """The tail's entries in the given columns, as a SparseOperator."""
        return SparseOperator({(i, j): c for j in cols for i, c in self.image_of(j)})

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
            (parse_integer(i), parse_integer(j)): parse_rational(c)
            for i, j, c in data.get("entries", [])
        }
        tdata = data.get("tail")
        if tdata is None:
            tail = TailDescriptor.none()
        else:
            coeffs = [parse_rational(c) for c in tdata.get("coeffs", ["1"])]
            tail = TailDescriptor.jordan(
                parse_integer(tdata["block_size"]), parse_integer(tdata["start"]), coeffs
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
class Certificate:
    """(n, W, M): phi(W) <= span(W) and phi^n(e_i) in span(W) for every i;
    M is the matrix of phi restricted to W (rows/cols in the order of W)."""

    n: int
    indices: tuple
    matrix: tuple


def op_apply(phi: FinitePotentOperator, vec: dict) -> dict:
    """Action on a finite-support vector {index: coefficient}."""
    return phi.finite_part.add(phi.tail.on(vec)).apply(vec)


def op_scale(phi: FinitePotentOperator, c) -> FinitePotentOperator:
    return FinitePotentOperator(phi.finite_part.scale(c), phi.tail.scale(c))


def op_add(phi: FinitePotentOperator, *psis: FinitePotentOperator) -> FinitePotentOperator:
    """Sum phi + psi + ..., defined when the structural finite-rank-commutator
    check holds (at most one tail geometry; the tails fold left to right)
    and the sum stays in the representable class.  The finite parts are
    added in one SparseOperator.add."""
    tail = phi.tail
    for psi in psis:
        tail = tail.add(psi.tail)  # raises on incompatible geometry
    finite = phi.finite_part.add(*(psi.finite_part for psi in psis))
    try:
        return FinitePotentOperator(finite, tail)
    except ValueError:  # the one check of FinitePotentOperator.__init__
        raise IncompatibleTailsError("sum has finite support overlapping the tail region") from None


def op_sub(phi: FinitePotentOperator, psi: FinitePotentOperator) -> FinitePotentOperator:
    return op_add(phi, op_scale(psi, Fraction(-1)))


def op_compose(
    phi: FinitePotentOperator, psi: FinitePotentOperator
) -> FinitePotentOperator:
    """Composition phi . psi (apply psi first).  psi's tail reaches a column
    k of phi's finite part only from the columns k - len(coeffs) .. k - 1 at
    or above its start, and phi's tail acts only on the rows of psi's.

    The result never overlaps its tail, so it needs no check: it has a tail
    only when both operands have one, of one geometry with start s.  Then
    both finite parts a and b lie below s, so psi's tail, which maps
    columns at or above s to rows at or above s, reaches no column of a,
    phi's tail acts on no row of b, both tail terms are empty, and a b
    lies below s."""
    tail = phi.tail.compose(psi.tail)  # raises on incompatible geometry
    a, b = phi.finite_part, psi.finite_part
    parts = []
    if psi.has_tail():
        reach, start = len(psi.tail.coeffs), psi.tail.start_index
        cols = {j for k in a.cols() for j in range(max(k - reach, start), k)}
        parts.append(a.compose(psi.tail.on(cols)))
    if phi.has_tail():
        parts.append(phi.tail.on(b.rows()).compose(b))
    return FinitePotentOperator(a.compose(b).add(*parts), tail)


def op_commutator(
    phi: FinitePotentOperator, psi: FinitePotentOperator
) -> FinitePotentOperator:
    """[phi, psi]; tails of equal geometry commute, so the result carries no
    tail and is finite rank."""
    return op_sub(op_compose(phi, psi), op_compose(psi, phi))


def certify_finite_potent(phi: FinitePotentOperator) -> Certificate:
    """Structural certificate (n, W, M).

    W is the row support of the finite part: the finite part maps everything
    into span(W) and W into itself, while the tail (disjoint from W) is
    killed by its nilpotency degree.  n is the smallest exponent with
    phi^n(e_i) in span(W) for all i.
    """
    indices = tuple(sorted(phi.finite_part.rows()))
    matrix = phi.finite_part.block(indices)
    n = max(1, phi.tail.nilpotency_degree()) if phi.has_tail() else 1
    return Certificate(n, indices, tuple(tuple(r) for r in matrix))

