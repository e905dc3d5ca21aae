"""Layer timings of the dense matrix kernels and local expansions at fixed sizes.

Prints the best of 15 runs of det, charpoly, mat_mul, fitting, mat_inverse
and kernel_basis on random Q matrices of sizes 8, 16 and 24 (entries p/q
with |p| <= 9, q <= 6, fixed seed; the fitting input has an invertible and a
nilpotent part, so the chain of restrictions to the image takes e = n/2
steps, and the fitting "invertible_<n>" input, drawn after every other
input, is dense and invertible, so e = 0 and the chain stops at once; the
kernel_basis input has rank n/2), of det on a dense 8 x 8 matrix over Q(i),
of det_series on exp_op of a dense 10 x 10 operator at precision 10 (and
of a dense 4 x 4 operator over Q(i), det_series_gauss), of
local_expand at precision 8 of a random rational function with a triple
pole at t - 2, at t^2 + 1 and at infinity, and of series_mul and series_exp
on dense Q series (every coefficient a random p/q as above, from degree 0,
or degree 1 for exp) at precision 32, 64 and 128 (a third series per
precision is still drawn where series_inv, no longer exported, was timed), of
reciprocity_check at z-precision 8 and 32 on a random pair with poles at
t - 2 (double), t^2 + 1 and t^3 + t + 1, of SparseOperator.compose on two
random banded 64 x 64 operators (bandwidth 7), of the symbol
determinant cocycle_via_operators at z-precision 8 with f in
span(1/t^2, t) and g in span(1/t, t), of the four-exponential
pairing_via_operators on the same shapes, of the loop pairing's exact int_det
on the integer corner whose determinant sw_pairing_truncated rounds
(segal_wilson._corner) at T = 15 (support 2 + 2) and T = 19 (support 3 + 3,
coefficients +-1/2, +-1/4 as in the loop-pairing workload; since BENCH_17
that is the W-bit Widom corner, with W about 160, where earlier files timed
the exact T + 28 stage corner of about 950-bit entries), of mat_mul on
two dense 8 x 8 matrices over Q(i) (mat_mul_gauss), of the commutator
trace residue_tate at band 3 (f in span(1/t^3, t), g in span(1/t, t^3)),
of det_series on the product exp_op(f) exp_op(g) at precision 10, product
included, with f a dense 8 x 8 operator under a Jordan tail and g a dense
8 x 8 operator (det_series_product), of cocycle_via_operators at z-precision 16 on the
shapes above, of sw_pairing_truncated as a whole at T = 15 (support 2 + 2),
19 and 40 (support 3 + 3, the coefficients above), of series_exp on the
pairing's shape, a sparse exponent at degrees 1, 2 and 3 with coefficients
+-1/2, +-1/4 at length 128 (series_exp "sparse_128"), of the pairing's
rounded determinant segal_wilson._rounded_det (the fixed-point LU
enclosure, with int_det only on its fallback) on the int_det corners at
T = 15 and 19 and on a T = 40 corner (support 3 + 3) drawn after every
other input, on which int_det is timed too (int_det "40"), of det on
rows with unlike denominators at sizes 16 and 24 (det "mixed_rows_16",
"mixed_rows_24": entry p/q^(i mod 3) in row i, |p| <= 9 and q a random
prime <= 23 per row, drawn after every other input; the row where
scaling each row by its own lcm, as every elimination does, beats one lcm
for the whole matrix), of op_compose both ways between a dense 8 x 8
operator on indices 0..7 and a dense 4 x 4 operator under a Jordan tail
from index 4 (block size 3, shift polynomial s - s^2), whose tail region
the first reaches into (op_compose_tail, drawn after every other input),
of mat_inverse on a dense 8 x 8 matrix over Q(i) (mat_inverse_gauss) and
of det on a dense 6 x 6 matrix over the cubic field Q[x]/(x^3 + x^2/3 -
1/2), whose integer reduction table has a denominator (det_cubic), both
drawn after every other input, of NumberFieldElement.inverse at degrees
2, 12 and 40 (nf_inverse: a random monic modulus and element, every
coefficient a p/q as above, drawn after every other input), and, end to
end, of one fresh `python -m finpot` process per CLI verb
(cli_cold, best of 5, counting interpreter start and import; "python" is
a bare interpreter start for reference; "reciprocity dense 60" is
`reciprocity --f 1/P --g t` for a monic P of degree 60 with every lower
coefficient a random integer in [1, 9], drawn after every other input),
and, drawn after all of those, of Polynomial.gcd at degrees 20, 40 and 80
(poly_gcd: "coprime_<n>" is (P, P') for such a dense monic P of degree n,
"common_<n>" two products A C and B C of dense monic polynomials with C
of degree n/2), of f * g.derivative() on the Laurent shapes of the
cocycle_via_operators row (rf_differential, the f g' of every residue),
and of cli_cold "reciprocity dense 80", the dense-60 row at degree 80,
and, drawn after all of those, of squarefree_parts and coprime_basis:
"reciprocity" runs them on one pair of each symbols-reciprocity kind
(rational: f with a linear and a quadratic pole, g linear; Laurent: f and
g in span(1/t, t); operator: f in span(1/t^2, t), g in span(1/t, t)),
squarefree_parts on the denominator of every f g' and coprime_basis on
every nonconstant numerator and denominator, as the residues and
relevant_places take them; "dense_<n>" at degrees 20, 40 and 80 runs
squarefree_parts on A^2 B and coprime_basis on [A C, B C], all dense
monic as above (deg A = n/4, deg B = n/2 in A^2 B; deg C = n/2),
and, drawn after all of those, of field_trace at degrees 2, 12 and 40 on a
random monic modulus and element as in nf_inverse ("new_<n>" takes the
trace of an element of a field built afresh, untimed, for each call, with
its reduction table built as the inverse on the residue route builds it;
"reused_<n>" takes the trace of one element of one field), and of
series_exp on exp(z^2 r) at precision 8 for a random p/q r, the shape of a
symbol value (series_exp "symbol_8"), and, drawn after all of those, of
SparseOperator.compose on two banded 64 x 64 operators over Q(i), every
entry a + b i with a, b random p/q as above (sparse_compose "gauss_64"),
and of a banded 64 x 64 operator over Q composed with the first of those
(sparse_compose "mixed_64"), and, drawn after all of those, of
NumberFieldElement.inverse (nf_inverse) and field_norm at degrees 5, 20
and 60 on a random p/q element of Q[t]/(P): "dense_<n>" for a dense monic P
as in the cli_cold rows, "sparse_<n>" for P = t^n + t + 1.
With --out it also writes the numbers, the git commit of the finpot tree
it imported, the line count of its modules (src_lines) and the machine to
a JSON file.

    PYTHONPATH=src python scripts/bench_layers.py --out BENCH_30.json

Run it on two checkouts on the same host to compare them, each with its own
copy of this script: the pairing rows read segal_wilson._corner and
_rounded_det, which older versions lack; every other row uses only
functions that every version of the package has.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time
from fractions import Fraction

import finpot
from finpot import FinitePotentOperator, SparseOperator, TailDescriptor, segal_wilson
from finpot.exponentials import det_series, exp_op
from finpot.fitting import fitting
from finpot.matrices import charpoly, det, int_det, kernel_basis, mat_inverse, mat_mul
from finpot.operators import op_compose
from finpot.parsing import parse_place
from finpot.places import local_expand
from finpot.polynomials import Polynomial, RationalFunction, coprime_basis, squarefree_parts
from finpot.residues import residue_tate
from finpot.scalars import NumberField, field_norm, field_trace
from finpot.segal_wilson import LoopExponent, sw_pairing_truncated
from finpot.series import TruncatedLaurentSeries, series_exp, series_mul
from finpot.symbols import cocycle_via_operators, pairing_via_operators, reciprocity_check

SIZES = (8, 16, 24)
PRECISIONS = (32, 64, 128)
REPEATS = 15
CLI_REPEATS = 5
CLI_VERBS = {
    "python": ["-c", "pass"],
    "det": ["-m", "finpot", "det", "--op", '{"entries":[[0,0,"1"]]}'],
    "residue": ["-m", "finpot", "residue", "--f", "1/t", "--g", "t", "--place", "t"],
    "reciprocity t-1": ["-m", "finpot", "reciprocity", "--f", "t", "--g", "1/(t-1)"],
    "reciprocity t^2+1": ["-m", "finpot", "reciprocity", "--f", "t", "--g", "1/(t^2+1)"],
    "sw-pairing": ["-m", "finpot", "sw-pairing", "--f", "z", "--ftilde", "z^-1"],
}


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def dense(rng, n, cols=None):
    return [[rational(rng) for _ in range(n if cols is None else cols)] for _ in range(n)]


def dense_series(rng, prec, low):
    """A series in z below prec with a random p/q at every degree from low,
    nonzero at low."""
    cs = {d: rational(rng) for d in range(low, prec)}
    while cs[low] == 0:
        cs[low] = rational(rng)
    return TruncatedLaurentSeries("z", cs, 0, prec)


def laurent(rng, degrees):
    """sum c_d t^d over the given degrees, each c_d a nonzero p/q with
    |p| <= 2 and q <= 2 (the operator requests of symbols-reciprocity)."""
    cs = {}
    for d in degrees:
        while not cs.get(d):
            cs[d] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    k = -min(0, min(cs))
    return RationalFunction(Polynomial([cs.get(d - k, 0) for d in range(max(cs) + k + 1)]),
                            Polynomial([0] * k + [1]))


def loop_exponents(rng, support):
    """Plus and minus exponents with the given support on each side and
    coefficients +-1/2, +-1/4."""
    coeffs = [Fraction(s, d) for s in (-1, 1) for d in (2, 4)]
    return (LoopExponent(side, {n: rng.choice(coeffs) for n in range(1, support + 1)})
            for side in ("plus", "minus"))


def dense_monic(rng, n):
    """t^n plus a random integer in [1, 9] at every lower degree, the shape
    of the dense poles of the cli_cold rows."""
    return Polynomial([rng.randint(1, 9) for _ in range(n)] + [1])


def reciprocity_pairs(rng):
    """One (f, g) of each symbols-reciprocity kind: rational, Laurent and
    operator (see the module docstring)."""
    t = Polynomial([0, 1])
    a, b, c = rng.sample(range(-3, 4), 3)
    q = rng.choice((t * t + 1, t * t - 2, t * t + t + 1, t * t + 3))
    scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    pairs = [(RationalFunction((t - a) * scale, (t - b) * q), RationalFunction(t - c))]
    return pairs + [(laurent(rng, low), laurent(rng, (-1, 1))) for low in ((-1, 1), (-2, 1))]


def pairing_corner(rng, T, support):
    """(corner, W): the integer corner at scale 2^W whose determinant
    sw_pairing_truncated rounds, for random exponents with the given
    support on each side."""
    return segal_wilson._corner(*loop_exponents(rng, support), T)


def invertible(rng, n):
    """A dense n x n matrix over Q with nonzero determinant."""
    while True:
        a = dense(rng, n)
        if det(a) != 0:
            return a


def fitting_input(rng, n):
    """S (A + N) S^-1: A an invertible dense block of size n/2, N a
    strictly upper triangular block, S unit lower triangular."""
    h = n // 2
    m = [[Fraction(0)] * n for _ in range(n)]
    a = invertible(rng, h)
    for i in range(h):
        m[i][:h] = a[i]
    for i in range(h, n):
        for j in range(i + 1, n):
            m[i][j] = rational(rng)
    s = [[Fraction(1) if i == j else (Fraction(rng.randint(-2, 2)) if j < i else Fraction(0))
          for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(s, m), mat_inverse(s))


def dense_operator(rng, n):
    """A SparseOperator with a nonzero p/q, |p| <= 3 and q <= 2, at every
    entry of an n x n block on indices 0..n-1."""
    return SparseOperator({(i, j): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
                           for i in range(n) for j in range(n)})


def banded(rng, scalar, n=64):
    """A SparseOperator with scalar(rng) at every entry of an n x n block
    on indices 0..n-1 within 3 of the diagonal (bandwidth 7)."""
    return SparseOperator({(i, j): scalar(rng) for i in range(n)
                           for j in range(max(0, i - 3), min(n, i + 4))})


def mixed_rows(rng, n):
    """n x n over Q, row i over q^(i mod 3) for a random prime q <= 23."""
    rows = []
    for i in range(n):
        den = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23)) ** (i % 3)
        rows.append([Fraction(rng.randint(-9, 9), den) for _ in range(n)])
    return rows


def best_of(fn, *args):
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def best_of_fresh(make, fn, *args):
    """Best of REPEATS timings of fn(make(*args)), make untimed."""
    best = None
    for _ in range(REPEATS):
        x = make(*args)
        t0 = time.perf_counter()
        fn(x)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def fresh_element(modulus, coeffs):
    """An element of a new NumberField whose reduction table is built."""
    element = NumberField(modulus).element(coeffs)
    element.field._reduction()
    return element


def measure():
    rng = random.Random(20261018)
    out = {"det": {}, "charpoly": {}, "mat_mul": {}, "fitting": {}}
    for n in SIZES:
        a, b = dense(rng, n), dense(rng, n)
        out["det"][str(n)] = best_of(det, a)
        out["charpoly"][str(n)] = best_of(charpoly, a)
        out["mat_mul"][str(n)] = best_of(mat_mul, a, b)
        out["fitting"][str(n)] = best_of(fitting, fitting_input(rng, n))
    entries = {(i, j): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
               for i in range(10) for j in range(10)}
    series = exp_op(FinitePotentOperator(SparseOperator(entries)), 1, 10)
    out["det_series"] = {"10": best_of(det_series, series)}
    # drawn after the inputs above, which stay as in earlier versions
    out["mat_inverse"], out["kernel_basis"] = {}, {}
    for n in SIZES:
        out["mat_inverse"][str(n)] = best_of(mat_inverse, dense(rng, n))
        low_rank = mat_mul(dense(rng, n, n // 2), dense(rng, n // 2, n))
        out["kernel_basis"][str(n)] = best_of(kernel_basis, low_rank)
    gauss = NumberField([1, 0, 1])
    a = [[gauss.element([rational(rng), rational(rng)]) for _ in range(8)] for _ in range(8)]
    out["det_gauss"] = {"8": best_of(det, a)}
    out["local_expand"] = {}
    for name in ("t-2", "t^2+1", "inf"):
        place = parse_place(name)
        num, den = (Polynomial([rational(rng) for _ in range(3)] + [1]) for _ in range(2))
        if place.is_infinity():
            f = RationalFunction(num * Polynomial([0, 0, 0, 1]), den)
        else:
            f = RationalFunction(num, den * place.minimal_poly**3)
        out["local_expand"][name] = best_of(local_expand, f, place, 8)
    entries = {(i, j): gauss.element([rational(rng), rational(rng)])
               for i in range(4) for j in range(4)}
    series = exp_op(FinitePotentOperator(SparseOperator(entries)), 1, 10)
    out["det_series_gauss"] = {"4": best_of(det_series, series)}
    out["series_mul"], out["series_exp"] = {}, {}
    for p in PRECISIONS:
        a, b = (dense_series(rng, p, 0) for _ in range(2))
        out["series_mul"][str(p)] = best_of(series_mul, a, b)
        out["series_exp"][str(p)] = best_of(series_exp, dense_series(rng, p, 1))
        dense_series(rng, p, 0)  # the former series_inv input, so later inputs stay the same
    t = Polynomial([0, 1])
    poles = (t - 2) ** 2 * (t * t + 1) * (t**3 + t + 1)
    f = RationalFunction(Polynomial([rational(rng) for _ in range(3)] + [1]), poles)
    g = RationalFunction(Polynomial([rational(rng) for _ in range(2)] + [1]), (t * t + 1) * (t + 3))
    out["reciprocity_check"] = {str(p): best_of(reciprocity_check, f, g, p) for p in (8, 32)}
    # drawn after every input above, which stay as in earlier versions
    a, b = banded(rng, rational), banded(rng, rational)
    out["sparse_compose"] = {"64": best_of(SparseOperator.compose, a, b)}
    f, g = (laurent(rng, degrees) for degrees in ((-2, 1), (-1, 1)))
    out["cocycle_via_operators"] = {"8": best_of(cocycle_via_operators, f, g, None, 0, 8)}
    # drawn after every input above, which stay as in earlier versions
    f, g = (laurent(rng, degrees) for degrees in ((-2, 1), (-1, 1)))
    out["pairing_via_operators"] = {"8": best_of(pairing_via_operators, f, g, None, 0, 8)}
    corners = {T: pairing_corner(rng, T, support) for T, support in ((15, 2), (19, 3))}
    out["int_det"] = {str(T): best_of(int_det, corner) for T, (corner, _) in corners.items()}
    # drawn after every input above, which stay as in earlier versions
    a, b = ([[gauss.element([rational(rng), rational(rng)]) for _ in range(8)] for _ in range(8)]
            for _ in range(2))
    out["mat_mul_gauss"] = {"8": best_of(mat_mul, a, b)}
    # drawn after every input above, which stay as in earlier versions
    f, g = (laurent(rng, degrees) for degrees in ((-3, 1), (-1, 3)))
    out["residue_tate"] = {"3": best_of(residue_tate, f, g)}
    # drawn after every input above, which stay as in earlier versions
    tailed = FinitePotentOperator(dense_operator(rng, 8), TailDescriptor.jordan(3, 10, [1, -1]))
    a, b = (exp_op(op, 1, 10) for op in (tailed, FinitePotentOperator(dense_operator(rng, 8))))
    out["det_series_product"] = {"8": best_of(lambda: det_series(a * b))}
    f, g = (laurent(rng, degrees) for degrees in ((-2, 1), (-1, 1)))
    out["cocycle_via_operators"]["16"] = best_of(cocycle_via_operators, f, g, None, 0, 16)
    # drawn after every input above, which stay as in earlier versions
    out["sw_pairing_truncated"] = {
        str(T): best_of(sw_pairing_truncated, *loop_exponents(rng, support), T)
        for T, support in ((15, 2), (19, 3), (40, 3))}
    # drawn after every input above, which stay as in earlier versions
    f = next(loop_exponents(rng, 3))
    out["series_exp"]["sparse_128"] = best_of(
        series_exp, TruncatedLaurentSeries.from_terms("z", f.coeffs, 128))
    # drawn after every input above, which stay as in earlier versions
    corners[40] = pairing_corner(rng, 40, 3)
    out["int_det"]["40"] = best_of(int_det, corners[40][0])
    out["rounded_det"] = {str(T): best_of(segal_wilson._rounded_det, *corner)
                          for T, corner in corners.items()}
    # drawn after every input above, which stay as in earlier versions
    for n in (16, 24):
        out["det"]["mixed_rows_%d" % n] = best_of(det, mixed_rows(rng, n))
    # drawn after every input above, which stay as in earlier versions
    free = FinitePotentOperator(dense_operator(rng, 8))
    tailed = FinitePotentOperator(dense_operator(rng, 4), TailDescriptor.jordan(3, 4, [1, -1]))
    out["op_compose_tail"] = {"8": best_of(lambda: (op_compose(free, tailed),
                                                    op_compose(tailed, free)))}
    # drawn after every input above, which stay as in earlier versions
    for n in SIZES:
        out["fitting"]["invertible_%d" % n] = best_of(fitting, invertible(rng, n))
    # drawn after every input above, which stay as in earlier versions
    a = [[gauss.element([rational(rng), rational(rng)]) for _ in range(8)] for _ in range(8)]
    out["mat_inverse_gauss"] = {"8": best_of(mat_inverse, a)}
    cubic = NumberField([Fraction(-1, 2), 0, Fraction(1, 3), 1])
    a = [[cubic.element([rational(rng) for _ in range(3)]) for _ in range(6)] for _ in range(6)]
    out["det_cubic"] = {"6": best_of(det, a)}
    # drawn after every input above, which stay as in earlier versions
    out["nf_inverse"] = {}
    for n in (2, 12, 40):
        field = NumberField([rational(rng) for _ in range(n)] + [1])
        element = field.element([rational(rng) for _ in range(n)])
        out["nf_inverse"][str(n)] = best_of(element.inverse)
    pole = "+".join("%d*t^%d" % (rng.randint(1, 9), k) for k in range(60))
    verbs = dict(CLI_VERBS)
    verbs["reciprocity dense 60"] = ["-m", "finpot", "reciprocity", "--f", "1/(t^60+%s)" % pole,
                                     "--g", "t"]
    # drawn after every input above, which stay as in earlier versions
    out["poly_gcd"] = {}
    for n in (20, 40, 80):
        p = dense_monic(rng, n)
        out["poly_gcd"]["coprime_%d" % n] = best_of(p.gcd, p.derivative())
        c = dense_monic(rng, n // 2)
        a, b = (dense_monic(rng, n - n // 2) * c for _ in range(2))
        out["poly_gcd"]["common_%d" % n] = best_of(a.gcd, b)
    f, g = (laurent(rng, degrees) for degrees in ((-2, 1), (-1, 1)))
    out["rf_differential"] = {"laurent": best_of(lambda: f * g.derivative())}
    pole = "+".join("%d*t^%d" % (rng.randint(1, 9), k) for k in range(80))
    verbs["reciprocity dense 80"] = ["-m", "finpot", "reciprocity", "--f", "1/(t^80+%s)" % pole,
                                     "--g", "t"]
    # drawn after every input above, which stay as in earlier versions
    pairs = reciprocity_pairs(rng)
    dens = [(f * g.derivative()).den for f, g in pairs]
    polys = [p for pair in pairs for h in pair for p in (h.num, h.den) if p.degree > 0]
    out["squarefree_parts"] = {"reciprocity": best_of(lambda: [squarefree_parts(d) for d in dens])}
    out["coprime_basis"] = {"reciprocity": best_of(coprime_basis, polys)}
    for n in (20, 40, 80):
        a, b = dense_monic(rng, n // 4), dense_monic(rng, n // 2)
        out["squarefree_parts"]["dense_%d" % n] = best_of(squarefree_parts, a * a * b)
        c = dense_monic(rng, n // 2)
        a, b = (dense_monic(rng, n - n // 2) * c for _ in range(2))
        out["coprime_basis"]["dense_%d" % n] = best_of(coprime_basis, [a, b])
    # drawn after every input above, which stay as in earlier versions
    out["field_trace"] = {}
    for n in (2, 12, 40):
        modulus, coeffs = [rational(rng) for _ in range(n)] + [1], [rational(rng) for _ in range(n)]
        out["field_trace"]["new_%d" % n] = best_of_fresh(fresh_element, field_trace,
                                                         modulus, coeffs)
        out["field_trace"]["reused_%d" % n] = best_of(field_trace,
                                                      NumberField(modulus).element(coeffs))
    symbol = TruncatedLaurentSeries.from_terms("z", {2: rational(rng)}, 8)
    out["series_exp"]["symbol_8"] = best_of(series_exp, symbol)
    # drawn after every input above, which stay as in earlier versions
    a, b = (banded(rng, lambda r: gauss.element([rational(r), rational(r)])) for _ in range(2))
    out["sparse_compose"]["gauss_64"] = best_of(SparseOperator.compose, a, b)
    out["sparse_compose"]["mixed_64"] = best_of(SparseOperator.compose, banded(rng, rational), a)
    # drawn after every input above, which stay as in earlier versions
    out["field_norm"] = {}
    for n in (5, 20, 60):
        for kind, modulus in (("dense", list(dense_monic(rng, n).coeffs)),
                              ("sparse", [1, 1] + [0] * (n - 2) + [1])):
            element = NumberField(modulus).element([rational(rng) for _ in range(n)])
            out["nf_inverse"]["%s_%d" % (kind, n)] = best_of(element.inverse)
            out["field_norm"]["%s_%d" % (kind, n)] = best_of(field_norm, element)
    out["cli_cold"] = {verb: cli_best_of(argv) for verb, argv in verbs.items()}
    return out


def cli_best_of(argv):
    """Best wall time of CLI_REPEATS fresh interpreters running argv, with
    the imported finpot tree on their path."""
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(finpot.__file__)))
    env = dict(os.environ, PYTHONPATH=package_parent)
    best = None
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable] + argv, env=env, check=True, stdout=subprocess.DEVNULL)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def src_lines(package_dir):
    """Lines in the package's modules, as `wc -l` counts them."""
    total = 0
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def git_commit(path):
    try:
        sha = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", path, "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("+dirty" if dirty else "")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args(argv)
    results = measure()
    for layer, by_size in results.items():
        row = "  ".join("n=%s %9.4f ms" % (n, t * 1e3) for n, t in by_size.items())
        print("%-17s %s" % (layer, row))
    if args.out:
        package_dir = os.path.dirname(os.path.abspath(finpot.__file__))
        record = {
            "git_commit": git_commit(package_dir),
            "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                        "python": platform.python_version(), "system": platform.system()},
            "repeats": REPEATS,
            "cli_repeats": CLI_REPEATS,
            "unit": "s, best of repeats",
            "results": results,
            "src_lines": src_lines(package_dir),
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
