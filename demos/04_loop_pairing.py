"""
The loop-group pairing through Toeplitz sections
================================================

Multiplication by exp(f) on the circle, compressed to nonnegative degrees,
is a unipotent triangular Toeplitz block.  The determinant of the block
commutator of a plus loop and a minus loop converges to exp(sum n a_n b_n),
and that exponent is exactly a residue, tying the loop pairing back to the
commutator trace on the half-space model.
"""

import math
from fractions import Fraction

from finpot import (
    LoopExponent,
    sw_group_cocycle_check,
    sw_pairing_closed,
    sw_pairing_interval,
    sw_vs_tate_check,
    toeplitz_block,
)

# The compression of exp(a z) is lower triangular with the exponential
# series marching down the subdiagonals.
blk = toeplitz_block(LoopExponent("plus", {1: Fraction(3, 2)}), 4)
for row in blk:
    print([str(x) for x in row])

# Pair f = z against f~ = z^{-1}: the truncated determinants, each a value
# over 2^128 within a rational bound, converge (fast) to e.
f = LoopExponent("plus", {1: 1})
ft = LoopExponent("minus", {1: 1})
print("closed exponent:", sw_pairing_closed(f, ft))
for T in (3, 5, 8, 12):
    v, bound = sw_pairing_interval(f, ft, T)
    print("T=%2d  pairing=%.12f +- %.1e  err=%.2e"
          % (T, float(v), float(bound), abs(float(v) - math.e)))

# The closed form sums n a_n b_n over matching degrees.
f2 = LoopExponent("plus", {1: 1, 2: 1})
ft2 = LoopExponent("minus", {1: 1, 2: 1})
print("closed exponent for (z+z^2, z^-1+z^-2):", sw_pairing_closed(f2, ft2))

# ... and it is a residue: the pairing exponent equals res_{t=0}(f~ df).
print("exponent equals the residue:", sw_vs_tate_check(f2, ft2))

# Plus-side blocks multiply exactly, so the group cocycle on that side is
# trivial at any truncation.
g1 = LoopExponent("plus", {1: 1, 2: Fraction(1, 2)})
g2 = LoopExponent("plus", {1: -1, 3: 1})
print("plus-side cocycle trivial:", sw_group_cocycle_check(g1, g2, 12))
