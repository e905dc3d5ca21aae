import math
from fractions import Fraction
from math import factorial, prod
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from finpot import cli, segal_wilson
from finpot.segal_wilson import (
    _RADII,
    LoopExponent,
    exp_symbol,
    sw_group_cocycle_check,
    sw_pairing_closed,
    sw_pairing_interval,
    sw_pairing_truncated,
    sw_vs_tate_check,
    toeplitz_block,
)
from oracles import rounded_det_exact, sizes_by_fractions, sw_pairing_on_stage


def test_toeplitz_block_plus():
    a = Fraction(3, 2)
    blk = toeplitz_block(LoopExponent("plus", {1: a}), 3)
    assert blk == [
        [1, 0, 0],
        [a, 1, 0],
        [a * a / 2, a, 1],
    ]


def test_toeplitz_block_identity():
    blk = toeplitz_block(LoopExponent("plus", {}), 4)
    assert all(
        blk[i][j] == (1 if i == j else 0) for i in range(4) for j in range(4)
    )


def test_toeplitz_block_minus_transpose():
    b = Fraction(2)
    blk = toeplitz_block(LoopExponent("minus", {1: b}), 3)
    plus = toeplitz_block(LoopExponent("plus", {1: b}), 3)
    assert blk == [list(row) for row in zip(*plus)]


def test_pairing_trivial_cases():
    f = LoopExponent("plus", {1: 1})
    zero_minus = LoopExponent("minus", {})
    assert sw_pairing_truncated(f, zero_minus, 5) == 1
    zero_plus = LoopExponent("plus", {})
    anym = LoopExponent("minus", {2: Fraction(1, 2)})
    assert sw_pairing_truncated(zero_plus, anym, 5) == 1


def test_pairing_converges_to_e():
    f = LoopExponent("plus", {1: 1})
    ft = LoopExponent("minus", {1: 1})
    assert sw_pairing_closed(f, ft) == 1
    errs = [
        abs(float(sw_pairing_truncated(f, ft, T)) - math.e) for T in (4, 8, 12)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-12


def test_pairing_disjoint_supports():
    f = LoopExponent("plus", {2: 1})
    ft = LoopExponent("minus", {1: 1})
    assert sw_pairing_closed(f, ft) == 0
    v = sw_pairing_truncated(f, ft, 10)
    assert abs(float(v) - 1.0) < 1e-8


def test_closed_formula_examples():
    f = LoopExponent("plus", {1: Fraction(2, 3)})
    ft = LoopExponent("minus", {1: Fraction(3)})
    assert sw_pairing_closed(f, ft) == 2
    f2 = LoopExponent("plus", {1: 1, 2: 1})
    ft2 = LoopExponent("minus", {1: 1, 2: 1})
    assert sw_pairing_closed(f2, ft2) == 3


# a loop exponent's terms: up to four degrees in 1..4, p/q coefficients in [-2, 2]
_TERMS = st.dictionaries(st.integers(1, 4), st.fractions(-2, 2, max_denominator=3), max_size=4)


@settings(max_examples=150)
@given(_TERMS, _TERMS)
def test_vs_residue_route(a, b):
    """The closed pairing exponent equals res_{t=0}(f~ df), zero exponents
    included."""
    assert sw_vs_tate_check(LoopExponent("plus", a), LoopExponent("minus", b))


def test_antisymmetry_through_residue(rng):
    # swapping the roles negates the residue exponent
    from finpot.places import Place
    from finpot.residues import residue_classical

    for _ in range(10):
        f = LoopExponent("plus", {n: Fraction(rng.randint(-2, 2)) for n in (1, 2)})
        ft = LoopExponent("minus", {n: Fraction(rng.randint(-2, 2)) for n in (1, 2)})
        frf, ftrf = f.as_rational_function(), ft.as_rational_function()
        if frf.is_zero() or ftrf.is_zero():
            continue
        r = residue_classical(ftrf, frf, Place.at_zero())
        assert residue_classical(frf, ftrf, Place.at_zero()) == -r


@settings(max_examples=60)
@given(_TERMS, _TERMS, st.integers(1, 9))
@example({1: 1, 2: Fraction(1, 2)}, {1: -1, 3: 1}, 10)
@example({1: 1, 2: Fraction(1, 2)}, {}, 8)
@example({}, {1: 1}, 1)  # T at the support: exp_symbol drops the terms it cannot reach
def test_group_cocycle(a, b, T):
    """Plus-side blocks multiply exactly, det(a1 a2 a3^-1) = 1, at every T,
    below and above the supports."""
    assert sw_group_cocycle_check(LoopExponent("plus", a), LoopExponent("plus", b), T)


def test_preconditions():
    f = LoopExponent("plus", {3: 1})
    ft = LoopExponent("minus", {2: 1})
    with pytest.raises(ValueError):
        sw_pairing_truncated(f, ft, 5)  # T must exceed combined support
    with pytest.raises(ValueError):
        sw_pairing_truncated(ft, f, 10)  # sides swapped
    with pytest.raises(ValueError):
        LoopExponent("plus", {0: 1})


def interval_and_corner(f, ft, T):
    """sw_pairing_interval's (value, bound), the integer corner whose
    determinant it rounds, and that corner's working scale 2^W."""
    return sw_pairing_interval(f, ft, T) + segal_wilson._corner(f, ft, T)


def hadamard_cap(corner, W):
    """2^-128 prod_i max(1, |row_i|_1) of the corner at scale 2^W."""
    return prod(max(Fraction(1), Fraction(sum(map(abs, row)), 1 << W)) for row in corner) / 2**128


def test_bound_constants():
    # each radius r with lam = p/q has r^q >= 2^p, so r^-n <= 2^(-lam n)
    for r, lam in _RADII:
        assert r**lam.denominator >= 2**lam.numerator
    # e is below its Taylor sum to 1/12! plus the remainder 2/13!, whose
    # 9th power is below 2^13: exp(x) <= 2^(13x/9)
    e_up = sum(Fraction(1, factorial(k)) for k in range(13)) + Fraction(2, factorial(13))
    assert e_up**9 < 2**13


def test_pairing_value_is_dyadic():
    f = LoopExponent("plus", {1: 1})
    ft = LoopExponent("minus", {1: 1})
    value, bound = sw_pairing_interval(f, ft, 12)
    assert isinstance(value, Fraction) and (1 << 128) % value.denominator == 0
    assert 0 < bound <= Fraction(1, 2**127)
    assert sw_pairing_truncated(f, ft, 12) == value


coefficient = st.sampled_from([Fraction(s * n, 4) for s in (-1, 1) for n in (1, 2, 4, 6)])


@st.composite
def pairing_inputs(draw):
    sf, sft = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f = LoopExponent("plus", {n: draw(coefficient) for n in range(1, sf + 1)})
    ft = LoopExponent("minus", {n: draw(coefficient) for n in range(1, sft + 1)})
    return f, ft, draw(st.integers(sf + sft + 1, 12))


@settings(max_examples=10)
@given(pairing_inputs())
def test_interval_contains_the_stage_value(case):
    """The exact stage at pad 110 is within the interval; its own padding
    error is far below 2^-128 at T <= 12."""
    f, ft, T = case
    value, bound, corner, W = interval_and_corner(f, ft, T)
    assert abs(value - sw_pairing_on_stage(f, ft, T, 110)) <= bound
    assert bound <= hadamard_cap(corner, W)


def test_interval_on_sparse_exponents():
    # exponents in z^2 and z^3: phi and psi are summed on the coarser grid
    for a, b, T in (({2: Fraction(1, 2)}, {3: Fraction(-1, 2)}, 8),
                    ({2: 1, 4: Fraction(-1, 4)}, {2: Fraction(1, 2)}, 10),
                    ({3: Fraction(3, 2)}, {1: Fraction(1, 4), 2: 1}, 9)):
        f, ft = LoopExponent("plus", a), LoopExponent("minus", b)
        value, bound = sw_pairing_interval(f, ft, T)
        assert abs(value - sw_pairing_on_stage(f, ft, T, 110)) <= bound <= Fraction(1, 2**127)


def test_old_stage_lies_outside_the_interval():
    """The T + 28 stage's padding error is neither bounded nor small: on a
    long loop-pairing shape it misses det C_T by far more than 2^-128."""
    f = LoopExponent("plus", {1: Fraction(1, 2), 2: Fraction(-1, 2), 3: Fraction(1, 2)})
    ft = LoopExponent("minus", {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(-1, 2)})
    value, bound = sw_pairing_interval(f, ft, 19)
    assert bound <= Fraction(1, 2**127)
    assert abs(value - sw_pairing_on_stage(f, ft, 19, 28)) > 2**64 * bound


def test_bound_on_loop_pairing_shapes(rng):
    """Every shape of the loop-pairing workload (supports per side, T, and
    coefficients +-1/2, +-1/4) gets a bound of at most 2^-127, and the
    fixed-point LU certifies its rounded determinant without int_det."""
    coeffs = [Fraction(s, d) for s in (-1, 1) for d in (2, 4)]
    short = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))
    shapes = [(sf, sft, sf + sft + 6) for sf, sft in short] + [(2, 2, 15), (3, 3, 19)]
    for sf, sft, T in shapes:
        # every coefficient 1/2, then three random draws
        for pick in [lambda: Fraction(1, 2)] + [lambda: rng.choice(coeffs)] * 3:
            f = LoopExponent("plus", {n: pick() for n in range(1, sf + 1)})
            ft = LoopExponent("minus", {n: pick() for n in range(1, sft + 1)})
            value, bound, corner, W = interval_and_corner(f, ft, T)
            assert bound <= Fraction(1, 2**127)
            assert value == Fraction(segal_wilson._certified_rounded_det(corner, W), 2**128)


def integer_matrix(kind, n, W, rng):
    """An n x n integer matrix at scale 2^W: dense with entries up to 2^W;
    2^W I plus entries up to 2^(W/2) with its rows shuffled, so that
    partial pivoting swaps; of rank below n; or dense with a zero first
    column."""
    if kind == "near_identity":
        half = 1 << W // 2
        m = [[((i == j) << W) + rng.randint(-half, half) for j in range(n)] for i in range(n)]
        rng.shuffle(m)
        return m
    if kind == "low_rank":
        r, side = rng.randrange(n), 1 << W // 2
        left = [[rng.randint(-side, side) for _ in range(r)] for _ in range(n)]
        right = [[rng.randint(-side, side) for _ in range(n)] for _ in range(r)]
        return [[sum(map(mul, row, col)) for col in zip(*right)] if r else [0] * n
                for row in left]
    m = [[rng.randint(-(1 << W), 1 << W) for _ in range(n)] for _ in range(n)]
    if kind == "zero_column":
        for row in m:
            row[0] = 0
    return m


@settings(max_examples=120)
@given(st.sampled_from(("dense", "near_identity", "low_rank", "zero_column")),
       st.integers(1, 12), st.sampled_from((8, 40, 160)), st.randoms(use_true_random=False))
def test_certified_rounding_is_exact_or_none(kind, n, W, rng):
    """The fixed-point LU enclosure returns the exact rounding of det or
    None, never another value; at W = 160 it certifies every shuffled
    near-identity matrix, whose elimination swaps rows."""
    m = integer_matrix(kind, n, W, rng)
    out = segal_wilson._certified_rounded_det(m, W)
    assert out in (None, rounded_det_exact(m, W))
    if kind == "near_identity" and W == 160:
        assert out is not None


def test_large_coefficients_fall_back_to_the_exact_rounding():
    """At f = 10z, f~ = 10z^-1, T = 20 the corner's rows are large and the
    enclosure is vacuous: the value is int_det's exact rounding."""
    f, ft = LoopExponent("plus", {1: 10}), LoopExponent("minus", {1: 10})
    corner, W = segal_wilson._corner(f, ft, 20)
    assert segal_wilson._certified_rounded_det(corner, W) is None
    assert sw_pairing_interval(f, ft, 20)[0] == Fraction(rounded_det_exact(corner, W), 2**128)


def exponent(side, max_degree):
    """Up to four terms of degree <= max_degree, each |c| <= 5 with a
    denominator up to 1000, so two sides stay within cli.MAX_COEFF_SIZE."""
    coeff = st.fractions(-5, 5, max_denominator=1000)
    return st.builds(LoopExponent, st.just(side),
                     st.dictionaries(st.integers(1, max_degree), coeff, max_size=4))


@settings(max_examples=80)
@given(exponent("plus", 40), exponent("minus", 40), st.integers(1, cli.MAX_T))
@example(LoopExponent("plus", {40: cli.MAX_COEFF_SIZE}), LoopExponent("minus", {}), cli.MAX_T)
@example(LoopExponent("plus", {}),
         LoopExponent("minus", {1: Fraction(-79, 2), 40: Fraction(1, 2)}), cli.MAX_T)
@example(LoopExponent("plus", {}), LoopExponent("minus", {}), 1)
def test_sizes_match_fraction_sizing(f, ft, T):
    """_sizes in integers returns the (P, W, N, M) of the Fraction sizing,
    with either side empty, degrees up to 40, coefficient size up to
    cli.MAX_COEFF_SIZE and T up to cli.MAX_T."""
    assert segal_wilson._sizes(f, ft, T) == sizes_by_fractions(f, ft, T)


@settings(max_examples=30)
@given(st.sampled_from(("plus", "minus")),
       st.dictionaries(st.integers(1, 4), st.sampled_from(
           [Fraction(s, d) for s in (-1, 1) for d in (1, 2, 3, 4)]), max_size=3),
       st.integers(5, 90), st.integers(150, 260))
def test_fixed_symbol_rounds_the_exp_symbol_fractions(side, coeffs, n, W):
    """The pairing's fixed-point coefficients, rounded from the integer
    numerators, are exp_symbol's Fractions rounded to the nearest multiple
    of 2^-W (halves up)."""
    e = LoopExponent(side, coeffs)
    want = [(2 * c.numerator * 2**W + c.denominator) // (2 * c.denominator)
            for c in exp_symbol(e, n)]
    assert segal_wilson._fixed_symbol(e, n, W) == want

