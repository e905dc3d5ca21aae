import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.polynomials import (
    Polynomial,
    RationalFunction,
    factor_monic_irreducibles,
    is_irreducible,
    split_power,
)
from finpot.scalars import NumberField, _add_product, _poly_mul

from oracles import poly_mul_generic


def rand_poly(rng, deg=3):
    return Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, deg + 1))])


def test_ring_axioms(rng):
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_divmod_and_gcd():
    t = Polynomial.variable()
    p = (t + 1) * (t - 2)
    q, r = p.divmod(t + 1)
    assert q == t - 2 and r.is_zero()
    assert p.gcd((t + 1) * (t + 3)) == t + 1
    assert (t * t).gcd(t) == t


def test_derivative_and_shift():
    t = Polynomial.variable()
    p = t * t * t + 2 * t
    assert p.derivative() == 3 * t * t + 2
    shifted = p.shift(Fraction(1))  # (t+1)^3 + 2(t+1)
    assert shifted == t * t * t + 3 * t * t + 5 * t + 3


def test_irreducibility():
    t = Polynomial.variable()
    assert is_irreducible(t * t + 1)
    assert is_irreducible(t - 3)
    assert not is_irreducible(t * t - 1)
    assert not is_irreducible(Polynomial([5]))


def test_factorization():
    t = Polynomial.variable()
    p = (t - 1) ** 2 * (t * t + 1) * 3
    factors = dict(factor_monic_irreducibles(p))
    assert factors[t - 1] == 2
    assert factors[t * t + 1] == 1


def test_rational_function_normalization():
    t = Polynomial.variable()
    f = RationalFunction(2 * (t + 1) * t, 2 * (t + 1) * (t + 1))
    assert f.num == t
    assert f.den == t + 1  # monic, gcd stripped
    assert f == RationalFunction(t, t + 1)


def test_rational_function_field_ops(rng):
    t = RationalFunction.variable()
    f = 1 / (t - 1)
    g = t
    assert f * (t - 1) == RationalFunction.from_const(1)
    assert (f + g) - g == f
    assert (f / f) == RationalFunction.from_const(1)
    with pytest.raises(ZeroDivisionError):
        f / RationalFunction.from_const(0)


def test_derivative_quotient_rule():
    t = RationalFunction.variable()
    f = 1 / (t * t + 1)
    # f' = -2t/(t^2+1)^2
    expected = RationalFunction(
        Polynomial([0, -2]), (Polynomial([1, 0, 1])) ** 2
    )
    assert f.derivative() == expected


def test_valuation_at():
    t = RationalFunction.variable()
    pi = Polynomial([0, 1])
    assert (t * t).valuation_at(pi) == 2
    assert (1 / t).valuation_at(pi) == -1
    assert (t + 1).valuation_at(pi) == 0


def test_package_import_leaves_sympy_unloaded():
    # sympy is imported on the first irreducibility or factoring call only
    code = "import sys, finpot; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


def test_degree_one_places_leave_sympy_unloaded():
    # every polynomial of degree 1 is irreducible, with no call into sympy
    code = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "from finpot.parsing import parse_place",
        "from finpot.places import Place",
        "from finpot.polynomials import Polynomial, RationalFunction, is_irreducible",
        "from finpot.residues import residue_classical",
        "from finpot.segal_wilson import LoopExponent, sw_vs_tate_check",
        "t = RationalFunction(Polynomial([0, 1]))",
        "assert is_irreducible(Polynomial([Fraction(-2, 3), 5]))",
        "assert Place.at_zero().degree == parse_place('t').degree == 1",
        "assert residue_classical(1 / t, t, Place.infinity()) == -1",
        "assert sw_vs_tate_check(LoopExponent('plus', {1: 1}), LoopExponent('minus', {1: 1}))",
        "print('sympy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


def test_irreducibility_by_degree():
    assert not is_irreducible(Polynomial([]))
    assert not is_irreducible(Polynomial([3]))
    assert is_irreducible(Polynomial([7, -2]))
    assert is_irreducible(Polynomial([1, 0, 1]))
    assert not is_irreducible(Polynomial([-1, 0, 1]))


def test_constant_pi_is_rejected():
    # a constant divides everything, so the multiplicity loop would not end
    f = RationalFunction(Polynomial([1, 1]))
    for pi in (Polynomial([2]), Polynomial([Fraction(-1, 3)])):
        with pytest.raises(ValueError):
            f.valuation_at(pi)
        with pytest.raises(ValueError):
            split_power(list(f.num.coeffs), list(pi.coeffs))


# -- integer product kernel against the generic scalar loop ---------------------

_Q = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 6, 12)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_Q, max_size=12), st.lists(_Q, max_size=12), st.booleans())
def test_coefficient_product_matches_generic_loop(a, b, field):
    """_poly_mul on Fraction lists (zeros and trailing zeros included) runs on
    integers and returns the generic loop's Fractions; lists holding
    number-field elements keep the generic loop."""
    if field and a:
        a[0] = NumberField([1, 0, 1]).element([a[0], Fraction(1)])
    got, want = _poly_mul(a, b), poly_mul_generic(a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    if not field:
        assert all(type(x) is Fraction for x in got)


_FIELDS = {"Q(i)": NumberField([1, 0, 1]), "Q(sqrt2)": NumberField([-2, 0, 1])}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("Q(i)", "Q(sqrt2)", "Q(i) with Q")), st.data())
def test_number_field_coefficient_product_matches_generic_loop(kind, data):
    """_poly_mul on lists of number-field elements, alone or mixed with
    Fractions, zeros of either kind included, gives the generic loop's
    values and scalar types."""
    field = _FIELDS[kind.split()[0]]
    element = st.builds(lambda a, b: field.element([a, b]), _Q, _Q)
    coeff = st.one_of(element, st.just(field.zero()), st.just(Fraction(0)))
    if kind.endswith("with Q"):
        coeff = st.one_of(coeff, _Q)
    a = data.draw(st.lists(coeff, max_size=8))
    b = data.draw(st.lists(coeff, max_size=8))
    got, want = _poly_mul(a, b), poly_mul_generic(a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_add_product_truncates_and_accumulates():
    """Only the degrees below len(acc) are formed, added to what acc holds;
    acc itself is returned."""
    acc = [Fraction(1), Fraction(2)]
    assert _add_product(acc, [3, 0, 7], [1, -1, 4, 5]) is acc
    assert acc == [4, -1]
    assert _add_product([], [1], [1]) == []
    assert _add_product([0] * 4, [0, 2], [1, 1]) == [0, 2, 2, 0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(("Q", "Q(i) with Q")), st.data())
def test_add_product_matches_generic_loop_cut_to_length(kind, data):
    """_add_product into an accumulator of any length (shorter than the
    full product, so that a or b is longer than it, or longer), holding
    nonzero values, adds the generic loop's product cut to that length:
    values and scalar types.  The last coefficient of a and of b is nonzero,
    so the generic product keeps every degree it forms."""
    coeff = _Q
    if kind != "Q":
        field = _FIELDS["Q(i)"]
        coeff = st.one_of(_Q, st.builds(lambda a, b: field.element([a, b]), _Q, _Q),
                          st.just(field.zero()))
    nonzero = coeff.filter(lambda x: x != 0)
    a = data.draw(st.lists(coeff, max_size=6)) + [data.draw(nonzero)]
    b = data.draw(st.lists(coeff, max_size=6)) + [data.draw(nonzero)]
    acc = data.draw(st.lists(_Q, max_size=len(a) + len(b) + 2))
    full = poly_mul_generic(a, b)
    want = [x + y for x, y in zip(acc, full)] + acc[len(full):]
    got = _add_product(list(acc), a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
