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
)
from finpot.scalars import NumberField, _poly_mul

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
