from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.scalars import (
    NumberField,
    canonical,
    field_norm,
    field_trace,
    format_rational,
    parse_rational,
)

from oracles import field_trace_regular


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-8, 2)) == "-4"


GAUSS = NumberField([1, 0, 1])  # x^2 + 1
ROOT2 = NumberField([-2, 0, 1])  # x^2 - 2


def test_field_arithmetic():
    i = GAUSS.generator()
    assert i * i == GAUSS.element([-1])
    assert (1 + i) * (1 - i) == GAUSS.element([2])
    assert (i / i) == GAUSS.one()
    assert (1 / i) == -i
    s = ROOT2.generator()
    assert s * s == ROOT2.element([2])
    assert s ** 4 == ROOT2.element([4])


def test_field_norm_examples():
    i = GAUSS.generator()
    assert field_norm(i) == 1
    assert field_norm(GAUSS.one()) == 1
    assert field_norm(1 + i) == 2


def test_field_norm_multiplicative(rng):
    for _ in range(40):
        field = GAUSS if rng.random() < 0.5 else ROOT2
        a = field.element([rng.randint(-3, 3), rng.randint(-3, 3)])
        b = field.element([rng.randint(-3, 3), rng.randint(-3, 3)])
        assert field_norm(a * b) == field_norm(a) * field_norm(b)


def test_field_trace():
    i = GAUSS.generator()
    assert field_trace(i) == 0
    assert field_trace(1 + i) == 2
    s = ROOT2.generator()
    assert field_trace(s) == 0
    assert field_trace(ROOT2.element([Fraction(1, 2), 3])) == 1


@pytest.mark.parametrize("degree", [2, 4, 30, 120])
def test_field_trace_matches_regular_matrix_trace(degree):
    import random

    rng = random.Random(degree)
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    # a sparse monic modulus and a dense one, each with a dense element
    for modulus in ([q(), q()] + [0] * (degree - 2) + [1], [q() for _ in range(degree)] + [1]):
        field = NumberField(modulus)
        e = field.element([q() for _ in range(degree)])
        assert field_trace(e) == field_trace_regular(e)
        assert field_trace(field.one()) == degree


def test_etale_algebra_inverts_elements_coprime_to_the_modulus():
    # Q[x]/((x^2 + 1)(x - 2)): x - 2 is a zero divisor, x + 1 a unit
    algebra = NumberField([-2, 1, -2, 1])
    x = algebra.generator()
    assert (x + 1) * (x + 1).inverse() == algebra.one()
    with pytest.raises(ZeroDivisionError):
        (x - 2).inverse()
    # the trace is the sum over the factors: tr(x) = i - i + 2
    assert field_trace(x) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GAUSS.zero().inverse()


def test_canonical_makes_rational_values_fractions():
    i = GAUSS.generator()
    for x, want in ((2, Fraction(2)), (Fraction(1, 3), Fraction(1, 3)),
                    (GAUSS.element([Fraction(-3, 2)]), Fraction(-3, 2)), (i * i, Fraction(-1)),
                    (ROOT2.zero(), Fraction(0))):
        got = canonical(x)
        assert got == want and type(got) is Fraction
    x = 1 + i
    assert canonical(x) is x


def test_rational_valued_element_hashes_as_its_fraction():
    assert len({GAUSS.element([1]), Fraction(1)}) == 1
    assert len({ROOT2.element([Fraction(-3, 2)]), Fraction(-3, 2)}) == 1
    assert {GAUSS.element([2]): "two"}[Fraction(2)] == "two"


_COEFF = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _scalar(draw):
    """A Fraction, or an element of Q(i) or Q(sqrt 2) that is rational about
    half the time."""
    field = draw(st.sampled_from((None, GAUSS, ROOT2)))
    c = draw(_COEFF)
    if field is None:
        return c
    return field.element([c, draw(st.sampled_from((Fraction(0), draw(_COEFF))))])


def _same_value(a):
    """a, and when a is rational its value as a Fraction and in both fields."""
    if isinstance(a, Fraction):
        v = a
    elif a.is_rational():
        v = a.rational_value()
    else:
        return [a]
    return [a, v, GAUSS.element([v]), ROOT2.element([v])]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equal_scalars_hash_equal(data):
    a = data.draw(_scalar())
    b = data.draw(st.one_of(_scalar(), st.sampled_from(_same_value(a))))
    if a == b:
        assert hash(a) == hash(b)
