from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.places import Place, local_expand, relevant_places
from finpot.polynomials import Polynomial, RationalFunction
from finpot.parsing import parse_place, parse_rational_function as P
from oracles import local_expand_newton, valuation_by_division


def test_place_validation():
    assert parse_place("t").degree == 1
    assert parse_place("t^2+1").degree == 2
    assert parse_place("inf").is_infinity()
    with pytest.raises(ValueError):
        Place.finite(Polynomial([-1, 0, 1]))  # t^2 - 1 reducible
    with pytest.raises(ValueError):
        Place.finite(Polynomial([0, 2]))  # not monic


def test_expand_simple_pole():
    exp = local_expand(P("1/t"), Place.at_zero(), 3)
    assert exp.series.coeffs == {-1: Fraction(1)}
    assert exp.series.precision == 3


def test_expand_geometric_at_infinity():
    exp = local_expand(P("1/(t-1)"), Place.infinity(), 5)
    assert exp.series.coeffs == {1: 1, 2: 1, 3: 1, 4: 1}


def test_expand_at_quadratic_place():
    p = parse_place("t^2+1")
    exp = local_expand(P("t"), p, 4)
    theta = p.field.generator()
    # t is its own digit: the constant coefficient is theta, nothing else
    assert exp.series.coeffs == {0: theta}


def test_expand_higher_digits_at_quadratic_place():
    p = parse_place("t^2+1")
    f = P("1/(t^2+1)") + P("t")
    exp = local_expand(f, p, 2)
    theta = p.field.generator()
    assert exp.series.coefficient(-1) == p.field.one()
    assert exp.series.coefficient(0) == theta


def test_resum_invariant(rng):
    from conftest import random_rational_function

    places = [Place.at_zero(), parse_place("t-2"), parse_place("t^2+1")]
    checked = 0
    for _ in range(40):
        f = random_rational_function(rng)
        if f.is_zero():
            continue
        for p in places:
            prec = 4
            exp = local_expand(f, p, prec)
            diff = f - exp.resum()
            if diff.is_zero():
                continue
            assert diff.valuation_at(p.minimal_poly) >= prec
            checked += 1
    assert checked > 10


def test_resum_invariant_at_infinity(rng):
    from conftest import random_rational_function

    p = Place.infinity()
    for _ in range(20):
        f = random_rational_function(rng)
        exp = local_expand(f, p, 4)
        diff = f - exp.resum()
        if diff.is_zero():
            continue
        # valuation at infinity = deg(den) - deg(num)
        assert diff.den.degree - diff.num.degree >= 4


def test_expand_errors():
    with pytest.raises(Exception):
        local_expand(RationalFunction(Polynomial()), Place.at_zero(), 3)


def test_relevant_places():
    f = P("(t^2+1)/(t-3)")
    g = P("1/t")
    places = relevant_places(f, g)
    polys = {str(p.minimal_poly) for p in places if not p.is_infinity()}
    assert polys == {"t", "-3 + t", "1 + t^2"}
    assert places[-1].is_infinity()


def test_expand_window_shorter_than_valuation():
    exp = local_expand(P("t^3"), Place.at_zero(), 2)
    assert exp.series.is_zero()
    assert exp.series.precision == 2


_ORACLE_PLACES = [Place.infinity()] + [
    parse_place(text) for text in ("t", "t-2", "t^2+1", "t^2-2", "t^2+t+1", "t^3-2")
]
_SMALL_POLY = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=4
).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(_ORACLE_PLACES),
    st.integers(-3, 3),
    _SMALL_POLY,
    _SMALL_POLY,
    st.integers(-3, 8),
)
def test_local_expand_matches_newton_oracle(place, order, num, den, prec):
    """The digit recurrence agrees with Newton lifting and series division:
    same coefficients and value types, same window; same valuations."""
    if place.is_infinity():
        param = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
    else:
        param = RationalFunction(place.minimal_poly)
    f = RationalFunction(Polynomial(num), Polynomial(den)) * param**order
    got = local_expand(f, place, prec).series
    want = local_expand_newton(f, place, prec).series
    assert got.coeffs == want.coeffs
    assert {d: type(c) for d, c in got.coeffs.items()} == {
        d: type(c) for d, c in want.coeffs.items()
    }
    assert (got.precision, got.min_degree) == (want.precision, want.min_degree)
    if not place.is_infinity():
        pi = place.minimal_poly
        assert f.valuation_at(pi) == valuation_by_division(f, pi)
