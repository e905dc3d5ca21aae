from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.errors import SeriesDomainError, VariableMismatchError
from finpot.scalars import NumberField
from finpot.series import (
    TruncatedLaurentSeries as TLS,
    series_exp,
    series_inv,
    series_log,
    series_mul,
)
from oracles import (
    series_exp_by_fractions,
    series_exp_taylor,
    series_inv_geometric,
    series_log_taylor,
    series_mul_dict,
)


def S(terms, prec, var="z"):
    return TLS.from_terms(var, terms, prec)


def test_mul_polynomial_identity():
    a = S({0: 1, 1: 1}, 6)
    b = S({0: 1, 1: -1}, 6)
    assert series_mul(a, b) == S({0: 1, 2: -1}, 6)


def test_mul_inverse_monomials():
    a = S({-1: 1}, 6)
    b = S({1: 1}, 6)
    prod = series_mul(a, b)
    assert prod.coefficient(0) == 1
    assert prod.coeffs == {0: Fraction(1)}


def test_mul_truncation():
    a = S({0: 1, 1: 1, 2: 1}, 3)
    b = S({0: 1, 1: -1}, 3)
    prod = series_mul(a, b)
    # 1 + 0z + 0z^2; the degree-3 term is beyond the precision window
    assert prod.precision == 3
    assert prod.coeffs == {0: Fraction(1)}


def test_mul_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        series_mul(S({0: 1}, 3), S({0: 1}, 3, var="w"))


def test_exp_examples():
    e = series_exp(S({1: 1}, 4))
    assert e == S({0: 1, 1: 1, 2: Fraction(1, 2), 3: Fraction(1, 6)}, 4)
    assert series_exp(TLS.zero("z", 5)).is_one()
    e2 = series_exp(S({2: 1}, 5))
    assert e2 == S({0: 1, 2: 1, 4: Fraction(1, 2)}, 5)


def test_exp_rejects_constant_and_polar_part():
    with pytest.raises(SeriesDomainError):
        series_exp(S({0: 1, 1: 1}, 4))
    with pytest.raises(SeriesDomainError):
        series_exp(S({-1: 1}, 4))


def test_log_examples():
    l = series_log(S({0: 1, 1: 1}, 5))
    assert l == S({1: 1, 2: Fraction(-1, 2), 3: Fraction(1, 3), 4: Fraction(-1, 4)}, 5)
    assert series_log(TLS.one("z", 5)).is_zero()


def test_log_rejects_bad_constant():
    with pytest.raises(SeriesDomainError):
        series_log(S({0: 2}, 4))


def test_exp_log_round_trip(rng):
    for _ in range(30):
        a = S({d: Fraction(rng.randint(-2, 2)) for d in range(1, 5)}, 8)
        assert series_log(series_exp(a)) == a.truncate(8)
        u = S({0: 1, **{d: Fraction(rng.randint(-2, 2)) for d in range(1, 5)}}, 8)
        assert series_exp(series_log(u)) == u


def test_exp_of_double():
    a = S({1: 1}, 6)
    doubled = series_mul(series_exp(a), series_exp(a))
    assert series_log(doubled) == S({1: 2}, 6)


def test_exp_additive(rng):
    for _ in range(25):
        a = S({d: Fraction(rng.randint(-2, 2)) for d in range(1, 4)}, 7)
        b = S({d: Fraction(rng.randint(-2, 2)) for d in range(1, 4)}, 7)
        assert series_exp(a + b) == series_mul(series_exp(a), series_exp(b))


def test_ring_axioms(rng):
    for _ in range(40):
        a = S({d: Fraction(rng.randint(-2, 2)) for d in range(-1, 3)}, 5)
        b = S({d: Fraction(rng.randint(-2, 2)) for d in range(-1, 3)}, 5)
        c = S({d: Fraction(rng.randint(-2, 2)) for d in range(-1, 3)}, 5)
        assert ((a + b) + c).same_to_precision(a + (b + c))
        assert series_mul(a, b).same_to_precision(series_mul(b, a))
        lhs = series_mul(a, b + c)
        rhs = series_mul(a, b) + series_mul(a, c)
        assert lhs.same_to_precision(rhs)


def test_precision_contract(rng):
    # truncate-then-multiply agrees with multiply-then-truncate
    for _ in range(30):
        a = S({d: Fraction(rng.randint(-2, 2)) for d in range(0, 5)}, 9)
        b = S({d: Fraction(rng.randint(-2, 2)) for d in range(0, 5)}, 9)
        p = 5
        lhs = series_mul(a.truncate(p), b.truncate(p))
        rhs = series_mul(a, b).truncate(p)
        assert lhs.same_to_precision(rhs)


def test_inverse():
    u = S({0: 1, 1: 1}, 6)
    v = series_inv(u)
    assert series_mul(u, v).is_one()
    m = S({-2: 3, 0: 1}, 4)
    assert series_mul(m, series_inv(m)).is_one()


def test_json_round_trip():
    a = TLS("z", {-1: Fraction(1, 2), 0: Fraction(1)}, -1, 8)
    assert a.to_json() == (
        '{"coeffs": {"-1": "1/2", "0": "1"}, "min": -1, "prec": 8, "var": "z"}'
    )
    assert TLS.from_json(a.to_json()) == a


def test_inverse_with_field_coefficients():
    from finpot.scalars import NumberField

    K = NumberField([1, 0, 1])
    theta = K.generator()
    u = TLS.from_terms("u", {0: theta, 1: K.one()}, 5)
    v = series_inv(u)
    assert series_mul(u, v).is_one()


def test_coefficient_beyond_precision_is_unknown():
    from finpot.errors import PrecisionError

    a = S({0: 1}, 3)
    assert a.coefficient(2) == 0
    with pytest.raises(PrecisionError):
        a.coefficient(3)


def test_precision_contract_add_and_exp(rng):
    for _ in range(20):
        a = S({d: Fraction(rng.randint(-2, 2)) for d in range(0, 5)}, 9)
        b = S({d: Fraction(rng.randint(-2, 2)) for d in range(0, 5)}, 9)
        p = 5
        assert (a.truncate(p) + b.truncate(p)).same_to_precision((a + b).truncate(p))
        e = S({d: Fraction(rng.randint(-2, 2)) for d in range(1, 5)}, 9)
        assert series_exp(e.truncate(p)).same_to_precision(series_exp(e).truncate(p))


_FIELDS = (None, NumberField([1, 0, 1]), NumberField([-2, 0, 1]))
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _series(draw, first_degree):
    """A series in z with min_degree 0 and precision up to 40, coefficients in
    Q or in Q(i) or Q(sqrt 2), stored from first_degree on."""
    field = draw(st.sampled_from(_FIELDS))
    prec = draw(st.integers(first_degree + 1, 40))
    degrees = draw(st.sets(st.integers(first_degree, prec - 1), max_size=prec))
    coeffs = {}
    for d in degrees:
        c = draw(_RATIONALS)
        if field is not None and draw(st.booleans()):
            c = field.element([c, draw(_RATIONALS)])
        coeffs[d] = c
    return TLS("z", coeffs, 0, prec)


def _same(new, old):
    assert new == old
    assert (new.precision, new.min_degree) == (old.precision, old.min_degree)


@settings(max_examples=60, deadline=None)
@given(_series(1))
def test_exp_recurrence_matches_taylor_sum(a):
    _same(series_exp(a), series_exp_taylor(a))


@settings(max_examples=60, deadline=None)
@given(_series(1))
def test_log_recurrence_matches_taylor_sum(x):
    a = x + 1
    _same(series_log(a), series_log_taylor(a))


@settings(max_examples=60, deadline=None)
@given(_series(0))
def test_inv_recurrence_matches_geometric_sum(a):
    if a.is_zero():
        with pytest.raises(SeriesDomainError):
            series_inv(a)
        return
    _same(series_inv(a), series_inv_geometric(a))


@st.composite
def _fraction_series(draw):
    """An all-Fraction series in z from degree 1 at precision 1 to 64: zero;
    sparse, up to four terms with denominators up to 10^6, some at the
    last degrees below the precision; or dense up to a top degree, with
    denominators up to 10^6 to degree 6 and up to 12 beyond."""
    prec = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("zero", "sparse", "dense")))
    if kind == "zero" or prec == 1:
        return TLS("z", {}, 0, prec)
    big = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    if kind == "sparse":
        degree = st.one_of(st.integers(1, prec - 1), st.integers(max(1, prec - 3), prec - 1))
        return TLS("z", draw(st.dictionaries(degree, big, min_size=1, max_size=4)), 0, prec)
    top = draw(st.integers(1, prec - 1))
    small = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12))
    coeff = big if top <= 6 else small
    return TLS("z", {d: draw(coeff) for d in range(1, top + 1)}, 0, prec)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fraction_series())
def test_exp_integer_recurrence_matches_fraction_recurrence(a):
    """series_exp on integer numerators gives the Fraction recurrence's
    coefficients, min_degree and precision."""
    _same(series_exp(a), series_exp_by_fractions(a))


_Q = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 6, 12)))
_GAUSS = NumberField([1, 0, 1])
_GAUSS_Q = st.builds(lambda a, b: _GAUSS.element([a, b]), _Q, _Q)


@st.composite
def _series(draw, kind):
    """A series in z with a valuation from -3 to 3, 1 to 9 known degrees
    past it, a min_degree at or below it and gaps: over Q, over Q(i), mixed
    (Fractions with one or two field terms, some of them rational), or
    zero."""
    low, n = draw(st.integers(-3, 3)), draw(st.integers(1, 9))
    coeff = st.one_of(st.just(Fraction(0)), _GAUSS_Q if kind == "Q(i)" else _Q)
    cs = [] if kind == "zero" else draw(st.lists(coeff, min_size=n, max_size=n))
    if kind == "mixed":
        field = st.one_of(_GAUSS_Q, st.builds(lambda a: _GAUSS.element([a]), _Q))
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            cs[k] = draw(field)
    return TLS("z", dict(enumerate(cs, start=low)), low - draw(st.integers(0, 2)), low + n)


def test_mul_field_type_only_where_a_field_term_reaches():
    """a's field term i meets b's gap at z^1, so the value at degree 1 is
    rational and, as every rational coefficient, a Fraction; degree 2 is
    i * 1, a field element."""
    i = _GAUSS.generator()
    prod = series_mul(S({0: i, 1: 1}, 5), S({0: 1, 2: 1}, 5))
    assert prod == S({0: i, 1: 1, 2: i, 3: 1}, 5)
    assert [type(prod.coeffs[d]).__name__ for d in range(4)] == [
        "NumberFieldElement", "Fraction", "NumberFieldElement", "Fraction"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_series_mul_matches_dict_product(data):
    """series_mul on coefficient lists gives the termwise product's values,
    precision and min_degree, over Q, Q(i) and mixed Fraction/Q(i) series,
    with negative valuations, unequal precisions and zero operands."""
    kinds = st.sampled_from(("Q", "Q(i)", "mixed", "zero"))
    a = data.draw(_series(data.draw(kinds)))
    b = data.draw(_series(data.draw(kinds)))
    got, want = series_mul(a, b), series_mul_dict(a, b)
    assert got == want
    assert (got.precision, got.min_degree) == (want.precision, want.min_degree)
