from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from finpot.matrices import charpoly, det, mat_mul, mat_trace, power_traces
from finpot.operators import SparseOperator
from finpot.polynomials import Polynomial, RationalFunction
from finpot.scalars import (
    NumberField,
    NumberFieldElement,
    _int_coeffs,
    _poly_mul,
    canonical,
    field_norm,
    field_trace,
    format_rational,
    parse_rational,
)
from finpot.series import TruncatedLaurentSeries

from oracles import (charpoly_generic, det_generic, field_mul_fraction, field_trace_newton,
                     mat_mul_generic, poly_mul_generic, power_traces_generic, sparse_add,
                     sparse_compose, sparse_scale)


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
    """field_trace, the regular matrix's diagonal sum, equals the trace
    from Newton's power sums of the modulus's roots."""
    import random

    rng = random.Random(degree)
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    # a sparse monic modulus and a dense one, each with a dense element
    for modulus in ([q(), q()] + [0] * (degree - 2) + [1], [q() for _ in range(degree)] + [1]):
        field = NumberField(modulus)
        e = field.element([q() for _ in range(degree)])
        assert field_trace(e) == field_trace_newton(e)
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
        v = a.coeffs[0]
    else:
        return [a]
    return [a, v, GAUSS.element([v]), ROOT2.element([v])]


@settings(max_examples=200)
@given(st.data())
def test_equal_scalars_hash_equal(data):
    a = data.draw(_scalar())
    b = data.draw(st.one_of(_scalar(), st.sampled_from(_same_value(a))))
    if a == b:
        assert hash(a) == hash(b)


# -- integer numerators over one denominator, against Fractions ----------------

_ETALE = {  # squarefree moduli by their factors; a multiple of a factor is a zero divisor
    "x^2-1 (etale)": ([-1, 1], [1, 1]),
    "(x-1)(x^2+1)(x^3-2)(x^2+x/3+1) (etale)":
        ([-1, 1], [1, 0, 1], [-2, 0, 0, 1], [1, Fraction(1, 3), 1]),
}
_MODULI = {
    "x^2+1": [1, 0, 1],
    "x^2-2": [-2, 0, 1],
    "x^2+x+1": [1, 1, 1],
    "x^2-1/2": [Fraction(-1, 2), 0, 1],
    "x^3+x/3+1": [1, Fraction(1, 3), 0, 1],
    "x^3+x^2/3-1/2": [Fraction(-1, 2), 0, Fraction(1, 3), 1],  # x^4 needs x^3 reduced again
    "x^12+x^11/2-3x^6/4+2x/3-5/7": [Fraction(-5, 7), Fraction(2, 3), 0, 0, 0, 0,
                                     Fraction(-3, 4), 0, 0, 0, 0, Fraction(1, 2), 1],
    **{name: list(prod(map(Polynomial, fs), start=Polynomial([1])).coeffs)
       for name, fs in _ETALE.items()},
}
_FIELDS = {name: NumberField(m) for name, m in _MODULI.items()}


def _is_canonical(x):
    """x's coefficients are d Fractions, and it is stored as d ints over a
    positive int denominator with no common factor."""
    d = x.field.degree
    return (type(x.coeffs) is tuple and len(x.coeffs) == d
            and all(type(c) is Fraction for c in x.coeffs)
            and len(x.nums) == d and all(type(n) is int for n in x.nums)
            and type(x.den) is int and x.den > 0 and gcd(x.den, *x.nums) == 1)


@settings(max_examples=40)
@given(st.data())
def test_element_arithmetic_matches_fractions(data):
    """Products, sums, differences, negation and products by an int or a
    Fraction give the coefficients the Fraction arithmetic gives (products
    by the oracle's Fraction product reduced by polynomial division), each
    in canonical form; inverse round-trips wherever the element is coprime
    to the modulus, and raises exactly where it is not; the norm (from the
    modulus) and the trace (from the reduction table) equal the determinant
    and the trace of the regular matrix; == and hash agree with Fraction on
    rational values."""
    for name, field in _FIELDS.items():
        coeffs = st.lists(_COEFF, max_size=field.degree + 2)  # longer lists are reduced first
        a, b = (field.element(data.draw(coeffs)) for _ in range(2))
        a = a * field.element(data.draw(st.sampled_from(([1],) + _ETALE.get(name, ()))))
        k = data.draw(st.one_of(st.integers(-3, 3), _COEFF))
        ac, bc = a.coeffs, b.coeffs
        cases = [
            (a * b, field_mul_fraction(a, b)),
            (a + b, tuple(x + y for x, y in zip(ac, bc))),
            (a - b, tuple(x - y for x, y in zip(ac, bc))),
            (-a, tuple(-x for x in ac)),
            (a * k, tuple(x * k for x in ac)),
            (k * a, tuple(x * k for x in ac)),
            (a + k, (ac[0] + k,) + ac[1:]),
            (k - a, (k - ac[0],) + tuple(-x for x in ac[1:])),
        ]
        for got, want in cases:
            assert got.coeffs == want and _is_canonical(got)
        try:
            inv = a.inverse()
        except ZeroDivisionError:
            assert Polynomial(ac).gcd(Polynomial(field.modulus)).degree > 0
        else:
            assert a * inv == 1 and _is_canonical(inv)
        m = a.regular_matrix()
        assert field_norm(a) == det(m) and field_trace(a) == mat_trace(m)
        # a rational value equals its Fraction both ways and hashes as it
        v = data.draw(_COEFF)
        e = field.element([v])
        assert e == v and v == e and hash(e) == hash(v) and _is_canonical(e)
        assert (a == ac[0]) == a.is_rational() and (e == k) == (v == k)


# -- the derived ring operations and the Fraction->integer boundary ------------

_Q3 = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_POLY = st.lists(_Q3, max_size=3).map(Polynomial)
_KINDS = ("Q(i)", "Q(sqrt2)", "polynomial", "rational function", "series")


@st.composite
def _value(draw, kind):
    """An element of one of the exact value types: a number field element, a
    polynomial, a rational function, or a series in z over Q and Q(i)."""
    if kind in ("Q(i)", "Q(sqrt2)"):
        return (GAUSS if kind == "Q(i)" else ROOT2).element([draw(_Q3), draw(_Q3)])
    if kind == "polynomial":
        return draw(_POLY)
    if kind == "rational function":
        return RationalFunction(draw(_POLY), draw(_POLY.filter(lambda p: not p.is_zero())))
    prec, low = draw(st.integers(1, 7)), draw(st.integers(-2, 0))
    coeff = st.one_of(_Q3, st.builds(lambda a, b: GAUSS.element([a, b]), _Q3, _Q3))
    terms = draw(st.dictionaries(st.integers(low, prec - 1), coeff, max_size=4))
    return TruncatedLaurentSeries("z", terms, low, prec)


@settings(max_examples=150)
@given(st.sampled_from(_KINDS).flatmap(lambda k: st.tuples(_value(k), _value(k))),
       st.one_of(st.integers(-3, 3), _Q3))
def test_subtraction_is_addition_of_the_negative(xy, k):
    """x - y == x + (-y), and k - x == -(x - k) for an int or Fraction k."""
    x, y = xy
    assert x - y == x + (-y)
    assert k - x == -(x - k)


@settings(max_examples=100)
@given(st.sampled_from(_KINDS[:4]).flatmap(_value), st.integers(0, 6))
def test_powers_are_repeated_products(x, n):
    """x ** n equals the n-fold product, and for a nonzero field element or
    rational function x ** -n is its inverse."""
    product = 1
    for _ in range(n):
        product = product * x
    assert x ** n == product
    if not isinstance(x, Polynomial) and not x.is_zero():
        assert x ** -n * x ** n == 1


def test_negative_power_of_a_polynomial_raises():
    with pytest.raises(ValueError):
        Polynomial([1, 1]) ** -1


@settings(max_examples=100)
@given(st.lists(_Q3, max_size=6), st.data())
def test_int_coeffs_takes_only_all_fraction_lists(cs, data):
    """On Fractions, integers over their least common denominator that give
    back the same Fractions; once any entry is an int or a field element,
    the entries themselves over 1."""
    nums, d = _int_coeffs(cs)
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, d) for n in nums] == cs
    assert d == lcm(*(x.denominator for x in cs))
    other = data.draw(st.one_of(st.integers(-3, 3), st.builds(GAUSS.element, st.lists(_Q3, max_size=2)),
                                st.builds(ROOT2.element, st.lists(_Q3, max_size=2))))
    mixed = cs[:1] + [other] + cs[1:]
    stored, one = _int_coeffs(tuple(mixed))
    assert one == 1 and type(stored) is list
    assert len(stored) == len(mixed) and all(x is y for x, y in zip(stored, mixed))


_GI3 = st.builds(lambda a, b: GAUSS.element([a, b]), _Q3, _Q3)
_MIXES = {"Q": _Q3, "Q(i)": _GI3, "mixed": st.one_of(_Q3, _GI3)}


def _typed(got, *inputs):
    """got holds only Fractions and Q(i) elements, and only Fractions when
    every input scalar is a Fraction."""
    rational = all(type(x) is Fraction for x in inputs)
    return all(type(x) is Fraction or not rational and type(x) is NumberFieldElement
               and x.field == GAUSS for x in got)


@st.composite
def _gauss_operator(draw, kind):
    """Up to six entries on indices 0..3 of the given scalar mix; a Q
    operator always holds 1/6, so its denominator is at least 6."""
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    entries = draw(st.dictionaries(cells, _MIXES[kind], min_size=1, max_size=6))
    if kind == "Q":
        entries[draw(cells)] = Fraction(1, 6)
    elif kind == "Q(i)":
        entries = {k: GAUSS.element([c.numerator, 1]) * Fraction(1, c.denominator)
                   for k, c in draw(st.dictionaries(cells, _Q3, min_size=1, max_size=6)).items()}
    return SparseOperator(entries)


_MIX = st.sampled_from(sorted(_MIXES))


@settings(max_examples=60)
@given(_MIX, _MIX, st.integers(0, 4), st.data())
def test_merged_kernels_take_every_scalar_mix(left, right, n, data):
    """_poly_mul, mat_mul, det, charpoly, power_traces and SparseOperator
    add, compose and scale on Fraction, Q(i) and mixed input, read through
    _int_coeffs and back through _over: the oracles' values, Fractions on
    rational input and never an int, and an operator entry given as a field
    element stays one (a Q operator with denominator 6 plus a Q(i) one
    folds 6 into the field elements)."""
    a = data.draw(st.lists(_MIXES[left], max_size=5))
    b = data.draw(st.lists(_MIXES[right], max_size=5))
    got = _poly_mul(a, b)
    assert got == poly_mul_generic(a, b) and _typed(got, *a, *b)
    x, y = ([data.draw(st.lists(_MIXES[kind], min_size=n, max_size=n)) for _ in range(n)]
            for kind in (left, right))
    xs, ys = [c for row in x for c in row], [c for row in y for c in row]
    got = mat_mul(x, y)
    assert got == mat_mul_generic(x, y) and _typed([c for row in got for c in row], *xs, *ys)
    for got, want in [([det(x)], [det_generic(x)]), (charpoly(x), charpoly_generic(x)),
                      (power_traces(x, n + 1), power_traces_generic(x, n + 1))]:
        assert got == want and _typed(got, *xs)
    p, q = data.draw(_gauss_operator(left)), data.draw(_gauss_operator(right))
    c = data.draw(_MIXES[right])
    for new, old in [(p.add(q), sparse_add(p, q)), (q.add(p), sparse_add(q, p)),
                     (p.compose(q), sparse_compose(p, q)), (p.scale(c), sparse_scale(p, c))]:
        assert new.entries == old.entries
        assert {k: type(v) for k, v in new.entries.items()} == {
            k: type(v) for k, v in old.entries.items()}
        assert _typed(new.entries.values(), *p.entries.values(), *q.entries.values(), c)
    fields = {k for op in (p, q) for k, v in op.entries.items() if type(v) is NumberFieldElement}
    total = p.add(q).entries
    assert all(type(total[k]) is NumberFieldElement for k in fields if k in total)
