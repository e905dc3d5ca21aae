from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from finpot.determinants import tate_trace
from finpot.errors import CompatibilityError
from finpot.exponentials import (
    _core_closure,
    _exp_terms,
    det_series,
    exp_op,
    exp_product,
    infinite_product_det,
    zassenhaus_check,
    zassenhaus_terms,
)
from finpot.operators import (
    FinitePotentOperator as FPO,
    SparseOperator,
    TailDescriptor,
    certify_finite_potent,
    op_add,
    op_commutator,
    op_scale,
)
from finpot.scalars import NumberField, scalar_is_zero
from finpot.series import TruncatedLaurentSeries as TLS, series_exp
from conftest import random_operator, random_traceless
from oracles import exp_product_by_series

PROJ = FPO.from_entries([(0, 0, 1)])


def exp_of_scalar(c, prec, weight=1):
    return series_exp(TLS.from_terms("z", {weight: c}, prec))


def test_exp_op_examples():
    n = FPO.from_entries([(0, 1, 1)])
    s = exp_op(n, 1, 6)
    assert s.terms == {1: n}  # series terminates: n^2 = 0
    assert exp_op(FPO.zero(), 1, 6).terms == {}
    s2 = exp_op(PROJ, 2, 5)
    assert s2.terms == {2: PROJ, 4: op_scale(PROJ, Fraction(1, 2))}


def test_det_series_examples():
    n = FPO.from_entries([(0, 1, 1)])
    assert det_series(exp_op(n, 1, 8)).is_one()
    d = det_series(exp_op(PROJ, 1, 8))
    assert d == exp_of_scalar(1, 8)
    c = FPO.from_entries([(0, 0, Fraction(5, 2)), (2, 2, Fraction(-3, 2))])
    d2 = det_series(exp_op(c, 2, 9))
    assert d2 == exp_of_scalar(1, 9, weight=2)


def test_det_series_equals_exp_trace(rng):
    for _ in range(30):
        phi = random_operator(rng)
        d = det_series(exp_op(phi, 1, 10))
        assert d.same_to_precision(exp_of_scalar(tate_trace(phi), 10))


def test_product_multiplicativity(rng):
    for _ in range(20):
        f = random_operator(rng, tail_prob=0.0)
        g = random_operator(rng, tail_prob=0.0)
        lhs = det_series(exp_op(f, 1, 10) * exp_op(g, 1, 10))
        rhs = det_series(exp_op(f, 1, 10)) * det_series(exp_op(g, 1, 10))
        assert lhs.same_to_precision(rhs)


def test_sum_additivity(rng):
    for _ in range(20):
        f = random_operator(rng, tail_prob=0.0)
        g = random_operator(rng, tail_prob=0.0)
        lhs = det_series(exp_op(op_add(f, g), 1, 10))
        rhs = det_series(exp_op(f, 1, 10)) * det_series(exp_op(g, 1, 10))
        assert lhs.same_to_precision(rhs)


def test_zassenhaus_terms_examples():
    f = FPO.from_entries([(1, 0, 1)])
    g = FPO.from_entries([(0, 1, 1)])
    c1, c2, c3 = zassenhaus_terms(f, g)
    assert c1 == FPO.from_entries([(0, 0, -1), (1, 1, 1)])
    zero = FPO.zero()
    assert all(t.is_zero() for t in zassenhaus_terms(f, zero))
    # commuting pair
    h = op_scale(f, Fraction(2))
    assert all(t.is_zero() for t in zassenhaus_terms(f, h))


def test_zassenhaus_check_examples():
    f = FPO.from_entries([(1, 0, 1)])
    g = FPO.from_entries([(0, 1, 1)])
    assert zassenhaus_check(f, g, 5)
    assert zassenhaus_check(f, op_scale(f, Fraction(3)), 5)  # commuting
    assert zassenhaus_check(f, f, 5)  # exp(2f) = exp(f)^2
    with pytest.raises(ValueError):
        zassenhaus_check(f, g, 6)


def test_zassenhaus_random(rng):
    for _ in range(15):
        f = random_operator(rng, tail_prob=0.0, max_rows=3)
        g = random_operator(rng, tail_prob=0.0, max_rows=3)
        assert zassenhaus_check(f, g, 5)


def test_infinite_product_examples():
    n = FPO.from_entries([(0, 1, 1)])
    # all traceless: determinant 1
    fam = [(2, n), (3, n), (4, n)]
    assert infinite_product_det(fam, 1).is_one()
    # single nonzero trace c at weight 2
    c_op = op_scale(PROJ, Fraction(5, 3))
    fam = [(2, c_op), (3, n), (4, n)]
    out = infinite_product_det(fam, 2)
    assert out == exp_of_scalar(Fraction(5, 3), 10, weight=2)
    # two nonzero traces
    fam = [(2, c_op), (3, PROJ), (4, n)]
    out = infinite_product_det(fam, 3)
    expected = series_exp(TLS.from_terms("z", {2: Fraction(5, 3), 3: 1}, 10))
    assert out == expected


def test_infinite_product_rejects_bad_witness():
    fam = [(2, PROJ), (3, PROJ)]
    with pytest.raises(CompatibilityError):
        infinite_product_det(fam, 2)  # position 2 has trace 1


def test_infinite_product_rejects_tailed_factor():
    tailed = FPO(SparseOperator(), TailDescriptor.jordan(2, 5))
    with pytest.raises(CompatibilityError):
        infinite_product_det([(2, tailed)], 3)  # not in E0


def test_infinite_product_random_traceless(rng):
    for _ in range(10):
        m = rng.randint(1, 3)
        fam = []
        for pos in range(1, m + 3):
            op = (
                random_operator(rng, tail_prob=0.0)
                if pos < m
                else random_traceless(rng)
            )
            fam.append((pos + 1, op))
        out = infinite_product_det(fam, m)
        expected = TLS.one("z", 10)
        for pos in range(1, m):
            expected = expected * exp_of_scalar(
                tate_trace(fam[pos - 1][1]), 10, weight=fam[pos - 1][0]
            )
        assert out.same_to_precision(expected)


def test_det_series_product_with_tail():
    # mixing a tailed exponential with a finite-rank one: finite supports
    # stay below the tail start, the merged core closure does the rest
    tailed = FPO(
        SparseOperator({(0, 0): Fraction(1)}), TailDescriptor.jordan(3, 6)
    )
    sparse = FPO.from_entries([(1, 1, 2), (1, 4, 1), (3, 2, Fraction(1, 2))])
    lhs = det_series(exp_op(tailed, 1, 9) * exp_op(sparse, 1, 9))
    rhs = det_series(exp_op(tailed, 1, 9)) * det_series(exp_op(sparse, 1, 9))
    assert lhs.same_to_precision(rhs)


_GAUSS = NumberField([1, 0, 1])
_Q = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _operators(draw):
    """Sparse operators over Q or Q(i) on indices -3..5, half with a Jordan
    tail starting above that support."""
    gauss = draw(st.booleans())
    cells = st.tuples(st.integers(-3, 5), st.integers(-3, 5))
    entries = {}
    for cell in draw(st.lists(cells, max_size=10, unique=True)):
        x = _GAUSS.element([draw(_Q), draw(_Q)]) if gauss else draw(_Q)
        if not scalar_is_zero(x):
            entries[cell] = x
    tail = TailDescriptor.none()
    if draw(st.booleans()):
        b = draw(st.integers(2, 4))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=b - 1, max_size=b - 1))
        tail = TailDescriptor.jordan(b, draw(st.integers(6, 9)), coeffs)
    return FPO(SparseOperator(entries), tail)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operators(), st.integers(1, 3))
def test_exp_op_core_is_the_certificate(phi, k):
    """Every term phi^j / j! maps the certificate's W into W: the core
    closure over the terms is W itself, which exp_op takes as its core."""
    cert = certify_finite_potent(phi)
    terms = _exp_terms(phi, k, 10)
    assert _core_closure(cert.indices, list(terms.values())) == cert.indices
    assert exp_op(phi, k, 10).core == cert.indices


@st.composite
def _generators(draw):
    """One to four sparse operators on indices 0..4, all over Q or all
    over Q(i)."""
    gauss = draw(st.booleans())
    cells = st.tuples(st.integers(0, 4), st.integers(0, 4))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        entries = {}
        for cell in draw(st.lists(cells, min_size=1, max_size=6, unique=True)):
            entries[cell] = _GAUSS.element([draw(_Q), draw(_Q)]) if gauss else draw(_Q)
        gens.append(FPO(SparseOperator(entries)))
    return gens


def _entry_types(op):
    return {k: type(v) for k, v in op.finite_part.entries.items()}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_generators(), st.integers(1, 8))
def test_exp_product_matches_series_products(gens, prec):
    """The log-derivative recurrence gives every term of the product of
    the truncated exponentials, in value and scalar type.  The generators
    do not commute and need not sum to zero, so L_0 is exercised too."""
    assume(len(gens) == 1 or any(
        not op_commutator(a, b).is_zero() for a, b in zip(gens, gens[1:])
    ))
    got, want = exp_product(gens, prec), exp_product_by_series(gens, prec)
    assert got.precision == prec and got.core == ()
    assert got.terms == want.terms
    for d, t in want.terms.items():
        assert _entry_types(got.terms[d]) == _entry_types(t)
