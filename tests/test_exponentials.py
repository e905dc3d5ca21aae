from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from finpot.determinants import tate_trace
from finpot.errors import (CompatibilityError, IncompatibleTailsError, StraddlingTailError,
                           VariableMismatchError)
from finpot.exponentials import (
    OperatorSeries,
    det_series,
    exp_op,
    exp_product,
    infinite_product_det,
    zassenhaus_check,
    zassenhaus_terms,
)
from finpot.operators import (
    FinitePotentOperator as FPO,
    HalfSpaceSpec,
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
from oracles import (
    core_closure,
    det_series_on_core,
    exp_product_by_series,
)

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


def test_infinite_product_admits_finite_support():
    """A finite support, on either side of the cut or across it, is in E0:
    one factor below compat_m = 2 gives exp(z tr phi)."""
    cut = 3
    proj = FPO.from_entries([(c, c, 1) for c in range(cut, cut + 6)])
    below = FPO.from_entries([(0, 5, 1), (1, 7, 2)])  # rows < cut, cols >= cut
    mixed = FPO.from_entries([(4, 0, 1), (5, 5, 1)])
    for phi in (proj, below, mixed):
        assert not phi.has_tail()
        out = infinite_product_det([(1, phi)], 2, HalfSpaceSpec(cut))
        assert out == exp_of_scalar(tate_trace(phi), 10)


def test_infinite_product_rejects_straddling_tail():
    """A tail is never in E0: one starting at or above the cut is a
    CompatibilityError, one starting below it straddles the cut."""
    tailed = FPO(SparseOperator(), TailDescriptor.jordan(2, 4))
    for cut in (0, 4):
        with pytest.raises(CompatibilityError):
            infinite_product_det([(1, tailed)], 2, HalfSpaceSpec(cut))
    with pytest.raises(StraddlingTailError):
        infinite_product_det([(1, tailed)], 2, HalfSpaceSpec(5))


def test_infinite_product_admits_exactly_the_tail_free(rng):
    for _ in range(40):
        phi = random_operator(rng, tail_prob=0.5)
        if phi.has_tail():
            with pytest.raises(CompatibilityError):
                infinite_product_det([(1, phi)], 2)
        else:
            assert infinite_product_det([(1, phi)], 2) == exp_of_scalar(tate_trace(phi), 10)


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
    # stay below the tail start, so the product's rows are a core
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
def _operators(draw, tailed=None, top=5):
    """Sparse operators over Q or Q(i) on indices -3..top, with a Jordan
    tail when `tailed` (half of them when None), starting at 6..9 or just
    above the support."""
    gauss = draw(st.booleans())

    def scalar():
        return _GAUSS.element([draw(_Q), draw(_Q)]) if gauss else draw(_Q)

    cells = st.tuples(st.integers(-3, top), st.integers(-3, top))
    entries = {}
    for cell in draw(st.lists(cells, max_size=10, unique=True)):
        x = scalar()
        if not scalar_is_zero(x):
            entries[cell] = x
    tail = TailDescriptor.none()
    if draw(st.booleans()) if tailed is None else tailed:
        b = draw(st.integers(2, 4))
        start = max([draw(st.integers(6, 9))] + [i + 1 for cell in entries for i in cell])
        tail = TailDescriptor.jordan(b, start, [scalar() for _ in range(b - 1)])
    return FPO(SparseOperator(entries), tail)


@settings(max_examples=100)
@given(_operators(), st.integers(1, 3))
def test_det_series_of_exp_op_matches_the_certificate_core(phi, k):
    """The determinant on the rows of the terms equals the determinant on
    the certificate's W, the core exp_op once stored."""
    series = exp_op(phi, k, 10)
    assert det_series(series) == det_series_on_core(series, certify_finite_potent(phi).indices)


@settings(max_examples=80)
@given(_operators(tailed=True), _operators(top=9), st.booleans(), st.integers(1, 3),
       st.integers(1, 3), st.integers(3, 6))
def test_det_series_of_products_matches_the_closed_core(f, g, swap, kf, kg, prec):
    """On exp_op(f) exp_op(g), f tailed, where g's rows may lie in f's
    tail region and g's tail may differ in geometry, the determinant
    equals the one on the closure of the factors' certificate cores under
    all their terms, the core products once merged, whenever op_add and
    op_compose build the product."""
    a, b = exp_op(f, kf, prec), exp_op(g, kg, prec)
    if swap:
        a, b = b, a
    try:
        product = a * b
    except IncompatibleTailsError:
        assume(False)
    seed = certify_finite_potent(f).indices + certify_finite_potent(g).indices
    core = core_closure(seed, [*a.terms.values(), *b.terms.values()])
    assert det_series(product) == det_series_on_core(product, core)


def test_det_series_on_rows_in_a_tail_region():
    """exp_op(f, 2) exp_op(g, k) puts the row 4 of g (and 5, the tail's
    image of it in f g) in f's tail block [3, 5]; W takes in the rest of
    that block, as the closed core did.  With k = 3, g's tail has another
    geometry, never composed with f's below z^5.  With g = e_4 e_5^T the
    block is [[1, z], [z^2, 1 + z^3]]: its determinant needs the tail's
    cell z^2."""
    f = FPO(SparseOperator({(0, 0): Fraction(1)}), TailDescriptor.jordan(3, 3))
    want = exp_of_scalar(1, 5, weight=2)  # exp(z^2 tr f); tr g = 0
    for g, k in ((FPO.from_entries([(4, 0, 1)]), 1),
                 (FPO(SparseOperator({(4, 0): Fraction(1)}), TailDescriptor.jordan(2, 6)), 3),
                 (FPO.from_entries([(4, 5, 1)]), 1)):
        a, b = exp_op(f, 2, 5), exp_op(g, k, 5)
        core = core_closure((0, 4), [*a.terms.values(), *b.terms.values()])
        assert core == (0, 4, 5)
        assert det_series(a * b) == det_series_on_core(a * b, core) == want


def test_operator_series_in_different_variables_do_not_multiply():
    """OperatorSeries.__mul__ raises the VariableMismatchError of series_mul
    and det_series_matrix, not a bare ValueError."""
    with pytest.raises(VariableMismatchError):
        exp_op(PROJ, prec=4, variable="z") * exp_op(PROJ, prec=4, variable="w")


def test_det_series_rejects_tails_without_a_finite_core():
    # the blocks [0, 1], [2, 3], ... and [1, 2], [3, 4], ... never end at a
    # common index, so no finite W holds the row 3; the closure runs off too
    terms = {
        1: FPO(SparseOperator(), TailDescriptor.jordan(2, 0)),
        2: FPO(SparseOperator(), TailDescriptor.jordan(2, 1)),
        3: FPO.from_entries([(3, -1, 1)]),
    }
    with pytest.raises(IncompatibleTailsError):
        det_series(OperatorSeries("z", 4, terms))
    with pytest.raises(AssertionError):
        core_closure((3,), list(terms.values()))


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


@settings(max_examples=100)
@given(_generators(), st.integers(1, 8))
def test_exp_product_matches_series_products(gens, prec):
    """The log-derivative recurrence gives every term of the product of
    the truncated exponentials, in value and scalar type.  The generators
    do not commute and need not sum to zero, so L_0 is exercised too."""
    assume(len(gens) == 1 or any(
        not op_commutator(a, b).is_zero() for a, b in zip(gens, gens[1:])
    ))
    got, want = exp_product(gens, prec), exp_product_by_series(gens, prec)
    assert got.precision == prec
    assert got.terms == want.terms
    for d, t in want.terms.items():
        assert _entry_types(got.terms[d]) == _entry_types(t)
