from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.determinants import (
    det_one_plus,
    det_poly,
    det_routes,
    exterior_trace,
    invert_one_plus,
    log_det_series,
    plemelj_smithies_series,
    regularized_det_series,
    restrict_scalars,
    routes_agree,
    tate_trace,
    wedge_scaling_check,
)
from finpot.errors import NotInvertibleError
from finpot.matrices import charpoly
from finpot.operators import (
    FinitePotentOperator as FPO,
    SparseOperator,
    TailDescriptor,
    certify_finite_potent,
    op_add,
    op_compose,
    op_scale,
)
from finpot.polynomials import Polynomial
from finpot.scalars import NumberField, NumberFieldElement, field_norm
from finpot.series import TruncatedLaurentSeries as TLS
from conftest import (composite_is_identity, field_operators, q_operators, random_operator,
                      random_nilpotent)

PROJ = FPO.from_entries([(0, 0, 1)])
NILP = FPO.from_entries([(0, 1, 1)])
DIAG12 = FPO.from_entries([(0, 0, 1), (1, 1, 2)])
UPPER = FPO.from_entries([(0, 0, 1), (0, 1, 1), (1, 1, 2)])


def test_trace_examples():
    assert tate_trace(NILP) == 0
    assert tate_trace(FPO.from_entries([(0, 0, 2)])) == 2
    assert tate_trace(FPO.from_entries([(0, 0, 1), (0, 1, 1)])) == 1


def test_det_examples():
    assert det_one_plus(NILP) == 1
    assert det_one_plus(PROJ) == 2
    assert det_one_plus(UPPER) == 6


def test_det_poly_examples():
    assert det_poly(PROJ) == Polynomial([1, 1])
    assert det_poly(DIAG12) == Polynomial([1, 3, 2])
    assert det_poly(NILP) == Polynomial([1])


def test_exterior_trace_examples():
    assert exterior_trace(DIAG12, 1) == 3
    assert exterior_trace(DIAG12, 2) == 2
    assert exterior_trace(DIAG12, 3) == 0
    assert exterior_trace(NILP, 1) == 0
    assert exterior_trace(NILP, 4) == 0
    assert exterior_trace(PROJ, 1) == 1


def test_char_poly_examples():
    assert Polynomial(charpoly([[Fraction(2)]])) == Polynomial([-2, 1])
    assert Polynomial(charpoly([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])) == (
        Polynomial([0, 0, 1])
    )
    assert Polynomial(charpoly([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])) == (
        Polynomial([2, -3, 1])
    )


def test_invert_examples():
    assert invert_one_plus(NILP) == op_scale(NILP, Fraction(-1))
    assert invert_one_plus(PROJ) == op_scale(PROJ, Fraction(-1, 2))
    with pytest.raises(NotInvertibleError):
        invert_one_plus(FPO.from_entries([(0, 0, -1)]))


def test_invert_with_tail():
    tail = TailDescriptor.jordan(4, 10)
    phi = FPO(SparseOperator({(0, 0): Fraction(1)}), tail)
    psi = invert_one_plus(phi)
    assert composite_is_identity(phi, psi, span=50, lo=-5)
    assert composite_is_identity(psi, phi, span=30, lo=8)


@settings(max_examples=100)
@given(q_operators())
def test_invert_one_plus_round_trip(phi):
    """(1 + phi)(1 + psi) = (1 + psi)(1 + phi) = 1 exactly, as operators, and
    det(1 + phi) det(1 + psi) = 1, for psi = invert_one_plus(phi)."""
    d = det_one_plus(phi)
    if d == 0:
        with pytest.raises(NotInvertibleError):
            invert_one_plus(phi)
        return
    psi = invert_one_plus(phi)
    assert op_add(phi, psi, op_compose(phi, psi)).is_zero()
    assert op_add(psi, phi, op_compose(psi, phi)).is_zero()
    assert d * det_one_plus(psi) == 1


def test_plemelj_examples():
    assert plemelj_smithies_series(PROJ, 4) == Polynomial([1, 1])
    assert plemelj_smithies_series(NILP, 5) == Polynomial([1])
    assert plemelj_smithies_series(DIAG12, 4) == Polynomial([1, 3, 2])


def test_logdet_examples():
    assert log_det_series(NILP, 6).is_one()
    proj_series = log_det_series(PROJ, 6)
    assert proj_series == TLS.from_terms("mu", {0: 1, 1: 1}, 6)
    d12 = log_det_series(DIAG12, 4)
    assert d12 == TLS.from_terms("mu", {0: 1, 1: 3, 2: 2}, 4)


def test_regularized_examples():
    assert regularized_det_series(NILP, 2, 6).is_one()
    assert regularized_det_series(NILP, 4, 6).is_one()
    r = regularized_det_series(PROJ, 2, 6)
    # (1 - mu) exp(mu) = 1 - mu^2/2 - mu^3/3 - mu^4/8 - ...
    assert r.coefficient(0) == 1
    assert r.coefficient(1) == 0
    assert r.coefficient(2) == Fraction(-1, 2)
    assert r.coefficient(3) == Fraction(-1, 3)
    # larger m: det(1-mu phi) times exp of the trace polynomial
    r3 = regularized_det_series(PROJ, 3, 8)
    base = TLS.from_terms("mu", {0: 1, 1: -1}, 8)
    from finpot.series import series_exp

    expo = series_exp(TLS.from_terms("mu", {1: 1, 2: Fraction(1, 2)}, 8))
    assert r3 == base * expo


def test_regularization_order_above_the_precision(rng):
    """Terms of degree prec or more vanish mod mu^prec, so every m >= prec
    gives the m = prec series."""
    ops = [PROJ, NILP, DIAG12, UPPER] + [random_operator(rng) for _ in range(6)]
    for phi in ops:
        for prec in (2, 3, 5):
            want = regularized_det_series(phi, prec, prec)
            for m in (prec + 1, prec + 7):
                assert regularized_det_series(phi, m, prec) == want


def test_route_agreement_random(rng):
    for _ in range(60):
        assert routes_agree(random_operator(rng))


def test_routes_tagged():
    routes = {r.route for r in det_routes(PROJ)}
    assert routes == {"ast", "exterior", "charpoly", "plemelj_smithies", "logdet"}


def test_nilpotent_det_is_one(rng):
    for _ in range(40):
        assert det_one_plus(random_nilpotent(rng)) == 1


def test_direct_sum_multiplies(rng):
    for _ in range(25):
        a = random_operator(rng, tail_prob=0.0)
        shift = max([abs(i) for i in a.finite_part.support()] + [0]) + 7
        b_raw = random_operator(rng, tail_prob=0.0)
        b = FPO(
            SparseOperator(
                {(i + shift, j + shift): c for (i, j), c in b_raw.finite_part.entries.items()}
            )
        )
        assert det_one_plus(op_add(a, b)) == det_one_plus(a) * det_one_plus(b)


def test_multiplicativity(rng):
    for _ in range(25):
        a = random_operator(rng, tail_prob=0.0)
        b = random_operator(rng, tail_prob=0.0)
        prod = op_add(op_add(a, b), op_compose(a, b))
        prod_rev = op_add(op_add(a, b), op_compose(b, a))
        expected = det_one_plus(a) * det_one_plus(b)
        assert det_one_plus(prod) == expected
        assert det_one_plus(prod_rev) == expected


def test_conjugation_invariance(rng):
    for _ in range(25):
        phi = random_operator(rng, tail_prob=0.0)
        while True:
            s = random_operator(rng, tail_prob=0.0, max_rows=3)
            if det_one_plus(s) != 0:
                break
        s_inv = invert_one_plus(s)
        # (1+s) phi (1+s)^-1 - ... as an operator: phi + s phi + phi s_inv + s phi s_inv
        conj = op_add(
            op_add(phi, op_compose(s, phi)),
            op_add(
                op_compose(phi, s_inv), op_compose(op_compose(s, phi), s_inv)
            ),
        )
        assert det_one_plus(conj) == det_one_plus(phi)
        assert tate_trace(conj) == tate_trace(phi)


def test_invertibility_iff_nonzero_det(rng):
    invertible = singular = 0
    for _ in range(60):
        phi = random_operator(rng)
        d = det_one_plus(phi)
        if d == 0:
            singular += 1
            with pytest.raises(NotInvertibleError):
                invert_one_plus(phi)
        else:
            invertible += 1
            psi = invert_one_plus(phi)
            assert composite_is_identity(phi, psi)
    assert invertible > 0


def test_lidskii_coefficient_identity(rng):
    # trace = minus the second-highest charpoly coefficient of the core
    from finpot.fitting import lift_ast

    for _ in range(30):
        phi = random_operator(rng)
        ast = lift_ast(phi)
        cp = Polynomial(charpoly(ast.core_matrix))
        n = ast.core_dim
        second = cp[n - 1] if n else Fraction(0)
        assert tate_trace(phi) == -second


GAUSS = NumberField([1, 0, 1])
ROOT2 = NumberField([-2, 0, 1])


def test_restrict_scalars_examples():
    i = GAUSS.generator()
    phi = FPO.from_entries([(0, 0, i)])
    assert det_one_plus(phi) == 1 + i
    assert field_norm(1 + i) == 2
    assert det_one_plus(restrict_scalars(phi)) == 2

    zero = FPO.zero()
    assert det_one_plus(restrict_scalars(zero)) == 1

    # rational entries: the restricted determinant is the d-th power,
    # matching norm(a) = a^d for rational a
    rational = FPO.from_entries([(0, 0, GAUSS.element([3]))])
    assert det_one_plus(rational) == GAUSS.element([4])
    assert field_norm(GAUSS.element([4])) == 16
    assert det_one_plus(restrict_scalars(rational)) == 16


def test_restrict_scalars_random(rng):
    for field in (GAUSS, ROOT2):
        for _ in range(15):
            entries = {}
            for _ in range(rng.randint(1, 4)):
                entries[(rng.randint(0, 2), rng.randint(0, 2))] = field.element(
                    [rng.randint(-2, 2), rng.randint(-2, 2)]
                )
            phi = FPO(SparseOperator(entries))
            d = det_one_plus(phi)
            if d == 0:
                continue
            assert det_one_plus(restrict_scalars(phi)) == field_norm(
                d if not isinstance(d, Fraction) else field.element([d])
            )


def _number_field_operators(rng):
    """Twenty operators over each of Q(i) and Q(sqrt 2), a third with a tail."""
    for field in (GAUSS, ROOT2):
        for k in range(20):
            entries = {}
            for _ in range(rng.randint(1, 6)):
                entries[(rng.randint(0, 3), rng.randint(0, 3))] = field.element(
                    [rng.randint(-2, 2), rng.randint(-2, 2)]
                )
            tail = TailDescriptor.none()
            if k % 3 == 0:
                tail = TailDescriptor.jordan(3, 6, [1, -2])
            yield FPO(SparseOperator(entries), tail)


def test_det_routes_over_number_fields(rng):
    for phi in _number_field_operators(rng):
        d = det_one_plus(phi)
        results = det_routes(phi)
        assert [r.route for r in results] == [
            "ast", "exterior", "charpoly", "plemelj_smithies", "logdet"]
        assert all(r.value == d for r in results)
        assert routes_agree(phi)


@settings(max_examples=100)
@given(field_operators())
def test_routes_and_traces_agree_over_number_fields(phi):
    """Over Q(i) and Q(sqrt 2): all five det_routes give det_one_plus(phi),
    and tate_trace(phi) is the first exterior trace."""
    d = det_one_plus(phi)
    assert [r.value for r in det_routes(phi)] == [d] * 5
    assert tate_trace(phi) == exterior_trace(phi, 1)


@settings(max_examples=100)
@given(field_operators(tails=False))
def test_restricted_routes_give_the_norm(phi):
    """Every det_routes value of restrict_scalars(phi), an operator over Q,
    is the field norm of det(1 + phi), for tail-free phi with 1 + phi
    invertible."""
    d = det_one_plus(phi)
    if d == 0:
        return
    field = next(iter(phi.finite_part.entries.values())).field
    norm = field_norm(field.one() * d)
    assert [r.value for r in det_routes(restrict_scalars(phi))] == [norm] * 5


def test_det_poly_over_number_fields(rng):
    from finpot.fitting import lift_ast
    from finpot.operators import certify_finite_potent

    for phi in _number_field_operators(rng):
        n = lift_ast(phi).core_dim
        poly = det_poly(phi)
        assert poly == plemelj_smithies_series(phi, n + 1)
        assert poly.evaluate(1) == det_one_plus(phi)
        block = [list(row) for row in certify_finite_potent(phi).matrix]
        sign = -1 if len(block) % 2 else 1
        assert sign * Polynomial(charpoly(block)).evaluate(-1) == det_one_plus(phi)


def test_wedge_scaling_examples():
    tail = TailDescriptor.jordan(3, 10)
    pure = FPO(SparseOperator(), tail)
    for m in (0, 3, 6, 9):
        assert wedge_scaling_check(pure, m) == 1
    proj_tail = FPO(SparseOperator({(0, 0): Fraction(1)}), tail)
    for m in (1, 4, 7):
        assert wedge_scaling_check(proj_tail, m) == 2
    d12 = FPO(
        SparseOperator({(0, 0): Fraction(1), (1, 1): Fraction(2)}),
        TailDescriptor.jordan(3, 10),
    )
    for k in (0, 1, 2):
        assert wedge_scaling_check(d12, 2 + 3 * k) == 6
    with pytest.raises(ValueError):
        wedge_scaling_check(d12, 4)  # not block aligned


def test_wedge_scaling_matches_det(rng):
    for _ in range(15):
        phi = random_operator(rng, tail_prob=0.6)
        from finpot.fitting import lift_ast

        w_dim = len(lift_ast(phi).ambient_indices)
        blocks = phi.tail.block_size if phi.has_tail() else 0
        for k in range(3):
            m = w_dim + k * blocks
            assert wedge_scaling_check(phi, m) == det_one_plus(phi)
            if not blocks:
                break


def test_det_poly_pointwise_oracle(rng):
    # det(1 + k*phi) evaluated directly for k = 0..dim matches the
    # polynomial coefficients (a degree-bounded polynomial is pinned by
    # dim+1 sample points)
    from finpot.matrices import det as mat_det
    from finpot.fitting import lift_ast

    for _ in range(25):
        phi = random_operator(rng)
        ast = lift_ast(phi)
        dp = det_poly(phi)
        n = ast.core_dim
        assert dp.degree <= n
        for k in range(n + 2):
            direct = (
                mat_det([[k * x + (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate(ast.core_matrix)])
                if n
                else Fraction(1)
            )
            assert dp.evaluate(Fraction(k)) == direct


def test_logdet_tail_coefficients_vanish(rng):
    # beyond the core dimension the log-route series has exactly zero
    # coefficients, matching the polynomial nature of the determinant
    from finpot.fitting import lift_ast

    for _ in range(20):
        phi = random_operator(rng)
        n = lift_ast(phi).core_dim
        series = log_det_series(phi, n + 5)
        for d in range(n + 1, n + 5):
            assert series.coefficient(d) == 0


def test_det_routes_scalar_types_over_number_fields():
    # Every route returns a rational value as a Fraction, whatever scalar
    # type its kernel ended on: on a nilpotent block the charpoly route sums
    # field zeros, and i * i is the rational field element -1.
    i, r2 = GAUSS.element([0, 1]), ROOT2.element([0, 1])
    cases = [
        FPO(SparseOperator({(0, 1): i})),
        FPO(SparseOperator({(0, 1): i, (1, 2): GAUSS.element([1, 1]),
                            (0, 2): GAUSS.element([2])})),
        FPO(SparseOperator({(0, 1): r2}), TailDescriptor.jordan(3, 6, [1, -2])),
        FPO(SparseOperator({(0, 0): GAUSS.element([-1]), (2, 1): GAUSS.element([-1, 1])})),
        FPO(SparseOperator({(0, 1): i, (1, 0): i})),
        FPO(SparseOperator({(0, 1): r2, (1, 0): r2})),
    ]
    for phi in cases:
        results = det_routes(phi)
        assert tuple(type(r.value) for r in results) == (Fraction,) * 5
        assert all(r.value == results[0].value for r in results)


@st.composite
def _field_operators(draw):
    """Operators on indices 0..3 over Q(i) or Q(sqrt 2): field entries, some
    of them rational-valued, mixed with Fractions; a third with a tail."""
    field = draw(st.sampled_from((GAUSS, ROOT2)))
    small = st.integers(-2, 2)
    scalar = st.one_of(st.builds(lambda a, b: field.element([a, b]), small, small),
                       st.builds(lambda a: field.element([a]), small),
                       st.builds(Fraction, small, st.integers(1, 2)))
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    entries = draw(st.dictionaries(cells, scalar, min_size=1, max_size=6))
    tail = TailDescriptor.jordan(3, 6, [1, -2]) if draw(st.integers(0, 2)) == 0 else None
    return FPO(SparseOperator(entries), tail)


def _fraction_if_rational(x):
    return type(x) is Fraction or (type(x) is NumberFieldElement and not x.is_rational())


@settings(max_examples=60)
@given(_field_operators())
def test_rational_results_over_number_fields_are_fractions(phi):
    """Every rational value that the determinant, series and polynomial
    results return over a number field is a Fraction (scalars.canonical),
    whichever kernel or route computed it."""
    from finpot.exponentials import det_series, exp_op

    dim = len(certify_finite_potent(phi).indices)
    m = dim + (phi.tail.block_size if phi.has_tail() else 0)
    scalars = [det_one_plus(phi), tate_trace(phi), wedge_scaling_check(phi, m)]
    scalars += [exterior_trace(phi, r) for r in range(1, dim + 2)]
    scalars += [r.value for r in det_routes(phi)]
    polys = [det_poly(phi), plemelj_smithies_series(phi, dim + 1),
             Polynomial(charpoly([list(row) for row in certify_finite_potent(phi).matrix]))]
    series = [log_det_series(phi, dim + 2), regularized_det_series(phi, 2, dim + 2),
              det_series(exp_op(phi, 1, 4))]
    values = scalars + [c for p in polys for c in p.coeffs]
    values += [c for s in series for c in s.coeffs.values()]
    assert all(map(_fraction_if_rational, values))
