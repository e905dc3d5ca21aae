from fractions import Fraction

from hypothesis import given, settings, strategies as st

from finpot.fitting import fitting, lift_ast
from finpot.matrices import (
    det,
    mat_inverse,
    mat_mul,
    mat_trace,
    rank,
)
from finpot.operators import FinitePotentOperator as FPO, SparseOperator, TailDescriptor
from finpot.scalars import NumberField
from conftest import random_operator
from oracles import fitting_at_dimension


def F2(a, b, c, d):
    return [[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]]


def test_nilpotent_matrix():
    ast = fitting(F2(0, 1, 0, 0))
    assert ast.core_dim == 0
    assert ast.nil_dim == 2
    assert ast.nil_degree == 2


def test_diagonal():
    ast = fitting(F2(2, 0, 0, 0))
    assert ast.core_dim == 1
    assert ast.core_matrix == [[Fraction(2)]]
    assert ast.nil_dim == 1
    v = ast.core_basis[0]
    assert v[1] == 0 and v[0] != 0  # core is span(e0)


def test_idempotent_like():
    m = F2(1, 1, 0, 0)
    ast = fitting(m)
    assert ast.core_matrix == [[Fraction(1)]]
    # U = ker M = span (1, -1)
    assert ast.nil_dim == 1
    v = ast.nil_basis[0]
    assert v[0] + v[1] == 0 and v[0] != 0


def _span_equal(vs, ws):
    if len(vs) != len(ws):
        return False
    if not vs:
        return True
    rows = [list(v) for v in vs]
    return rank(rows) == rank(rows + [list(w) for w in ws])


def test_uniqueness_under_similarity(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        while True:
            s = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            if det(s) != 0:
                break
        conj = mat_mul(mat_mul(s, m), mat_inverse(s))
        a1, a2 = fitting(m), fitting(conj)

        def mapped(basis):
            cols = [
                [sum(s[i][k] * v[k] for k in range(n)) for v in basis]
                for i in range(n)
            ]
            return [[row[j] for row in cols] for j in range(len(basis))]

        assert _span_equal(mapped(a1.core_basis), a2.core_basis)
        assert _span_equal(mapped(a1.nil_basis), a2.nil_basis)
        assert a1.core_dim == a2.core_dim and a1.nil_dim == a2.nil_dim


def _one_plus(m):
    return [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]


def test_trace_and_det_split(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        ast = fitting(m)
        assert mat_trace(m) == mat_trace(ast.core_matrix)
        assert mat_trace(ast.nil_matrix) == 0
        d_all = det(_one_plus(m))
        d_core = det(_one_plus(ast.core_matrix))
        d_nil = det(_one_plus(ast.nil_matrix))
        assert d_nil == 1
        assert d_all == d_core * d_nil


def test_lift_examples():
    proj = FPO.from_entries([(0, 0, 1)])
    assert lift_ast(proj).core_matrix == [[Fraction(1)]]
    tail_only = FPO(SparseOperator(), TailDescriptor.jordan(3, 0))
    ast = lift_ast(tail_only)
    assert ast.core_dim == 0 and ast.ambient_indices == ()
    mixed = FPO.from_entries([(0, 0, 1), (0, 1, 1)])
    assert lift_ast(mixed).core_matrix == [[Fraction(1)]]


def test_lift_random(rng):
    for _ in range(20):
        phi = random_operator(rng)
        ast = lift_ast(phi)
        assert ast.core_dim + ast.nil_dim == len(ast.ambient_indices)
        if ast.core_dim:
            assert det(ast.core_matrix) != 0


_GAUSS = NumberField([1, 0, 1])


@st.composite
def _fitting_matrices(draw):
    """An n x n matrix (n <= 8) over Q or Q(i): dense, nilpotent, low rank,
    or an invertible block beside a nilpotent one, conjugated by a unit
    lower-triangular integer matrix."""
    gauss = draw(st.booleans())

    def scalar():
        c = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2)))
        return _GAUSS.element([c, draw(st.integers(-1, 1))]) if gauss else c

    def zero():
        return _GAUSS.element([0]) if gauss else Fraction(0)

    def dense(rows, cols):
        return [[scalar() for _ in range(cols)] for _ in range(rows)]

    def strictly_upper(k):
        return [[scalar() if j > i else zero() for j in range(k)] for i in range(k)]

    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(("dense", "nilpotent", "low_rank", "block")))
    if shape == "dense":
        return dense(n, n)
    if shape == "nilpotent":
        m = strictly_upper(n)
    elif shape == "low_rank":
        k = draw(st.integers(0, n - 1))
        return mat_mul(dense(n, k), dense(k, n)) if k else [[zero()] * n for _ in range(n)]
    else:
        k = draw(st.integers(0, n))
        core, nil = dense(k, k), strictly_upper(n - k)
        m = [row + [zero()] * (n - k) for row in core]
        m += [[zero()] * k + row for row in nil]
    s = [[Fraction(1) if i == j else Fraction(draw(st.integers(-1, 1))) if j < i
          else Fraction(0) for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(s, m), mat_inverse(s))


@settings(max_examples=50)
@given(_fitting_matrices())
def test_rank_stabilisation_matches_dimension_exponent(m):
    ast, ref = fitting(m), fitting_at_dimension(m)
    assert ast.core_matrix == ref.core_matrix
    assert ast.nil_basis == ref.nil_basis
    assert ast.nil_matrix == ref.nil_matrix
    assert ast.nil_degree == ref.nil_degree
    assert _span_equal(ast.core_basis, ref.core_basis)
