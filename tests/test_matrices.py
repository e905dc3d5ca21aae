from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import finpot.matrices as matrices
import finpot.scalars as scalars
from finpot.errors import NotInvertibleError
from finpot.matrices import (
    charpoly,
    det,
    elementary_symmetric,
    identity,
    int_det,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_trace,
    power_traces,
    reduced_echelon,
)
from finpot.scalars import NumberField, NumberFieldElement
from finpot.series import TruncatedLaurentSeries as TLS

from oracles import (
    charpoly_generic,
    det_cofactor,
    det_generic,
    det_series_matrix_fraction_free,
    det_series_matrix_generic,
    echelon_generic,
    kernel_basis_generic,
    mat_inverse_generic,
    mat_mul_generic,
    power_traces_generic,
    principal_minor_sum,
    rank_generic,
    reduced_echelon_generic,
)


def rand_matrix(rng, n):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def test_charpoly_examples():
    assert charpoly([[Fraction(2)]]) == [Fraction(-2), Fraction(1)]
    assert charpoly([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]) == [
        Fraction(0),
        Fraction(0),
        Fraction(1),
    ]
    assert charpoly([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]) == [
        Fraction(2),
        Fraction(-3),
        Fraction(1),
    ]


def test_det_and_charpoly_vs_oracles(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        assert det(m) == det_cofactor(m)
        es = elementary_symmetric(m)
        for r in range(1, n + 1):
            assert es[r] == principal_minor_sum(m, r)
        # det(1+M) = (-1)^n charpoly(-1)
        one_plus = [[m[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
        cp = charpoly(m)
        value = sum(c * Fraction(-1) ** k for k, c in enumerate(cp))
        assert det(one_plus) == Fraction(-1) ** n * value


def test_inverse(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        if det(m) == 0:
            with pytest.raises(NotInvertibleError):
                mat_inverse(m)
            continue
        assert mat_mul(m, mat_inverse(m)) == identity(n)


def test_rank_kernel_image(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n)
        r = len(reduced_echelon(m)[0])
        kers = kernel_basis(m)
        assert r + len(kers) == n
        for v in kers:
            assert all(x == 0 for x in (sum(m[i][j] * v[j] for j in range(n)) for i in range(n)))
        pivots, red = reduced_echelon(m)
        assert len(pivots) == r
        if pivots:  # m = C * R, C the pivot columns of m
            assert mat_mul([[row[c] for c in pivots] for row in m], red) == m


def test_bareiss_is_echelon(rng):
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rand_matrix(rng, n)
        ech, pivots = echelon_generic(m)
        for r, row in enumerate(ech):
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            assert lead == pivots[r]
        assert len(reduced_echelon(m)[0]) == len(pivots)
        assert reduced_echelon(m)[0] == pivots


def test_series_determinant():
    # det [[1 + z, z], [z, 1]] = 1 + z - z^2, each row as two coefficient lists
    zero, one = Fraction(0), Fraction(1)
    rows = [[one, one, zero, zero, one, zero], [zero, one, zero, one, zero, zero]]
    assert matrices._series_det(rows, 3) == [1, 1, -1]


# -- behaviour pinned across every scalar type the elimination serves --------

GAUSS = NumberField([1, 0, 1])  # x^2 + 1


def rand_gauss_matrix(rng, rows, cols):
    return [[GAUSS.element([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(cols)]
            for _ in range(rows)]


def make_singular(rng, m):
    """Overwrite the last row of m by a combination of the other rows."""
    a, b = (GAUSS.element([rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(2))
    m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def minor(m, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def cofactor_rank(m):
    """Largest r with a nonzero r x r minor, by explicit enumeration."""
    rows, cols = len(m), len(m[0])
    for r in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), r):
            for ci in combinations(range(cols), r):
                if det_cofactor([[m[i][j] for j in ci] for i in ri]) != 0:
                    return r
    return 0


def test_number_field_det_and_inverse_vs_cofactors(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rand_gauss_matrix(rng, n, n)
        if n > 2 and rng.random() < 0.3:
            make_singular(rng, m)
        d = det(m)
        assert d == det_cofactor(m)
        if d == 0:
            with pytest.raises(NotInvertibleError):
                mat_inverse(m)
            continue
        inv = mat_inverse(m)
        # adjugate formula: inv[i][j] = (-1)^(i+j) det(minor(j, i)) / det
        for i in range(n):
            for j in range(n):
                cof = det_cofactor(minor(m, j, i))
                assert inv[i][j] * d == (cof if (i + j) % 2 == 0 else -cof)


def test_singular_gauss_matrix_has_no_inverse():
    """Row 1 is i times row 0, so the reduced echelon form of [m | I] takes
    a pivot in the identity half."""
    i, zero, one = GAUSS.generator(), GAUSS.element([0]), GAUSS.element([1])
    m = [[one, i, one + one], [i, -one, i + i], [zero, one, one]]
    assert det(m) == 0
    with pytest.raises(NotInvertibleError, match="singular"):
        mat_inverse(m)


def test_number_field_kernel_basis(rng):
    for _ in range(20):
        n = rng.randint(3, 4)
        m = make_singular(rng, rand_gauss_matrix(rng, n, n))
        assert det_cofactor(m) == 0
        kers = kernel_basis(m)
        assert len(kers) == n - cofactor_rank(m) >= 1
        for v in kers:
            assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0 for row in m)


def test_rectangular_rank_and_kernel(rng):
    for _ in range(30):
        rows, cols = rng.choice([(1, 3), (2, 4), (3, 5), (4, 2), (5, 3), (3, 1)])
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        r = len(reduced_echelon(m)[0])
        assert r == cofactor_rank(m)
        assert len(reduced_echelon(m)[0]) == r
        kers = kernel_basis(m)
        assert len(kers) == cols - r
        for v in kers:
            assert len(v) == cols
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)
        if kers:
            # the kernel vectors are independent
            assert len(reduced_echelon([list(col) for col in zip(*kers)])[0]) == len(kers)


# -- integer kernels against the generic scalar loops ---------------------------

_Q = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 5, 6, 7)))


@st.composite
def _q_matrix(draw, rows=None, cols=None):
    """A Q matrix (square unless rows/cols are given) of one of five shapes:
    dense, sparse, with zeros at the top of the first column (forcing row
    swaps), singular (last row a combination of the first two) and nilpotent
    (strictly upper triangular under a row and column permutation)."""
    n = draw(st.integers(0, 6)) if rows is None else rows
    k = n if cols is None else cols
    shape = draw(st.sampled_from(("dense", "sparse", "swap", "singular", "nilpotent")))
    m = [[draw(_Q) for _ in range(k)] for _ in range(n)]
    if shape == "sparse":
        m = [[x if draw(st.booleans()) else Fraction(0) for x in row] for row in m]
    elif shape == "swap" and n and k:
        for i in range(draw(st.integers(0, n - 1)) + 1):
            m[i][0] = Fraction(0)
    elif shape == "singular" and n >= 2:
        a, b = draw(_Q), draw(_Q)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    elif shape == "nilpotent" and n == k:
        perm = draw(st.permutations(range(n)))
        m = [[m[perm[i]][perm[j]] if perm[i] < perm[j] else Fraction(0)
              for j in range(n)] for i in range(n)]
    return m


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


@settings(max_examples=200)
@given(_q_matrix(), st.integers(0, 4), st.data())
def test_rational_kernels_match_generic_loops(m, cols, data):
    n = len(m)
    d = det(m)
    assert d == det_generic(m) and type(d) is Fraction
    cp = charpoly(m)
    assert cp == charpoly_generic(m) and _all_fractions(cp)
    b = data.draw(_q_matrix(rows=n, cols=cols))
    for x, y in ((m, b), (m, m)):
        prod = mat_mul(x, y)
        assert prod == mat_mul_generic(x, y)
        assert _all_fractions(v for row in prod for v in row)
    for a in (m, b):
        pivots = echelon_generic(a)[1]
        assert len(reduced_echelon(a)[0]) == len(pivots)
        assert reduced_echelon(a)[0] == pivots
    power, chain = identity(n), []
    for _ in range(n + 2):
        power = mat_mul_generic(power, m)
        chain.append(mat_trace(power))
    traces = power_traces(m, n + 2)
    assert traces == chain and _all_fractions(traces)


@settings(max_examples=100)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n)), st.booleans())
def test_integer_bareiss_matches_cofactors(m, singular):
    if singular and len(m) > 2:
        m[-1] = [x - y for x, y in zip(m[0], m[1])]
    assert int_det(m) == det_cofactor([[Fraction(x) for x in row] for row in m])


def test_empty_and_one_by_one_rational_matrices():
    assert det([]) == 1 and type(det([])) is Fraction
    assert charpoly([]) == [Fraction(1)]
    assert mat_mul([], []) == [] and reduced_echelon([]) == ([], [])
    assert power_traces([], 2) == [0, 0]
    for x in (Fraction(0), Fraction(-3, 4)):
        assert det([[x]]) == x and type(det([[x]])) is Fraction
        assert charpoly([[x]]) == [-x, Fraction(1)]
        assert mat_mul([[x]], [[x]]) == [[x * x]]
    out = matrices._series_det([], 4)
    assert out == [1, 0, 0, 0] and _all_fractions(out)


def test_every_scalar_type_reaches_the_fraction_free_loop(monkeypatch, rng):
    """Q input reaches _bareiss as integer rows and Q(i) input with its own
    scalars; the series kernel runs its own loop and no _bareiss.  A Q(i)
    inverse, at a pivot or outside the loop, runs no nested _bareiss: it is
    scalars._subres on the integer modulus and the element's numerators,
    which receives only int lists."""
    q, g = rand_matrix(rng, 4), rand_gauss_matrix(rng, 4, 4)
    q[0][1], q[2][3] = Fraction(1, 3), Fraction(-5, 2)
    for i in range(4):  # diagonally dominant, so both are invertible
        q[i][i] += 20
        g[i][i] = g[i][i] + 20
    one, z = TLS.one("z", 4), TLS.from_terms("z", {1: GAUSS.generator()}, 4)
    series = [[one + z, z], [z * z, one]]
    series_rows = [[x.coefficient(k) for x in row for k in range(4)] for row in series]
    seen, nested, depth, subres = [], [], [0], []

    def nesting(fn):
        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return inside

    def counting(m, *args, _fn=nesting(matrices._bareiss), **kwargs):
        (nested if depth[0] else seen).append({type(x) for row in m for x in row})
        return _fn(m, *args, **kwargs)

    def recording(a, b, *args, _fn=scalars._subres, **kwargs):
        subres.append({type(x) for x in a + b} | {type(a), type(b)})
        return _fn(a, b, *args, **kwargs)

    monkeypatch.setattr(matrices, "_bareiss", counting)
    monkeypatch.setattr(scalars, "_subres", recording)
    nfe = type(GAUSS.generator())
    monkeypatch.setattr(nfe, "inverse", nesting(nfe.inverse))
    for a, reaches in ((q, lambda types: types == {int}),
                       (g, lambda types: nfe in types and int not in types)):
        seen.clear()
        assert det(a) == det_generic(a)
        assert len(reduced_echelon(a)[0]) == rank_generic(a)
        assert reduced_echelon(a) == (list(range(4)), identity(4))
        assert kernel_basis(a) == kernel_basis_generic(a) == []
        assert mat_inverse(a) == mat_inverse_generic(a)
        assert len(seen) == 5 and all(map(reaches, seen))
    assert not nested
    assert subres and all(types == {int, list} for types in subres)
    seen.clear()
    want = det_series_matrix_generic(series, one)
    assert matrices._series_det(series_rows, 4) == [want.coefficient(k) for k in range(4)]
    assert not seen
    for name in ("det_series_matrix", "_series_rows", "_series_bareiss_det", "_eliminate", "_det",
                 "_is_zero", "bareiss_echelon", "mat_vec", "solve_columns", "column_space_basis",
                 "_pivot_columns", "rank", "_divide_by"):
        assert not hasattr(matrices, name)


# -- the reduced-echelon routines against generic Gaussian elimination ---------

SQRT2 = NumberField([-2, 0, 1])  # x^2 - 2
_SCALARS = {
    "Q": _Q,
    "Q(i)": st.builds(lambda a, b: GAUSS.element([a, b]), _Q, _Q),
    "Q(sqrt2)": st.builds(lambda a, b: SQRT2.element([a, b]), _Q, _Q),
}


@st.composite
def _field_matrix(draw, field, rows, cols):
    """A rows x cols matrix over field: dense, sparse (Fraction zeros mixed
    in), with zeros at the top of the first column (forcing swaps), singular
    (last row a combination of the first two) or of rank at most 1."""
    scalar = _SCALARS[field]
    shape = draw(st.sampled_from(("dense", "sparse", "swap", "singular", "rank1")))
    m = [[draw(scalar) for _ in range(cols)] for _ in range(rows)]
    if shape == "sparse":
        m = [[x if draw(st.booleans()) else Fraction(0) for x in row] for row in m]
    elif shape == "swap" and rows and cols:
        for i in range(draw(st.integers(0, rows - 1)) + 1):
            m[i][0] = Fraction(0)
    elif shape == "singular" and rows >= 2:
        a, b = draw(scalar), draw(scalar)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    elif shape == "rank1" and rows and cols:
        col = [draw(scalar) for _ in range(rows)]
        m = [[x * y for y in m[0]] for x in col]
    return m


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except NotInvertibleError as exc:
        return "error", str(exc)


def _flat(value):
    if isinstance(value, list):
        return [x for item in value for x in _flat(item)]
    return [value]


def _assert_same(field, got, want):
    """Equal outcomes; over Q also the same Fractions, of type Fraction."""
    assert got == want
    if field == "Q" and got[0] == "value":
        assert _all_fractions(_flat(got[1]))


@settings(max_examples=150)
@given(st.sampled_from(sorted(_SCALARS)), st.integers(0, 5), st.integers(0, 5), st.data())
def test_reduced_echelon_routines_match_generic_elimination(field, n, cols, data):
    square = data.draw(_field_matrix(field, n, n))
    rect = data.draw(_field_matrix(field, n, cols))
    for m in (square, rect):
        assert len(reduced_echelon(m)[0]) == rank_generic(m)
        got, want = reduced_echelon(m), reduced_echelon_generic(m)
        assert got[0] == want[0]
        _assert_same(field, ("value", got[1]), ("value", want[1]))
        _assert_same(field, _outcome(kernel_basis, m), _outcome(kernel_basis_generic, m))
    _assert_same(field, _outcome(mat_inverse, square), _outcome(mat_inverse_generic, square))


# -- one product chain and one series determinant for every scalar type --------


def _rational(m):
    return _all_fractions(x for row in m for x in row)


@settings(max_examples=80)
@given(st.sampled_from(("Q(i)", "Q(sqrt2)")), st.integers(0, 5), st.integers(0, 4),
       st.booleans(), st.data())
def test_number_field_products_match_generic_loops(field, n, cols, mixed, data):
    """mat_mul and power_traces over a number field (Fractions mixed into
    the first row when mixed) give the generic loops' values; all-Fraction
    input gives Fractions."""
    m = data.draw(_field_matrix(field, n, n))
    b = data.draw(_field_matrix(field, n, cols))
    if mixed and n:
        m[0] = [data.draw(_Q) for _ in range(n)]
    c = data.draw(_field_matrix(field, cols, n))
    for x, y in ((m, b), (m, m), (b, c)):
        got, want = mat_mul(x, y), mat_mul_generic(x, y)
        assert got == want
        if _rational(x) and _rational(y):
            assert _all_fractions(_flat(got))
    got, want = power_traces(m, n + 2), power_traces_generic(m, n + 2)
    assert got == want
    if _rational(m):
        assert _all_fractions(got)


_FIELDS = {"Q(i)": GAUSS, "Q(sqrt2)": SQRT2}


@st.composite
def _unipotent_series_rows(draw):
    """(kinds, p, rows): an n x n block I + O(z) at precision p, each row
    laid out as n coefficient lists of length p, as det_series lays it out.
    A row's kind is "Q" (Fractions over its own denominator, so rows have
    unlike denominators), or "field" (Q(i) or Q(sqrt2) elements, one field
    for the block) or "mixed" (each coefficient either); absent
    coefficients are Fraction zeros."""
    n, p = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    field = _SCALARS[draw(st.sampled_from(sorted(_FIELDS)))]
    kinds, rows = [], []
    for i in range(n):
        kind = draw(st.sampled_from(("Q", "field", "mixed")))
        den = draw(st.sampled_from((1, 2, 3, 5, 7, 11)))
        rational = st.builds(lambda a, e: Fraction(a, den**e),
                             st.integers(-9, 9), st.integers(0, 2))
        coeff = {"Q": rational, "field": field, "mixed": st.one_of(rational, field)}[kind]
        row = [Fraction(0)] * (n * p)
        row[i * p] = Fraction(1)
        for j in range(n):
            for k in range(1, p):
                if draw(st.booleans()):
                    row[j * p + k] = draw(coeff)
        kinds.append(kind)
        rows.append(row)
    return kinds, p, rows


@settings(max_examples=200)
@given(_unipotent_series_rows())
def test_series_det_matches_generic_loops(case):
    """The pivot-free series kernel on an I + O(z) block gives, coefficient
    by coefficient, the determinant of Gaussian elimination and of
    fraction-free elimination on the entries as series (each with its pivot
    search); over Q every coefficient is a Fraction, otherwise it lies in
    the block's field."""
    kinds, p, rows = case
    got = matrices._series_det(rows, p)
    assert len(got) == p
    m = [[TLS("z", dict(enumerate(row[j * p : (j + 1) * p])), 0, p) for j in range(len(rows))]
         for row in rows]
    one = TLS.one("z", p)
    for oracle in (det_series_matrix_generic, det_series_matrix_fraction_free):
        want = oracle(m, one)
        assert (want.precision, want.min_degree) == (p, 0)
        assert got == [want.coefficient(k) for k in range(p)]
    if all(kind == "Q" for kind in kinds):
        assert _all_fractions(got)
    else:
        fields = {x.field for row in rows for x in row if type(x) is NumberFieldElement}
        assert all(type(x) is Fraction or {x.field} == fields for x in got)


@st.composite
def _field_series_rows(draw):
    """(field, p, rows): an n x n block I + O(z) at precision p (n >= 1)
    whose higher coefficients are Q(i) or Q(sqrt2) elements with Fractions
    mixed in, laid out as _series_det takes it."""
    field = draw(st.sampled_from(sorted(_FIELDS)))
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    coeff = st.one_of(_SCALARS[field], _Q)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (n * p)
        row[i * p] = Fraction(1)
        for j in range(n):
            for k in range(1, p):
                if draw(st.booleans()):
                    row[j * p + k] = draw(coeff)
        rows.append(row)
    return _FIELDS[field], p, rows


@settings(max_examples=150)
@given(_field_series_rows())
def test_number_field_series_det_matches_generic_elimination(case):
    """Over a number field the series kernel gives the determinant of
    Gaussian elimination on the entries as series, at full precision, with
    every coefficient a Fraction or an element of the block's field."""
    field, p, rows = case
    got = matrices._series_det(rows, p)
    m = [[TLS("z", dict(enumerate(row[j * p : (j + 1) * p])), 0, p) for j in range(len(rows))]
         for row in rows]
    want = det_series_matrix_generic(m, TLS.one("z", p))
    assert (want.precision, want.min_degree) == (p, 0)
    assert got == [want.coefficient(k) for k in range(p)]
    assert all(type(x) is Fraction or x.field == field for x in got)
