import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from finpot.errors import PrecisionError, VariableMismatchError
from finpot.exponentials import exp_product
from finpot.operators import HalfSpaceSpec
from finpot.parsing import parse_place, parse_rational_function as P
from finpot.places import Place
from finpot.polynomials import Polynomial, RationalFunction
from finpot.residues import Compression, residue_classical, residue_tate, squarefree_residues
from finpot.series import TruncatedLaurentSeries as TLS, series_exp
from finpot.symbols import (
    SymbolValue,
    _det_of_exponential_product,
    c4_check,
    c5_check,
    cocycle,
    cocycle_identity_check,
    cocycle_via_operators,
    pairing,
    pairing_via_operators,
    reciprocity_check,
)
from conftest import LAURENT, random_laurent_poly, random_rational_function
from oracles import (det_of_exponential_product_on_box, irreducible_places, reciprocity_by_places,
                     window_exp_product_contents)

PLACE_T = Place.at_zero()


def sym(r, prec=8):
    return SymbolValue.from_exponent(Fraction(r), prec)


def test_symbol_shape_guard():
    good = series_exp(TLS.from_terms("z", {2: Fraction(1, 2)}, 8))
    SymbolValue(good)
    bad = series_exp(TLS.from_terms("z", {1: 1}, 8))
    with pytest.raises(ValueError):
        SymbolValue(bad)


@pytest.mark.parametrize("prec", [1, 2])
def test_symbol_value_below_precision_3_is_a_precision_error(prec):
    """exp(z^2 r) carries r only from precision 3 up, so every route to a
    symbol value below it raises PrecisionError, whatever the residue."""
    for r in (0, 1):
        with pytest.raises(PrecisionError):
            sym(r, prec)
    with pytest.raises(PrecisionError):
        SymbolValue(TLS.one("z", prec))
    for f in (P("1/t"), P("t")):
        with pytest.raises(PrecisionError):
            cocycle(f, P("t"), PLACE_T, prec)
        with pytest.raises(PrecisionError):
            cocycle_via_operators(f, P("t"), PLACE_T, 0, prec)
        with pytest.raises(PrecisionError):
            reciprocity_check(f, P("t"), prec)


def test_equal_symbol_values_hash_alike():
    """Symbol values compare and hash by variable and exponent, at any
    precision from 3 up; values in different variables do not compare."""
    a, b = sym(1, 8), sym(1, 16)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == SymbolValue(series_exp(TLS.from_terms("z", {2: 1}, 3)))
    assert sym(1, 3) != sym(2, 3) and len({sym(0, 3), sym(0, 5), sym(2, 4)}) == 2
    with pytest.raises(VariableMismatchError):
        a == SymbolValue.from_exponent(Fraction(1), 8, "w")


def test_symbol_values_in_different_variables_do_not_multiply():
    """A product of symbol values in z and in w is refused as __eq__ on the
    same pair is, instead of returning a z-series."""
    with pytest.raises(VariableMismatchError):
        SymbolValue.from_exponent(1, 8, "z") * SymbolValue.from_exponent(2, 8, "w")


def test_cocycle_examples():
    c = cocycle(P("1/t"), P("t"), PLACE_T)
    assert c == sym(Fraction(1, 2))
    assert c.series.coefficient(2) == Fraction(1, 2)
    assert c.series.coefficient(4) == Fraction(1, 8)
    assert cocycle(P("1"), P("t + 5"), PLACE_T).is_one()  # c(1, g) = 1
    assert cocycle(P("t+1"), P("t^2-3"), PLACE_T).is_one()  # both regular


def test_pairing_examples():
    assert pairing(P("1/t"), P("t"), PLACE_T) == sym(1)
    f = P("t + 1/t")
    assert pairing(f, f, PLACE_T).is_one()
    g = P("(t+2)/t^2")
    lhs = pairing(f, g, PLACE_T) * pairing(g, f, PLACE_T)
    assert lhs.is_one()


def test_pairing_is_cocycle_ratio(rng):
    for _ in range(15):
        f = random_laurent_poly(rng)
        g = random_laurent_poly(rng)
        assert (
            pairing(f, g, PLACE_T).exponent
            == cocycle(f, g, PLACE_T).exponent - cocycle(g, f, PLACE_T).exponent
        )


def test_cocycle_identity_examples():
    assert cocycle_identity_check(P("t+1"), P("t^2+1"), P("t-4"), PLACE_T)
    assert cocycle_identity_check(P("1/t"), P("t"), P("t^2"), PLACE_T)
    assert cocycle_identity_check(P("t^2"), P("1/t"), P("t"), PLACE_T)


_POLES = (Polynomial([0, 1]), Polynomial([-1, 1]), Polynomial([1, 0, 1]))  # t, t-1, t^2+1


@st.composite
def _small_rational(draw):
    """A nonzero element of Q(t): a numerator of degree <= 3 with p/q
    coefficients in [-2, 2] over a product of up to three of t, t - 1 and
    t^2 + 1, so every place of the test can hold a pole."""
    num = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1, max_size=4))
    assume(any(num))
    den = Polynomial([1])
    for q in draw(st.lists(st.sampled_from(_POLES), max_size=3)):
        den = den * q
    return RationalFunction(Polynomial(num), den)


@settings(max_examples=150)
@given(_small_rational(), _small_rational(), _small_rational(),
       st.sampled_from(("t", "t-1", "t^2+1")))
def test_cocycle_identity_random(f, g, h, place):
    """c(f,g) c(f+g,h) = c(g,h) c(f,g+h) at t, t - 1 and t^2 + 1, and on
    the permuted triple (h, g, f)."""
    p = parse_place(place)
    assume(not (f + g).is_zero() and not (g + h).is_zero())
    assert cocycle_identity_check(f, g, h, p)
    assert cocycle_identity_check(h, g, f, p)


def test_operator_route_agrees(rng):
    for _ in range(10):
        f = random_laurent_poly(rng, 2, 2)
        g = random_laurent_poly(rng, 2, 2)
        assert cocycle_via_operators(f, g) == cocycle(f, g, PLACE_T)


def _laurent_at(coeffs, place):
    """sum c_k u^k as an element of Q(t), u the local parameter of the
    place: t - a at a finite place, 1/t at infinity."""
    if place.is_infinity():
        s, coeffs = Polynomial([0, 1]), {-d: c for d, c in coeffs.items()}
    else:
        s = place.minimal_poly
    k = -min(0, min(coeffs))
    num = Polynomial([])
    for d, c in coeffs.items():
        num = num + Polynomial([c]) * s ** (d + k)
    return RationalFunction(num, s**k)


@settings(max_examples=60)
@given(
    LAURENT,
    LAURENT,
    st.sampled_from(["t", "t-1", "inf"]),
    st.integers(-3, 3),
    st.integers(3, 8),
)
def test_operator_route_matches_residue_route(fc, gc, name, cut, prec_z):
    """The determinants of the exponential products on the half-space
    model with any cut equal the cocycle and the pairing from residues,
    and the commutator trace equals the residue, for Laurent f, g at
    t = 0, t = 1 and infinity."""
    place = parse_place(name)
    f, g = _laurent_at(fc, place), _laurent_at(gc, place)
    assert residue_tate(f, g, place) == residue_classical(f, g, place)
    assert cocycle_via_operators(f, g, place, cut, prec_z) == cocycle(f, g, place, prec_z)
    assert pairing_via_operators(f, g, place, cut, prec_z) == pairing(f, g, place, prec_z)


@settings(max_examples=30)
@given(LAURENT, LAURENT, st.booleans(), st.integers(-2, 2), st.integers(2, 8))
def test_symbol_route_determinant_matches_the_content_box(fc, gc, four, cut, prec_z):
    """The symbol route's determinant on the rows of its contents equals
    the one on the window model's content box (their rows and columns),
    for the cocycle's three and the pairing's four exponentials."""
    if four:
        dicts, signs = [fc, gc, fc, gc], [1, 1, -1, -1]
    else:
        total = {d: fc.get(d, 0) + gc.get(d, 0) for d in {*fc, *gc}}
        dicts, signs = [fc, gc, total], [1, 1, -1]
    got = _det_of_exponential_product(dicts, signs, cut, prec_z)
    assert got == det_of_exponential_product_on_box(dicts, signs, cut, prec_z)


def test_four_exponential_commutator_route(rng):
    # det(exp(zf1) exp(zg1) exp(-zf1) exp(-zg1)) = exp(z^2 res(f dg))
    assert pairing_via_operators(P("1/t"), P("t")) == sym(1)
    for _ in range(6):
        f = random_laurent_poly(rng, 2, 2)
        g = random_laurent_poly(rng, 2, 2)
        assert pairing_via_operators(f, g) == pairing(f, g, PLACE_T)


def test_commensurable_cuts_agree():
    # the symbol only depends on the commensurability class of the half-space
    f, g = P("1/t^2"), P("t^3 + t")
    base = cocycle_via_operators(f, g, cut=0)
    assert base == cocycle_via_operators(f, g, cut=5)
    assert base == cocycle(f, g, PLACE_T)


def test_compressions_with_a_nonzero_sum_raise():
    """exp_product of compressions keeps only finite terms, so generators
    whose sum is a nonzero compression raise ValueError; both callers'
    generators sum to zero."""
    f, g = {-1: Fraction(1)}, {1: Fraction(1)}
    with pytest.raises(ValueError):
        exp_product([Compression(f), Compression(g)], 4)
    with pytest.raises(ValueError):
        _det_of_exponential_product([f, g, f], [1, 1, 1], 0, 4)
    with pytest.raises(ValueError):
        _det_of_exponential_product([{-2: Fraction(1), 1: Fraction(1)}, g], [1, -1], 2, 3)
    assert _det_of_exponential_product([f, g, f, g], [1, 1, -1, -1], 0, 4) == sym(1, 4).series


@settings(max_examples=40)
@given(LAURENT, LAURENT, st.booleans(), st.integers(-2, 2), st.integers(2, 8))
def test_exact_exp_product_terms_are_the_window_contents(fc, gc, four, cut, prec_z):
    """Term by term, the exponential product of the exact compressions
    equals the contents the windowed model reads below its guard strip,
    for the cocycle's three and the pairing's four exponentials."""
    if four:
        dicts, signs = [fc, gc, fc, gc], [1, 1, -1, -1]
    else:
        total = {d: fc.get(d, 0) + gc.get(d, 0) for d in {*fc, *gc}}
        dicts, signs = [fc, gc, total], [1, 1, -1]
    gens = [Compression({k: s * c for k, c in d.items()}, cut) for d, s in zip(dicts, signs)]
    terms = exp_product(gens, prec_z).terms
    assert all(not t.has_tail() for t in terms.values())
    want = window_exp_product_contents(dicts, signs, cut, prec_z)
    assert {d: t.finite_part for d, t in terms.items()} == {
        d: t for d, t in want.items() if not t.is_zero()}


def test_c4_examples():
    assert c4_check(P("t"), P("1"), PLACE_T)
    assert c4_check(P("t+1"), P("t"), PLACE_T)  # unit g: both quotients vanish
    assert c4_check(P("t^2"), P("t"), PLACE_T)


def test_c4_random(rng):
    places = [PLACE_T, parse_place("t-1"), parse_place("t^2+1")]
    done = 0
    for _ in range(25):
        g = random_rational_function(rng)
        h = random_rational_function(rng)
        if g.is_zero() or h.is_zero():
            continue
        for p in places:
            if h.valuation_at(p.minimal_poly) < 0:
                continue
            assert c4_check(g, h, p)
            done += 1
    assert done > 15


def test_c5_examples():
    f, g = P("1/t^2"), P("t^3")
    a, b = HalfSpaceSpec(0), HalfSpaceSpec(2)
    assert c5_check(f, g, a, a)  # A = B
    assert c5_check(f, g, a, b)
    assert c5_check(P("t + 1/t"), P("t^2 - 1/t"), HalfSpaceSpec(1), HalfSpaceSpec(3))


def test_reciprocity_examples():
    s, prod = reciprocity_check(P("t"), P("1/(t-1)"))
    assert s == 0 and prod.is_one()
    s, prod = reciprocity_check(P("1/t"), P("t"))
    assert s == 0 and prod.is_one()
    s, prod = reciprocity_check(P("t^2+1"), P("t-5"))  # polynomials
    assert s == 0 and prod.is_one()
    s, prod = reciprocity_check(P("1/t"), P("5"))  # f dg = 0
    assert s == 0 and prod.is_one()


def test_reciprocity_individual_residues():
    from finpot.residues import residue_classical

    f, g = P("t"), P("1/(t-1)")
    assert residue_classical(f, g, parse_place("t-1")) == -1
    assert residue_classical(f, g, Place.infinity()) == 1
    f, g = P("1/t"), P("t")
    assert residue_classical(f, g, PLACE_T) == 1
    assert residue_classical(f, g, Place.infinity()) == -1


def test_reciprocity_random(rng):
    for _ in range(25):
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        if f.is_zero() or g.is_zero():
            continue
        s, prod = reciprocity_check(f, g)
        assert s == 0
        assert prod.is_one()


_FACTORS = st.one_of(
    st.integers(-3, 3).map(lambda a: Polynomial([-a, 1])),
    st.sampled_from([Polynomial(c) for c in ([1, 0, 1], [-2, 0, 1], [1, 1, 1], [3, 0, 1])]),
)
_POLYS = st.builds(
    lambda c, powers: Polynomial([c]) * _product(q**m for q, m in powers),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    st.lists(st.tuples(_FACTORS, st.integers(1, 3)), max_size=3),
)
_FUNCTIONS = st.builds(RationalFunction, _POLYS, _POLYS)


def _product(polys):
    out = Polynomial([1])
    for p in polys:
        out = out * p
    return out


@settings(max_examples=40)
@given(_FUNCTIONS, _FUNCTIONS, st.sampled_from([8, 32]))
def test_squarefree_residues_match_the_places(f, g, prec):
    # repeated linear and quadratic factors, so parts hold several places
    # and the poles of f dg have orders above one
    finite = [p for p in irreducible_places(f, g) if not p.is_infinity()]
    parts = squarefree_residues(f, g)
    assert sum(r for _, r in parts) == sum(residue_classical(f, g, p) for p in finite)
    for q, r in parts:
        inside = [p for p in finite if (q % p.minimal_poly).is_zero()]
        assert r == sum(residue_classical(f, g, p) for p in inside)
    total, prod = reciprocity_check(f, g, prec)
    want_total, want_prod = reciprocity_by_places(f, g, prec)
    assert total == want_total == 0
    assert prod.series == want_prod.series
    assert prod.series.min_degree == want_prod.series.min_degree


def test_reciprocity_imports_no_sympy():
    # irreducible quadratic and cubic zeros and poles, through the library
    # and through the command line, in one fresh interpreter
    f, g = "(t^2+1)*(t^3-2)/((t^2+t+1)^2*(t^3+t+1))", "(t^3-t-1)^2/((t^2-3)*(t-1)^3)"
    code = "\n".join([
        "import runpy, sys",
        "from finpot.parsing import parse_rational_function as P",
        "from finpot.symbols import reciprocity_check",
        "total, prod = reciprocity_check(P(%r), P(%r), 32)" % (f, g),
        "assert total == 0 and prod.is_one()",
        "sys.argv = ['finpot', 'reciprocity', '--f', %r, '--g', %r]" % (f, g),
        "try:",
        "    runpy.run_module('finpot', run_name='__main__')",
        "except SystemExit as exc:",
        "    assert exc.code == 0",
        "print('sympy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.splitlines() == ['{"product": "1 + O(z^8)", "sum": "0"}', "False"]


def test_c4_negative_valuation_side():
    # g with a pole at the place exercises the gA/(A & gA) trace
    assert c4_check(P("1/t"), P("1"), PLACE_T)
    assert c4_check(P("1/t"), P("t"), PLACE_T)
    assert c4_check(P("1/t^2"), P("t+1"), PLACE_T)
