from fractions import Fraction

import pytest

from finpot.operators import HalfSpaceSpec
from finpot.parsing import parse_place, parse_rational_function as P
from finpot.places import Place
from finpot.series import TruncatedLaurentSeries as TLS, series_exp
from finpot.symbols import (
    SymbolValue,
    c4_check,
    c5_check,
    cocycle,
    cocycle_identity_check,
    cocycle_via_operators,
    pairing,
    pairing_via_operators,
    reciprocity_check,
)
from conftest import random_laurent_poly, random_rational_function

PLACE_T = Place.at_zero()


def sym(r, prec=8):
    return SymbolValue.from_exponent(Fraction(r), prec)


def test_symbol_shape_guard():
    good = series_exp(TLS.from_terms("z", {2: Fraction(1, 2)}, 8))
    SymbolValue(good)
    bad = series_exp(TLS.from_terms("z", {1: 1}, 8))
    with pytest.raises(ValueError):
        SymbolValue(bad)


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


def test_cocycle_identity_random(rng):
    # 50 triples per place, permuted inputs included
    places = [PLACE_T, parse_place("t-1"), parse_place("t^2+1")]
    for p in places:
        done = 0
        while done < 50:
            f, g, h = (random_rational_function(rng) for _ in range(3))
            if any(x.is_zero() for x in (f, g, h, f + g, g + h)):
                continue
            assert cocycle_identity_check(f, g, h, p)
            done += 1
            if done % 10 == 0 and not (h + g).is_zero() and not (g + f).is_zero():
                assert cocycle_identity_check(h, g, f, p)


def test_operator_route_agrees(rng):
    for _ in range(10):
        f = random_laurent_poly(rng, 2, 2)
        g = random_laurent_poly(rng, 2, 2)
        assert cocycle_via_operators(f, g) == cocycle(f, g, PLACE_T)


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


def _dirty_splits(monkeypatch, count):
    """Make the first `count` window splits report a dirty guard strip."""
    from finpot import symbols

    real = symbols.split_window_content
    calls = {"dirty": 0}

    def split(op, content_end, exact_end):
        if calls["dirty"] < count:
            calls["dirty"] += 1
            return None
        return real(op, content_end, exact_end)

    monkeypatch.setattr(symbols, "split_window_content", split)
    return calls


def test_operator_route_window_retry(monkeypatch):
    f, g = P("1/t^2 + t"), P("1/t + t^2")
    want = cocycle_via_operators(f, g)
    calls = _dirty_splits(monkeypatch, 1)
    assert cocycle_via_operators(f, g) == want == cocycle(f, g, PLACE_T)
    assert calls["dirty"] == 1


def test_operator_route_window_exhausted(monkeypatch):
    from finpot.errors import WindowExhaustedError

    _dirty_splits(monkeypatch, 4)
    with pytest.raises(WindowExhaustedError):
        cocycle_via_operators(P("1/t"), P("t"))


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


def test_c4_negative_valuation_side():
    # g with a pole at the place exercises the gA/(A & gA) trace
    assert c4_check(P("1/t"), P("1"), PLACE_T)
    assert c4_check(P("1/t"), P("t"), PLACE_T)
    assert c4_check(P("1/t^2"), P("t+1"), PLACE_T)
