from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.errors import ReductionError
from finpot.parsing import parse_place, parse_rational_function as P
from finpot.places import Place, relevant_places, substitute_inverse
from finpot.residues import residue_classical, residue_tate, squarefree_residues
from finpot.polynomials import Polynomial, RationalFunction
from conftest import content_in_guard_strip, random_laurent_poly, random_rational_function
from oracles import residue_generic_root, sympy_factors

PLACE_T = Place.at_zero()


def test_classical_examples():
    assert residue_classical(P("1/t"), P("t"), PLACE_T) == 1
    assert residue_classical(P("t+1"), P("t^2"), PLACE_T) == 0
    assert residue_classical(P("t"), P("1/(t-1)"), parse_place("t-1")) == -1


def test_tate_examples():
    assert residue_tate(P("1/t"), P("t")) == 1
    assert residue_tate(P("1/t^2"), P("t^2")) == 2
    f = P("t^2 + 1/t")
    assert residue_tate(f, f) == 0  # exact differential: res(f df) = 0


def test_tate_rejects_other_poles():
    with pytest.raises(ReductionError):
        residue_tate(P("1/(t-1)"), P("t"))


def test_tate_at_shifted_place():
    p = parse_place("t-1")
    f = P("t")
    g = P("1/(t-1)")
    assert residue_tate(f, g, place=p) == residue_classical(f, g, p) == -1


def test_tate_at_infinity():
    p = Place.infinity()
    f = P("1/t")
    g = P("t")
    assert residue_tate(f, g, place=p) == residue_classical(f, g, p) == -1


def test_routes_agree_random(rng):
    for _ in range(60):
        f = random_laurent_poly(rng)
        g = random_laurent_poly(rng)
        assert residue_tate(f, g) == residue_classical(f, g, PLACE_T)


def test_against_generic_root_oracle(rng):
    places = [PLACE_T, parse_place("t-2"), parse_place("t^2+1"),
              parse_place("t^2-2"), parse_place("t^2+t+1")]
    checked = 0
    for _ in range(40):
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        if f.is_zero() or g.is_zero():
            continue
        for p in places:
            assert residue_classical(f, g, p) == residue_generic_root(f, g, p)
            checked += 1
    assert checked > 50


def test_bilinearity(rng):
    places = [PLACE_T, parse_place("t^2+1"), Place.infinity()]
    for _ in range(15):
        f1 = random_rational_function(rng)
        f2 = random_rational_function(rng)
        g = random_rational_function(rng)
        g2 = random_rational_function(rng)
        if any(x.is_zero() for x in (f1, f2, g, g2)) or (f1 + f2).is_zero():
            continue
        for p in places:
            lhs = residue_classical(f1 + f2, g, p)
            assert lhs == residue_classical(f1, g, p) + residue_classical(f2, g, p)
            # res(f d(g*g2)) = res(f g dg2) + res(f g2 dg)
            if (g * g2).is_zero():
                continue
            lhs2 = residue_classical(f1, g * g2, p)
            rhs2 = residue_classical(f1 * g, g2, p) + residue_classical(f1 * g2, g, p)
            assert lhs2 == rhs2


def test_exact_differential(rng):
    one = RationalFunction.from_const(1)
    places = [PLACE_T, parse_place("t-1"), parse_place("t^2+1"), Place.infinity()]
    for _ in range(20):
        h = random_rational_function(rng)
        if h.is_zero():
            continue
        for p in places:
            assert residue_classical(one, h, p) == 0


def test_antisymmetry(rng):
    places = [PLACE_T, parse_place("t^2+1"), Place.infinity()]
    for _ in range(20):
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        if f.is_zero() or g.is_zero():
            continue
        for p in places:
            assert (
                residue_classical(f, g, p) + residue_classical(g, f, p) == 0
            )


def test_constant_g_gives_zero():
    assert residue_classical(P("1/t"), P("5"), PLACE_T) == 0


def test_zero_inputs_rejected(rng):
    zero = P("t") - P("t")
    with pytest.raises(ValueError):
        residue_classical(zero, P("t"), PLACE_T)


def test_residue_tate_window_exhausted(monkeypatch):
    """A nonzero guard strip raises; it never yields a value."""
    from finpot import residues
    from finpot.errors import WindowExhaustedError

    content_in_guard_strip(monkeypatch, residues)
    with pytest.raises(WindowExhaustedError):
        residue_tate(P("1/t^3"), P("t^3"))


def test_residue_at_infinity_is_the_residue_at_zero_after_inversion(rng):
    # t = 1/u carries the place at infinity to u = 0
    for _ in range(30):
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        fw, gw = substitute_inverse(f), substitute_inverse(g)
        assert residue_classical(f, g, Place.infinity()) == residue_classical(fw, gw, PLACE_T)


def test_squarefree_part_residue_is_the_sum_over_its_places():
    f = P("(t^3+2)/((t^2+1)^3*(t-2)^3*(t^2-3))")
    g = P("(t+5)/((t^2+1)*(t-2))")
    parts = dict(squarefree_residues(f, g))
    q = P("(t^2+1)*(t-2)").num
    assert parts[q] == Fraction(-16357, 512)
    assert parts[q] == residue_classical(f, g, parse_place("t-2")) + residue_classical(
        f, g, parse_place("t^2+1")
    )
    assert parts[P("t^2-3").num] == -parts[q]  # no residue at infinity here


def test_squarefree_parts_are_taken_after_cancellation():
    # den f = t^2 - 2t, but f g' = 4(t - 1)(t + 2)/(t - 2) has no pole at 0
    f, g = P("(2*t^2+2*t-4)/(t^2-2*t)"), P("t^2+1")
    assert squarefree_residues(f, g) == [(P("t-2").num, Fraction(16))]
    finite = [p for p in relevant_places(f, g) if not p.is_infinity()]
    assert sum(residue_classical(f, g, p) for p in finite) == 16
    assert residue_classical(f, g, Place.infinity()) == -16


def test_residue_at_a_reducible_place_with_unequal_pole_orders():
    # f dg = dt/((t-1)^2 (t+1)): residue -1/4 at t = 1 and 1/4 at t = -1
    place = parse_place("t^2-1")
    assert residue_classical(P("1/((t-1)^2*(t+1))"), P("t"), place) == 0
    assert residue_classical(P("1/((t-1)^2*(t+1))"), P("t^3/3"), place) == 1
    # f dg = dt/(t+1) once normalised: no pole at t = 1
    assert residue_classical(P("1/(t^2-1)"), P("t^2/2-t"), place) == 1
    for f, g in (("1/((t-1)^2*(t+1))", "t"), ("1/(t^2-1)", "t^2/2-t"),
                 ("1/((t-1)^3*(t^2+1)^2*(t+1))", "t^2+t")):
        want = sum(residue_classical(P(f), P(g), parse_place(p))
                   for p in ("t-1", "t+1", "t^2+1"))
        assert residue_classical(P(f), P(g), parse_place("(t^2-1)*(t^2+1)")) == want


_PLACE_POOL = [Polynomial([-a, 1]) for a in range(-2, 3)] + [
    Polynomial(c) for c in ([1, 0, 1], [-2, 0, 1], [1, 1, 1], [-2, 0, 0, 1])
]
_POWERS = st.lists(st.tuples(st.sampled_from(_PLACE_POOL), st.integers(1, 3)), max_size=3)


def _rational_from_powers(c, num_powers, den_powers):
    num, den = Polynomial([c]), Polynomial([1])
    for q, m in num_powers:
        num = num * q**m
    for q, m in den_powers:
        den = den * q**m
    return RationalFunction(num, den)


_POOL_FUNCTIONS = st.builds(
    _rational_from_powers,
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    _POWERS,
    _POWERS,
)


@settings(max_examples=60)
@given(_POOL_FUNCTIONS, _POOL_FUNCTIONS,
       st.sets(st.sampled_from(range(len(_PLACE_POOL))), min_size=1, max_size=3))
def test_residue_at_a_squarefree_divisor_is_the_sum_over_its_factors(f, g, chosen):
    """The residue at a squarefree q, possibly reducible and holding poles
    of unequal orders, is the sum of the residues at q's irreducible
    factors, which sympy finds."""
    if f.is_zero() or g.is_zero():
        return
    q = Polynomial([1])
    for i in chosen:
        q = q * _PLACE_POOL[i]
    want = sum(residue_classical(f, g, Place.finite(p)) for p, _ in sympy_factors(q))
    assert residue_classical(f, g, Place.finite(q)) == want
