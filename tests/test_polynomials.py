import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from finpot import polynomials
from finpot.polynomials import (
    Polynomial,
    RationalFunction,
    coprime_basis,
    split_power,
    squarefree_parts,
)
from finpot.scalars import NumberField, _add_product, _poly_divmod, _poly_mul

from oracles import (coprime_basis_fraction, poly_divmod_fraction, poly_gcd_euclid,
                     poly_mul_generic, rational_normal_fraction, split_power_fraction,
                     squarefree_parts_fraction, sympy_factors)


def rand_poly(rng, deg=3):
    return Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, deg + 1))])


def test_ring_axioms(rng):
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_divmod_and_gcd():
    t = Polynomial.variable()
    p = (t + 1) * (t - 2)
    q, r = p.divmod(t + 1)
    assert q == t - 2 and r.is_zero()
    assert p.gcd((t + 1) * (t + 3)) == t + 1
    assert (t * t).gcd(t) == t


def test_derivative_and_shift():
    t = Polynomial.variable()
    p = t * t * t + 2 * t
    assert p.derivative() == 3 * t * t + 2
    shifted = p.shift(Fraction(1))  # (t+1)^3 + 2(t+1)
    assert shifted == t * t * t + 3 * t * t + 5 * t + 3


def _irreducible(p):
    """Irreducibility over Q, decided by sympy's factoring in the oracle;
    finpot itself only asks that a place be squarefree."""
    return p.degree >= 1 and sympy_factors(p) == [(p.monic(), 1)]


def test_irreducibility():
    t = Polynomial.variable()
    assert _irreducible(t * t + 1)
    assert _irreducible(t - 3)
    assert not _irreducible(t * t - 1)
    assert not _irreducible(Polynomial([5]))
    # an irreducible place is one squarefree part and its own coprime basis
    for q in (t * t + 1, t - 3, 2 * t**3 - 4):
        assert squarefree_parts(q) == [(q.monic(), 1)]
        assert coprime_basis([q]) == [q.monic()]


def test_coprime_basis_example():
    t = Polynomial.variable()
    a = (t - 1) ** 2 * (t * t + 1) * 3
    b = (t * t - 1) * (t + 2) ** 3
    c = Polynomial([Fraction(1, 2)]) * (t * t + 1) * (t - 1)
    basis = coprime_basis([a, b, c])
    assert sorted(basis, key=lambda q: (q.degree, q.coeffs)) == [
        t - 1, t + 1, t + 2, t * t + 1
    ]
    # t^2 - 1 and (t - 1)(t^2 + 1) are squarefree and share only t - 1
    assert set(coprime_basis([t * t - 1, (t - 1) * (t * t + 1)])) == {
        t - 1, t + 1, t * t + 1
    }
    assert coprime_basis([t**3 - 2, (t**3 - 2) ** 2]) == [t**3 - 2]
    assert coprime_basis([Polynomial([5])]) == []


def test_squarefree_parts_example():
    t = Polynomial.variable()
    p = (t - 1) ** 2 * (t * t + 1) ** 2 * (t + 2) * (t * t - 3) ** 3 * Fraction(-5, 2)
    assert squarefree_parts(p) == [
        (t + 2, 1), ((t - 1) * (t * t + 1), 2), (t * t - 3, 3)
    ]
    assert squarefree_parts(Polynomial([7])) == []
    assert squarefree_parts(t**4) == [(t, 4)]
    with pytest.raises(ValueError):
        squarefree_parts(Polynomial())


def test_squarefree_parts_random(rng):
    t = Polynomial.variable()
    pool = [t - 1, t + 2, t, t * t + 1, t * t - 2, t * t + t + 1, t**3 - 2]
    for _ in range(40):
        p = Polynomial([Fraction(rng.randint(1, 5), rng.randint(1, 3))])
        for fac in rng.sample(pool, rng.randint(0, 4)):
            p = p * fac ** rng.randint(1, 4)
        parts = squarefree_parts(p)
        rebuilt = Polynomial([p.leading()])
        for q, m in parts:
            assert q.is_monic() and q.degree >= 1
            assert q.gcd(q.derivative()) == 1  # squarefree
            rebuilt = rebuilt * q**m
        assert rebuilt == p
        assert len({m for _, m in parts}) == len(parts)
        for (a, _), (b, _) in combinations(parts, 2):
            assert a.gcd(b) == 1


_FACTOR = st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0).map(Polynomial)


@settings(max_examples=60)
@given(st.lists(_FACTOR, min_size=1, max_size=4), st.data())
def test_coprime_basis_matches_sympy_factors(pool, data):
    """Inputs built from a shared pool of small factors: the basis is monic,
    squarefree and pairwise coprime, each input is a constant times a
    product of powers of basis elements, and each irreducible factor of an
    input, by sympy, divides exactly one basis element."""
    powers = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=3)
    polys = []
    for _ in range(data.draw(st.integers(1, 4))):
        p = Polynomial([data.draw(st.fractions(-3, 3, max_denominator=3).filter(bool))])
        for q, m in data.draw(powers):
            p = p * q**m
        polys.append(p)
    basis = coprime_basis(polys)
    for q in basis:
        assert q.is_monic() and q.degree >= 1
        assert q.gcd(q.derivative()) == 1
    for a, b in combinations(basis, 2):
        assert a.gcd(b) == 1
    assert all(any((p % q).is_zero() for p in polys) for q in basis)
    for p in polys:
        rest = list(p.coeffs)
        for q in basis:
            rest = split_power(rest, list(q.coeffs))[1]
        assert len(rest) == 1
        for fac, _ in sympy_factors(p):
            assert sum((q % fac).is_zero() for q in basis) == 1


def test_rational_function_normalization():
    t = Polynomial.variable()
    f = RationalFunction(2 * (t + 1) * t, 2 * (t + 1) * (t + 1))
    assert f.num == t
    assert f.den == t + 1  # monic, gcd stripped
    assert f == RationalFunction(t, t + 1)


def test_rational_function_field_ops(rng):
    t = RationalFunction.variable()
    f = 1 / (t - 1)
    g = t
    assert f * (t - 1) == RationalFunction.from_const(1)
    assert (f + g) - g == f
    assert (f / f) == RationalFunction.from_const(1)
    with pytest.raises(ZeroDivisionError):
        f / RationalFunction.from_const(0)


def test_polynomial_over_rational_function_is_a_type_error():
    """A Polynomial numerator is not coerced into Q(t): the division returns
    NotImplemented on both sides, which Python turns into a TypeError."""
    with pytest.raises(TypeError):
        Polynomial([1, 1]) / RationalFunction(Polynomial([0, 1]))


def test_derivative_quotient_rule():
    t = RationalFunction.variable()
    f = 1 / (t * t + 1)
    # f' = -2t/(t^2+1)^2
    expected = RationalFunction(
        Polynomial([0, -2]), (Polynomial([1, 0, 1])) ** 2
    )
    assert f.derivative() == expected


def test_valuation_at():
    t = RationalFunction.variable()
    pi = Polynomial([0, 1])
    assert (t * t).valuation_at(pi) == 2
    assert (1 / t).valuation_at(pi) == -1
    assert (t + 1).valuation_at(pi) == 0


def test_package_import_leaves_sympy_unloaded():
    code = "import sys, finpot; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


def test_places_of_any_degree_leave_sympy_unloaded():
    # residue, cocycle and pairing at an irreducible cubic and at a
    # reducible quadratic, and relevant_places on cubic factors, in one
    # fresh interpreter: sympy is a test-only dependency
    code = "\n".join([
        "import contextlib, io, sys",
        "from finpot.cli import main",
        "from finpot.parsing import parse_rational_function as P",
        "from finpot.places import relevant_places",
        "places = relevant_places(P('(t^3+t+1)*(t^3-2)/(t^2-1)'), P('1/(t^3+t+1)^2'))",
        "print([str(p.minimal_poly) for p in places[:-1]])",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    for place in ('t^3+t+1', 't^2-1'):",
        "        for verb in (['residue'], ['cocycle', '--prec', '5'], ['pairing', '--prec', '5']):",
        "            f = '1/(%s)' % place",
        "            assert main(verb + ['--f', f, '--g', 't^3', '--place', place]) == 0",
        "print(out.getvalue().strip())",
        "print('sympy' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    lines = out.stdout.splitlines()
    assert lines[0] == "['-1 + t^2', '-2 + t^3', '1 + t + t^3']"
    assert len(lines) == 8 and lines[-1] == "False"


def test_irreducibility_by_degree():
    assert not _irreducible(Polynomial([]))
    assert not _irreducible(Polynomial([3]))
    assert _irreducible(Polynomial([7, -2]))
    assert _irreducible(Polynomial([1, 0, 1]))
    assert not _irreducible(Polynomial([-1, 0, 1]))
    # t^2 - 1 splits, yet finpot takes it whole as one squarefree place
    assert coprime_basis([Polynomial([-1, 0, 1])]) == [Polynomial([-1, 0, 1])]


def test_constant_pi_is_rejected():
    # a constant divides everything, so the multiplicity loop would not end
    f = RationalFunction(Polynomial([1, 1]))
    for pi in (Polynomial([2]), Polynomial([Fraction(-1, 3)])):
        with pytest.raises(ValueError):
            f.valuation_at(pi)
        with pytest.raises(ValueError):
            split_power(list(f.num.coeffs), list(pi.coeffs))


# -- integer product kernel against the generic scalar loop ---------------------

_Q = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 6, 12)))


@settings(max_examples=150)
@given(st.lists(_Q, max_size=12), st.lists(_Q, max_size=12), st.booleans())
def test_coefficient_product_matches_generic_loop(a, b, field):
    """_poly_mul on Fraction lists (zeros and trailing zeros included) runs on
    integers and returns the generic loop's Fractions; lists holding
    number-field elements keep the generic loop."""
    if field and a:
        a[0] = NumberField([1, 0, 1]).element([a[0], Fraction(1)])
    got, want = _poly_mul(a, b), poly_mul_generic(a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    if not field:
        assert all(type(x) is Fraction for x in got)


_FIELDS = {"Q(i)": NumberField([1, 0, 1]), "Q(sqrt2)": NumberField([-2, 0, 1])}


@settings(max_examples=200)
@given(st.sampled_from(("Q(i)", "Q(sqrt2)", "Q(i) with Q")), st.data())
def test_number_field_coefficient_product_matches_generic_loop(kind, data):
    """_poly_mul on lists of number-field elements, alone or mixed with
    Fractions, zeros of either kind included, gives the generic loop's
    values and scalar types."""
    field = _FIELDS[kind.split()[0]]
    element = st.builds(lambda a, b: field.element([a, b]), _Q, _Q)
    coeff = st.one_of(element, st.just(field.zero()), st.just(Fraction(0)))
    if kind.endswith("with Q"):
        coeff = st.one_of(coeff, _Q)
    a = data.draw(st.lists(coeff, max_size=8))
    b = data.draw(st.lists(coeff, max_size=8))
    got, want = _poly_mul(a, b), poly_mul_generic(a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_add_product_truncates_and_accumulates():
    """Only the degrees below len(acc) are formed, added to what acc holds;
    acc itself is returned."""
    acc = [Fraction(1), Fraction(2)]
    assert _add_product(acc, [3, 0, 7], [1, -1, 4, 5]) is acc
    assert acc == [4, -1]
    assert _add_product([], [1], [1]) == []
    assert _add_product([0] * 4, [0, 2], [1, 1]) == [0, 2, 2, 0]


@settings(max_examples=200)
@given(st.sampled_from(("Q", "Q(i) with Q")), st.data())
def test_add_product_matches_generic_loop_cut_to_length(kind, data):
    """_add_product into an accumulator of any length (shorter than the
    full product, so that a or b is longer than it, or longer), holding
    nonzero values, adds the generic loop's product cut to that length:
    values and scalar types.  The last coefficient of a and of b is nonzero,
    so the generic product keeps every degree it forms."""
    coeff = _Q
    if kind != "Q":
        field = _FIELDS["Q(i)"]
        coeff = st.one_of(_Q, st.builds(lambda a, b: field.element([a, b]), _Q, _Q),
                          st.just(field.zero()))
    nonzero = coeff.filter(lambda x: x != 0)
    a = data.draw(st.lists(coeff, max_size=6)) + [data.draw(nonzero)]
    b = data.draw(st.lists(coeff, max_size=6)) + [data.draw(nonzero)]
    acc = data.draw(st.lists(_Q, max_size=len(a) + len(b) + 2))
    full = poly_mul_generic(a, b)
    want = [x + y for x, y in zip(acc, full)] + acc[len(full):]
    got = _add_product(list(acc), a, b)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


# -- integer division, gcd and normalisation against the Fraction loops ---------

_P = st.lists(_Q, max_size=6).map(Polynomial)  # the zero polynomial and constants included
_NONZERO = _P.filter(lambda p: not p.is_zero())
_SPARSE = st.builds(lambda k, c, lead: Polynomial([c] + [0] * (k - 1) + [lead]),
                    st.integers(1, 6), _Q, _Q.filter(bool))
_MONIC = st.lists(_Q, min_size=1, max_size=3).map(lambda cs: Polynomial(cs + [1]))  # t + 1/3, ...
_DIVISOR = st.one_of(_NONZERO, _SPARSE, _MONIC)
_PAIR = st.one_of(
    st.tuples(_P, _P),
    st.tuples(_P, _DIVISOR),
    st.builds(lambda a, b, c: (a * c, b * c), _P, _NONZERO, _DIVISOR),  # a common factor
)


def _fractions(*polys):
    return all(type(c) is Fraction for p in polys for c in p.coeffs)


@settings(max_examples=300)
@given(_PAIR, st.booleans())
def test_division_and_gcd_match_the_fraction_euclid(pair, field):
    """_poly_divmod (the integer pseudo-division), Polynomial.gcd (the
    primitive PRS), split_power, squarefree_parts and coprime_basis return
    the Fraction loops' values, all Fractions; with a number-field
    coefficient the division is a TypeError."""
    a, b = pair
    assert a.gcd(b) == poly_gcd_euclid(a, b) and _fractions(a.gcd(b))
    if b.is_zero():
        return
    if field and a.coeffs:
        cs = list(a.coeffs[:-1]) + [NumberField([1, 0, 1]).element([a.coeffs[-1], 1])]
        with pytest.raises(TypeError):
            _poly_divmod(cs, b.coeffs)
    got, want = _poly_divmod(a.coeffs, b.coeffs), poly_divmod_fraction(a.coeffs, b.coeffs)
    assert got == want
    assert all(type(x) is Fraction for x in got[0] + got[1])
    if a.is_zero():
        return
    split = b.degree > 0
    want = (squarefree_parts_fraction(a), split and split_power_fraction(a.coeffs, b.coeffs),
            coprime_basis_fraction([a, b]))
    got = (squarefree_parts(a), split and split_power(a.coeffs, b.coeffs), coprime_basis([a, b]))
    assert got == want
    assert all(_fractions(q) for q, _ in got[0]) and _fractions(*got[2])
    assert not split or all(type(x) is Fraction for x in got[1][1])


@settings(max_examples=200)
@given(_PAIR, _PAIR)
def test_rational_functions_match_the_fraction_normalisation(p, q):
    """Construction, -, *, +, /, and derivative of RationalFunction give
    the Fraction normal form of the unreduced result: same num and den, and
    Fractions throughout."""
    (a, b), (c, d) = p, q
    if b.is_zero() or d.is_zero():
        return
    f, g = RationalFunction(a, b), RationalFunction(c, d)
    want = {
        "f": rational_normal_fraction(a, b),
        "f*g": rational_normal_fraction(f.num * g.num, f.den * g.den),
        "-f": rational_normal_fraction(-f.num, f.den),
        "f+g": rational_normal_fraction(f.num * g.den + g.num * f.den, f.den * g.den),
        "f-g": rational_normal_fraction(f.num * g.den - g.num * f.den, f.den * g.den),
        "f'": rational_normal_fraction(f.num.derivative() * f.den - f.num * f.den.derivative(),
                                       f.den * f.den),
    }
    got = {"f": f, "f*g": f * g, "-f": -f, "f+g": f + g, "f-g": f - g, "f'": f.derivative()}
    if not g.is_zero():
        want["f/g"] = rational_normal_fraction(f.num * g.den, f.den * g.num)
        got["f/g"] = f / g
    assert {k: (h.num, h.den) for k, h in got.items()} == want
    assert all(_fractions(h.num, h.den) for h in got.values())


def test_negation_runs_no_gcd():
    """-f of a normal f is normal already: no _int_gcd call."""
    t = Polynomial.variable()
    f = RationalFunction(t * t + 1, (t - 1) * (t + 2))
    with mock.patch.object(polynomials, "_int_gcd", side_effect=AssertionError("gcd")):
        g = -f
    assert (g.num, g.den) == (-(t * t + 1), (t - 1) * (t + 2))


def test_arithmetic_reads_the_stored_integer_form():
    """+, *, /, - and derivative of rational functions read the normal
    form's integer lists: no _int_pair call, which only construction from
    Polynomials makes.  The values are those of the Fraction form."""
    t = Polynomial.variable()
    f = RationalFunction(t * t * Fraction(1, 3) + 1, (t - Fraction(1, 2)) * (t + 2))
    g = RationalFunction(Polynomial([Fraction(2, 5), 7]), t * t + Fraction(3, 4))
    want = [rational_normal_fraction(*p) for p in (
        (f.num * g.den + g.num * f.den, f.den * g.den), (f.num * g.num, f.den * g.den),
        (f.num * g.den, f.den * g.num), (-f.num, f.den),
        (f.num.derivative() * f.den - f.num * f.den.derivative(), f.den * f.den))]
    with mock.patch.object(polynomials, "_int_pair", side_effect=AssertionError("_int_pair")):
        got = [f + g, f * g, f / g, -f, f.derivative()]
    assert [(h.num, h.den) for h in got] == want


def test_gcd_and_rational_functions_refuse_field_coefficients():
    """Q[t] gcd, division, Yun's decomposition, the coprime basis and Q(t)
    are over Q: a number-field coefficient is a TypeError, in either
    argument."""
    p, one = Polynomial([NumberField([1, 0, 1]).generator(), 1]), Polynomial([1, 1])
    for call in (lambda: p.gcd(one), lambda: one.gcd(p), lambda: p.divmod(one),
                 lambda: one.divmod(p), lambda: squarefree_parts(p), lambda: coprime_basis([p]),
                 lambda: split_power(p.coeffs, one.coeffs),
                 lambda: split_power(one.coeffs, p.coeffs),
                 lambda: RationalFunction(p), lambda: RationalFunction(one, p)):
        with pytest.raises(TypeError):
            call()
