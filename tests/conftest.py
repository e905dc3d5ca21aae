"""Shared random-instance generators and the one hypothesis profile.

Everything is seeded; core dimensions stay <= 6 and entries small so exact
determinant growth stays tame.  Every @given test runs under the "finpot"
profile: derandomized (the same examples on every run), no deadline and
no example database; a test sets only its own max_examples.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from finpot.operators import (
    FinitePotentOperator,
    SparseOperator,
    TailDescriptor,
    op_apply,
)
from finpot.polynomials import Polynomial, RationalFunction
from finpot.scalars import NumberField

settings.register_profile("finpot", derandomize=True, deadline=None, database=None)
settings.load_profile("finpot")


def rand_fraction(rng, top=3, bottom=2):
    return Fraction(rng.randint(-top, top), rng.randint(1, bottom))


def random_sparse(rng, max_rows=6, lo=-3, hi=5, density=0.5):
    """Finite-support matrix whose row set (hence core dimension) is capped."""
    rows = rng.sample(range(lo, hi + 1), rng.randint(1, max_rows))
    entries = {}
    for r in rows:
        for c in range(lo, hi + 1):
            if rng.random() < density:
                v = rand_fraction(rng)
                if v != 0:
                    entries[(r, c)] = v
    return SparseOperator(entries)


def random_tail(rng, start=8):
    b = rng.randint(2, 4)
    coeffs = [rand_fraction(rng, 2, 1) for _ in range(b - 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    return TailDescriptor.jordan(b, start, coeffs)


def random_operator(rng, tail_prob=0.3, max_rows=6):
    sp = random_sparse(rng, max_rows=max_rows)
    tail = random_tail(rng) if rng.random() < tail_prob else TailDescriptor.none()
    return FinitePotentOperator(sp, tail)


def random_nilpotent(rng, tail_prob=0.4):
    """Strictly upper-triangular support in the index order, so nilpotent."""
    idx = sorted(rng.sample(range(-3, 6), rng.randint(2, 5)))
    entries = {}
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if rng.random() < 0.6:
                v = rand_fraction(rng)
                if v != 0:
                    entries[(idx[a], idx[b])] = v
    tail = random_tail(rng) if rng.random() < tail_prob else TailDescriptor.none()
    return FinitePotentOperator(SparseOperator(entries), tail)


def random_traceless(rng, lo=0, hi=4):
    """Off-diagonal support only: the certificate matrix has zero trace."""
    entries = {}
    for _ in range(rng.randint(1, 5)):
        i = rng.randint(lo, hi)
        j = rng.randint(lo, hi)
        if i == j:
            j = i + 1 if i < hi else i - 1
        v = rand_fraction(rng)
        if v != 0:
            entries[(i, j)] = v
    if not entries:
        entries[(lo, lo + 1)] = Fraction(1)
    return FinitePotentOperator(SparseOperator(entries))


def one_plus_apply(phi, psi, index):
    """(1 + phi)(1 + psi) e_index as a sparse vector."""
    vec = {index: Fraction(1)}
    mid = dict(op_apply(psi, vec))
    mid[index] = mid.get(index, Fraction(0)) + 1
    out = dict(op_apply(phi, mid))
    for i, v in mid.items():
        out[i] = out.get(i, Fraction(0)) + v
    return {i: v for i, v in out.items() if v != 0}


def composite_is_identity(phi, psi, span=50, lo=-10):
    for i in range(lo, lo + span):
        if one_plus_apply(phi, psi, i) != {i: Fraction(1)}:
            return False
    return True


_QUADRATICS = (
    Polynomial([1, 0, 1]),    # t^2 + 1
    Polynomial([-2, 0, 1]),   # t^2 - 2
    Polynomial([1, 1, 1]),    # t^2 + t + 1
)


def random_rational_function(rng, quad_prob=0.3):
    """Nonzero element of Q(t) with small factorable numerator/denominator."""

    def factors():
        out = Polynomial([1])
        for _ in range(rng.randint(0, 2)):
            if rng.random() < quad_prob:
                out = out * _QUADRATICS[rng.randrange(len(_QUADRATICS))]
            else:
                out = out * Polynomial([rng.randint(-2, 2), 1])
        return out

    num = factors() * Polynomial([rand_fraction(rng) or Fraction(1)])
    den = factors()
    if num.is_zero():
        num = Polynomial([1])
    return RationalFunction(num, den)


def random_laurent_poly(rng, max_pole=3, max_deg=3):
    """Nonzero Laurent polynomial in t (poles only at 0 and infinity)."""
    coeffs = {}
    for d in range(-max_pole, max_deg + 1):
        if rng.random() < 0.4:
            v = rand_fraction(rng)
            if v != 0:
                coeffs[d] = v
    if not coeffs:
        coeffs[rng.randint(-max_pole, max_deg) or 1] = Fraction(1)
    k = -min(0, min(coeffs))
    num = [Fraction(0)] * (max(coeffs) + k + 1)
    for d, c in coeffs.items():
        num[d + k] = c
    return RationalFunction(Polynomial(num), Polynomial([0] * k + [1]))


def content_in_guard_strip(monkeypatch, module):
    """Make module's window model declare no content below the guard strip,
    so every entry below exact_end falls in the strip."""
    real = module._window_model

    def model(coeff_dicts, signs, cut, depth):
        windows, _, exact_end = real(coeff_dicts, signs, cut, depth)
        return windows, cut, exact_end

    monkeypatch.setattr(module, "_window_model", model)


@pytest.fixture
def rng():
    return random.Random(987123)


@st.composite
def q_operators(draw):
    """A finite-potent operator over Q: up to 8 entries on indices -3..4 with
    mixed denominators, and half the time a tail from 5 on, a plain Jordan
    shift or a shift polynomial with coefficients."""
    q = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 6)))
    cells = st.tuples(st.integers(-3, 4), st.integers(-3, 4))
    entries = draw(st.dictionaries(cells, q, max_size=8))
    tail = None
    if draw(st.booleans()):
        size = draw(st.integers(2, 4))
        coeffs = draw(st.one_of(st.just([1]), st.lists(q, min_size=1, max_size=size - 1)))
        tail = TailDescriptor.jordan(size, 5, coeffs)
    return FinitePotentOperator(SparseOperator(entries), tail)


_QUADRATIC_FIELDS = (NumberField([1, 0, 1]), NumberField([-2, 0, 1]))  # Q(i), Q(sqrt 2)


@st.composite
def field_operators(draw, tails=True):
    """A finite-potent operator over Q(i) or Q(sqrt 2): one to six entries
    on indices -3..4, each a field element a + b x with p/q coefficients and
    a != 0 (a rational value about half the time), and with tails=True,
    half the time a tail from 5 on whose shift polynomial has rational or
    field coefficients."""
    field = draw(st.sampled_from(_QUADRATIC_FIELDS))
    q = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    scalar = st.builds(lambda a, b: field.element([a, b]), q.filter(bool), st.one_of(st.just(0), q))
    cells = st.tuples(st.integers(-3, 4), st.integers(-3, 4))
    entries = draw(st.dictionaries(cells, scalar, min_size=1, max_size=6))
    tail = None
    if tails and draw(st.booleans()):
        size = draw(st.integers(2, 4))
        coeffs = draw(st.lists(st.one_of(q, scalar), min_size=1, max_size=size - 1))
        tail = TailDescriptor.jordan(size, 5, coeffs)
    return FinitePotentOperator(SparseOperator(entries), tail)
