from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finpot.determinants import tate_trace
from finpot.errors import IncompatibleTailsError
from finpot.operators import (
    FinitePotentOperator as FPO,
    SparseOperator,
    TailDescriptor,
    certify_finite_potent,
    op_add,
    op_apply,
    op_commutator,
    op_compose,
    op_entry,
    op_scale,
)
from finpot.scalars import NumberField, scalar_is_zero
from conftest import q_operators, random_operator
from oracles import (
    apply_by_image_of,
    compose_by_image_of,
    sparse_add,
    sparse_compose,
    sparse_scale,
    tail_compose_generic,
    verify_certificate,
)


def test_apply_single_entry():
    phi = FPO.from_entries([(0, 1, 1)])
    assert op_apply(phi, {1: Fraction(1)}) == {0: Fraction(1)}
    assert op_apply(phi, {0: Fraction(1)}) == {}


def test_apply_zero_operator():
    assert op_apply(FPO.zero(), {3: Fraction(2)}) == {}


def test_jordan_tail_action():
    phi = FPO(SparseOperator(), TailDescriptor.jordan(2, 10))
    assert op_apply(phi, {10: Fraction(1)}) == {11: Fraction(1)}
    assert op_apply(phi, {11: Fraction(1)}) == {}
    assert op_apply(phi, {12: Fraction(1)}) == {13: Fraction(1)}
    assert op_apply(phi, {9: Fraction(1)}) == {}


def test_polynomial_tail_action():
    tail = TailDescriptor.jordan(4, 0, [2, 0, Fraction(1, 2)])
    phi = FPO(SparseOperator(), tail)
    assert op_apply(phi, {0: Fraction(1)}) == {1: Fraction(2), 3: Fraction(1, 2)}
    assert op_apply(phi, {2: Fraction(1)}) == {3: Fraction(2)}
    assert op_apply(phi, {3: Fraction(1)}) == {}


def test_commutator_examples():
    proj = FPO.from_entries([(0, 0, 1)])
    assert op_commutator(proj, proj).is_zero()
    f = FPO.from_entries([(1, 0, 1)])  # e0 -> e1
    g = FPO.from_entries([(0, 1, 1)])  # e1 -> e0
    comm = op_commutator(f, g)
    assert comm == FPO.from_entries([(0, 0, -1), (1, 1, 1)])


def test_add_entrywise():
    a = FPO.from_entries([(0, 0, 1), (1, 2, 2)])
    b = FPO.from_entries([(0, 0, -1), (3, 3, 1)])
    assert op_add(a, b) == FPO.from_entries([(1, 2, 2), (3, 3, 1)])


def test_add_tails():
    t1 = TailDescriptor.jordan(3, 10, [1])
    t2 = TailDescriptor.jordan(3, 10, [2, 1])
    a = FPO(SparseOperator({(0, 0): Fraction(1)}), t1)
    b = FPO(SparseOperator(), t2)
    s = op_add(a, b)
    assert s.tail.coeffs == (Fraction(3), Fraction(1))
    # cancelling tails leave a plain sparse operator
    c = op_add(a, op_scale(a, Fraction(-1)))
    assert c.is_zero()


def test_add_incompatible_geometry():
    a = FPO(SparseOperator(), TailDescriptor.jordan(2, 10))
    b = FPO(SparseOperator(), TailDescriptor.jordan(3, 11))
    with pytest.raises(IncompatibleTailsError):
        op_add(a, b)


def test_add_support_overlap_rejected():
    a = FPO(SparseOperator(), TailDescriptor.jordan(2, 4))
    b = FPO.from_entries([(6, 6, 1)])
    with pytest.raises(IncompatibleTailsError):
        op_add(a, b)


def test_compose_mixed_tail():
    tail = TailDescriptor.jordan(3, 5)
    a = FPO(SparseOperator({(0, 1): Fraction(1)}), tail)
    b = FPO.from_entries([(5, 0, 1), (1, 7, 2)])
    # a.b: tail moves e_5 -> e_6 after b maps e_0 -> e_5; finite part of a
    # reads b's (1, 7) entry
    out = op_compose(a, b)
    assert out.tail.is_none()
    assert out.finite_part.get(6, 0) == 1
    assert out.finite_part.get(0, 7) == 2


def test_compose_same_geometry_tails():
    t = TailDescriptor.jordan(3, 0)
    a = FPO(SparseOperator(), t)
    sq = op_compose(a, a)
    assert sq.tail.coeffs == (Fraction(0), Fraction(1))  # shift^2
    cube = op_compose(sq, a)
    assert cube.tail.is_none() and cube.is_zero()


def test_certificate_examples():
    c = certify_finite_potent(FPO.from_entries([(0, 0, 2)]))
    assert (c.n, c.indices) == (1, (0,)) and c.matrix == ((Fraction(2),),)
    c = certify_finite_potent(FPO.from_entries([(0, 1, 1)]))
    assert c.indices == (0,) and c.matrix == ((Fraction(0),),)
    phi = FPO(
        SparseOperator({(0, 0): Fraction(1)}), TailDescriptor.jordan(3, 10)
    )
    c = certify_finite_potent(phi)
    assert c.n == 3 and c.indices == (0,) and c.matrix == ((Fraction(1),),)


def test_certificate_brute_force(rng):
    for _ in range(40):
        phi = random_operator(rng)
        cert = certify_finite_potent(phi)
        assert verify_certificate(phi, cert, span=50)


def test_closure_under_composition(rng):
    # products with a finite-support operator stay in the ideal: finite
    # rank x anything is finite rank, so the product carries no tail
    for _ in range(20):
        e_elt = random_operator(rng, tail_prob=0.7)
        finite = random_operator(rng, tail_prob=0.0)
        for prod in (op_compose(e_elt, finite), op_compose(finite, e_elt)):
            assert not prod.has_tail()


def test_commutator_zero_trace(rng):
    # E1 x E2 commutators are traceless (both finite support here)
    for _ in range(30):
        phi = random_operator(rng, tail_prob=0.0)
        psi = random_operator(rng, tail_prob=0.0)
        assert tate_trace(op_commutator(phi, psi)) == 0


def test_commutator_matches_composition_difference(rng):
    for _ in range(20):
        phi = random_operator(rng, tail_prob=0.0)
        psi = random_operator(rng, tail_prob=0.0)
        lhs = op_commutator(phi, psi)
        rhs = op_add(
            op_compose(phi, psi), op_scale(op_compose(psi, phi), Fraction(-1))
        )
        assert lhs == rhs


def test_op_entry_reads_tail():
    phi = FPO(
        SparseOperator({(0, 1): Fraction(5)}),
        TailDescriptor.jordan(3, 10, [1, Fraction(2)]),
    )
    assert op_entry(phi, 0, 1) == 5
    assert op_entry(phi, 11, 10) == 1
    assert op_entry(phi, 12, 10) == 2
    assert op_entry(phi, 12, 11) == 1
    assert op_entry(phi, 13, 11) == 0  # crosses the block boundary
    assert op_entry(phi, 13, 12) == 0  # e_12 ends its block
    assert op_entry(phi, 14, 13) == 1  # next block starts at 13
    assert op_entry(phi, 15, 13) == 2


def test_power():
    f = FPO.from_entries([(0, 1, 1), (1, 2, 1)])
    sq = op_compose(f, f)
    assert sq == FPO.from_entries([(0, 2, 1)])
    assert op_compose(sq, f).is_zero()


def test_json_round_trip(rng):
    for _ in range(20):
        phi = random_operator(rng)
        assert FPO.from_json(phi.to_json()) == phi
    plain = FPO.from_entries([(0, 0, Fraction(1, 2))], TailDescriptor.jordan(2, 5))
    data = plain.to_json()
    assert '"coeffs"' not in data  # spec wire schema for simple shift tails
    assert FPO.from_json(data) == plain


@settings(max_examples=150)
@given(q_operators())
def test_json_round_trip_over_q(phi):
    """from_json(to_json(phi)) == phi over Q, tails with coefficients
    included, and the wire form is stable."""
    text = phi.to_json()
    back = FPO.from_json(text)
    assert back == phi and back.to_json() == text


def test_tail_state_is_read_from_coeffs():
    """A descriptor with no coeffs is no tail, whatever its geometry, and
    the wire form of a tail is unchanged."""
    empty = TailDescriptor(3, 0, ())
    assert empty.is_none() and empty.nilpotency_degree() == 1 and empty.image_of(5) == []
    assert TailDescriptor.jordan(3, 0, [0, 0]) == TailDescriptor.none() == TailDescriptor()
    phi = FPO.from_entries([(0, 1, Fraction(1, 2))],
                           TailDescriptor.jordan(3, 4, [1, Fraction(-2, 3)]))
    assert phi.to_json() == ('{"entries": [[0, 1, "1/2"]], "tail": {"block_size": 3, '
                             '"coeffs": ["1", "-2/3"], "kind": "jordan_blocks", "start": 4}}')
    with pytest.raises(IncompatibleTailsError, match="^sum has finite support overlapping"):
        op_add(phi, FPO.from_entries([(4, 4, 1)]))


def test_invariant_rejects_overlap():
    with pytest.raises(ValueError):
        FPO.from_entries([(6, 6, 1)], TailDescriptor.jordan(2, 5))


def test_certificate_of_zero_operator():
    cert = certify_finite_potent(FPO.zero())
    assert cert.n == 1 and cert.indices == ()
    assert verify_certificate(FPO.zero(), cert, span=10)


# -- integer kernel against the generic scalar loops ---------------------------

GAUSS = NumberField([1, 0, 1])  # x^2 + 1
ROOT2 = NumberField([-2, 0, 1])  # x^2 - 2
_Q = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 5, 7, 9, 11, 12))
)
_INDEX = st.integers(-5, 4)


@st.composite
def _sparse(draw, field=None):
    """Up to 20 entries on indices -5..4 over Q with mixed, partly coprime
    denominators (zeros dropped); with a field, each entry is a Fraction or
    a field element."""
    keys = draw(st.lists(st.tuples(_INDEX, _INDEX), max_size=20, unique=True))
    entries = {}
    for k in keys:
        c = draw(_Q)
        if field is not None and draw(st.booleans()):
            c = field.element([c, draw(_Q)])
        entries[k] = c
    return SparseOperator(entries)


def _same_as_oracle(new, old):
    assert new.entries == old.entries
    assert {k: type(v) for k, v in new.entries.items()} == {
        k: type(v) for k, v in old.entries.items()
    }
    assert not any(scalar_is_zero(v) for v in new.entries.values())
    assert all(type(i) is int and type(j) is int for i, j in new.entries)


def _all_fractions(op):
    return all(type(v) is Fraction for v in op.entries.values())


@settings(max_examples=150)
@given(_sparse(), _sparse(), _Q)
def test_rational_arithmetic_matches_generic_loops(a, b, c):
    results = [
        (a.add(b), sparse_add(a, b)),
        (b.add(a), sparse_add(b, a)),
        (a.compose(b), sparse_compose(a, b)),
        (b.compose(a), sparse_compose(b, a)),
        (a.scale(c), sparse_scale(a, c)),
        (a.scale(int(c.numerator)), sparse_scale(a, int(c.numerator))),
    ]
    for new, old in results:
        _same_as_oracle(new, old)
        assert _all_fractions(new)


@settings(max_examples=100)
@given(_sparse(), _sparse(), st.data())
def test_cancelling_sums_match_generic_loops(a, b, data):
    assert a.add(a.scale(-1)).entries == {}
    assert a.scale(0).entries == {}
    # b minus part of a: the shared keys cancel, the rest survive
    keys = data.draw(st.sets(st.sampled_from(sorted(a.entries)))) if a.entries else set()
    minus = SparseOperator({k: -a.entries[k] for k in keys})
    for new, old in [
        (a.add(minus), sparse_add(a, minus)),
        (minus.add(a), sparse_add(minus, a)),
        (a.add(minus).add(b), sparse_add(sparse_add(a, minus), b)),
        (a.compose(b).add(a.compose(b).scale(Fraction(-1))), SparseOperator()),
    ]:
        _same_as_oracle(new, old)
        assert _all_fractions(new)


@settings(max_examples=100)
@given(st.sampled_from((GAUSS, ROOT2)).flatmap(
    lambda K: st.tuples(_sparse(K), _sparse(K), _sparse(), _Q,
                        st.tuples(_Q, _Q).map(lambda cs: K.element(list(cs))))
))
def test_number_field_arithmetic_matches_generic_loops(ops):
    """Q(i) and Q(sqrt 2) operands mixing Fraction and field entries, alone
    and against an all-Fraction operand, keep the generic loops' values and
    types."""
    a, b, q, c, k = ops
    for x, y in [(a, b), (a, q), (q, a)]:
        _same_as_oracle(x.add(y), sparse_add(x, y))
        _same_as_oracle(x.compose(y), sparse_compose(x, y))
    for x, s in [(a, c), (a, k), (q, k)]:
        _same_as_oracle(x.scale(s), sparse_scale(x, s))



@settings(max_examples=100)
@given(st.lists(_sparse(), max_size=5), st.lists(_sparse(GAUSS), max_size=2), _sparse())
def test_many_operand_sums_match_pairwise_sums(qs, ks, first):
    """SparseOperator.add and op_add with several operands (one common
    denominator, one reduction) equal the pairwise sums, over Q and with
    number-field operands mixed in; a sum that cancels is empty."""
    for ops in (qs, qs + ks):
        want = first
        for op in ops:
            want = sparse_add(want, op)
        _same_as_oracle(first.add(*ops), want)
        total = op_add(FPO(first), *(FPO(op) for op in ops))
        pairwise = FPO(first)
        for op in ops:
            pairwise = op_add(pairwise, FPO(op))
        assert total.finite_part.entries == pairwise.finite_part.entries
    assert first.add(*qs, *(op.scale(-1) for op in qs), first.scale(-1)).entries == {}
    assert first.add() is first


@st.composite
def _chain(draw, field=None):
    """A start operator and up to five steps: add or compose (on either
    side) with a drawn operator, or scale by a drawn scalar; with a field,
    operands mix all-Fraction and field operators and factors."""
    ops = _sparse(field) if field is None else st.one_of(_sparse(field), _sparse())
    scalars = _Q if field is None else st.one_of(
        _Q, st.tuples(_Q, _Q).map(lambda cs: field.element(list(cs))))
    steps = []
    kinds = st.sampled_from(("add", "compose", "compose_right", "scale"))
    for kind in draw(st.lists(kinds, max_size=5)):
        steps.append((kind, draw(scalars if kind == "scale" else ops)))
    return draw(ops), steps


def _run_chain(start, steps, add, compose, scale):
    out = [start]
    for kind, x in steps:
        a = out[-1]
        if kind == "add":
            out.append(add(a, x))
        elif kind == "compose":
            out.append(compose(a, x))
        elif kind == "compose_right":
            out.append(compose(x, a))
        else:
            out.append(scale(a, x))
    return out


@settings(max_examples=150)
@given(st.sampled_from((None, GAUSS)).flatmap(_chain))
def test_operation_chains_match_generic_loops(chain):
    """Chains of add/compose/scale on Q, Q(i) and mixed operators equal the
    generic loops in value and scalar type; every result, read only after
    the chain, agrees with the operator rebuilt from its entries on
    is_zero, support, ==, hash and (all-Fraction) the JSON round trip."""
    start, steps = chain
    got = _run_chain(start, steps, SparseOperator.add, SparseOperator.compose,
                     SparseOperator.scale)
    want = _run_chain(start, steps, sparse_add, sparse_compose, sparse_scale)
    shape = [(op.is_zero(), op.rows(), op.cols(), op.support()) for op in got]
    for new, old, (zero, rows, cols, support) in zip(got, want, shape):
        rebuilt = SparseOperator(new.entries)
        assert (zero, rows, cols, support) == (
            rebuilt.is_zero(), rebuilt.rows(), rebuilt.cols(), rebuilt.support())
        _same_as_oracle(new, old)
        assert new == rebuilt and hash(new) == hash(rebuilt)
        if _all_fractions(new):
            text = FPO(new).to_json()
            assert text == FPO(rebuilt).to_json()
            assert FPO.from_json(text).finite_part == new


def test_many_operand_op_add_folds_tails():
    tail = TailDescriptor.jordan(3, 5, [1])
    a = FPO(SparseOperator({(0, 1): Fraction(1, 2)}), tail)
    b = FPO(SparseOperator({(1, 0): Fraction(1, 3)}))
    c = FPO(SparseOperator({(0, 1): Fraction(-1, 2)}), TailDescriptor.jordan(3, 5, [2]))
    total = op_add(a, b, c)
    assert total.tail == TailDescriptor.jordan(3, 5, [3])
    assert total.finite_part.entries == {(1, 0): Fraction(1, 3)}
    with pytest.raises(IncompatibleTailsError):
        op_add(a, b, FPO(SparseOperator(), TailDescriptor.jordan(2, 5, [1])))
    with pytest.raises(IncompatibleTailsError):
        op_add(b, a, FPO(SparseOperator({(7, 7): Fraction(1)})))


# -- the tail rule in one place -------------------------------------------------

_TAIL_Q = st.one_of(st.just(Fraction(0)), _Q)


@st.composite
def _tail(draw, block_size, start):
    """A block tail of the given geometry, zero and interior zero
    coefficients included (jordan trims and may give no tail at all)."""
    return TailDescriptor.jordan(block_size, start, draw(st.lists(_TAIL_Q, max_size=9)))


@settings(max_examples=200)
@given(st.integers(1, 9), st.integers(-4, 4), st.data())
def test_tail_compose_matches_double_loop(block_size, start, data):
    s = data.draw(_tail(block_size, start))
    t = data.draw(_tail(block_size, start))
    got = s.compose(t)
    assert got == tail_compose_generic(s, t)
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.is_none() or len(got.coeffs) < block_size


@settings(max_examples=100)
@given(st.integers(1, 5), st.integers(0, 3), st.data())
def test_tail_entries_read_through_image_of(block_size, start, data):
    """op_entry and wedge_scaling_check read the tail through image_of:
    op_entry(phi, i, j) is the coefficient of e_i in phi(e_j), and the
    wedge determinant does not depend on how many tail blocks it spans."""
    from finpot.determinants import det_one_plus, wedge_scaling_check

    tail = data.draw(_tail(block_size, start))
    keys = data.draw(st.lists(st.tuples(st.integers(-3, start - 1),
                                        st.integers(-3, start - 1)), max_size=6, unique=True))
    phi = FPO(SparseOperator({k: data.draw(_Q) for k in keys}), tail)
    span = range(-3, start + 3 * block_size)
    for j in span:
        image = op_apply(phi, {j: Fraction(1)})
        for i in span:
            assert op_entry(phi, i, j) == image.get(i, 0)
    w_dim = len(certify_finite_potent(phi).indices)
    blocks = range(3) if phi.has_tail() else range(1)
    for k in blocks:
        assert wedge_scaling_check(phi, w_dim + k * block_size) == det_one_plus(phi)


@settings(max_examples=100)
@given(st.integers(1, 5), st.integers(0, 3), st.data())
def test_compositions_with_a_tail_act_as_their_factors(block_size, start, data):
    """phi . psi and psi . phi, psi with a tail and phi a finite matrix that
    reaches into the tail region, act on every basis vector as the two
    factors do one after the other."""
    tail = data.draw(_tail(block_size, start))
    hi = start + 2 * block_size
    below = st.integers(-3, start - 1)
    psi_keys = data.draw(st.lists(st.tuples(below, below), max_size=5, unique=True))
    psi = FPO(SparseOperator({k: data.draw(_Q) for k in psi_keys}), tail)
    anywhere = st.integers(-3, hi)
    phi_keys = data.draw(st.lists(st.tuples(anywhere, anywhere), max_size=8, unique=True))
    phi = FPO(SparseOperator({k: data.draw(_Q) for k in phi_keys}))
    for first, second in ((psi, phi), (phi, psi)):
        both = op_compose(second, first)
        for j in range(-3, hi + block_size):
            e_j = {j: Fraction(1)}
            assert op_apply(both, e_j) == op_apply(second, op_apply(first, e_j))


def test_scaling_a_tail_by_a_number_field_element():
    """op_scale by a field element keeps the field coefficients of the tail
    and acts on vectors as c * phi."""
    c = NumberField([1, 0, 1]).generator()
    phi = FPO(SparseOperator({(0, 0): 1}), TailDescriptor.jordan(3, 5, [1, Fraction(1, 2)]))
    scaled = op_scale(phi, c)
    assert scaled.tail.coeffs == (c, c * Fraction(1, 2))
    for vec in ({0: Fraction(1)}, {5: Fraction(2), 6: Fraction(-1)}, {0: c, 7: Fraction(3), 8: 1}):
        want = {i: c * x for i, x in op_apply(phi, vec).items()}
        assert op_apply(scaled, vec) == want


# -- the two matrix views: TailDescriptor.on and SparseOperator.block ----------


def _scalar(draw, field):
    """A Fraction from _Q, zero included, or with a field half the time a
    field element."""
    c = draw(_TAIL_Q)
    if field is not None and draw(st.booleans()):
        c = field.element([c, draw(_Q)])
    return c


@st.composite
def _operator_on(draw, field, lo, hi, tail):
    """Up to 6 entries on lo..hi over Q or Q and the field, with the tail."""
    keys = draw(st.lists(st.tuples(st.integers(lo, hi), st.integers(lo, hi)),
                         max_size=6, unique=True))
    return FPO(SparseOperator({k: _scalar(draw, field) for k in keys}), tail)


@settings(max_examples=60)
@given(st.sampled_from((None, GAUSS)), st.integers(1, 4), st.integers(0, 3), st.data())
def test_apply_and_compose_with_tails_match_image_of(field, block_size, start, data):
    """op_apply and op_compose on tailed operators over Q and Q(i) act as
    the stored entries and the tail's image_of do: vectors with zero
    entries and indices below the tail start; a tail-free factor that
    reaches into the other's tail region on either side, and two tails of
    one geometry."""
    def tail():
        cs = [_scalar(data.draw, field) for _ in range(data.draw(st.integers(1, 3)))]
        return TailDescriptor.jordan(block_size, start, cs)

    hi = start + 2 * block_size
    span = range(-3, hi + block_size)
    psi = data.draw(_operator_on(field, -3, start - 1, tail()))
    tailed = data.draw(_operator_on(field, -3, start - 1, tail()))
    free = data.draw(_operator_on(field, -3, hi, TailDescriptor.none()))
    for phi in (psi, tailed, free):
        keys = data.draw(st.lists(st.sampled_from(span), max_size=5, unique=True))
        vec = {j: _scalar(data.draw, field) for j in keys}
        assert op_apply(phi, vec) == apply_by_image_of(phi, vec)
    for first, second in ((psi, free), (free, psi), (psi, tailed), (tailed, psi)):
        both = op_compose(second, first)
        assert both.tail == tail_compose_generic(second.tail, first.tail)
        want = compose_by_image_of(second, first, span)
        assert {j: apply_by_image_of(both, {j: Fraction(1)}) for j in span} == want


@settings(max_examples=100)
@given(st.sampled_from((None, GAUSS)).flatmap(_sparse),
       st.lists(st.integers(-6, 5), max_size=8, unique=True))
def test_block_matches_dict_reference(a, indices):
    """block(indices) holds entry (i, j) of a at the positions of i and j
    in indices, and Fraction 0 where a stores nothing."""
    want = [[a.entries.get((i, j), Fraction(0)) for j in indices] for i in indices]
    got = a.block(indices)
    assert got == want
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
