"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a pass/fail line (run with -s to see the lines live).

Criterion 10's monotone-stabilization subclaim is tested faithfully and is
expected to fail: finite-section determinants oscillate around their limit
when the exponent terms have mixed signs, so the error dips toward zero at
each sign crossing and rises after (see the decision recorded in
CHANGES.md).  The test is marked strict-xfail so the defect stays visible
without masking the rest of the suite.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from finpot.determinants import (
    det_one_plus,
    invert_one_plus,
    restrict_scalars,
    routes_agree,
    tate_trace,
)
from finpot.errors import NotInvertibleError
from finpot.exponentials import (
    det_series,
    exp_op,
    infinite_product_det,
    zassenhaus_check,
)
from finpot.operators import (
    FinitePotentOperator as FPO,
    HalfSpaceSpec,
    SparseOperator,
    op_add,
    op_commutator,
    op_compose,
)
from finpot.parsing import parse_place, parse_rational_function as P
from finpot.places import Place
from finpot.residues import residue_classical, residue_tate
from finpot.scalars import NumberField, NumberFieldElement, field_norm
from finpot.segal_wilson import (
    LoopExponent,
    sw_pairing_closed,
    sw_pairing_truncated,
    sw_vs_tate_check,
)
from finpot.series import TruncatedLaurentSeries as TLS, series_exp
from finpot.symbols import (
    c4_check,
    c5_check,
    cocycle,
    cocycle_identity_check,
    cocycle_via_operators,
)
from conftest import (
    composite_is_identity,
    random_laurent_poly,
    random_nilpotent,
    random_operator,
    random_rational_function,
    random_traceless,
)

PLACE_T = Place.at_zero()


def report(name, ok, detail=""):
    print("criterion %-38s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_1_route_agreement():
    rng = random.Random(101)
    start = time.monotonic()
    count = 200
    ok = all(routes_agree(random_operator(rng)) for _ in range(count))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    assert report("1 route agreement (200 ops)", ok, "%.2fs" % elapsed)


def test_criterion_2_determinant_axioms():
    rng = random.Random(202)
    nil_ok = all(det_one_plus(random_nilpotent(rng)) == 1 for _ in range(100))

    sum_ok = True
    for _ in range(100):
        a = random_operator(rng, tail_prob=0.0)
        shift = max(abs(i) for i in a.finite_part.support() | {0}) + 7
        b = FPO(
            SparseOperator(
                {
                    (i + shift, j + shift): c
                    for (i, j), c in random_operator(
                        rng, tail_prob=0.0
                    ).finite_part.entries.items()
                }
            )
        )
        sum_ok = sum_ok and det_one_plus(op_add(a, b)) == det_one_plus(a) * det_one_plus(b)

    mult_ok = True
    for _ in range(100):
        a = random_operator(rng, tail_prob=0.0)
        b = random_operator(rng, tail_prob=0.0)
        expected = det_one_plus(a) * det_one_plus(b)
        mult_ok = mult_ok and (
            det_one_plus(op_add(op_add(a, b), op_compose(a, b))) == expected
            and det_one_plus(op_add(op_add(a, b), op_compose(b, a))) == expected
        )

    conj_ok = True
    for _ in range(100):
        phi = random_operator(rng, tail_prob=0.0)
        while True:
            s = random_operator(rng, tail_prob=0.0, max_rows=3)
            if det_one_plus(s) != 0:
                break
        s_inv = invert_one_plus(s)
        conj = op_add(
            op_add(phi, op_compose(s, phi)),
            op_add(op_compose(phi, s_inv), op_compose(op_compose(s, phi), s_inv)),
        )
        conj_ok = conj_ok and det_one_plus(conj) == det_one_plus(phi)

    inv_ok = True
    seen_invertible = 0
    for _ in range(100):
        phi = random_operator(rng)
        if det_one_plus(phi) == 0:
            try:
                invert_one_plus(phi)
                inv_ok = False
            except NotInvertibleError:
                pass
        else:
            seen_invertible += 1
            inv_ok = inv_ok and composite_is_identity(phi, invert_one_plus(phi))
    inv_ok = inv_ok and seen_invertible >= 50

    ok = nil_ok and sum_ok and mult_ok and conj_ok and inv_ok
    assert report(
        "2 determinant axioms",
        ok,
        "nil=%s sum=%s mult=%s conj=%s inv=%s" % (nil_ok, sum_ok, mult_ok, conj_ok, inv_ok),
    )


def test_criterion_3_norm_compatibility():
    rng = random.Random(303)
    ok = True
    count = 0
    for field in (NumberField([1, 0, 1]), NumberField([-2, 0, 1])):
        done = 0
        while done < 30:
            entries = {}
            for _ in range(rng.randint(1, 5)):
                entries[(rng.randint(0, 2), rng.randint(0, 2))] = field.element(
                    [rng.randint(-2, 2), rng.randint(-2, 2)]
                )
            phi = FPO(SparseOperator(entries))
            d = det_one_plus(phi)
            if d == 0:
                continue
            if not isinstance(d, NumberFieldElement):
                d = field.element([d])
            ok = ok and det_one_plus(restrict_scalars(phi)) == field_norm(d)
            done += 1
        count += done
    ok = ok and count >= 50
    assert report("3 norm compatibility", ok, "%d instances" % count)


def test_criterion_4_exponential_identities():
    rng = random.Random(404)
    prec = 10
    exp_ok = True
    for _ in range(50):
        phi = random_operator(rng)
        lhs = det_series(exp_op(phi, 1, prec))
        rhs = series_exp(TLS.from_terms("z", {1: tate_trace(phi)}, prec))
        exp_ok = exp_ok and lhs.same_to_precision(rhs)
    mult_ok = True
    add_ok = True
    for _ in range(30):
        f = random_operator(rng, tail_prob=0.0)
        g = random_operator(rng, tail_prob=0.0)
        ef, eg = exp_op(f, 1, prec), exp_op(g, 1, prec)
        prod_det = det_series(ef) * det_series(eg)
        mult_ok = mult_ok and det_series(ef * eg).same_to_precision(prod_det)
        add_ok = add_ok and det_series(exp_op(op_add(f, g), 1, prec)).same_to_precision(
            prod_det
        )
    ok = exp_ok and mult_ok and add_ok
    assert report(
        "4 exponential identities",
        ok,
        "exp=%s mult=%s add=%s (110 instances)" % (exp_ok, mult_ok, add_ok),
    )


def test_criterion_5_zassenhaus():
    rng = random.Random(505)
    done = 0
    ok = True
    while done < 50:
        f = random_operator(rng, tail_prob=0.0, max_rows=3)
        g = random_operator(rng, tail_prob=0.0, max_rows=3)
        if op_commutator(f, g).is_zero():
            continue
        ok = ok and zassenhaus_check(f, g, 5)
        done += 1
    assert report("5 Zassenhaus through z^4", ok, "%d non-commuting pairs" % done)


def test_criterion_6_infinite_product_stationarity():
    rng = random.Random(606)
    ok = True
    for _ in range(20):
        m = rng.randint(1, 3)
        fam = []
        for pos in range(1, m + 4):
            op = (
                random_operator(rng, tail_prob=0.0)
                if pos < m
                else random_traceless(rng)
            )
            fam.append((rng.randint(1, 3), op))
        # stationarity at compat_m + 2 is verified inside; the value matches
        # the product of the leading factor determinants
        value = infinite_product_det(fam, m)
        expected = TLS.one("z", 10)
        for pos in range(1, m):
            w, phi = fam[pos - 1]
            expected = expected * det_series(exp_op(phi, w, 10))
        ok = ok and value.same_to_precision(expected)
    assert report("6 infinite-product stationarity", ok)


def test_criterion_7_residue_equality():
    rng = random.Random(707)
    route_ok = True
    for _ in range(100):
        f = random_laurent_poly(rng)
        g = random_laurent_poly(rng)
        route_ok = route_ok and residue_tate(f, g) == residue_classical(f, g, PLACE_T)
    places = [
        PLACE_T,
        parse_place("t-1"),
        parse_place("t^2+1"),
        Place.infinity(),
    ]
    one = P("1")
    diff_ok = True
    anti_ok = True
    for _ in range(40):
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        if f.is_zero() or g.is_zero():
            continue
        for p in places:
            diff_ok = diff_ok and residue_classical(one, g, p) == 0
            anti_ok = anti_ok and (
                residue_classical(f, g, p) + residue_classical(g, f, p) == 0
            )
    ok = route_ok and diff_ok and anti_ok
    assert report(
        "7 residue route equality",
        ok,
        "routes=%s exact-diff=%s antisym=%s" % (route_ok, diff_ok, anti_ok),
    )


def test_criterion_8_cocycle_properties():
    rng = random.Random(808)
    ident_ok = True
    done = 0
    places = [PLACE_T, parse_place("t-1"), parse_place("t^2+1")]
    while done < 50:
        f, g, h = (random_rational_function(rng) for _ in range(3))
        if any(x.is_zero() for x in (f, g, h, f + g, g + h)):
            continue
        ident_ok = ident_ok and cocycle_identity_check(f, g, h, places[done % 3])
        done += 1

    # C1: only the commensurability class of the half-space matters
    f, g = P("1/t^2"), P("t^3 + t")
    c1_ok = (
        cocycle_via_operators(f, g, cut=0)
        == cocycle_via_operators(f, g, cut=5)
        == cocycle(f, g, PLACE_T)
    )
    # C2: both regular -> trivial symbol
    c2_ok = cocycle(P("t+1"), P("t^2-3"), PLACE_T).is_one()
    # C3: c(1, g) = 1
    c3_ok = cocycle(P("1"), P("(t+2)/t^3"), PLACE_T).is_one()
    # C4 at unit, simple-zero, and double-zero denominators
    c4_ok = (
        c4_check(P("t"), P("1"), PLACE_T)
        and c4_check(P("t+1"), P("t"), PLACE_T)
        and c4_check(P("t^2"), P("t"), PLACE_T)
    )
    # C5 for equal, shifted and generic cuts
    c5_ok = (
        c5_check(P("1/t^2"), P("t^3"), HalfSpaceSpec(0), HalfSpaceSpec(0))
        and c5_check(P("1/t^2"), P("t^3"), HalfSpaceSpec(0), HalfSpaceSpec(2))
        and c5_check(P("t + 1/t"), P("t^2 - 1/t"), HalfSpaceSpec(1), HalfSpaceSpec(3))
    )
    ok = ident_ok and c1_ok and c2_ok and c3_ok and c4_ok and c5_ok
    assert report(
        "8 cocycle identity and C1-C5",
        ok,
        "identity=%s C1=%s C2=%s C3=%s C4=%s C5=%s"
        % (ident_ok, c1_ok, c2_ok, c3_ok, c4_ok, c5_ok),
    )


def test_criterion_9_reciprocity():
    rng = random.Random(909)
    from finpot.symbols import reciprocity_check

    from finpot.places import relevant_places

    start = time.monotonic()
    done = 0
    ok = True
    quad_cases = 0
    while done < 100:
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        if f.is_zero() or g.is_zero():
            continue
        s, prod = reciprocity_check(f, g)
        ok = ok and s == 0 and prod.is_one()
        if any(p.degree == 2 for p in relevant_places(f, g)):
            quad_cases += 1
        done += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0 and quad_cases > 0
    assert report(
        "9 reciprocity (100 pairs)", ok, "%.2fs, %d quadratic-place cases" % (elapsed, quad_cases)
    )


SW_CASES = [
    (LoopExponent("plus", {1: 1}), LoopExponent("minus", {1: 1})),
    (LoopExponent("plus", {1: 1, 2: 1}), LoopExponent("minus", {1: 1, 2: 1})),
    (
        LoopExponent("plus", {1: Fraction(-1, 2), 3: 1}),
        LoopExponent("minus", {2: 1, 3: -1}),
    ),
    (LoopExponent("plus", {2: 1}), LoopExponent("minus", {1: 1})),
    (
        LoopExponent("plus", {1: 1, 3: -1}),
        LoopExponent("minus", {1: -1, 2: 1}),
    ),
]


def test_criterion_10_segal_wilson_tolerance():
    tol_ok = True
    for f, ft in SW_CASES:
        support = f.support() + ft.support()
        T = support + 30
        value = sw_pairing_truncated(f, ft, T)
        target = math.exp(float(sw_pairing_closed(f, ft)))
        tol_ok = tol_ok and abs(float(value) - target) < 1e-8
    res_ok = all(sw_vs_tate_check(f, ft) for f, ft in SW_CASES)
    ok = tol_ok and res_ok
    assert report(
        "10 loop pairing tolerance + residue",
        ok,
        "tol=%s exponent=residue=%s" % (tol_ok, res_ok),
    )


@pytest.mark.xfail(
    strict=True,
    reason="finite-section error is not monotone for mixed-sign exponents: "
    "the section value oscillates around the limit, so the error dips to ~0 "
    "at each sign crossing and rises after (see the decision in CHANGES.md)",
)
def test_criterion_10_segal_wilson_monotone():
    mono_ok = True
    for f, ft in SW_CASES:
        support = f.support() + ft.support()
        target = math.exp(float(sw_pairing_closed(f, ft)))
        errs = [
            abs(float(sw_pairing_truncated(f, ft, T)) - target)
            for T in range(support + 1, support + 13)
        ]
        case_ok = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
        mono_ok = mono_ok and case_ok
    assert report("10 loop pairing monotone decay", mono_ok)
