"""Command-line driver.

Every computation is exposed as a subcommand with JSON output (sorted keys,
byte-stable for identical inputs).  Exit codes: 0 success, 1 domain error
(structured {"error": code, "detail": ...} object on stdout), 2 parse error
(malformed expression, operator JSON or FINPOT_PREC, or an input over a
work cap; message on stderr).  FINPOT_PREC overrides the default series
precision.

Work caps, checked before any computation: a series precision (--prec or
FINPOT_PREC) above MAX_PREC = 1024, a ps-series --order above MAX_ORDER = 64
(one m x m determinant for every m up to the order), a tail block_size above
MAX_BLOCK_SIZE = 256 (invert sums one term per block row: cold, tail
coefficients [1/2, 1/3] take 0.6 s at 256 and 11 s at 1024), an sw-pairing --T above
MAX_T = 40 (the default is 20; cold, --f z --ftilde z^-1 takes about 0.6 s
at T = 40, where the exact T + 28 stage finpot once used took 15-18 s and
could not print its value), an sw-pairing coefficient size
sum |a_n| + sum |b_m| above MAX_COEFF_SIZE = 40 (the cutoffs and the working
precision grow with it: the slowest exponents of size 40 take about 2 s cold
at T = 40, and --f 1000*z --ftilde 1000*z^-1 would need inner sums of 3650
terms at 5933 bits), and the parser's limits (parsing.MAX_EXPONENT,
parsing.MAX_DEGREE, and parsing.MAX_PLACE_DEGREE = 60 for --place).
A --place is squarefree; a reducible one stands for the places dividing it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .determinants import (
    det_one_plus,
    det_poly,
    exterior_trace,
    invert_one_plus,
    log_det_series,
    plemelj_smithies_series,
    regularized_det_series,
    routes_agree,
    tate_trace,
)
from .errors import FinpotError
from .exponentials import (
    exp_op,
    infinite_product_det,
    zassenhaus_check,
    zassenhaus_terms,
)
from .fitting import lift_ast
from .operators import FinitePotentOperator, SparseOperator, TailDescriptor
from .parsing import ParseError, parse_loop_exponent, parse_place, parse_rational_function
from .polynomials import Polynomial, RationalFunction
from .residues import residue_classical, residue_tate
from .scalars import format_rational, parse_integer
from .segal_wilson import (LoopExponent, sw_pairing_closed, sw_pairing_truncated,
                           sw_vs_tate_check)
from .series import format_series
from .symbols import cocycle, pairing, reciprocity_check


MAX_PREC = 1024
MAX_ORDER = 64
MAX_T = 40
MAX_COEFF_SIZE = 40
MAX_BLOCK_SIZE = 256


def _default_prec(fallback: int) -> int:
    value = os.environ.get("FINPOT_PREC")
    if value is None:
        prec = fallback
    else:
        try:
            prec = int(value)
        except ValueError:
            raise ParseError("FINPOT_PREC must be an integer, got %r" % value)
    if prec > MAX_PREC:
        raise ParseError("precision %d exceeds the limit %d" % (prec, MAX_PREC))
    return prec


def _load_operator(arg: str) -> FinitePotentOperator:
    try:
        if arg.lstrip()[:1] in ("{", "["):
            data = json.loads(arg)
        else:
            with open(arg) as fh:
                data = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise ParseError("cannot read operator: %s" % exc)
    return _operator_from_json(data)


def _operator_from_json(data) -> FinitePotentOperator:
    """Decoded operator JSON; a payload of the wrong shape, or with a tail
    block above MAX_BLOCK_SIZE, is a parse error."""
    try:
        op = FinitePotentOperator.from_json_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad operator payload: %s" % exc)
    if op.tail.block_size > MAX_BLOCK_SIZE:
        raise ParseError("tail block size %d exceeds the limit %d"
                         % (op.tail.block_size, MAX_BLOCK_SIZE))
    return op


def _poly_coeff_map(p: Polynomial) -> dict:
    return {str(i): format_rational(c) for i, c in enumerate(p.coeffs) if c != 0}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _run_trace(args):
    return {"value": format_rational(tate_trace(_load_operator(args.op)))}


def _run_det(args):
    return {"value": format_rational(det_one_plus(_load_operator(args.op)))}


def _run_detpoly(args):
    return {"coeffs": _poly_coeff_map(det_poly(_load_operator(args.op)))}


def _run_ast(args):
    ast = lift_ast(_load_operator(args.op))
    return {
        "ambient": list(ast.ambient_indices),
        "core_dim": ast.core_dim,
        "core_matrix": [[format_rational(x) for x in row] for row in ast.core_matrix],
        "nil_degree": ast.nil_degree,
        "nil_dim": ast.nil_dim,
    }


def _run_exterior(args):
    return {
        "value": format_rational(exterior_trace(_load_operator(args.op), args.r))
    }


def _run_invert(args):
    return invert_one_plus(_load_operator(args.op)).to_json_dict()


def _run_ps_series(args):
    if args.order > MAX_ORDER:
        raise ParseError("order %d exceeds the limit %d" % (args.order, MAX_ORDER))
    return {
        "coeffs": _poly_coeff_map(
            plemelj_smithies_series(_load_operator(args.op), args.order)
        )
    }


def _run_logdet(args):
    prec = _default_prec(args.prec)
    return log_det_series(_load_operator(args.op), prec).to_json_dict()


def _run_regdet(args):
    prec = _default_prec(args.prec)
    return regularized_det_series(_load_operator(args.op), args.m, prec).to_json_dict()


def _run_exp(args):
    prec = _default_prec(args.prec)
    s = exp_op(_load_operator(args.op), args.weight, prec)
    return {
        "prec": s.precision,
        "terms": {str(d): t.to_json_dict() for d, t in sorted(s.terms.items())},
        "var": s.variable,
    }


def _run_zassenhaus(args):
    f = _load_operator(args.f)
    g = _load_operator(args.g)
    c1, c2, c3 = zassenhaus_terms(f, g)
    return {
        "c1": c1.to_json_dict(),
        "c2": c2.to_json_dict(),
        "c3": c3.to_json_dict(),
        "holds": zassenhaus_check(f, g, min(args.prec, 5)),
    }


def _run_infprod(args):
    try:
        raw = json.loads(args.family)
        family = [(parse_integer(w), op) for w, op in raw]
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ParseError("bad family payload: %s" % exc)
    family = [(w, _operator_from_json(op)) for w, op in family]
    prec = _default_prec(args.prec)
    return infinite_product_det(family, args.m, prec=prec).to_json_dict()


def _run_residue(args):
    f = parse_rational_function(args.f)
    g = parse_rational_function(args.g)
    if args.route == "tate":
        value = residue_tate(f, g, place=parse_place(args.place))
    else:
        value = residue_classical(f, g, parse_place(args.place))
    return {"value": format_rational(value)}


def _run_cocycle(args):
    f = parse_rational_function(args.f)
    g = parse_rational_function(args.g)
    prec = _default_prec(args.prec)
    return cocycle(f, g, parse_place(args.place), prec).series.to_json_dict()


def _run_pairing(args):
    f = parse_rational_function(args.f)
    g = parse_rational_function(args.g)
    prec = _default_prec(args.prec)
    return pairing(f, g, parse_place(args.place), prec).series.to_json_dict()


def _run_reciprocity(args):
    f = parse_rational_function(args.f)
    g = parse_rational_function(args.g)
    prec = _default_prec(args.prec)
    total, prod = reciprocity_check(f, g, prec)
    return {"product": format_series(prod.series), "sum": format_rational(total)}


def _finite_float(x):
    """float(x), or None when x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _run_sw_pairing(args):
    if args.T > MAX_T:
        raise ParseError("T = %d exceeds the limit %d" % (args.T, MAX_T))
    f = parse_loop_exponent(args.f, "plus")
    ftilde = parse_loop_exponent(args.ftilde, "minus")
    size = sum(map(abs, f.coeffs.values())) + sum(map(abs, ftilde.coeffs.values()))
    if size > MAX_COEFF_SIZE:
        raise ParseError("coefficient size %s exceeds the limit %d"
                         % (format_rational(size), MAX_COEFF_SIZE))
    value = sw_pairing_truncated(f, ftilde, args.T)
    return {
        "exponent": format_rational(sw_pairing_closed(f, ftilde)),
        "matches_residue": sw_vs_tate_check(f, ftilde),
        "truncated": format_rational(value),
        "truncated_float": _finite_float(value),
    }


def _run_selftest(args):
    rng = random.Random(20240501)
    checks = {}

    def random_operator():
        entries = {}
        for _ in range(rng.randint(1, 6)):
            entries[(rng.randint(-2, 3), rng.randint(-2, 3))] = Fraction(
                rng.randint(-3, 3), rng.randint(1, 2)
            )
        tail = TailDescriptor.none()
        if rng.random() < 0.4:
            tail = TailDescriptor.jordan(rng.randint(2, 4), 6, [1])
        return FinitePotentOperator(SparseOperator(entries), tail)

    checks["det_routes"] = all(routes_agree(random_operator()) for _ in range(25))

    ok_res, p0 = True, parse_place("t")
    for _ in range(10):
        num = Polynomial([rng.randint(-3, 3) for _ in range(3)] + [1])
        f = RationalFunction(num, Polynomial([0, 1]) ** rng.randint(1, 2))
        g = RationalFunction(Polynomial([rng.randint(-2, 2), 1]))
        if f.is_zero() or g.is_zero():
            continue
        ok_res = ok_res and residue_classical(f, g, p0) == residue_tate(f, g)
    checks["residue_routes"] = ok_res

    f = LoopExponent("plus", {1: 1})
    ft = LoopExponent("minus", {1: 1})
    checks["sw_exponent"] = sw_vs_tate_check(f, ft)

    ok = all(checks.values())
    payload = {"checks": checks, "ok": ok}
    if not ok:
        raise FinpotError("selftest failed: %s" % checks)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finpot",
        description="Exact traces, determinants and local symbols of finite potent operators",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        for flag, kwargs in arguments.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.set_defaults(fn=fn)
        return p

    op_arg = {"required": True, "help": "operator JSON or a path to it"}
    add("trace", _run_trace, op=op_arg)
    add("det", _run_det, op=op_arg)
    add("detpoly", _run_detpoly, op=op_arg)
    add("ast", _run_ast, op=op_arg)
    add("exterior", _run_exterior, op=op_arg, r={"type": int, "required": True})
    add("invert", _run_invert, op=op_arg)
    add("ps-series", _run_ps_series, op=op_arg, order={"type": int, "default": 8})
    add("logdet", _run_logdet, op=op_arg, prec={"type": int, "default": 10})
    add("regdet", _run_regdet, op=op_arg, m={"type": int, "default": 2},
        prec={"type": int, "default": 10})
    add("exp", _run_exp, op=op_arg, weight={"type": int, "default": 1},
        prec={"type": int, "default": 10})
    add("zassenhaus", _run_zassenhaus,
        f={"required": True, "help": "operator JSON"},
        g={"required": True, "help": "operator JSON"},
        prec={"type": int, "default": 5})
    add("infprod", _run_infprod,
        family={"required": True, "help": "JSON list of [weight, operator]"},
        m={"type": int, "required": True},
        prec={"type": int, "default": 10})
    add("residue", _run_residue,
        f={"required": True}, g={"required": True},
        place={"default": "t"},
        route={"choices": ("classical", "tate"), "default": "classical"})
    add("cocycle", _run_cocycle, f={"required": True}, g={"required": True},
        place={"default": "t"}, prec={"type": int, "default": 8})
    add("pairing", _run_pairing, f={"required": True}, g={"required": True},
        place={"default": "t"}, prec={"type": int, "default": 8})
    add("reciprocity", _run_reciprocity, f={"required": True}, g={"required": True},
        prec={"type": int, "default": 8})
    add("sw-pairing", _run_sw_pairing, f={"required": True},
        ftilde={"required": True}, T={"type": int, "default": 20})
    add("selftest", _run_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.fn(args)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except FinpotError as exc:
        _emit({"detail": str(exc), "error": exc.code})
        return 1
    except (ArithmeticError, ValueError) as exc:
        _emit({"detail": str(exc), "error": "domain"})
        return 1
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
