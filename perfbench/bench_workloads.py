"""Seeded workloads of the finpot benchmark.

Each workload builds a pool of requests from its seed with the benchmark's
own generators (nothing is imported from tests/), runs them one at a time
and cross-checks every result.  finpot receives only the generated objects,
or argv for the CLI.

Request kinds follow a fixed schedule that does not depend on the seed:
every seed draws the same mix of shapes and sizes and only the values
change, so runs with different seeds measure the same amount of work.  The
shares are set so that the median latency and the tail latency (the sample
with ten slower samples beyond it) each fall inside one kind rather than on
the border between two.

All finpot calls go through module attributes at call time (``fp.det_one_plus``
and so on), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import finpot as fp
import finpot.cli
from finpot.operators import FinitePotentOperator, SparseOperator, TailDescriptor
from finpot.places import Place
from finpot.polynomials import Polynomial, RationalFunction
from finpot.scalars import NumberField, NumberFieldElement
from finpot.segal_wilson import LoopExponent
from finpot.series import TruncatedLaurentSeries

GAUSS = NumberField([1, 0, 1])  # Q(i)
QUADRATICS = (Polynomial([1, 0, 1]), Polynomial([-2, 0, 1]), Polynomial([1, 1, 1]),
              Polynomial([3, 0, 1]))  # irreducible over Q


class CheckFailed(Exception):
    """A result disagreed with one of its cross-checks."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


class Request:
    __slots__ = ("kind", "args", "expect")

    def __init__(self, kind, args, expect=None):
        self.kind = kind
        self.args = args
        self.expect = expect


# -- canonical text of exact results (input to outputs_sha256) ---------------


def canon(x) -> str:
    if isinstance(x, bool):
        return "T" if x else "F"
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)  # hex: linear time, no digit limit for the huge pairings
        return "%x/%x" % (x.numerator, x.denominator)
    if isinstance(x, NumberFieldElement):
        return "(" + ",".join(canon(c) for c in x.coeffs) + ")"
    if isinstance(x, TruncatedLaurentSeries):
        body = ",".join("%d:%s" % (d, canon(c)) for d, c in sorted(x.coeffs.items()))
        return "S(%s;%d;%s)" % (x.variable, x.precision, body)
    if isinstance(x, FinitePotentOperator):
        body = ",".join("%d.%d:%s" % (i, j, canon(c))
                        for (i, j), c in sorted(x.finite_part.entries.items()))
        t = x.tail
        tail = "" if t.is_none() else "|%d.%d:%s" % (
            t.block_size, t.start_index, canon(list(t.coeffs)))
        return "O(" + body + tail + ")"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if x is None:
        return "-"
    return str(x)


def is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, NumberFieldElement) else x == 0


def exp_coefficients(c, prec):
    """Coefficients of exp(c z) below z^prec: c^k / k!."""
    out, term = [], Fraction(1)
    for k in range(prec):
        if k:
            term = term * c * Fraction(1, k)
        out.append(term)
    return out


def rand_fraction(rng, top=3, bottom=2):
    return Fraction(rng.randint(-top, top), rng.randint(1, bottom))


def nonzero_fraction(rng, top=3, bottom=2):
    v = Fraction(0)
    while v == 0:
        v = rand_fraction(rng, top, bottom)
    return v


class Workload:
    """Base: a seeded pool of requests and a checked executor."""

    name = ""
    period = ()          # kind schedule, repeated through the pool
    pool_periods = 1     # pool length in schedule periods
    hash_requests = 1    # results of pool[0:hash_requests] go into outputs_sha256
    trace_requests = 1   # requests of the traced run (and of its untraced reference)

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.tiny = tiny

    def generate(self):
        pool, made = [], {}
        for i in range(self.pool_periods * len(self.period)):
            kind = self.period[i % len(self.period)]
            nth = made[kind] = made.get(kind, -1) + 1
            pool.append(self.make(self.rng, kind, nth))
        return pool

    def warmup(self) -> Request:
        """The same request for every seed, so warm-up costs the same."""
        return self.make(random.Random(self.name), self.period[-1], 0)

    def make(self, rng, kind, nth) -> Request:
        raise NotImplementedError

    def execute(self, req: Request) -> str:
        """Run one request, check it (raises CheckFailed), return its
        canonical output."""
        raise NotImplementedError


# -- det-operators -----------------------------------------------------------


def jordan_tail(rng):
    """Nilpotent tail of 2-4 blocks from index 8 on, as in the suite."""
    b = rng.randint(2, 4)
    coeffs = [rand_fraction(rng, 2, 1) for _ in range(b - 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    return TailDescriptor.jordan(b, 8, coeffs)


def small_operator(rng, rows, tail):
    """As the suite's random operators: finite part with `rows` rows over
    columns -3..5 at density 0.5, optional Jordan-block tail."""
    entries = {}
    for r in rng.sample(range(-3, 6), rows):
        for c in range(-3, 6):
            if rng.random() < 0.5:
                entries[(r, c)] = rand_fraction(rng)
    return FinitePotentOperator(SparseOperator(entries),
                                jordan_tail(rng) if tail else TailDescriptor.none())


def dense_operator(rng, n, tail=False):
    """A full n x n block: every entry is nonzero, so the cost of a request
    follows n and not how many entries a seed happened to zero."""
    entries = {(i, j): nonzero_fraction(rng) for i in range(n) for j in range(n)}
    return FinitePotentOperator(SparseOperator(entries),
                                jordan_tail(rng) if tail else TailDescriptor.none())


def gauss_operator(rng, rows):
    entries = {}
    for r in range(rows):
        for c in range(rows):
            if rng.random() < 0.7:
                entries[(r, c)] = GAUSS.element([rng.randint(-2, 2), rng.randint(-2, 2)])
    return FinitePotentOperator(SparseOperator(entries))


class DetOperators(Workload):
    """70% small operators (core <= 6, 30% with a Jordan tail): half sparse
    with 1-4 rows, half a full 5 x 5 block.  20% dense blocks, one of size 8
    to three of size 10; 10% Q(i) entries.  Sorted by latency, the sparse
    share comes first and the full-5 share next, so the median sits inside
    the full-5 kind.  The dense-10 requests are the slowest 15%, so the tail
    sits inside them, even when machine noise halves the request count.  A
    larger block would hold too few samples in a 25 s run to carry the
    tail, and would move it to the border with the next kind."""

    name = "det-operators"
    period = ("sparse", "full5", "dense", "sparse", "gauss", "full5", "sparse",
              "dense", "full5", "sparse", "full5", "sparse", "dense", "full5",
              "gauss", "sparse", "full5", "dense", "sparse", "full5")
    pool_periods = 20
    hash_requests = 20
    trace_requests = 20

    def make(self, rng, kind, nth):
        tail = nth % 10 in (1, 4, 7)
        if kind == "sparse":
            return Request(kind, small_operator(rng, 1 + nth % 4, tail))
        if kind == "full5":
            return Request(kind, dense_operator(rng, 5, tail))
        if kind == "dense":
            sizes = (4, 6) if self.tiny else (10, 8, 10, 10)
            return Request(kind, dense_operator(rng, sizes[nth % len(sizes)]))
        return Request(kind, gauss_operator(rng, 2 + nth % 2))

    def execute(self, req):
        phi = req.args
        d = fp.det_one_plus(phi)
        tr = fp.tate_trace(phi)
        if req.kind == "gauss":
            route_values = self._gauss_routes(phi, d)
        else:
            route_values = [r.value for r in fp.det_routes(phi)]
            require(all(v == d for v in route_values), "det routes disagree")
        if is_zero(d):
            try:
                fp.invert_one_plus(phi)
            except fp.NotInvertibleError:
                psi = None
            else:
                raise CheckFailed("invert_one_plus accepted a singular 1 + phi")
        else:
            psi = fp.invert_one_plus(phi)
            for a, b in ((phi, psi), (psi, phi)):
                require(fp.op_add(fp.op_add(a, b), fp.op_compose(a, b)).is_zero(),
                        "(1 + phi)(1 + psi) != 1")
        series = fp.det_series(fp.exp_op(phi, 1, 10))
        want = exp_coefficients(tr, 10)
        require(series.precision == 10
                and all(series.coefficient(k) == want[k] for k in range(10)),
                "det_series(exp_op(phi)) != exp(tr phi z)")
        return canon([d, tr, route_values, psi, series])

    @staticmethod
    def _gauss_routes(phi, d):
        """Routes that run over Q(i): the logdet series on phi itself, and
        all five routes on the restriction of scalars, whose determinant
        must be the field norm of det(1 + phi)."""
        n = len(fp.certify_finite_potent(phi).indices)
        logdet = sum(fp.log_det_series(phi, n + 2).coeffs.values(), Fraction(0))
        require(logdet == d, "logdet route disagrees over Q(i)")
        if is_zero(d):
            try:
                fp.restrict_scalars(phi)
            except fp.NotInvertibleError:
                return [logdet]
            raise CheckFailed("restrict_scalars accepted a singular 1 + phi")
        norm = fp.field_norm(d if isinstance(d, NumberFieldElement) else GAUSS.element([d]))
        restricted = [r.value for r in fp.det_routes(fp.restrict_scalars(phi))]
        require(all(v == norm for v in restricted), "restricted det != field norm")
        return [logdet, norm] + restricted


# -- symbols-reciprocity -----------------------------------------------------


def laurent_function(coeffs):
    """sum c_k t^k as an element of Q(t)."""
    k = -min(0, min(coeffs))
    num = [Fraction(0)] * (max(coeffs) + k + 1)
    for d, c in coeffs.items():
        num[d + k] = c
    return RationalFunction(Polynomial(num), Polynomial([0] * k + [1]))


def linear(a):
    return Polynomial([-Fraction(a), 1])


class SymbolsReciprocity(Workload):
    """20% rational pairs (f with a linear and a quadratic pole, g linear),
    50% Laurent pairs in span(1/t, t) (both residue routes), 30% Laurent
    pairs with f in span(1/t^2, t) and g in span(1/t, t) that also take the
    operator route.  Sorted by latency the rational kind comes first, so the
    median sits inside the Laurent kind; the operator kind holds the tail,
    with at least eleven samples even when machine noise halves the count."""

    name = "symbols-reciprocity"
    period = ("laurent", "operator", "rational", "laurent", "operator",
              "laurent", "rational", "operator", "laurent", "laurent")
    pool_periods = 20
    hash_requests = 20
    trace_requests = 20

    @property
    def precisions(self):
        return (8, 12) if self.tiny else (8, 32)

    def make(self, rng, kind, nth):
        if kind == "rational":
            a, b, c = rng.sample(range(-3, 4), 3)
            q = QUADRATICS[nth % len(QUADRATICS)]
            f = RationalFunction(linear(a) * Polynomial([nonzero_fraction(rng)]),
                                 linear(b) * q)
            g = RationalFunction(linear(c) * Polynomial([nonzero_fraction(rng)]))
            return Request(kind, (f, g))
        if kind == "laurent":
            f = {d: nonzero_fraction(rng) for d in (-1, 1)}
            g = {d: nonzero_fraction(rng) for d in (-1, 1)}
            return Request(kind, (laurent_function(f), laurent_function(g)))
        # operator route: fixed support shape, so the window size is fixed
        f = {d: nonzero_fraction(rng, 2, 2) for d in ((-1, 1) if self.tiny else (-2, 1))}
        g = {d: nonzero_fraction(rng, 2, 2) for d in (-1, 1)}
        return Request(kind, (laurent_function(f), laurent_function(g)))

    def execute(self, req):
        f, g = req.args
        places = fp.relevant_places(f, g)
        residues = [fp.residue_classical(f, g, p) for p in places]
        require(sum(residues, Fraction(0)) == 0, "residues do not sum to 0")
        out = [residues]
        at_zero = Place.at_zero()
        if req.kind != "rational":
            require(fp.residue_tate(f, g) == fp.residue_classical(f, g, at_zero),
                    "residue routes disagree")
        values = [fp.cocycle(f, g, p, 8) for p in places]
        for v, r in zip(values, residues):
            require(v.exponent == r / 2, "cocycle exponent != residue / 2")
        out.append([v.series for v in values])
        # reciprocity_check runs cocycle at every place again, at each precision
        for prec in self.precisions:
            total, product = fp.reciprocity_check(f, g, prec)
            require(total == 0 and product.is_one()
                    and product.series.precision == prec, "reciprocity fails")
            out.append(product.series)
        if req.kind == "operator":
            via = fp.cocycle_via_operators(f, g, prec_z=8)
            require(via == fp.cocycle(f, g, at_zero, 8), "cocycle routes disagree")
            out.append(via.series)
        return canon(out)


# -- loop-pairing ------------------------------------------------------------

# The one declared float comparison, |truncated - exp(closed)| <= tolerance,
# fixed per T.  Each bound is 30-100 times the worst error over every sign
# pattern of coefficients +-1/2 at the largest support used with that T
# (T 8-12: support T - 6; T 15 and 19: support 3 + 3), and at least 1e-12,
# well above float rounding of exp(closed) <= exp(1.5).
SW_TOLERANCE = {8: 1e-12, 9: 1e-11, 10: 1e-6, 11: 1e-5, 12: 1e-3, 15: 1e-4, 19: 1e-7}
SW_COEFFS = tuple(Fraction(s, d) for s in (-1, 1) for d in (2, 4))


def closed_pairing(f, ft):
    """sum_n n a_n b_n, the exponent the pairing converges to."""
    return sum((n * c * ft.coeffs[n] for n, c in f.coeffs.items() if n in ft.coeffs),
               Fraction(0))


class LoopPairing(Workload):
    """Plus and minus exponents of support 1-3 with every coefficient
    nonzero and of mixed sign.  30% short (T = support + 6, support 2-4),
    50% mid (T = 15, support 2 + 2), 20% long (T = 19, support 3 + 3).  The
    cost follows T and the support, so the median sits inside the mid kind
    and the tail inside the long kind."""

    name = "loop-pairing"
    period = ("mid", "short", "long", "mid", "short", "mid", "mid", "long",
              "short", "mid")
    pool_periods = 40
    hash_requests = 20
    trace_requests = 20
    supports = {"short": ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)),
                "mid": ((2, 2),),
                "long": ((3, 3),)}

    def make(self, rng, kind, nth):
        sf, sft = self.supports[kind][nth % len(self.supports[kind])]
        T = {"short": sf + sft + 6, "mid": 15, "long": 19}[kind]
        if self.tiny:
            T = sf + sft + 6
        f = LoopExponent("plus", {n: rng.choice(SW_COEFFS) for n in range(1, sf + 1)})
        ft = LoopExponent("minus", {n: rng.choice(SW_COEFFS) for n in range(1, sft + 1)})
        return Request(kind, (f, ft, T))

    def execute(self, req):
        f, ft, T = req.args
        value = fp.sw_pairing_truncated(f, ft, T)
        closed = fp.sw_pairing_closed(f, ft)
        require(closed == closed_pairing(f, ft), "closed pairing != sum n a_n b_n")
        require(fp.sw_vs_tate_check(f, ft), "closed pairing != residue")
        require(abs(float(value) - math.exp(float(closed))) <= SW_TOLERANCE[T],
                "truncated pairing outside its tolerance")
        return canon([value, closed])


# -- cli-cold ----------------------------------------------------------------


def cli_env():
    """Environment for finpot subprocesses: this finpot first on the path,
    no precision override."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FINPOT_PREC", None)
    return env


def format_q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


class CliCold(Workload):
    """Fresh `python -m finpot <verb>` processes, one at a time.  Every verb
    pays interpreter start and import, so all kinds cost about the same;
    the verbs that compute more (reciprocity, sw-pairing) sit at the top."""

    name = "cli-cold"
    period = ("det", "residue", "trace", "cocycle", "parse-error", "detpoly",
              "reciprocity", "residue-tate", "invert", "sw-pairing",
              "not-invertible", "det")
    pool_periods = 4
    hash_requests = 12
    trace_requests = 24

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.env = cli_env()

    def make(self, rng, kind, nth):
        if kind in ("det", "trace", "detpoly", "invert"):
            phi = small_operator(rng, 2 + nth % 4, nth % 3 == 1)
            while kind == "invert" and fp.det_one_plus(phi) == 0:
                phi = small_operator(rng, 2 + nth % 4, nth % 3 == 1)
            argv = [kind, "--op=" + phi.to_json()]
            return Request(kind, argv, self._expect(kind, phi))
        if kind == "not-invertible":
            a = rng.randint(1, 4)
            phi = FinitePotentOperator(SparseOperator(
                {(0, 0): Fraction(-1), (a, 0): nonzero_fraction(rng), (a, a): Fraction(2)}))
            return Request(kind, ["invert", "--op=" + phi.to_json()], (1, "not_invertible"))
        if kind == "parse-error":
            bad = rng.choice(["(t+%d" % rng.randint(1, 9), "t^", "%d/(t-" % rng.randint(1, 9)])
            return Request(kind, ["residue", "--f=" + bad, "--g=t"], (2, None))
        if kind in ("residue", "residue-tate", "cocycle", "reciprocity"):
            f = {d: nonzero_fraction(rng) for d in (-2, -1, 1) if rng.random() < 0.7}
            g = {d: nonzero_fraction(rng) for d in (-1, 1, 2) if rng.random() < 0.7}
            f.setdefault(-1, Fraction(1))
            g.setdefault(1, Fraction(1))
            ff, gg = laurent_function(f), laurent_function(g)
            # "--f=value": a value may start with "-"
            argv = [kind.split("-")[0], "--f=%s" % ff, "--g=%s" % gg]
            if kind == "residue-tate":
                argv.append("--route=tate")
            return Request(kind, argv, self._expect(kind, (ff, gg)))
        # sw-pairing with a small T
        f = LoopExponent("plus", {1: rng.choice(SW_COEFFS), 2: rng.choice(SW_COEFFS)})
        ft = LoopExponent("minus", {1: rng.choice(SW_COEFFS)})
        T = 9  # support 2 + 1, plus 6
        argv = ["sw-pairing", "--f=(%s)*z + (%s)*z^2" % (format_q(f.coeffs[1]), format_q(f.coeffs[2])),
                "--ftilde=(%s)*z^-1" % format_q(ft.coeffs[1]), "--T=%d" % T]
        return Request(kind, argv, self._expect(kind, (f, ft, T)))

    @staticmethod
    def _expect(kind, x):
        """(exit code, expected JSON) from in-process library calls, each
        cross-checked against a second route."""
        if kind in ("det", "invert"):
            d = fp.det_one_plus(x)
            routes = fp.det_routes(x)
            require(all(r.value == d for r in routes), "det routes disagree")
            if kind == "det":
                return 0, {"value": format_q(d)}
            psi = fp.invert_one_plus(x)
            require(fp.det_one_plus(psi) * d == 1, "det(1 + psi) != 1 / det(1 + phi)")
            return 0, psi.to_json_dict()
        if kind == "trace":
            tr = fp.tate_trace(x)
            require(fp.exterior_trace(x, 1) == tr, "trace routes disagree")
            return 0, {"value": format_q(tr)}
        if kind == "detpoly":
            poly = fp.det_poly(x)
            n = len(fp.certify_finite_potent(x).indices)
            require(fp.plemelj_smithies_series(x, n + 1) == poly, "det_poly routes disagree")
            return 0, {"coeffs": {str(i): format_q(c) for i, c in enumerate(poly.coeffs) if c != 0}}
        if kind in ("residue", "residue-tate", "cocycle"):
            f, g = x
            r = fp.residue_classical(f, g, Place.at_zero())
            require(fp.residue_tate(f, g) == r, "residue routes disagree")
            if kind == "cocycle":
                series = fp.SymbolValue.from_exponent(r / 2, 8).series
                return 0, series.to_json_dict()
            return 0, {"value": format_q(r)}
        if kind == "reciprocity":
            return 0, {"product": "1 + O(z^8)", "sum": "0"}
        f, ft, T = x
        closed = closed_pairing(f, ft)
        value = fp.sw_pairing_truncated(f, ft, T)
        require(abs(float(value) - math.exp(float(closed))) <= SW_TOLERANCE[T],
                "truncated pairing outside its tolerance")
        return 0, {"exponent": format_q(closed), "matches_residue": True,
                   "truncated": format_q(value), "truncated_float": float(value)}

    def execute(self, req):
        proc = subprocess.run([sys.executable, "-m", "finpot"] + req.args,
                              capture_output=True, text=True, env=self.env, timeout=120)
        return self.check(req, proc.returncode, proc.stdout, proc.stderr)

    def execute_in_process(self, req):
        """The same request through finpot.cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = finpot.cli.main(list(req.args))
        return self.check(req, code, out.getvalue(), err.getvalue())

    @staticmethod
    def check(req, code, stdout, stderr):
        want_code, want = req.expect
        require(code == want_code, "exit code %s, expected %s" % (code, want_code))
        if want_code == 2:
            require(stdout == "" and stderr.startswith("parse error"), "parse error not reported")
        else:
            got = json.loads(stdout)
            if want_code == 1:
                require(got.get("error") == want and "detail" in got, "wrong error object")
            else:
                require(got == want, "output differs from the expected value")
        return "%d|%s" % (code, stdout)


WORKLOADS = {w.name: w for w in (DetOperators, SymbolsReciprocity, LoopPairing, CliCold)}
