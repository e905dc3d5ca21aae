"""Span tracer for the benchmark's traced run, built from outside finpot.

install() wraps every public function defined in a finpot module and rebinds
the wrapper in every finpot.* namespace that holds the same function object
(the package namespace included), so calls made inside the package through
``from .x import f`` are caught as well.  uninstall() restores the originals.

Layers are finpot's modules.  A span opens when a wrapped function is entered
from a different layer than the innermost open span; a call from inside the
same layer is only counted, and its time stays with the enclosing span of
that layer.  So ``<layer>.<function>`` self time is the time spent inside
the layer on behalf of calls that entered it through that function, minus
the spans of other layers it called.  Class methods are not wrapped: their
time belongs to the layer whose span is open when they run.

Spans (name, start, end, parent span, request id) are kept in memory and
written out at the end; self time is computed from them afterwards.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import json
import sys
import time
import types

# Called in every inner loop of the linear algebra; wrapping it would make
# the wrapper, not finpot, the largest cost of the traced run.
UNWRAPPED = {"scalars.scalar_is_zero"}


def _max_fact(key, measure):
    def observe(facts, args, result):
        value = measure(args, result)
        if value > facts.get(key, 0):
            facts[key] = value
    return observe


_matrix_dim = _max_fact("matrices.dim_max", lambda args, result: len(args[0]) if args else 0)
_series_prec = _max_fact("series.prec_max",
                         lambda args, result: args[0].precision if args else 0)

# Size facts read from the arguments or results of spans at layer entry.
OBSERVERS = {
    "operators.certify_finite_potent": _max_fact(
        "operators.cert_dim_max", lambda args, result: len(result.indices)),
    "segal_wilson.sw_pairing_truncated": _max_fact(
        "segal_wilson.result_bits_max",
        lambda args, result: result.numerator.bit_length() + result.denominator.bit_length()),
}
for _fn in ("det", "charpoly", "elementary_symmetric", "mat_inverse", "mat_pow",
            "mat_mul", "bareiss_echelon", "rank", "column_space_basis",
            "kernel_basis", "det_series_matrix"):
    OBSERVERS["matrices." + _fn] = _matrix_dim
for _fn in ("series_exp", "series_log", "series_inv", "series_mul"):
    OBSERVERS["series." + _fn] = _series_prec


class Tracer:
    def __init__(self):
        self.names = []            # span / call name table, "layer.function"
        self.index = {}
        self.counts = []           # calls per name, from any layer
        self.calls_from = {}       # (name index, caller layer) -> calls
        self.facts = {}
        self.span_name = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("i")
        self.span_request = array.array("i")
        self.stack = []            # open spans: (span id, layer)
        self.request_id = -1       # id of the current or last request
        self._patches = []

    def _name(self, name):
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self.index[name]

    # -- spans -----------------------------------------------------------------

    def _open(self, idx):
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_request.append(self.request_id)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        return sid

    @contextlib.contextmanager
    def request(self, kind):
        """Root span of one benchmark request."""
        self.request_id += 1
        idx = self._name("request." + kind)
        self.counts[idx] += 1
        self.stack.append((self._open(idx), "request"))
        try:
            yield
        finally:
            sid, _ = self.stack.pop()
            self.span_end[sid] = time.perf_counter_ns()

    def _wrap(self, fn, layer, idx, observe):
        stack = self.stack
        counts = self.counts
        calls_from = self.calls_from
        facts = self.facts
        ends = self.span_end
        clock = time.perf_counter_ns
        open_span = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[idx] += 1
            caller = stack[-1][1] if stack else "-"
            key = (idx, caller)
            calls_from[key] = calls_from.get(key, 0) + 1
            if caller == layer:
                return fn(*args, **kwargs)
            sid = open_span(idx)
            stack.append((sid, layer))
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(facts, args, result)
            return result

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "finpot" or name.startswith("finpot."))]
        wrappers = {}
        for m in modules:
            if m.__name__ in ("finpot", "finpot.__main__"):
                continue
            layer = m.__name__.split(".", 1)[1]
            for attr, obj in sorted(vars(m).items()):
                name = layer + "." + attr
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != m.__name__ or name in UNWRAPPED):
                    continue
                wrappers[obj] = self._wrap(obj, layer, self._name(name),
                                           OBSERVERS.get(name))
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((m, attr, obj))
                    setattr(m, attr, wrappers[obj])

    def uninstall(self):
        for m, attr, obj in reversed(self._patches):
            setattr(m, attr, obj)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def summarize(self):
        """Per name: calls, spans, inclusive and self seconds.  Self time is
        each span's duration minus the durations of its child spans."""
        n = len(self.span_start)
        child = [0] * n
        dur = [self.span_end[s] - self.span_start[s] for s in range(n)]
        for s in range(n):
            p = self.span_parent[s]
            if p >= 0:
                child[p] += dur[s]
        spans = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for s in range(n):
            i = self.span_name[s]
            spans[i] += 1
            incl[i] += dur[s]
            own[i] += dur[s] - child[s]
        return {name: {"calls": self.counts[i], "spans": spans[i],
                       "incl_s": incl[i] / 1e9, "self_s": own[i] / 1e9}
                for i, name in enumerate(self.names)}

    def calls_between(self, name, caller_layer):
        return self.calls_from.get((self.index.get(name, -1), caller_layer), 0)

    def write(self, path):
        """Spans as gzip text: a JSON header line, then one line per span
        `name start_ns end_ns parent request` (parent -1 for a request)."""
        header = {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                  "spans": len(self.span_start)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_request)
            fh.writelines("%d %d %d %d %d\n" % row for row in rows)


# -- per-layer metrics -------------------------------------------------------

# metric -> (field, names); a trailing "*" matches every name with that prefix
LAYER_METRICS = {
    "operators.certify_calls": ("calls", ["operators.certify_finite_potent"]),
    "operators.certify_self_s": ("self_s", ["operators.certify_finite_potent"]),
    "operators.algebra_self_s": ("self_s", ["operators.op_*"]),
    "fitting.lift_ast_calls": ("calls", ["fitting.lift_ast"]),
    "fitting.self_s": ("self_s", ["fitting.*"]),
    "matrices.det_calls": ("calls", ["matrices.det"]),
    "matrices.det_self_s": ("self_s", ["matrices.det"]),
    "matrices.charpoly_self_s": ("self_s", ["matrices.charpoly", "matrices.elementary_symmetric"]),
    "matrices.echelon_self_s": ("self_s", ["matrices.bareiss_echelon", "matrices.rank",
                                           "matrices.column_space_basis", "matrices.kernel_basis"]),
    "matrices.solve_self_s": ("self_s", ["matrices.solve_columns"]),
    "matrices.inverse_self_s": ("self_s", ["matrices.mat_inverse"]),
    "matrices.mat_pow_self_s": ("self_s", ["matrices.mat_pow"]),
    "matrices.mat_mul_calls": ("calls", ["matrices.mat_mul"]),
    "matrices.det_series_matrix_calls": ("calls", ["matrices.det_series_matrix"]),
    "matrices.det_series_matrix_self_s": ("self_s", ["matrices.det_series_matrix"]),
    "determinants.self_s": ("self_s", ["determinants.*"]),
    "determinants.det_routes_s": ("incl_s", ["determinants.det_routes"]),
    "determinants.invert_self_s": ("self_s", ["determinants.invert_one_plus"]),
    "determinants.restrict_scalars_s": ("incl_s", ["determinants.restrict_scalars"]),
    "exponentials.exp_op_calls": ("calls", ["exponentials.exp_op"]),
    "exponentials.exp_op_self_s": ("self_s", ["exponentials.exp_op"]),
    "exponentials.det_series_self_s": ("self_s", ["exponentials.det_series"]),
    "scalars.field_norm_calls": ("calls", ["scalars.field_norm"]),
    "scalars.self_s": ("self_s", ["scalars.*"]),
    "series.exp_calls": ("calls", ["series.series_exp"]),
    "series.exp_self_s": ("self_s", ["series.series_exp"]),
    "series.log_calls": ("calls", ["series.series_log"]),
    "series.log_self_s": ("self_s", ["series.series_log"]),
    "series.inv_calls": ("calls", ["series.series_inv"]),
    "series.inv_self_s": ("self_s", ["series.series_inv"]),
    "series.mul_calls": ("calls", ["series.series_mul"]),
    "series.mul_self_s": ("self_s", ["series.series_mul"]),
    "polynomials.sympy_calls": ("calls", ["polynomials.is_irreducible",
                                          "polynomials.factor_monic_irreducibles"]),
    "polynomials.sympy_self_s": ("self_s", ["polynomials.is_irreducible",
                                            "polynomials.factor_monic_irreducibles"]),
    "places.local_expand_calls": ("calls", ["places.local_expand"]),
    "places.local_expand_self_s": ("self_s", ["places.local_expand"]),
    "places.relevant_places_self_s": ("self_s", ["places.relevant_places"]),
    "residues.classical_calls": ("calls", ["residues.residue_classical"]),
    "residues.classical_self_s": ("self_s", ["residues.residue_classical"]),
    "residues.tate_calls": ("calls", ["residues.residue_tate"]),
    "residues.tate_self_s": ("self_s", ["residues.residue_tate"]),
    "symbols.cocycle_via_operators_calls": ("calls", ["symbols.cocycle_via_operators"]),
    "symbols.cocycle_via_operators_s": ("incl_s", ["symbols.cocycle_via_operators"]),
    "symbols.reciprocity_self_s": ("self_s", ["symbols.reciprocity_check"]),
    "segal_wilson.truncated_calls": ("calls", ["segal_wilson.sw_pairing_truncated"]),
    "segal_wilson.truncated_self_s": ("self_s", ["segal_wilson.sw_pairing_truncated"]),
    "segal_wilson.closed_self_s": ("self_s", ["segal_wilson.sw_pairing_closed"]),
    "parsing.calls": ("calls", ["parsing.*"]),
    "parsing.self_s": ("self_s", ["parsing.*"]),
}
FACTS = ("operators.cert_dim_max", "matrices.dim_max", "series.prec_max",
         "segal_wilson.result_bits_max")


def layer_metrics(tracer, requests):
    """Every per-layer metric of the traced requests (0 where a layer did
    not run), except the cli.* and trace.* ones, which the runner measures."""
    summary = tracer.summarize()
    out = {}
    for metric, (field, patterns) in LAYER_METRICS.items():
        names = [n for p in patterns for n in summary
                 if (n.startswith(p[:-1]) if p.endswith("*") else n == p)]
        out[metric] = sum(summary[n][field] for n in names)
    for fact in FACTS:
        out[fact] = tracer.facts.get(fact, 0)
    out["fitting.lift_ast_per_request"] = out["fitting.lift_ast_calls"] / requests
    # residues.multiplication_window calls made by the operator route, per
    # window factor: exp products of 3 factors (cocycle) or 4 (pairing)
    factors = (3 * out["symbols.cocycle_via_operators_calls"]
               + 4 * summary.get("symbols.pairing_via_operators", {}).get("calls", 0))
    windows = tracer.calls_between("residues.multiplication_window", "symbols")
    out["symbols.window_attempts_per_call"] = windows / factors if factors else 0
    return out
