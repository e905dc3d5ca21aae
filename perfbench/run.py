"""finpot benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload det-operators --seed 1 --seconds 25 --trace 0

Workloads: det-operators, symbols-reciprocity, loop-pairing, cli-cold (see
bench_workloads.py and README.md).  Run from the root of a finpot checkout;
finpot is imported from its src/ directory.

--trace 0 runs a closed loop (one client, one request at a time) for
--seconds and reports the end-to-end metrics.  --trace 1 runs a fixed number
of requests untraced and then the same requests traced, reports the
per-layer metrics and writes the spans under perfbench/spans/.

The last stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it holds the details: outputs_sha256 (a hash of
the exact results of the first pool requests, equal for equal seeds and
equal code), failure_ratio, the tail percentile and sample count, setup
samples and the environment.

Machine speed.  The shared hosts this runs on drift in speed by up to 1.7x
over minutes, which no run length averages out.  So the timed loop also runs
a fixed reference computation (reference_s, which never calls finpot) at
least every CALIBRATE_EVERY_S, and every time metric is scaled by
REF_NOMINAL_S / (median reference time around it): it reads as the time on a
machine where the reference takes REF_NOMINAL_S.  The unscaled wall-clock
figures are on the details line ("wall").
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5  # set-up time is the median of this many processes
CLI_SAMPLES = 3    # fresh processes per cli.interpreter_s / cli.import_s
TAIL_BEYOND = 10  # the tail latency has this many samples beyond it
REF_NOMINAL_S = 0.013    # reference_s() at the median speed of the 2-vCPU Xeon host the
                         # bounds were tuned on
CALIBRATE_EVERY_S = 0.25  # the timed loop runs reference_s() at least this often
REF_WINDOW = 6           # a request is scaled by the median of 2*REF_WINDOW samples
SETUP_REF_SAMPLES = 7    # reference samples right after each set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("det-operators", "symbols-reciprocity", "loop-pairing", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the benchmark's own smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up and reference times (used internally)")
    return p.parse_args(argv)


def setup(args):
    """Import finpot, build the request pool, run one warm-up request."""
    t0 = time.perf_counter()
    import bench_workloads  # imports finpot

    workload = bench_workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    pool = workload.generate()
    workload.execute(workload.warmup())
    return workload, pool, time.perf_counter() - t0


def _elimination_matrix():
    rng = random.Random(0)
    return [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(7)]
            for _ in range(7)]


ELIMINATION_MATRIX = _elimination_matrix()


def reference_s():
    """Seconds for one pass of fixed pure-Python work in three parts of
    about equal time, each like one kind of finpot's exact work:

    - a Fraction sum whose denominator grows to big-int gcds (series);
    - big-int products and floor divisions of a few thousand bits (the
      Segal-Wilson determinant);
    - Gaussian elimination of a small Fraction matrix held in a dict
      (small operators, interpreter-bound).

    The host's speed phases move these three by different amounts, and the
    workloads by amounts in between.  The reference never calls finpot, so
    only the machine's speed moves it; gc is off so the heap the program
    has built does not move it either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, 700):
            s += Fraction(1, i * i + 1)
        x = 3 ** 2000
        for i in range(125):
            x = x * (x + i) // (x + 7)
        n = len(ELIMINATION_MATRIX)
        for _ in range(6):
            a = {(i, j): v for i, row in enumerate(ELIMINATION_MATRIX) for j, v in enumerate(row)}
            for c in range(n):
                p = next((r for r in range(c, n) if a[r, c]), None)
                if p is None:
                    break
                for j in range(c, n):
                    a[c, j], a[p, j] = a[p, j], a[c, j]
                for r in range(c + 1, n):
                    f = a[r, c] / a[c, c]
                    for j in range(c, n):
                        a[r, j] -= f * a[c, j]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(samples):
    """REF_NOMINAL_S over the median of reference samples."""
    return REF_NOMINAL_S / statistics.median(samples)


class Loop:
    """Runs pool requests one at a time, counts failures and keeps a digest
    of each request's first output: a later run of the same request, in any
    pass, must return the same output."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.attempted = 0
        self.failures = []
        self.first = {}   # pool index -> digest of its first output (None: failed)

    def one(self, execute, i):
        req = self.pool[i % len(self.pool)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = execute(req)
        except Exception as exc:  # every failure is counted, the loop goes on
            self.failures.append("%d %s: %s: %s" % (i, req.kind, type(exc).__name__, exc))
            out = None
        latency = time.perf_counter() - t0
        digest = None if out is None else hashlib.sha256(out.encode()).hexdigest()
        seen = self.first.setdefault(i % len(self.pool), digest)
        if out is not None and seen != digest:
            self.failures.append("%d %s: output differs from its first run" % (i, req.kind))
        return latency

    def timed(self, execute, count):
        """Closed loop from pool index 0 for `count` requests.  Returns
        (elapsed seconds, latencies)."""
        t0 = time.perf_counter()
        latencies = [self.one(execute, i) for i in range(count)]
        return time.perf_counter() - t0, latencies

    def calibrated(self, execute, seconds):
        """Closed loop from pool index 0 until `seconds` have passed and at
        least one schedule period is done, with a reference sample whenever
        CALIBRATE_EVERY_S has passed since the last one.  Returns (wall
        latencies, scaled latencies, reference samples)."""
        latencies, mids, refs, ref_at = [], [], [], []
        period = len(self.workload.period)
        t0 = last = time.perf_counter()
        refs.append(reference_s())
        ref_at.append(0.0)
        while len(latencies) < period or time.perf_counter() < t0 + seconds:
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                last = time.perf_counter()
                refs.append(reference_s())
                ref_at.append(last - t0)
            start = time.perf_counter() - t0
            latency = self.one(execute, len(latencies))
            latencies.append(latency)
            mids.append(start + latency / 2)
        refs.append(reference_s())
        ref_at.append(time.perf_counter() - t0)
        scaled = []
        for mid, latency in zip(mids, latencies):
            j = bisect.bisect(ref_at, mid)
            scaled.append(latency * speed_scale(refs[max(0, j - REF_WINDOW):j + REF_WINDOW]))
        return latencies, scaled, refs

    def outputs_sha256(self, execute):
        """Hash of the first hash_requests outputs, running untimed any
        request the loop did not reach."""
        n = self.workload.hash_requests
        for i in range(n):
            if i not in self.first:
                self.one(execute, i)
        h = hashlib.sha256()
        for i in range(n):
            h.update(("%s\n" % self.first[i]).encode())
        return h.hexdigest()


def throughput(latencies, period):
    """Requests per second of a closed loop over its whole schedule
    periods: every period holds the same mix of kinds."""
    n = len(latencies) // period * period
    return n / sum(latencies[:n])


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def setup_probe(args):
    """(set-up time, reference time) of a fresh process, as this one
    measured its own."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: %s" % proc.stderr.strip()[-500:])
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["ref_s"]


def median_wall(cmd, times, env):
    walls = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, env=env, timeout=120)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def git_sha():
    """HEAD of the checkout, read from .git without running git; None
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def own_setup_ref():
    """Reference time right after this process's set-up."""
    return statistics.median(reference_s() for _ in range(SETUP_REF_SAMPLES))


def time_metrics(latencies, setups, period):
    """The time metrics, in their units, from latencies and set-up times
    in seconds."""
    return {
        "throughput_ops_s": throughput(latencies, period),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies)[0] * 1e3,
        "setup_s": statistics.median(setups),
    }


def end_to_end(args, workload, pool, setup_s, setup_ref):
    loop = Loop(workload, pool)
    wall, scaled, refs = loop.calibrated(workload.execute, args.seconds)
    digest = loop.outputs_sha256(workload.execute)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [(setup_s, setup_ref)] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    period = len(workload.period)
    units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s"}
    values = time_metrics(scaled, [s * speed_scale([r]) for s, r in setups], period)
    metrics = {k: (v, units[k]) for k, v in values.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    kinds = collections.Counter(pool[i % len(pool)].kind for i in range(len(wall)))
    details = {"latency_tail_percentile": tail(wall)[1], "latency_samples": len(wall),
               "wall": time_metrics(wall, [s for s, _ in setups], period),
               "reference_s": {"nominal": REF_NOMINAL_S, "samples": len(refs),
                               "min": min(refs), "median": statistics.median(refs),
                               "max": max(refs)},
               "requests_by_kind": dict(kinds), "setup_samples_s": setups}
    return loop, digest, metrics, details


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith(("_ratio", "_per_request", "_per_call")):
        return "ratio"
    return "count"


def traced(args, workload, pool):
    """Untraced pass, traced pass over the same requests, then the cli.*
    timings in fresh processes."""
    import bench_trace
    import bench_workloads

    count = workload.trace_requests
    in_process = args.workload == "cli-cold"
    execute = workload.execute_in_process if in_process else workload.execute
    loop = Loop(workload, pool)
    plain_s, plain = loop.timed(execute, count)
    tracer = bench_trace.Tracer()

    def execute_traced(req):
        with tracer.request(req.kind):
            return execute(req)

    tracer.install()
    try:
        traced_s, _ = loop.timed(execute_traced, count)
    finally:
        tracer.uninstall()
    metrics = bench_trace.layer_metrics(tracer, count)
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    env = bench_workloads.cli_env()
    interp = median_wall([sys.executable, "-c", "pass"], CLI_SAMPLES, env)
    imported = median_wall([sys.executable, "-c", "import finpot.cli"], CLI_SAMPLES, env)
    metrics["cli.interpreter_s"] = interp
    metrics["cli.import_s"] = imported - interp
    metrics["cli.main_s"] = statistics.median(plain) if in_process else 0.0
    metrics["cli.process_s"] = 0.0
    if in_process:
        _, walls = loop.timed(workload.execute, len(workload.period))
        metrics["cli.process_s"] = statistics.median(walls)
    digest = loop.outputs_sha256(execute)
    os.makedirs(os.path.join(HERE, "spans"), exist_ok=True)
    spans_path = os.path.join(HERE, "spans", "%s-seed%d.spans.gz" % (args.workload, args.seed))
    tracer.write(spans_path)
    details = {"spans_file": os.path.relpath(spans_path, ROOT),
               "spans": len(tracer.span_start), "traced_requests": count}
    return loop, digest, {k: (v, layer_unit(k)) for k, v in metrics.items()}, details


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finpot", "__init__.py")):
        sys.stderr.write("run.py: no finpot sources under %s\n" % SRC)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    workload, pool, setup_s = setup(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "ref_s": own_setup_ref()}))
        return 0
    if args.trace:
        loop, digest, metrics, details = traced(args, workload, pool)
    else:
        loop, digest, metrics, details = end_to_end(args, workload, pool, setup_s,
                                                    own_setup_ref())
    failed = len(loop.failures)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "outputs_sha256": digest, "failure_ratio": failed / loop.attempted,
        "failures": loop.failures[:10], "environment": environment(),
    })
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": failed == 0, "attempted": loop.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
