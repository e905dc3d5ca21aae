"""Smoke test of the benchmark itself at tiny sizes (``--tiny``, and
``--seconds 0``: one schedule period).

For every workload it runs the end-to-end and the traced mode once and checks
that every metric BENCHMARK.json declares is emitted with its unit, that no
request fails, and that outputs_sha256 repeats for the fixed seed (the two
modes hash the same requests in separate processes).
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("det-operators", "symbols-reciprocity", "loop-pairing", "cli-cold")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(details), json.loads(result)


@pytest.fixture(scope="module")
def runs():
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {job: pool.submit(run, *job) for job in jobs}
        return {job: f.result() for job, f in futures.items()}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted_and_nothing_fails(runs, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        details, result = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert details["failure_ratio"] == 0, details["failures"]
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared(kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_hash_repeats(runs, workload):
    assert runs[workload, 0][0]["outputs_sha256"] == runs[workload, 1][0]["outputs_sha256"]


def test_bypass_workloads_bypass(runs):
    loop = runs["loop-pairing", 1][1]["metrics"]
    assert loop["fitting.lift_ast_calls"]["value"] == 0
    assert loop["matrices.det_calls"]["value"] == 0
    symbols = runs["symbols-reciprocity", 1][1]["metrics"]
    assert symbols["fitting.lift_ast_calls"]["value"] == symbols["residues.tate_calls"]["value"] > 0
