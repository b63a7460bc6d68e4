"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

LIMIT = 10

# Runs the first LIMIT queries of a workload untraced and traced in a fresh
# interpreter, so string hashing differs from run to run as it does between
# real benchmark runs.
_TRACED_SCRIPT = """
import json, sys
sys.path.insert(0, {bench!r})
import run
queries, _ = run.setup({workload!r}, 1)
tracer, passes, _ = run.traced_run(queries[:{limit}])
print(json.dumps({{
    "metrics": tracer.metrics(1, 0.0),
    "errors": [s[2] for p in passes for s in p if s[2]],
    "mismatched": run.mismatches(passes),
}}))
"""


def _traced(workload: str, hash_seed: str) -> dict:
    code = _TRACED_SCRIPT.format(bench=str(BENCH_DIR), workload=workload, limit=LIMIT)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_answers_match(workload):
    first, second = _traced(workload, "1"), _traced(workload, "2")
    for result in (first, second):
        assert result["errors"] == []
        assert result["mismatched"] == 0
    counts = [name for name in first["metrics"] if run.unit_of(name) == "count"]
    assert any(first["metrics"][name] for name in counts)
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_same_seed_same_queries():
    a, _ = run.setup("shift-arith", 7)
    b, _ = run.setup("shift-arith", 7)
    c, _ = run.setup("shift-arith", 8)
    assert run.stamp("shift-arith", 7, a) == run.stamp("shift-arith", 7, b)
    assert run.stamp("shift-arith", 7, a)["query_list_sha256"] != \
        run.stamp("shift-arith", 8, c)["query_list_sha256"]


def _first(queries, prefix):
    return next(q for q in queries if q.label.startswith(prefix))


def test_checks_reject_wrong_answers():
    queries, _ = run.setup("shift-arith", 1)
    query = _first(queries, 'cli ["wreath", "eval"')
    assert query.check({"rc": 2, "stdout": ""})
    payload = json.loads(query.run()["stdout"])
    payload["head"] += 1
    assert query.check({"rc": 0, "stdout": json.dumps(payload)})
    query = _first(queries, "lib alpha")
    answer = query.run()
    assert query.check(answer) is None
    answer["direct"][1] += 1
    assert query.check(answer)

    queries, _ = run.setup("finite-wreath", 1)
    query = _first(queries, "lib conjugation")
    answer = query.run()
    assert query.check(answer) is None
    answer["rows"][0]["respects"] = False
    assert query.check(answer)
    query = _first(queries, 'cli ["construct", "torsion-igset"')
    payload = json.loads(query.run()["stdout"])
    payload["igset"] = payload["igset"][1:]
    assert query.check({"rc": 0, "stdout": json.dumps(payload)})


def test_reference_invariable_generation_agrees_with_both_deciders():
    """The reference decides the min sizes the checks use; wreathgen's two
    deciders must agree with it on every set of one to three classes of
    each factor group of the finite-wreath ambients."""
    wg = run.import_program()
    specs = {base for _, base, _ in workloads.AMBIENTS}
    specs |= {head or workloads.REGULAR_HEAD for _, _, head in workloads.AMBIENTS}
    sizes = {}
    for spec in sorted(specs):
        G, R = wg.parse_group_spec(spec), workloads.ref_group(spec)
        for k in (1, 2, 3):
            for keys in itertools.combinations(R.nonidentity_classes(), k):
                S = [wg.Perm(key) for key in keys]
                expected = workloads.ref.invariably_generates(R, list(keys))
                assert wg.invariably_generates(G, S)[0] is expected, (spec, keys)
                assert wg.invariably_generates_oracle(G, S) is expected, (spec, keys)
        sizes[spec] = workloads.ref.min_invariable_size(R)
        assert wg.min_invariable_size(G)[0] == sizes[spec]
    assert sizes == {"alt 4": 2, "cyclic 2": 1, "cyclic 3": 1, "klein4": 2, "sym 3": 2}


def test_closed_form_status():
    fig, ig, neg = ("FIG", True), ("IG", False), ("NEG_IG", True)
    assert workloads.closed_form_status([(fig, True), (fig, True)]) == "FIG"
    assert workloads.closed_form_status([(fig, True), (fig, True), (ig, True)]) == "IG"
    assert workloads.closed_form_status([(neg, True), (fig, True), (fig, False)]) == "FIG"
    assert workloads.closed_form_status([(fig, True), (neg, True)]) == "NEG_IG"


def test_reference_wreath_power_matches_repeated_products():
    rng = random.Random(3)
    u = ({rng.randint(-3, 3): (1, 0, 2)}, 1)
    product = ({}, 0)
    for _ in range(7):
        product = workloads.ref.wreath_mul(product, u, False)
    assert workloads.ref.wreath_pow(u, 7, 0, False) == product
    assert workloads.ref.wreath_mul(product, workloads.ref.wreath_inverse(product, False),
                                    False) == ({}, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "shift-arith",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
