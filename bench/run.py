"""Seeded closed-loop benchmark of wreathgen.

    python3 bench/run.py --workload shift-arith --seed 1 --seconds 60 --trace 0

One client, one process, no threads: queries are sent one at a time, each
only after the previous one has answered.  The seed generates a fixed list
of queries (see workloads.py).  An untraced run (`--trace 0`) repeats whole
passes over the list, at least MIN_PASSES of them, until `--seconds` have
gone by, and reports the end-to-end metrics.  A traced run (`--trace 1`)
alternates untraced and traced passes for `--seconds` and reports the
per-layer metrics per traced pass; every pass sends the same queries, so
the counts repeat exactly for a seed.  The last line of stdout is the
result as JSON; the line before it stamps the inputs and the machine.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_PASSES = 5
SETUPS = 15

sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


def import_program():
    """A fresh import of wreathgen and its CLI from this checkout's src/."""
    for name in [n for n in sys.modules if n == "wreathgen" or n.startswith("wreathgen.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        wg = importlib.import_module("wreathgen")
        importlib.import_module("wreathgen.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import wreathgen from {SRC}: {exc}") from exc
    if not Path(wg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"wreathgen imported from {wg.__file__}, not from {SRC}")
    return wg


def setup(workload: str, seed: int):
    """A fresh import of the program and the generated query list.

    Returns the query list and the seconds the two took.  What the answer
    checks compare against is worked out on each query's first check,
    outside this time.
    """
    start = time.perf_counter()
    wg = import_program()
    queries = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), wg)
    return queries, time.perf_counter() - start


def run_query(query, tracer=None) -> tuple[float, str, "str | None"]:
    """Send one query: its latency in seconds, a digest of the answer, and
    the error that failed it, if any."""
    start = time.perf_counter()
    try:
        answer = query.run() if tracer is None else tracer.query(query.run)
        error = None
    except (Exception, SystemExit) as exc:
        answer, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if error is None:
        try:
            error = query.check(answer)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()
    return latency, digest, error


def run_pass(queries, tracer=None) -> list[tuple]:
    """Send every query once, in order."""
    return [run_query(query, tracer) for query in queries]


def end_to_end(passes, setup_s: float) -> dict:
    """Metrics over each query's least latency across the passes.

    Other load on a shared machine only ever adds time, and on a busy
    machine it comes and goes from one second to the next, so the least of
    a query's sends is the steadiest estimate of what the query costs.  The
    percentiles are then taken over the distinct queries.  `setup_s` is the
    least of the run's set-ups, for the same reason.
    """
    latencies = [min(p[i][0] for p in passes) for i in range(len(passes[0]))]
    return {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(queries, seconds: float = 0.0):
    """Untraced and traced passes over the same queries, in turn, until
    `seconds` have gone by; at least one of each.

    Returns the tracer, the passes in the order they ran, and the traced
    passes' extra wall time as a share of the untraced ones.
    """
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(queries))
        tracer.install()
        try:
            passes.append(run_pass(queries, tracer))
        finally:
            tracer.uninstall()

    def wall(ps):
        return sum(send[0] for p in ps for send in p)
    return tracer, passes, wall(passes[1::2]) / wall(passes[0::2]) - 1


def mismatches(passes) -> int:
    """Answers that differ from the first pass's answer to the same query."""
    return sum(1 for p in passes[1:] for a, b in zip(passes[0], p) if a[1] != b[1])


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, queries) -> dict:
    digest = hashlib.sha256("\n".join(q.label for q in queries).encode()).hexdigest()
    return {
        "workload": workload, "seed": seed, "queries": len(queries),
        "query_list_sha256": digest, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        queries, setup_s = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer, passes, overhead_frac = traced_run(queries, args.seconds)
        per_pass = tracer.metrics(len(passes) // 2, overhead_frac)
        metrics = {name: (value, unit_of(name)) for name, value in per_pass.items()}
        mismatched = mismatches(passes)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        passes, setups = [], [setup_s]
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(queries))
            # Set up again at even intervals, SETUPS times in all, so that
            # set-up is timed across the whole run, as the queries are.  The
            # fresh import is only timed; the queries keep the program they
            # were made with.  Each fresh import leaves some memory behind,
            # so the count is fixed for peak memory not to move with the
            # number of passes.
            elapsed = time.perf_counter() - start
            if len(setups) < SETUPS and elapsed >= len(setups) * args.seconds / SETUPS:
                setups.append(setup(args.workload, args.seed)[1])
                gc.collect()
        metrics = end_to_end(passes, min(setups))
        mismatched = 0

    results = [send for p in passes for send in p]
    errors = [error for _, _, error in results if error is not None]
    for error in dict.fromkeys(errors):
        print(f"failed: {error}", file=sys.stderr)
    if mismatched:
        print(f"failed: {mismatched} traced answers differ from untraced ones", file=sys.stderr)
    print(json.dumps({"stamp": stamp(args.workload, args.seed, queries)}))
    print(json.dumps({
        "correct": not errors and not mismatched,
        "attempted": len(results),
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
