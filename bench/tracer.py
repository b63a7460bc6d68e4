"""A tracing shim over wreathgen's public functions, installed only for a
traced run.

Each traced function is replaced at every place it is bound: a function in
each module that imported it (`compose` lives in both `groups` and
`actions`, `closure` in five modules), a method on its class.  Three kinds
of wrapper:

- "count": a call counter only, for calls too fine to time (`compose`);
- "timed": counter plus self time, kept as totals;
- "span": counter plus self time, and each call is also kept in memory as
  a span with name, start, end, self time, parent span and query id.

A wrapper's self time is its duration minus the time covered by the timed
wrappers it called; the program is single-threaded, so children never
overlap.

The metrics carry every count and ratio, and the self-time totals of the
layers that every workload enters.  A layer that a workload never enters
would report a self time of exactly 0 on every run of it, which reads as a
time that was never measured; the self times of the other layers are in
the spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric name, kind).  Attributes with a dot are methods.
TRACED = [
    ("groups", "compose", "groups.compose", "count"),
    ("groups", "closure", "groups.closure", "timed"),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes", "span"),
    ("invgen", "invariably_generates", "invgen.invariably_generates", "span"),
    ("invgen", "min_invariable_size", "invgen.min_invariable_size", "span"),
    ("wreath", "WreathElement.__mul__", "wreath.mul", "timed"),
    ("wreath", "WreathElement.__pow__", "wreath.pow", "span"),
    ("wreath", "WreathElement.inverse", "wreath.inverse", "count"),
    ("wreath", "WreathProduct.element", "wreath.element", "count"),
    ("wreath", "WreathProduct.imprimitive_embedding", "wreath.imprimitive_embedding", "span"),
    ("wreath", "WreathProduct.enumerate_elements", "wreath.enumerate_elements", "span"),
    ("constructions", "build_alpha", "constructions.build_alpha", "span"),
    ("constructions", "beta", "constructions.beta", "span"),
    ("constructions", "gamma_coordinate", "constructions.gamma_coordinate", "span"),
    ("constructions", "assemble_alpha_power", "constructions.assemble", "span"),
    ("constructions", "assemble_beta", "constructions.assemble", "span"),
    ("constructions", "torsion_igset", "constructions.torsion_igset", "span"),
    ("actions", "regular_action", "actions.regular_action", "span"),
    ("actions", "orbit_reps", "actions.orbit_reps", "count"),
    ("classify", "iterated_status", "classify.iterated_status", "span"),
    ("classify", "iterated_status_direct", "classify.iterated_status_direct", "span"),
    ("parsing", "parse_group_spec", "parsing.parse", "timed"),
    ("parsing", "parse_perm", "parsing.parse", "timed"),
    ("parsing", "parse_perm_list", "parsing.parse", "timed"),
    ("parsing", "parse_chain", "parsing.parse", "timed"),
    ("parsing", "parse_wreath_element", "parsing.parse", "timed"),
    ("parsing", "ambient_from_chain", "parsing.parse", "timed"),
    ("parsing", "chain_to_descriptors", "parsing.parse", "timed"),
    ("parsing", "format_perm", "parsing.format", "timed"),
    ("parsing", "format_wreath_element", "parsing.format", "timed"),
    ("verify", "run_suites", "verify.run_suites", "span"),
    ("cli", "main", "cli", "span"),
]

def _cli_name(argv) -> str:
    """cli.<subcommand>, with nested subcommands joined: cli.wreath-eval."""
    words = argv[:2]
    name = words[0]
    if name in ("wreath", "construct") and len(words) > 1:
        name += "-" + words[1]
    return "cli." + name


class Tracer:
    """Counters, self-time totals and spans of one traced run."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[dict] = []
        self.query_id: int | None = None
        self._queries = 0
        self._stack: list[list] = []  # [child seconds, span index or None]
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "wreathgen" or name.startswith("wreathgen."))]
        for module_name, attr, name, kind in TRACED:
            owner = sys.modules[f"wreathgen.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(getattr(cls, method), name, kind))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, kind)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        counts = self.counts
        if kind == "count":
            key = name + ".calls"

            def count(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return count

        on_result = {
            "groups.closure": self._after_closure,
            "wreath.mul": self._after_mul,
            "invgen.invariably_generates": self._after_invariably_generates,
        }.get(name)
        keep = kind == "span"

        def timed(*args, **kwargs):
            label = _cli_name(args[0]) if name == "cli" else name
            counts[label + ".calls"] += 1
            self._active[label] += 1
            stack = self._stack
            frame = [0.0, None]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(self.spans)
                self.spans.append({"name": label, "query": self.query_id, "parent": parent})
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._active[label] -= 1
                duration = end - start
                self.self_s[label] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    self.spans[frame[1]].update(start=start, end=end, self_s=duration - frame[0])
            if on_result is not None:
                on_result(result)
            return result
        return timed

    def _after_closure(self, group) -> None:
        self.counts["groups.closure.elements"] += len(group)

    def _after_mul(self, product) -> None:
        self.counts["wreath.mul.entries"] += len(product.base)

    def _after_invariably_generates(self, result) -> None:
        self.counts["invgen.invariably_generates.yes"] += bool(result[0])
        if self._active["invgen.min_invariable_size"]:
            self.counts["invgen.min_invariable_size.attempts"] += 1

    # -- queries and output ----------------------------------------------------------

    def query(self, fn):
        """Run fn() as the root span of one query; queries are numbered in
        the order they are sent."""
        self.query_id = self._queries
        self._queries += 1
        wrapped = self._wrap(fn, "query", "span")
        try:
            return wrapped()
        finally:
            self.query_id = None

    def metrics(self, passes: int, overhead_frac: float) -> dict:
        """Per-layer metrics per traced pass."""
        c = Counter({name: value / passes for name, value in self.counts.items()})
        s = defaultdict(float, {name: value / passes for name, value in self.self_s.items()})

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "groups.compose.calls": c["groups.compose.calls"],
            "groups.closure.calls": c["groups.closure.calls"],
            "groups.closure.elements": c["groups.closure.elements"],
            "groups.closure.self_s": s["groups.closure"],
            "groups.conjugacy_classes.calls": c["groups.conjugacy_classes.calls"],
            "invgen.invariably_generates.calls": c["invgen.invariably_generates.calls"],
            "invgen.invariably_generates.yes_frac": ratio(
                c["invgen.invariably_generates.yes"], c["invgen.invariably_generates.calls"]),
            "invgen.min_invariable_size.hit_ratio": ratio(
                c["invgen.min_invariable_size.calls"], c["invgen.min_invariable_size.attempts"]),
            "wreath.mul.calls": c["wreath.mul.calls"],
            "wreath.mul.entries": c["wreath.mul.entries"],
            "wreath.mul.self_s": s["wreath.mul"],
            "wreath.pow.calls": c["wreath.pow.calls"],
            "wreath.inverse.calls": c["wreath.inverse.calls"],
            "wreath.element.calls": c["wreath.element.calls"],
            "actions.orbit_reps.calls": c["actions.orbit_reps.calls"],
            "parsing.parse.self_s": s["parsing.parse"],
            "parsing.format.self_s": s["parsing.format"],
            "trace.overhead_frac": overhead_frac,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
