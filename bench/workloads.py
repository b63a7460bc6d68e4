"""Seeded query lists for the benchmark workloads.

A query is one thing a user asks wreathgen: an in-process CLI call with
`--json`, or, where the CLI has no entry point, a call to the public
library.  Every query starts from text (group specs, cycle notation), so the
program pays its per-group caches on each query, as a CLI user does.  The
program only ever sees the generated arguments; each query's `label` holds
all of them, and the run hashes the labels.

A query's `run` is the timed part and returns plain JSON-able data.  Its
`check` runs untimed and compares that data with content any correct
implementation must reproduce (booleans, orders, closed forms), never with
witnesses or formatting.  The expected content is recomputed with the
reference arithmetic in reference.py, on a query's first check, so that
generating a list costs only the drawing of its inputs.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import reference as ref


@dataclass
class Query:
    """One query: `label` names it with all its arguments, `run` asks it and
    `check` returns an error message for a wrong answer, else None."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def ref_group(spec: str) -> ref.RefGroup:
    """The reference group for a group spec of the CLI grammar."""
    word, _, rest = spec.partition(" ")
    if word == "klein4":
        return ref.RefGroup(ref.closure([(1, 0, 3, 2), (2, 3, 0, 1)], 4))
    n = int(rest)
    if word == "sym":
        return ref.RefGroup(ref.symmetric(n))
    if word == "alt":
        return ref.RefGroup(ref.alternating(n))
    if word == "cyclic":
        return ref.RefGroup(ref.closure([tuple((i + 1) % n for i in range(n))], n))
    raise ValueError(f"no reference for group spec {spec!r}")


# -- query plumbing ---------------------------------------------------------------


def cli_query(cli, argv: list[str], check: Callable[[dict], "str | None"]) -> Query:
    """One `wreathgen ... --json` call; a non-zero exit fails the query."""
    full = [*argv, "--json"]

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(full)
        return {"rc": rc, "stdout": out.getvalue()}

    def checker(answer):
        if answer["rc"] != 0:
            return f"exit code {answer['rc']}"
        return check(json.loads(answer["stdout"]))

    return Query("cli " + json.dumps(full), run, checker)


def lib_query(name: str, inputs: dict, run: Callable[[], dict],
              check: Callable[[dict], "str | None"]) -> Query:
    return Query(f"lib {name} " + json.dumps(inputs, sort_keys=True), run, check)


def _plain(u) -> list:
    """A wreath element as JSON-able data: [[point, images], ...] and the head."""
    head = u.head if isinstance(u.head, int) else list(u.head.images)
    return [[[x, list(g.images)] for x, g in u.base], head]


def _unplain(data) -> tuple[dict, object]:
    base, head = data
    return ({x: tuple(g) for x, g in base}, head if isinstance(head, int) else tuple(head))


def _same(plain, expected) -> bool:
    return _unplain(plain) == expected


# -- shift-arith --------------------------------------------------------------------

SHIFT_AMBIENT = "sym 3 wr int-translation"
S3_NONID = [p for p in ref.symmetric(3) if not ref.is_identity(p)]


def _grid(lo: int, hi: int, i: int, count: int) -> int:
    """The i-th of `count` evenly spaced whole numbers from lo to hi."""
    return lo + round(i * (hi - lo) / (count - 1))


def _power_closed_form(g, a: int, n: int):
    """(g@a * t)^n: g at a, a-1, ..., a-n+1 and head n; n may be negative."""
    element = ({a - i: g for i in range(n)}, n)
    if n >= 0:
        return element
    return ref.wreath_inverse(_power_closed_form(g, a, -n), False)


def _eval_query(cli, rng: random.Random, n: int) -> Query:
    g, a = rng.choice(S3_NONID), rng.randint(-20, 20)
    pieces = [(f"({ref.format_cycles(g)}@{a} * t)^{n}", lambda: _power_closed_form(g, a, n))]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            h, x = rng.choice(S3_NONID), rng.randint(-30, 30)
            pieces.append((f"{ref.format_cycles(h)}@{x}", lambda h=h, x=x: ({x: h}, 0)))
        else:
            k = rng.choice([k for k in range(-30, 31) if k])
            pieces.append((f"t^{k}", lambda k=k: ({}, k)))
    rng.shuffle(pieces)
    expr = " * ".join(text for text, _ in pieces)

    @cache
    def expected():
        product = ({}, 0)
        for _, element in pieces:
            product = ref.wreath_mul(product, element(), False)
        return product

    def check(payload):
        base = {int(x): ref.parse_cycles(t, 3) for x, t in payload["base"].items()}
        if (base, payload["head"]) != expected():
            return f"wreath eval {expr!r} differs from its closed form"
        return None

    return cli_query(cli, ["wreath", "eval", SHIFT_AMBIENT, expr], check)


def _gamma_query(cli, seed: int, support: int) -> Query:
    def check(payload):
        if payload["group"]["order"] != 24 or len(payload["rows"]) < 1:
            return "construct gamma: wrong group or no rows"
        for row in payload["rows"]:
            found = ref.parse_cycles(row["found"], 4)
            if found != ref.parse_cycles(row["generator"], 4) or row["coordinate"] != row["c"]:
                return f"construct gamma: row {row} does not isolate its generator"
        return None

    return cli_query(cli, ["construct", "gamma", "sym 4", "--seed", str(seed),
                           "--support", str(support)], check)


def _random_coords(rng: random.Random, radius: int) -> dict[int, str]:
    """Non-identity coordinates at radius + 1 of the 2 * radius + 1 points
    of the window, so that the support's size is fixed by the radius."""
    points = sorted(rng.sample(range(-radius, radius + 1), radius + 1))
    return {x: ref.format_cycles(rng.choice(S3_NONID)) for x in points}


def _alpha_spec(rng: random.Random, g, radius: int) -> dict:
    return {"g": ref.format_cycles(g), "conj": _random_coords(rng, radius),
            "corr": _random_coords(rng, radius)}


def _build_alpha(wg, W, spec: dict):
    perms = {x: wg.parse_perm(t, 3) for x, t in spec["conj"].items()}
    corr = {x: wg.parse_perm(t, 3) for x, t in spec["corr"].items()}
    return wg.build_alpha(W, wg.parse_perm(spec["g"], 3), perms, corr)


def _ref_alpha(spec: dict):
    """b^-1 * g@0 * t * b with b = conj * corr^-1, in reference arithmetic."""
    def base(coords):
        return ({x: p for x, t in coords.items() if not ref.is_identity(p := ref.parse_cycles(t, 3))},
                0)
    b = ref.wreath_mul(base(spec["conj"]), ref.wreath_inverse(base(spec["corr"]), False), False)
    g = ref.parse_cycles(spec["g"], 3)
    core = ({0: g} if not ref.is_identity(g) else {}, 1)
    return ref.wreath_mul(ref.wreath_mul(ref.wreath_inverse(b, False), core, False), b, False)


def _ref_pow(u, n):
    return ref.wreath_pow(u, n, 0, False)


def _alpha_query(wg, rng: random.Random, m: int, radius: int) -> Query:
    inputs = {"e": _alpha_spec(rng, ref.identity(3), radius),
              "f": _alpha_spec(rng, rng.choice(S3_NONID), radius), "m": m}

    def run():
        W = wg.parse_ambient(SHIFT_AMBIENT)
        alpha_e, alpha_f = _build_alpha(wg, W, inputs["e"]), _build_alpha(wg, W, inputs["f"])
        direct = wg.alpha_power_form(alpha_e, alpha_f, m)
        assembled = wg.assemble_alpha_power(alpha_e, alpha_f, m)
        return {"equal": direct == assembled, "direct": _plain(direct)}

    @cache
    def expected():
        e, f = _ref_alpha(inputs["e"]), _ref_alpha(inputs["f"])
        return ref.wreath_mul(_ref_pow(e, -m), _ref_pow(f, m), False)

    def check(answer):
        if not answer["equal"]:
            return f"alpha_power_form != assemble_alpha_power at m={m}"
        if not _same(answer["direct"], expected()):
            return f"alpha_power_form differs from the reference at m={m}"
        return None

    return lib_query("alpha", inputs, run, check)


def _beta_query(wg, rng: random.Random, m: int, n: int, radius: int) -> Query:
    inputs = {"e": _alpha_spec(rng, ref.identity(3), radius),
              "g": _alpha_spec(rng, rng.choice(S3_NONID), radius), "m": m, "n": n}

    def run():
        W = wg.parse_ambient(SHIFT_AMBIENT)
        alpha_e, alpha_g = _build_alpha(wg, W, inputs["e"]), _build_alpha(wg, W, inputs["g"])
        direct = wg.beta(alpha_e, alpha_g, m, n)
        assembled = wg.assemble_beta(alpha_e, alpha_g, m, n)
        return {"equal": direct == assembled, "direct": _plain(direct)}

    @cache
    def expected():
        e, g = _ref_alpha(inputs["e"]), _ref_alpha(inputs["g"])
        inner = ref.wreath_mul(_ref_pow(e, -m), _ref_pow(g, m), False)
        return ref.wreath_mul(ref.wreath_mul(_ref_pow(e, n), inner, False),
                              _ref_pow(e, -n), False)

    def check(answer):
        if not answer["equal"]:
            return f"beta != assemble_beta at m={m} n={n}"
        if not _same(answer["direct"], expected()) or expected()[1] != 0:
            return f"beta differs from the reference at m={m} n={n}"
        return None

    return lib_query("beta", inputs, run, check)


def shift_arith(rng: random.Random, wg) -> list[Query]:
    """Sparse wreath arithmetic over the integers.

    40 `wreath eval` queries, each with one power (g@a * t)^n, every fourth
    one inverted, and up to two extra atoms; 15 `construct gamma` queries
    on Sym(4); 25 alpha and 20 beta checks against their assembled closed
    forms, with conjugators drawn in windows of radius 2-6.  What sets a
    query's cost (exponent, window, radius, sign) runs over fixed grids, so
    every seed asks for the same amount of work; the seed picks the group
    elements, coordinates and order.
    """
    cli = wg.cli
    queries = [_eval_query(cli, rng, _grid(50, 200, i, 40) * (-1 if i % 4 == 3 else 1))
               for i in range(40)]
    queries += [_gamma_query(cli, rng.randrange(10**6), _grid(3, 20, i, 15)) for i in range(15)]
    queries += [_alpha_query(wg, rng, _grid(10, 200, i, 25), 2 + i % 5) for i in range(25)]
    queries += [_beta_query(wg, rng, m, m // 2, 2 + i % 5)
                for i, m in enumerate(_grid(10, 120, i, 20) for i in range(20))]
    rng.shuffle(queries)
    return queries


# -- finite-wreath ------------------------------------------------------------------

# (ambient spec, base spec, head spec or None for the regular action)
AMBIENTS = [
    ("cyclic 2 wr (cyclic 2, natural)", "cyclic 2", "cyclic 2"),
    ("klein4 wr (cyclic 2, natural)", "klein4", "cyclic 2"),
    ("cyclic 2 wr (sym 3, natural)", "cyclic 2", "sym 3"),
    ("cyclic 2 wr (klein4, natural)", "cyclic 2", "klein4"),
    ("sym 3 wr (cyclic 2, natural)", "sym 3", "cyclic 2"),
    ("cyclic 3 wr (sym 3, natural)", "cyclic 3", "sym 3"),
    ("alt 4 wr (cyclic 2, natural)", "alt 4", "cyclic 2"),
    ("cyclic 2 wr (sym 3, regular)", "cyclic 2", None),
    ("sym 3 wr (cyclic 3, natural)", "sym 3", "cyclic 3"),
]
REGULAR_HEAD = "sym 3"
EXTRA_LEVELS = [
    ("int-translation", ("FIG", True), False),
    ("({IG, nonfg}, torsion)", ("IG", False), True),
    ("({FIG, fg}, non-torsion)", ("FIG", True), False),
    ("({NEG_IG, fg}, torsion)", ("NEG_IG", True), True),
    ("({IG, fg}, non-torsion)", ("IG", True), False),
    ("(cyclic 2, natural)", ("FIG", True), True),
]
IDENTITY_BATCH = 5
# The igset check takes 20 ms or less on the ambients up to this order, and
# 0.2-3 s on the larger ones (orders 162-648).  It runs only on the smaller
# ones: a few queries that take as long as all the others together make a
# run's figures hang on the few quiet moments long enough to time them
# cleanly, and the larger ambients get every other query.
IGSET_MAX_ORDER = 100
CONJUGATION_BATCHES = 4
COLLAPSE_BATCHES = 3


def closed_form_status(levels: list[tuple[tuple[str, bool], bool]]) -> str:
    """FIG/IG/NEG_IG of a tower from its levels ((status, fg), torsion action).

    Levels below the last non-torsion action are washed out.  The tower is
    FIG when every group is finitely generated and the remaining levels are
    FIG, IG when none of them is NEG_IG, and NEG_IG otherwise.
    """
    k = max([i for i, (_, torsion) in enumerate(levels) if i and not torsion], default=0)
    fg = all(g_fg for (_, g_fg), _ in levels)
    tail = [status for (status, _), _ in levels[k:]]
    if fg and all(s == "FIG" for s in tail):
        return "FIG"
    return "IG" if "NEG_IG" not in tail else "NEG_IG"


class _Ambient:
    """What the benchmark knows about an ambient before asking the program.

    Generating queries needs only the element lists of the base and head
    groups; what the checks compare against is worked out on first use.
    """

    def __init__(self, spec: str, base_spec: str, head_spec: str | None):
        self.spec = spec
        self.base = ref_group(base_spec)
        self.regular = head_spec is None
        self.head = ref_group(REGULAR_HEAD if self.regular else head_spec)
        self.points = self.head.order if self.regular else self.head.degree
        self.order = self.base.order ** self.points * self.head.order

    @cached_property
    def orbits(self) -> int:
        """The regular action is transitive; a natural one has an orbit per
        distinct point set {x.h : h in H}."""
        if self.regular:
            return 1
        return len({frozenset(h[x] for h in self.head.elements) for x in range(self.points)})

    @cached_property
    def base_min(self) -> int:
        return ref.min_invariable_size(self.base)

    @cached_property
    def head_min(self) -> int:
        return ref.min_invariable_size(self.head)

    def random_element(self, rng: random.Random) -> dict:
        """Base coordinates as cycle text, and the head as cycle text for a
        natural action or as an index into the head group's element list for
        the regular action, whose points are the program's own listing."""
        coords = {x: ref.format_cycles(rng.choice(self.base.elements)) for x in range(self.points)
                  if rng.random() < 0.7}
        if self.regular:
            head = rng.randrange(self.head.order)
        else:
            head = ref.format_cycles(rng.choice(self.head.elements))
        return {"base": coords, "head": head}


def _build_element(wg, W, data: dict):
    degree = W.base_group.degree
    coords = {int(x): wg.parse_perm(t, degree) for x, t in data["base"].items()}
    head = data["head"]
    if isinstance(head, int):
        head = W.action.head.elements[head]
    else:
        head = wg.parse_perm(head, W.action.degree)
    return W.element(coords, head)


def _torsion_query(cli, amb: _Ambient) -> Query:
    def check(payload):
        if len(payload["base_set"]) != amb.base_min or len(payload["head_set"]) != amb.head_min:
            return f"{amb.spec}: set sizes {len(payload['base_set'])}, {len(payload['head_set'])}"
        if len(payload["igset"]) != amb.orbits * amb.base_min + amb.head_min:
            return f"{amb.spec}: igset has {len(payload['igset'])} elements"
        return None

    return cli_query(cli, ["construct", "torsion-igset", amb.spec], check)


def _embedding_query(wg, amb: _Ambient, rng: random.Random) -> Query:
    pairs = [[amb.random_element(rng), amb.random_element(rng)] for _ in range(IDENTITY_BATCH)]
    inputs = {"ambient": amb.spec, "pairs": pairs}

    def run():
        W = wg.parse_ambient(amb.spec)
        P, embed = W.imprimitive_embedding()
        homomorphic = []
        for a, b in pairs:
            u, v = _build_element(wg, W, a), _build_element(wg, W, b)
            homomorphic.append(embed(u * v) == embed(u) * embed(v)
                               and embed(u.inverse()) == embed(u).inverse())
        return {"order": P.order, "degree": P.degree, "homomorphic": homomorphic}

    def check(answer):
        if answer["order"] != amb.order or answer["degree"] != amb.points * amb.base.degree:
            return f"{amb.spec}: embedded order {answer['order']} != {amb.order}"
        if not all(answer["homomorphic"]):
            return f"{amb.spec}: the embedding is not a homomorphism"
        return None

    return lib_query("imprimitive-embedding", inputs, run, check)


def _igset_query(wg, amb: _Ambient) -> Query:
    def run():
        W = wg.parse_ambient(amb.spec)
        _, base_set = wg.min_invariable_size(W.base_group)
        _, head_set = wg.min_invariable_size(W.action.head)
        igset = wg.torsion_igset(W, base_set, head_set)
        P, embed = W.imprimitive_embedding()
        ok, _ = wg.invariably_generates(P, [embed(u) for u in igset])
        return {"order": P.order, "invariably_generates": ok}

    def check(answer):
        if answer["order"] != amb.order or answer["invariably_generates"] is not True:
            return f"{amb.spec}: the embedded igset does not invariably generate"
        return None

    return lib_query("igset-invgen", {"ambient": amb.spec}, run, check)


def _enumerate_query(wg, amb: _Ambient) -> Query:
    def run():
        elements = wg.parse_ambient(amb.spec).enumerate_elements()
        return {"count": len(elements), "distinct": len(set(elements))}

    def check(answer):
        if answer["count"] != amb.order or answer["distinct"] != amb.order:
            return f"{amb.spec}: enumerated {answer}, expected {amb.order} distinct"
        return None

    return lib_query("enumerate", {"ambient": amb.spec}, run, check)


def _conjugation_query(wg, amb: _Ambient, rng: random.Random) -> Query:
    triples = [[amb.random_element(rng) for _ in range(3)] for _ in range(IDENTITY_BATCH)]
    inputs = {"ambient": amb.spec, "triples": triples}

    def run():
        W = wg.parse_ambient(amb.spec)
        rows = []
        for data in triples:
            u, v, a = (_build_element(wg, W, d) for d in data)
            uv = u * v
            rows.append({"inputs": [_plain(x) for x in (u, v, a)], "uv": _plain(uv),
                         "respects": uv.conjugate_by(a) == u.conjugate_by(a) * v.conjugate_by(a)})
        return {"rows": rows}

    def check(answer):
        for row in answer["rows"]:
            u, v, _ = (_unplain(x) for x in row["inputs"])
            if not row["respects"] or _unplain(row["uv"]) != ref.wreath_mul(u, v, True):
                return f"{amb.spec}: conjugation or product wrong for {row['inputs']}"
        return None

    return lib_query("conjugation", inputs, run, check)


def _collapse_query(wg, amb: _Ambient, rng: random.Random) -> Query:
    cases = [{"y": rng.randrange(amb.points), **amb.random_element(rng)}
             for _ in range(IDENTITY_BATCH)]
    inputs = {"ambient": amb.spec, "cases": cases}

    def run():
        W = wg.parse_ambient(amb.spec)
        rows = []
        for case in cases:
            element = _build_element(wg, W, case)
            k = element.head
            orbit = wg.cyclic_orbit(W.action, case["y"], k)
            coords = dict(element.base)
            on_orbit = {x: g for x, g in coords.items() if x in orbit}
            a = wg.collapse_orbit_conjugator(W, case["y"], k, on_orbit)
            rows.append({"y": case["y"], "element": _plain(element),
                         "collapsed": _plain(element.conjugate_by(a))})
        return {"rows": rows}

    def check(answer):
        for row in answer["rows"]:
            base, k = _unplain(row["element"])
            y = row["y"]
            orbit = [y]
            while k[orbit[-1]] != y:
                orbit.append(k[orbit[-1]])
            one = ref.identity(amb.base.degree)
            folded = one
            for x in orbit:
                folded = ref.compose(folded, base.get(x, one))
            expected = {x: g for x, g in base.items() if x not in orbit}
            if not ref.is_identity(folded):
                expected[y] = folded
            if _unplain(row["collapsed"]) != (expected, k):
                return f"{amb.spec}: orbit collapse wrong at y={y} for {row['element']}"
        return None

    return lib_query("orbit-collapse", inputs, run, check)


def _classify_query(cli, amb: _Ambient, rng: random.Random) -> Query:
    extras = [rng.choice(EXTRA_LEVELS) for _ in range(rng.randint(0, 2))]
    chain = " wr ".join([amb.spec] + [text for text, _, _ in extras])
    levels = [(("FIG", True), True), (("FIG", True), True)]
    levels += [(group, torsion) for _, group, torsion in extras]

    def check(payload):
        expected = closed_form_status(levels)
        if payload["status"] != expected:
            return f"classify {chain!r}: {payload['status']} != {expected}"
        return None

    return cli_query(cli, ["classify", chain], check)


def _verify_query(cli, suite: str, seed: int, count: int) -> Query:
    def check(payload):
        if payload["failed"] or not payload["passed"]:
            return f"verify {suite}: {payload['failed']} failed"
        return None

    return cli_query(cli, ["verify", suite, "--seed", str(seed), "--count", str(count)], check)


def finite_wreath(rng: random.Random, wg) -> list[Query]:
    """Every ambient of AMBIENTS, each asked the same chain of questions.

    Per ambient: `construct torsion-igset`, the imprimitive embedding with
    homomorphism checks, invariable generation of the embedded igset (up
    to IGSET_MAX_ORDER), a full enumeration, four conjugation and three
    orbit-collapse batches, and `classify` of the chain with zero to two
    seeded extra levels.  `verify coset` rides along.  Every ambient
    appears in every list, because leaving the draw of ambients to the seed
    would make the cost per run depend on it.  The seed picks the elements
    and extra levels.
    """
    cli = wg.cli
    queries = []
    for spec, base_spec, head_spec in AMBIENTS:
        amb = _Ambient(spec, base_spec, head_spec)
        queries.append(_torsion_query(cli, amb))
        queries.append(_embedding_query(wg, amb, rng))
        if amb.order <= IGSET_MAX_ORDER:
            queries.append(_igset_query(wg, amb))
        queries.append(_enumerate_query(wg, amb))
        for _ in range(CONJUGATION_BATCHES):
            queries.append(_conjugation_query(wg, amb, rng))
        for _ in range(COLLAPSE_BATCHES):
            queries.append(_collapse_query(wg, amb, rng))
        queries.append(_classify_query(cli, amb, rng))
    queries.append(_verify_query(cli, "coset", rng.randrange(10**6), 20))
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "shift-arith": shift_arith,
    "finite-wreath": finite_wreath,
}
