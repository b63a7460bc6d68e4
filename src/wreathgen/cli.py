"""Command-line front end: classes, invgen, classify, wreath eval, construct, verify.

Every subcommand accepts --json for machine-readable output; JSON payloads
carry a schema_version field (currently 1).  Exit codes: 0 on success, 1 when
a requested check fails (verify failures, oracle disagreement, a broken
construction contract), 2 on bad input or anything the grammars reject.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Sequence

from .actions import FiniteAction, IntTranslation
from .classify import iterated_status, iterated_status_direct
from .constructions import (CoordinateContractError, gamma_coordinate, nottorsion_igset,
                            torsion_igset)
from .groups import FiniteGroup, GroupTooLargeError, Record, conjugacy_classes
from .invgen import invariably_generates, invariably_generates_oracle, min_invariable_size
from .parsing import (_element_text, chain_to_descriptors, format_perm,
                      format_wreath_element, parse_ambient, parse_chain,
                      parse_group_spec, parse_perm_list, parse_wreath_element)
from .verify import SUITES, random_alpha, run_suites
from .wreath import WreathProduct

SCHEMA_VERSION = 1


class Output(Record):
    """A subcommand's JSON payload, its text lines, its exit code and a stderr message."""

    __match_args__ = ("payload", "lines", "code", "error")

    def __init__(self, payload: dict, lines: list[str], code: int = 0, error: str = "") -> None:
        super().__init__(payload, lines, code, error)


def _group_info(G: FiniteGroup) -> dict:
    return {"degree": G.degree, "order": G.order}


def _group_line(group: dict) -> str:
    return f"group: order {group['order']}, degree {group['degree']}"


def _cmd_classes(args: argparse.Namespace) -> Output:
    G = parse_group_spec(args.group)
    payload = {
        "group": _group_info(G),
        "classes": [{
            "representative": format_perm(c.representative),
            "size": len(c),
            "members": [format_perm(m) for m in c.members],
        } for c in conjugacy_classes(G)],
    }
    lines = [_group_line(payload["group"]), f"classes ({len(payload['classes'])}):"]
    lines += [f"  size {c['size']:3d}  rep {c['representative']}" for c in payload["classes"]]
    return Output(payload, lines)


def _cmd_invgen(args: argparse.Namespace) -> Output:
    if args.min and args.elements is not None:
        raise ValueError("--min searches for its own set; drop the ELEMENTS argument")
    if args.min and args.oracle:
        raise ValueError("--oracle cross-checks a given set; it cannot be combined with --min")
    G = parse_group_spec(args.group)
    if args.min:
        size, example = min_invariable_size(G)
        payload = {
            "group": _group_info(G),
            "minimal_size": size,
            "example": [format_perm(s) for s in example],
        }
        return Output(payload, [
            _group_line(payload["group"]),
            f"minimal invariable generating size: {payload['minimal_size']}",
            f"example: {', '.join(payload['example'])}",
        ])
    if not args.elements:
        raise ValueError("list the elements to test, or pass --min")
    S = parse_perm_list(args.elements, G.degree)
    for s in S:
        if s not in G:
            raise ValueError(f"{format_perm(s)} is not an element of the group")
    oracle = invariably_generates_oracle(G, S) if args.oracle else None
    ok, witness = invariably_generates(G, S)
    payload = {
        "group": _group_info(G),
        "elements": [format_perm(s) for s in S],
        "invariably_generates": ok,
        "witness": None if witness is None else {
            "choice": [[format_perm(s), format_perm(c)] for s, c in witness.choice],
            "generated_order": witness.generated_order,
        },
        "oracle": oracle,
    }
    lines = [_group_line(payload["group"]),
             f"set: {', '.join(payload['elements'])}",
             f"invariably generates: {'yes' if ok else 'no'}"]
    if payload["witness"] is not None:
        picks = "; ".join(f"{s} -> {c}" for s, c in payload["witness"]["choice"])
        lines.append(f"witness: {picks}  "
                     f"[generates order {payload['witness']['generated_order']}]")
    if oracle is not None:
        agrees = "agrees" if oracle == ok else "DISAGREES"
        lines.append(f"oracle: {'yes' if oracle else 'no'} ({agrees})")
        if oracle != ok:
            return Output(payload, lines, 1,
                          "the tuple search and the maximal-subgroup oracle disagree")
    return Output(payload, lines)


def _cmd_classify(args: argparse.Namespace) -> Output:
    chain = chain_to_descriptors(parse_chain(args.chain))
    status, trace = iterated_status(chain)
    direct = iterated_status_direct(chain)
    if direct is not status:
        raise RuntimeError(f"fold gave {status}, closed form gave {direct}")
    payload = {"chain": args.chain, "status": status.value, "trace": trace}
    return Output(payload, [*trace, f"status: {payload['status']}"])


def _cmd_wreath_eval(args: argparse.Namespace) -> Output:
    element = parse_wreath_element(args.expr, parse_ambient(args.ambient))
    head = element.head if isinstance(element.head, int) else format_perm(element.head)
    base = {str(x): format_perm(g) for x, g in element.base}
    payload = {
        "ambient": args.ambient,
        "element": _element_text(base, head),
        "base": base,
        "head": head,
    }
    return Output(payload, [
        f"element: {payload['element']}",
        f"head: shift({head:+d})" if isinstance(head, int) else f"head: {head}",
        f"support: {', '.join(payload['base']) or '(empty)'}",
    ])


def _igset_lines(igset: list[str]) -> list[str]:
    return [f"invariable generating set ({len(igset)} elements):",
            *(f"  {u}" for u in igset)]


def _cmd_construct_torsion(args: argparse.Namespace) -> Output:
    W = parse_ambient(args.ambient)
    if not isinstance(W.action, FiniteAction):
        raise ValueError("torsion-igset needs a finite action; use nottorsion-igset for shifts")
    _, g_set = min_invariable_size(W.base_group)
    _, h_set = min_invariable_size(W.action.head)
    payload = {
        "ambient": args.ambient,
        "base_set": [format_perm(s) for s in g_set],
        "head_set": [format_perm(s) for s in h_set],
        "igset": [format_wreath_element(u) for u in torsion_igset(W, g_set, h_set)],
    }
    return Output(payload, [
        f"base set ({len(g_set)}): {', '.join(payload['base_set'])}",
        f"head set ({len(h_set)}): {', '.join(payload['head_set'])}",
        *_igset_lines(payload["igset"]),
    ])


def _cmd_construct_nottorsion(args: argparse.Namespace) -> Output:
    W = parse_ambient(args.ambient)
    if not isinstance(W.action, IntTranslation):
        raise ValueError("nottorsion-igset needs the integer-shift head")
    gens = [g for g in W.base_group.generators if not g.is_identity()]
    payload = {
        "ambient": args.ambient,
        "base_generators": [format_perm(s) for s in gens],
        "igset": [format_wreath_element(u) for u in nottorsion_igset(W, gens, 1, [1])],
    }
    return Output(payload, [
        f"base generators: {', '.join(payload['base_generators']) or '(none)'}",
        *_igset_lines(payload["igset"]),
    ])


def _cmd_construct_gamma(args: argparse.Namespace) -> Output:
    G = parse_group_spec(args.group)
    W = WreathProduct(G, IntTranslation())
    rng = random.Random(args.seed)
    rows = []
    for g in G.generators:
        alpha_e = random_alpha(rng, W, G.identity, args.support)
        alpha_g = random_alpha(rng, W, g, args.support)
        params, found = gamma_coordinate(alpha_e, alpha_g)
        rows.append({
            "generator": format_perm(g),
            "c": params.c, "d": params.d, "m": params.m, "n": params.n,
            "coordinate": params.c,
            "found": format_perm(found),
        })
    payload = {"group": _group_info(G), "seed": args.seed, "rows": rows}
    return Output(payload, [
        f"{_group_line(payload['group'])} (seed {args.seed})",
        *(f"  {row['generator']}: c={row['c']} d={row['d']} "
          f"m={row['m']} n={row['n']} -> coordinate {row['coordinate']} "
          f"holds {row['found']}" for row in rows),
    ])


def _cmd_verify(args: argparse.Namespace) -> Output:
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail}
              for r in run_suites([args.suite], seed=args.seed, count=args.count)]
    passed = sum(c["passed"] for c in checks)
    payload = {"suite": args.suite, "seed": args.seed, "checks": checks,
               "passed": passed, "failed": len(checks) - passed}
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}"
             + (f"  ({c['detail']})" if c["detail"] else "") for c in checks]
    lines.append(f"{passed} passed, {payload['failed']} failed")
    return Output(payload, lines, 1 if payload["failed"] else 0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use and kept: parse_args leaves no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="wreathgen",
        description="wreath-product arithmetic, invariable generation, classification")
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    def leaf(subparsers, name: str, func, help: str, command: str | None = None):
        p = subparsers.add_parser(name, parents=[json_flag], help=help)
        p.set_defaults(func=func, command=command or name)
        return p

    p = leaf(sub, "classes", _cmd_classes, "conjugacy classes of a finite group")
    p.add_argument("group", help="group spec, e.g. 'sym 3' or 'perm 3: (0 1), (0 1 2)'")

    p = leaf(sub, "invgen", _cmd_invgen, "test a set for invariable generation")
    p.add_argument("group")
    p.add_argument("elements", nargs="?", help="comma-separated cycles, e.g. '(0 1), (0 1 2)'")
    p.add_argument("--min", action="store_true", help="search for the minimal size instead")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the maximal-subgroup criterion")

    p = leaf(sub, "classify", _cmd_classify, "status of an iterated wreath product")
    p.add_argument("chain", help="e.g. '{FIG, fg} wr int-translation' "
                                 "or 'sym 3 wr (cyclic 2, natural)'")

    p = sub.add_parser("wreath", help="wreath-product element arithmetic")
    wsub = p.add_subparsers(dest="wreath_command", required=True)
    p = leaf(wsub, "eval", _cmd_wreath_eval, "evaluate an element expression", "wreath-eval")
    p.add_argument("ambient", help="e.g. 'sym 3 wr (cyclic 2, natural)'")
    p.add_argument("expr", help="e.g. '(0 1)@0 * h:(0 1)' or '(0 1 2)@-2 * t^3'")

    p = sub.add_parser("construct", help="build explicit generating sets and elements")
    csub = p.add_subparsers(dest="construct_command", required=True)
    p = leaf(csub, "torsion-igset", _cmd_construct_torsion,
             "invariable generating set over a finite action", "construct-torsion-igset")
    p.add_argument("ambient")
    p = leaf(csub, "nottorsion-igset", _cmd_construct_nottorsion,
             "invariable generating set over the shifts", "construct-nottorsion-igset")
    p.add_argument("ambient")
    p = leaf(csub, "gamma", _cmd_construct_gamma,
             "isolate each generator at a known coordinate", "construct-gamma")
    p.add_argument("group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--support", type=int, default=3, help="conjugator window radius")

    p = leaf(sub, "verify", _cmd_verify, "run the seeded verification suites")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None,
                   help="instances per randomized check (suite default if omitted)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except (ValueError, GroupTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoordinateContractError as exc:  # a construction broke its own contract
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.json:
            payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **out.payload}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in out.lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  As the Python docs advise for
        # SIGPIPE, send what is left to devnull, so that the flush at exit
        # does not fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if out.error:
        print(f"error: {out.error}", file=sys.stderr)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
