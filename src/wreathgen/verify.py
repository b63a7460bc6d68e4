"""Seeded verification suites exercising the identities behind the constructions.

Each suite returns a list of CheckResult records.  A check stops at its first
failure, which its record carries as the concrete instance that broke, and
draws no more.  All randomness is drawn from a Random seeded with the suite
name and the given seed, so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterable, Iterator

from .actions import FiniteAction, IntTranslation, cyclic_orbit, orbit_reps
from .constructions import (CoordinateContractError, alpha_power_form,
                            assemble_alpha_power, assemble_beta, beta,
                            build_alpha, collapse_orbit_conjugator, gamma_coordinate,
                            torsion_igset, uniform_orbit_conjugator)
from . import wreath
from .groups import (FiniteGroup, Perm, Record, class_of, cyclic_group, generates, refuse_above,
                     symmetric_group)
from .invgen import invariably_generates
from .wreath import WreathElement, WreathProduct


class CheckResult(Record):
    __match_args__ = ("name", "passed", "detail")


def _check(name: str, failures: Iterable[str], detail: str) -> CheckResult:
    """Passes with `detail` when `failures` yields nothing; otherwise fails
    with the first failure and draws no more."""
    first = next(iter(failures), None)
    return CheckResult(name, first is None, detail if first is None else first)


def _rng(suite: str, seed: int) -> random.Random:
    return random.Random(f"{suite}:{seed}")


def _random_coords(rng: random.Random, G: FiniteGroup, points) -> dict[int, Perm]:
    return {x: rng.choice(G.elements) for x in points if rng.random() < 0.5}


# -- conjugation: single coordinates translate, heads decompose -----------------


def _embedded_conjugate_failures(W: WreathProduct) -> Iterator[str]:
    G = W.base_group
    head = W.action.head
    elements = W.enumerate_elements()
    for u in elements:
        if u.is_base() and len(u.base) == 1:
            (y, g), = u.base
            for a in elements:
                conj = u.conjugate_by(a)
                target = W.action.point_map(a.head)(y)
                if (not conj.is_base() or conj.support() != (target,)
                        or conj.coordinate(target) not in class_of(G, g)):
                    yield f"u={u!r} a={a!r} gave {conj!r}"
        elif not u.base:
            for a in elements:
                conj = u.conjugate_by(a)
                rebuilt = W.element(dict(conj.base), head.identity) * W.head_embed(conj.head)
                if conj.head not in class_of(head, u.head) or conj != rebuilt:
                    yield f"u={u!r} a={a!r} gave {conj!r}"


def _conjugation_hom_failures(triples: Iterable[tuple[WreathElement, ...]]) -> Iterator[str]:
    for u, v, a in triples:
        if (u * v).conjugate_by(a) != u.conjugate_by(a) * v.conjugate_by(a):
            yield f"u={u!r} v={v!r} a={a!r}"


def suite_conjugation(seed: int = 0, count: int = 200) -> list[CheckResult]:
    rng = _rng("conjugation", seed)
    small = WreathProduct(cyclic_group(2), FiniteAction(cyclic_group(2)))
    large = WreathProduct(symmetric_group(3), FiniteAction(cyclic_group(2)))
    pool = large.enumerate_elements()
    seeded = ((rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(count))
    return [
        _check("conjugation: embedded elements in c2 wr c2", _embedded_conjugate_failures(small),
               f"{small.order()} conjugators, exhaustive"),
        _check("conjugation: embedded elements in sym3 wr c2", _embedded_conjugate_failures(large),
               f"{large.order()} conjugators, exhaustive"),
        _check("conjugation: respects products in c2 wr c2",
               _conjugation_hom_failures(itertools.product(small.enumerate_elements(), repeat=3)),
               "exhaustive"),
        _check("conjugation: respects products in sym3 wr c2", _conjugation_hom_failures(seeded),
               f"{count} seeded triples"),
    ]


# -- coset: collapsing a cyclic-orbit tuple to one coordinate --------------------


def suite_coset(seed: int = 0, count: int = 500) -> list[CheckResult]:
    results: list[CheckResult] = []
    for base_name, base in (("c2", cyclic_group(2)), ("sym3", symmetric_group(3))):
        for d in (1, 2):
            W = WreathProduct(base, FiniteAction(cyclic_group(d + 1)))
            rng = _rng(f"coset:{base_name}:{d}", seed)
            collapse_failures: list[str] = []
            uniform_failures: list[str] = []
            for _ in range(count):
                k = rng.choice(W.action.head.elements)
                y = rng.randrange(W.action.degree)
                orbit = cyclic_orbit(W.action, y, k)
                off_orbit = [x for x in W.action.points() if x not in orbit]
                u = {x: rng.choice(base.elements) for x in orbit}
                v = _random_coords(rng, base, off_orbit)
                element = W.element({**u, **v}, k)

                a = collapse_orbit_conjugator(W, y, k, u)
                folded = math.prod([u[x] for x in orbit], start=base.identity)
                expected = W.element({**v, y: folded}, k)
                if element.conjugate_by(a) != expected:
                    collapse_failures.append(f"y={y} k={k!r} u={u} v={v}")

                g = rng.choice(base.elements)
                single = W.element({**v, y: u[y]}, k)
                c = uniform_orbit_conjugator(W, y, k, g)
                expected2 = W.element({**v, y: g.inverse() * u[y] * g}, k)
                if single.conjugate_by(c) != expected2:
                    uniform_failures.append(f"y={y} k={k!r} u0={u[y]!r} g={g!r} v={v}")
            label = f"{base_name} wr c{d + 1}"
            results += [_check(f"coset: collapse along the orbit in {label}",
                               collapse_failures, f"{count} constructed conjugators"),
                        _check(f"coset: uniform conjugation at one coordinate in {label}",
                               uniform_failures, f"{count} constructed conjugators")]
    return results


# -- alpha / beta / gamma over the integers --------------------------------------


def random_alpha(rng: random.Random, W: WreathProduct, g: Perm, radius: int):
    """build_alpha with two random conjugators supported in [-radius, radius],
    whose window is refused past the enumeration cap before any coin is drawn."""
    if radius < 0:
        raise ValueError(f"radius must be at least 0, got {radius}")
    window = range(-radius, radius + 1)
    refuse_above("enumeration cap: conjugator window points", len(window),
                 wreath.DEFAULT_ENUMERATION_CAP)
    return build_alpha(W, g,
                       _random_coords(rng, W.base_group, window),
                       _random_coords(rng, W.base_group, window))


def _alpha_pairs(rng: random.Random, count: int, targets: list[Perm] | None = None):
    """`count` seeded draws over sym3 wr Z: an alpha for the identity, paired
    with an alpha for each of `targets`, or else for one random element."""
    W = WreathProduct(symmetric_group(3), IntTranslation())
    for _ in range(count):
        alpha_e = random_alpha(rng, W, W.base_group.identity, 4)
        for g in targets or [rng.choice(W.base_group.elements)]:
            yield alpha_e, random_alpha(rng, W, g, 4)


def suite_alpha(seed: int = 0, count: int = 200) -> list[CheckResult]:
    rng = _rng("alpha", seed)

    def failures() -> Iterator[str]:
        for alpha_e, alpha_f in _alpha_pairs(rng, count):
            m = rng.randint(0, 6)
            if alpha_power_form(alpha_e, alpha_f, m) != assemble_alpha_power(alpha_e, alpha_f, m):
                yield (f"m={m} e-conj={dict(alpha_e.conjugator.base)} "
                       f"f={alpha_f.g!r} f-conj={dict(alpha_f.conjugator.base)}")
    return [_check("alpha: telescoped power product matches its closed form", failures(),
                   f"{count} seeded instances, m <= 6")]


def suite_beta(seed: int = 0, count: int = 200) -> list[CheckResult]:
    rng = _rng("beta", seed)
    form_failures = []
    head_failures = []
    for alpha_e, alpha_g in _alpha_pairs(rng, count):
        m = rng.randint(0, 6)
        n = rng.randint(0, 4)
        direct = beta(alpha_e, alpha_g, m, n)
        if direct != assemble_beta(alpha_e, alpha_g, m, n):
            form_failures.append(f"m={m} n={n} e-conj={dict(alpha_e.conjugator.base)} "
                                 f"g={alpha_g.g!r} g-conj={dict(alpha_g.conjugator.base)}")
        if direct.head != 0:
            head_failures.append(f"m={m} n={n} head={direct.head}")
    return [_check("beta: conjugated power product matches its closed form",
                   form_failures, f"{count} seeded instances, m <= 6, n <= 4"),
            _check("beta: the head is always the zero shift", head_failures,
                   f"{count} seeded instances")]


def suite_gamma(seed: int = 0, count: int = 200) -> list[CheckResult]:
    targets = [Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)]

    def failures() -> Iterator[str]:
        for alpha_e, alpha_g in _alpha_pairs(_rng("gamma", seed), count, targets):
            try:
                params, found = gamma_coordinate(alpha_e, alpha_g)
                if params.c == alpha_e.support_radius and found == alpha_g.g:
                    continue
                failure = f"g={alpha_g.g!r} -> ({params.c}, {found!r})"
            except CoordinateContractError as exc:
                failure = str(exc)
            yield (f"{failure} e-conj={dict(alpha_e.conjugator.base)} "
                   f"g-conj={dict(alpha_g.conjugator.base)}")
    return [_check("gamma: the chosen coordinate isolates each generator", failures(),
                   f"{count} seeded instances, both generators of sym3")]


# -- igsets: the explicit sets invariably generate --------------------------------


def suite_igsets(seed: int = 0, count: int = 50) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = _rng("igsets", seed)
    c2 = cyclic_group(2)
    c3 = cyclic_group(3)
    s3 = symmetric_group(3)
    swap = Perm.from_cycles([(0, 1)], 3)
    rot3 = Perm.from_cycles([(0, 1, 2)], 3)
    for name, W, g_set, h_set in [
            ("c2 wr c2", WreathProduct(c2, FiniteAction(c2)), [c2.elements[1]], [c2.elements[1]]),
            ("c3 wr sym3", WreathProduct(c3, FiniteAction(s3)), [c3.elements[1]], [swap, rot3])]:
        igset = torsion_igset(W, g_set, h_set)
        P, embed = W.imprimitive_embedding()
        ok, witness = invariably_generates(P, [embed(u) for u in igset])
        results.append(_check(f"igsets: embedded base and head sets invariably generate {name}",
                              [] if ok else [f"witness {witness!r}"],
                              f"order {P.order}, exhaustive tuple search"))

        # Generation must also survive replacing the head set by arbitrary
        # conjugates when the full base copies ride along.
        base_gens = [embed(W.base_embed(g, y))
                     for y in orbit_reps(W.action) for g in W.base_group.generators]
        heads = [W.head_embed(h) for h in h_set]
        if W.order() <= 8:
            conjugator_picks = [[a] * len(heads) for a in W.enumerate_elements()]
            mode = "exhaustive conjugators"
        else:
            pool = W.enumerate_elements()
            conjugator_picks = ([rng.choice(pool) for _ in heads] for _ in range(count))
            mode = f"{count} seeded conjugator choices"
        failures = (f"conjugators {picks!r}" for picks in conjugator_picks
                    if not generates(P, base_gens + [embed(h.conjugate_by(a))
                                                     for h, a in zip(heads, picks)]))
        results.append(_check(f"igsets: base copies with any head conjugates generate {name}",
                              failures, mode))
    return results


SUITES: dict[str, Callable[[int, int], list[CheckResult]]] = {
    "conjugation": suite_conjugation,
    "coset": suite_coset,
    "alpha": suite_alpha,
    "beta": suite_beta,
    "gamma": suite_gamma,
    "igsets": suite_igsets,
}


def run_suites(names: list[str], seed: int = 0, count: int | None = None) -> list[CheckResult]:
    """Run the named suites ('all' for every one) with their default counts, or
    with `count` instances per check, refused past the enumeration cap."""
    if count is not None:
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        refuse_above("enumeration cap: seeded instances per check", count,
                     wreath.DEFAULT_ENUMERATION_CAP)
    if names == ["all"]:
        names = list(SUITES)
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
        results += SUITES[name](seed) if count is None else SUITES[name](seed, count)
    return results
