"""Explicit generating-set constructions inside wreath products.

Two strands live here.  Over a finite action: conjugators that collapse a
base tuple spread along a cyclic orbit down to one coordinate, and the
union-of-embeddings invariable generating set for torsion-type actions.
Over the integers: the alpha elements (conjugates of g@0 times the unit
shift), their telescoped power products, the beta conjugates that isolate a
chosen group element at a known coordinate, and the generating set used when
the action is not of torsion type.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping, Sequence

from .actions import FiniteAction, IntTranslation, cyclic_orbit, orbit_reps
from .groups import Frozen, Perm, generates
from .invgen import invariably_generates
from .wreath import WreathElement, WreathProduct


class CoordinateContractError(Exception):
    """Raised when an isolated coordinate does not match the element it encodes."""


def _pure_base(W: WreathProduct, coords: Mapping[int, Perm]) -> WreathElement:
    return W.element(coords, W.action.head_identity())


# -- alpha / beta machinery over the integers --------------------------------


class AlphaElement(Frozen):
    """A conjugate of g@0 * shift(1) by a finitely supported base tuple.

    `conjugator` is the pure-base tuple b with element == b^-1 * g@0 * t * b,
    and `support_radius` is the least c >= 0 with the support of b inside
    the open window (-c, c).
    """

    __match_args__ = ("element", "g", "conjugator", "support_radius")


def _require_int_translation(W: WreathProduct) -> None:
    if not isinstance(W.action, IntTranslation):
        raise ValueError("alpha/beta machinery needs the shift action on the integers")


def build_alpha(W: WreathProduct, g: Perm,
                conj_base: Mapping[int, Perm],
                w_correction: Mapping[int, Perm]) -> AlphaElement:
    """Assemble b^-1 * g@0 * shift(1) * b with b = conj_base * w_correction^-1.

    The two mappings are independent base tuples; the element itself is
    computed by literal wreath multiplication, never assembled symbolically.
    """
    _require_int_translation(W)
    b = _pure_base(W, conj_base) * _pure_base(W, w_correction).inverse()
    element = b.inverse() * W.base_embed(g, 0) * W.head_embed(1) * b
    support = b.support()
    radius = max((abs(i) for i in support), default=-1) + 1
    return AlphaElement(element, g, b, radius)


def alpha_power_form(alpha_e: AlphaElement, alpha_f: AlphaElement, m: int) -> WreathElement:
    """alpha_e^-m * alpha_f^m by exact repeated multiplication."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return alpha_e.element ** (-m) * alpha_f.element ** m


def assemble_alpha_power(alpha_e: AlphaElement, alpha_f: AlphaElement, m: int) -> WreathElement:
    """The predicted closed form of alpha_e^-m * alpha_f^m: beta's at n = 0.

    The inner conjugator blocks telescope away, leaving: the inverted first
    conjugator in place, the first conjugator shifted up by m, the inverted
    second conjugator shifted up by m, a run of f along 1..m, and the second
    conjugator in place.  Must equal alpha_power_form exactly.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return assemble_beta(alpha_e, alpha_f, m, 0)


def beta(alpha_e: AlphaElement, alpha_g: AlphaElement, m: int, n: int) -> WreathElement:
    """alpha_e^n * (alpha_e^-m * alpha_g^m) * alpha_e^-n, computed exactly."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    inner = alpha_power_form(alpha_e, alpha_g, m)
    return alpha_e.element ** n * inner * alpha_e.element ** (-n)


def assemble_beta(alpha_e: AlphaElement, alpha_g: AlphaElement, m: int, n: int) -> WreathElement:
    """The predicted closed form of beta: the power form shifted down by n,
    wrapped between the first conjugator's blocks.  Must equal beta exactly."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    # The blocks of alpha_e^-m * alpha_g^m, all but the first shifted by -n;
    # conjugating by alpha_e^n adds the first conjugator's two tails, which
    # cancel point by point at n = 0.  Every block is a pure base tuple, so
    # their product is pointwise.
    W = alpha_e.element.ambient
    if alpha_g.element.ambient is not W and alpha_g.element.ambient != W:
        raise ValueError("elements live in different ambient wreath products")
    group = W.base_group
    product, inverse = group.product, group.inverse
    a, b, f = alpha_e.conjugator.base, alpha_g.conjugator.base, alpha_g.g
    blocks = [
        [(i, inverse(g)) for i, g in a],
        [(i + m - n, g) for i, g in a],
        [(i + m - n, inverse(g)) for i, g in b],
        [(j - n, f) for j in range(1, m + 1)],
        [(i - n, g) for i, g in b],
    ]
    if n:
        blocks += [
            [(i - n, inverse(g)) for i, g in a],
            [(i, g) for i, g in a],
        ]
    coords: dict[int, Perm] = {}
    for block in blocks:
        for x, g in block:
            h = coords.get(x)
            coords[x] = g if h is None else product(h, g)
    return _pure_base(W, coords)


class BetaParams(Frozen):
    """Exponents (m, n) placing a clean copy of g at coordinate c.

    Needs m beyond both conjugator windows (m > c + max(c, d)) and n large
    enough that the trailing window misses c (d - n < c), with n >= 1.
    """

    __match_args__ = ("m", "n", "c", "d")

    def __init__(self, m: int, n: int, c: int, d: int) -> None:
        if c < 0 or d < 0:
            raise ValueError("support radii must be >= 0")
        if n < 1:
            raise ValueError("n must be >= 1")
        if not m > c + max(c, d):
            raise ValueError(f"m = {m} is not beyond the conjugator windows")
        if not d - n < c:
            raise ValueError(f"n = {n} leaves the trailing window over coordinate {c}")
        super().__init__(m, n, c, d)


def choose_mn(c: int, d: int) -> BetaParams:
    """The least admissible exponents for support radii c and d."""
    return BetaParams(m=c + max(c, d) + 1, n=max(1, d - c + 1), c=c, d=d)


def gamma_coordinate(alpha_e: AlphaElement, alpha_g: AlphaElement) -> tuple[BetaParams, Perm]:
    """Isolate alpha_g's group element at a known coordinate.

    Builds beta(alpha_e, alpha_g, m + n, n) for the least admissible (m, n)
    and reads the coordinate at c = alpha_e.support_radius, which the block
    arithmetic guarantees to be exactly alpha_g.g; anything else is reported
    as a contract violation, since it would mean the arithmetic is wrong.
    Returns the exponents chosen, with c and d, and the element found at c.
    """
    params = choose_mn(alpha_e.support_radius, alpha_g.support_radius)
    element = beta(alpha_e, alpha_g, params.m + params.n, params.n)
    found = element.coordinate(params.c)
    if found != alpha_g.g:
        raise CoordinateContractError(
            f"expected {alpha_g.g!r} at coordinate {params.c}, found {found!r} "
            f"(c={params.c}, d={params.d}, m={params.m}, n={params.n})"
        )
    return params, found


# -- orbit-collapse conjugators over finite actions ---------------------------


def _orbit_coords(W: WreathProduct, y: int, k, u: Mapping[int, Perm]) -> tuple[list[int], list[Perm]]:
    orbit = cyclic_orbit(W.action, y, k)
    coords = dict(_pure_base(W, u).base)
    extra = set(u) - set(orbit)
    if extra:
        raise ValueError(f"coordinates {sorted(extra)} lie off the orbit of {y}")
    identity = W.base_group.identity
    return orbit, [coords.get(x, identity) for x in orbit]


def collapse_orbit_product(W: WreathProduct, y: int, k, u: Mapping[int, Perm]) -> Perm:
    """The ordered product of u's coordinates read around the <k>-orbit of y."""
    _, values = _orbit_coords(W, y, k, u)
    return functools.reduce(W.base_group.product, values, W.base_group.identity)


def collapse_orbit_conjugator(W: WreathProduct, y: int, k, u: Mapping[int, Perm]) -> WreathElement:
    """A base tuple a with a^-1 * (u * v * k) * a = (collapsed u)@y * v * k.

    Repeatedly folding the top orbit coordinate one step down multiplies
    suffixes together, so the conjugator carries the suffix product
    u_j u_{j+1} ... u_d at the j-th orbit point for every j >= 1.  The
    off-orbit part v commutes with all of it and is untouched.
    """
    orbit, values = _orbit_coords(W, y, k, u)
    product = W.base_group.product
    coords: dict[int, Perm] = {}
    suffix = W.base_group.identity
    for j in range(len(orbit) - 1, 0, -1):
        suffix = product(values[j], suffix)
        coords[orbit[j]] = suffix
    return _pure_base(W, coords)


def uniform_orbit_conjugator(W: WreathProduct, y: int, k, g: Perm) -> WreathElement:
    """The tuple with g at every point of the <k>-orbit of y.

    Conjugating u@y * v * k by it turns the y coordinate into g^-1 * u * g
    and fixes everything else: the head permutes the orbit cyclically, so
    the tuple commutes with k, and the identical entries cancel off y.
    """
    orbit = cyclic_orbit(W.action, y, k)
    return _pure_base(W, {x: g for x in orbit})


# -- explicit invariable generating sets --------------------------------------


def _distinct(W: WreathProduct, elements: Iterable[WreathElement]) -> tuple[WreathElement, ...]:
    """The non-identity elements, each kept once, in order: the identity and
    a repeat add nothing to a generating set."""
    identity = W.identity()
    return tuple(e for e in dict.fromkeys(elements) if e != identity)


def torsion_igset(W: WreathProduct, G_igset: Sequence[Perm],
                  H_igset: Sequence[Perm]) -> tuple[WreathElement, ...]:
    """Invariable generating set for a finite action: base sets at orbit
    representatives, plus the head set embedded.

    Both inputs are checked to invariably generate their own groups first.
    Identity elements are dropped; they never contribute to generation.
    """
    if not isinstance(W.action, FiniteAction):
        raise ValueError("needs a finite action")
    ok, _ = invariably_generates(W.base_group, G_igset)
    if not ok:
        raise ValueError("the base set does not invariably generate the base group")
    ok, _ = invariably_generates(W.action.head, H_igset)
    if not ok:
        raise ValueError("the head set does not invariably generate the head group")
    base = [W.base_embed(g, y) for y in orbit_reps(W.action) for g in G_igset]
    return _distinct(W, base + [W.head_embed(h) for h in H_igset])


def nottorsion_igset(W: WreathProduct, gens: Sequence[Perm], t: int,
                     S_H: Sequence[int]) -> tuple[WreathElement, ...]:
    """Invariable generating set over the integer-shift action.

    Takes a plain generating set of the base group, a nonzero shift t, and an
    invariable generating set of shifts for the head.  The result is the head
    set, then the generating set embedded at 0, the same set multiplied by t,
    and t itself.  Identities are dropped.

    The paper states this per orbit of the head, with one generating set and
    one shift for each orbit representative; the shifts have the single
    orbit of 0.
    """
    _require_int_translation(W)
    if not generates(W.base_group, gens):
        raise ValueError("the listed set does not generate the base group")
    if t == 0:
        raise ValueError("the orbit shift must have infinite order")
    if not S_H or math.gcd(*(abs(s) for s in S_H)) != 1:
        raise ValueError("the head shifts do not invariably generate the integers")
    shift = W.head_embed(t)
    base = [W.base_embed(g, 0) for g in gens]
    return _distinct(W, [*map(W.head_embed, S_H), *base, *(b * shift for b in base), shift])
