"""Symbolic status engine: is a wreath product invariably generated, and how.

Statuses: FIG (invariably generated by some finite set), IG (invariably
generated, but by no finite set), NEG_IG (not invariably generated at all).
The engine works on descriptors only; no element arithmetic happens here.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .actions import FiniteAction, IntTranslation
from .groups import Frozen


class IGStatus(enum.Enum):
    FIG = "FIG"
    IG = "IG"
    NEG_IG = "NEG_IG"

    def __str__(self) -> str:
        return self.value


class GroupDescriptor(Frozen):
    """What the engine needs to know about a group: status and finite generation."""

    __match_args__ = ("status", "finitely_generated")

    def __init__(self, status: IGStatus, finitely_generated: bool) -> None:
        if status is IGStatus.FIG and not finitely_generated:
            raise ValueError("a group with a finite invariable generating set is finitely generated")
        super().__init__(status, finitely_generated)


class ActionDescriptor(Frozen):
    """What the engine needs to know about the head action."""

    __match_args__ = ("torsion_type", "finitely_many_orbits")


# Finite groups and the integers alike: finitely generated, and invariably
# generated by a finite set.
FIG_FG = GroupDescriptor(IGStatus.FIG, True)


# The facts each concrete action type carries; natural and regular heads are finite.
FINITE_ACTION, INT_TRANSLATION_ACTION = (
    ActionDescriptor(a.torsion_type, a.finitely_many_orbits) for a in (FiniteAction, IntTranslation))


def wreath_fg(G: GroupDescriptor, H: GroupDescriptor, action: ActionDescriptor) -> bool:
    """The wreath product is finitely generated exactly when both factors are
    and the action has finitely many orbits."""
    return G.finitely_generated and H.finitely_generated and action.finitely_many_orbits


def wreath_status_with_rule(G: GroupDescriptor, H: GroupDescriptor,
                            action: ActionDescriptor) -> tuple[IGStatus, str]:
    """Status of the wreath product, plus the name of the rule that decided it."""
    if H.status is IGStatus.NEG_IG:
        return IGStatus.NEG_IG, "head not invariably generated"
    fg = wreath_fg(G, H, action)
    if not action.torsion_type:
        # Beyond torsion type the base group's own status is irrelevant;
        # only finite generation of the whole product matters.
        if H.status is IGStatus.FIG:
            if fg:
                return IGStatus.FIG, "non-torsion action, FIG head, finitely generated product"
            return IGStatus.IG, "non-torsion action, FIG head, infinitely generated product"
        return IGStatus.IG, "non-torsion action, IG head"
    if G.status is IGStatus.NEG_IG:
        return IGStatus.NEG_IG, "torsion-type action, base not invariably generated"
    if G.status is IGStatus.FIG and H.status is IGStatus.FIG:
        if fg:
            return IGStatus.FIG, "torsion-type action, FIG base and head, finitely generated product"
        return IGStatus.IG, "torsion-type action, FIG base and head, infinitely generated product"
    return IGStatus.IG, "torsion-type action, IG base or head"


ChainLevel = tuple[GroupDescriptor, ActionDescriptor | None]


def _check_chain(chain: Sequence[ChainLevel]) -> None:
    if not chain:
        raise ValueError("chain must have at least one level")
    if chain[0][1] is not None:
        raise ValueError("the first level carries no action")
    for i, (_, action) in enumerate(chain[1:], start=2):
        if action is None:
            raise ValueError(f"level {i} needs an action")


def iterated_status(chain: Sequence[ChainLevel]) -> tuple[IGStatus, list[str]]:
    """Fold a left-nested tower of wreath products, one level at a time.

    `chain` lists (group, action) per level, the first action being None.
    Returns the final status with a trace naming the rule applied per level.
    """
    _check_chain(chain)
    current = chain[0][0]
    trace = [f"level 1: base group is {current.status}"
             + ("" if current.finitely_generated else " (not finitely generated)")]
    for i, (head, action) in enumerate(chain[1:], start=2):
        status, rule = wreath_status_with_rule(current, head, action)
        current = GroupDescriptor(status, wreath_fg(current, head, action))
        trace.append(f"level {i}: {rule} -> {status}")
    return current.status, trace


def iterated_status_direct(chain: Sequence[ChainLevel]) -> IGStatus:
    """Closed-form status of the tower, bypassing the fold.

    Let k be the last level whose action is not of torsion type (k = 1 when
    all are).  Everything below level k is washed out: the tower is FIG iff
    it is finitely generated and levels k..n are all FIG, it is IG iff
    levels k..n avoid NEG_IG and the FIG case fails, else it is NEG_IG.
    """
    _check_chain(chain)
    k = 1
    for i, (_, action) in enumerate(chain[1:], start=2):
        if not action.torsion_type:
            k = i
    fg = all(g.finitely_generated for g, _ in chain) and all(
        action.finitely_many_orbits for _, action in chain[1:])
    tail = [g.status for g, _ in chain[k - 1:]]
    if fg and all(s is IGStatus.FIG for s in tail):
        return IGStatus.FIG
    if all(s is not IGStatus.NEG_IG for s in tail):
        return IGStatus.IG
    return IGStatus.NEG_IG
