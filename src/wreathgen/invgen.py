"""Invariable generation for finite groups: conjugate-tuple search and a subgroup oracle.

A set S invariably generates G when every way of replacing each s in S by a
conjugate still generates G.  Two independent deciders live here: exhaustive
enumeration of conjugate tuples, and the criterion that no maximal subgroup
meets every class of S.  They must agree, and tests hold them to that.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .groups import (FiniteGroup, Frozen, Perm, class_of, conjugacy_classes,
                     generated_indices, maximal_subgroups)


class IGWitness(Frozen):
    """A failing conjugate choice: pairs (s, chosen conjugate) and what they generate."""

    __match_args__ = ("choice", "generated_order")


def _checked_elements(G: FiniteGroup, S: Sequence[Perm]) -> list[Perm]:
    elements = []
    for s in S:
        if s not in G:
            raise ValueError(f"{s!r} is not an element of the group")
        if s not in elements:
            elements.append(s)
    if not elements:
        raise ValueError("need a nonempty set of elements")
    return elements


def invariably_generates(G: FiniteGroup, S: Sequence[Perm]) -> tuple[bool, IGWitness | None]:
    """Exhaustive check over conjugate tuples; returns the first failing choice.

    The first element's conjugate is pinned to itself: conjugating a whole
    failing tuple simultaneously keeps it failing, so every failure is
    reachable with the first coordinate fixed.  Tuples are visited with class
    members in sorted order, which makes the witness reproducible.  Each
    tuple's closure (`generated_indices`) stops past |G|/2, where only G
    itself can lie; a failing tuple never gets there, so its generated order
    is exact.
    """
    elements = _checked_elements(G, S)
    pools = [[G.index_of(m) for m in class_of(G, s).members] for s in elements]
    pools[0] = [G.index_of(elements[0])]
    for choice in itertools.product(*pools):
        sub = len(generated_indices(G, choice))
        if sub != len(G):
            picks = (G.elements[i] for i in choice)
            return False, IGWitness(tuple(zip(elements, picks)), sub)
    return True, None


def invariably_generates_oracle(G: FiniteGroup, S: Sequence[Perm]) -> bool:
    """Maximal-subgroup criterion: S invariably generates iff no maximal
    subgroup of G intersects the conjugacy class of every element of S."""
    elements = _checked_elements(G, S)
    class_sets = [frozenset(class_of(G, s).members) for s in elements]
    for M in maximal_subgroups(G):
        M_set = frozenset(M)
        if all(cls & M_set for cls in class_sets):
            return False
    return True


def min_invariable_size(G: FiniteGroup) -> tuple[int, tuple[Perm, ...]]:
    """The least size of an invariably generating set, with an example set.

    Only class representatives need to be searched (replacing an element by
    a conjugate changes nothing about the property), and repeating a class
    never helps, so candidates are combinations of distinct nonidentity
    class representatives.
    """
    if len(G) == 1:
        return 1, (G.identity,)
    reps = [c.representative for c in conjugacy_classes(G) if not c.representative.is_identity()]
    for k in range(1, len(reps) + 1):
        for combo in itertools.combinations(reps, k):
            ok, _ = invariably_generates(G, combo)
            if ok:
                return k, combo
    raise RuntimeError("class representatives failed to invariably generate")
