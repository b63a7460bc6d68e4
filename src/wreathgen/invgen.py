"""Invariable generation for finite groups: conjugate-tuple search and a subgroup oracle.

A set S invariably generates G when every way of replacing each s in S by a
conjugate still generates G.  Two independent deciders live here: exhaustive
enumeration of conjugate tuples, and the criterion that no maximal subgroup
meets every class of S.  They must agree, and tests hold them to that.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .groups import (FiniteGroup, Frozen, Perm, _closure_steps, class_of, conjugacy_classes,
                     generated_indices, maximal_subgroups, refuse_above)

# Closure steps one tuple search may take: the Sym(8) pair, 9.3 * 10^8 steps, answers
# in 17-21 s on a shared 2-CPU machine, and its triple, 2.6 * 10^10, is refused.
TUPLE_SEARCH_BUDGET = 1 << 31


class IGWitness(Frozen):
    """A failing conjugate choice: pairs (s, chosen conjugate) and what they generate."""

    __match_args__ = ("choice", "generated_order")


def _checked_elements(G: FiniteGroup, S: Sequence[Perm]) -> list[Perm]:
    """S as G's own elements, each checked by index_of and kept once, in order."""
    elements = list(dict.fromkeys(G.elements[G.index_of(s)] for s in S))
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
    is exact.  A search whose closure steps could pass TUPLE_SEARCH_BUDGET is
    refused before any tuple is closed.
    """
    elements = _checked_elements(G, S)
    pools = [[G.index_of(m) for m in class_of(G, s).members] for s in elements]
    pools[0] = [G.index_of(elements[0])]
    refuse_above("tuple-search budget: estimated closure steps",
                 _closure_steps(G, math.prod(map(len, pools)), len(pools)), TUPLE_SEARCH_BUDGET)
    for choice in itertools.product(*pools):
        sub = len(generated_indices(G, choice))
        if sub != len(G):
            picks = (G.elements[i] for i in choice)
            return False, IGWitness(tuple(zip(elements, picks)), sub)
    return True, None


def invariably_generates_oracle(G: FiniteGroup, S: Sequence[Perm]) -> bool:
    """Maximal-subgroup criterion: S invariably generates iff no maximal subgroup
    of G meets the conjugacy class of every element of S.  A subgroup meets a class
    exactly when its conjugates do, so one maximal subgroup per class is enough."""
    elements = _checked_elements(G, S)
    maximal = maximal_subgroups(G)
    conjugacy_classes(G)
    wanted = {G._class_index[G.index_of(s)] for s in elements}
    return not any(wanted <= {G._class_index[i] for i in M} for M in maximal)


def min_invariable_size(G: FiniteGroup) -> tuple[int, tuple[Perm, ...]]:
    """The least size of an invariably generating set, with an example set.

    Only class representatives need to be searched (replacing an element by
    a conjugate changes nothing about the property), and repeating a class
    never helps, so candidates are combinations of distinct nonidentity
    class representatives.  A size k is refused before it is searched when its
    largest search, over the k - 1 largest classes, could pass the budget.
    """
    if len(G) == 1:
        return 1, (G.identity,)
    reps = [c.representative for c in conjugacy_classes(G) if not c.representative.is_identity()]
    sizes = sorted((len(class_of(G, r)) for r in reps), reverse=True)
    for k in range(1, len(reps) + 1):
        refuse_above(f"tuple-search budget: estimated closure steps of one search of size {k}",
                     _closure_steps(G, math.prod(sizes[:k - 1]), k), TUPLE_SEARCH_BUDGET)
        for combo in itertools.combinations(reps, k):
            ok, _ = invariably_generates(G, combo)
            if ok:
                return k, combo
    raise RuntimeError("class representatives failed to invariably generate")
