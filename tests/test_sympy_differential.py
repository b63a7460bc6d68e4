"""Differential tests against sympy.combinatorics as an outside reference.

sympy is not a dependency of wreathgen, so the module is skipped when it is
missing.  Both libraries compose the left factor first: p * q maps x to
q(p(x)).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathgen import groups
from wreathgen.groups import (Perm, closure, compose, conjugacy_classes,
                              generated_indices, generates)

combinatorics = pytest.importorskip("sympy.combinatorics")
Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup


def to_sympy(p: Perm):
    return Permutation(list(p.images))


@st.composite
def generator_lists(draw, max_degree: int = 6, max_count: int = 3):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    count = draw(st.integers(min_value=1, max_value=max_count))
    return [Perm(tuple(draw(st.permutations(range(n))))) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(generator_lists())
def test_orders_and_classes_match(gens):
    G = closure(gens)
    ref = PermutationGroup([to_sympy(g) for g in gens])
    assert G.order == ref.order()
    classes = conjugacy_classes(G)
    ref_classes = ref.conjugacy_classes()
    assert len(classes) == len(ref_classes)
    assert sorted(len(c) for c in classes) == sorted(len(c) for c in ref_classes)
    ref_members = {frozenset(tuple(p.array_form) for p in c) for c in ref_classes}
    assert {frozenset(m.images for m in c.members) for c in classes} == ref_members


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "past-table"])
@settings(max_examples=40, deadline=None)
@given(generator_lists(), st.data())
def test_generates_and_subgroup_orders_match(tabled, gens, data):
    # A group keeps right-multiplication rows only when built under a budget
    # that holds all of them; under a budget of 0 it closes over image tuples.
    with pytest.MonkeyPatch.context() as patch:
        if not tabled:
            patch.setattr(groups, "RIGHT_MAP_BUDGET", 0)
        G = closure(gens)
    assert (G._rows is not None) is tabled
    picks = data.draw(st.lists(st.sampled_from(G.elements), min_size=1, max_size=3))
    sub_order = PermutationGroup([to_sympy(p) for p in picks]).order()
    assert generates(G, picks) is (sub_order == G.order)
    found = generated_indices(G, [G.index_of(p) for p in picks])
    assert len(found) == sub_order


@settings(max_examples=60, deadline=None)
@given(generator_lists(max_count=2))
def test_products_and_inverses_match(perms):
    p = perms[0]
    q = perms[-1]
    assert list(compose(p, q).images) == (to_sympy(p) * to_sympy(q)).array_form
    assert list(p.inverse().images) == (~to_sympy(p)).array_form
