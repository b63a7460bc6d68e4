"""Permutations, closure, classes and maximal subgroups, pinned to hand-checked values."""

import itertools
import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathgen import groups
from wreathgen.actions import IntTranslation
from wreathgen.groups import (FiniteGroup, GroupTooLargeError, Perm, alternating_group,
                              class_of, closure, compose, conjugacy_classes, cyclic_group,
                              generates, klein_four_group, maximal_subgroups, symmetric_group)
from wreathgen.wreath import WreathProduct

from small_groups import dihedral_group, quaternion_group

SWAP3 = Perm.from_cycles([(0, 1)], 3)
ROT3 = Perm.from_cycles([(0, 1, 2)], 3)


@st.composite
def perm_tuples(draw, count: int, max_degree: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    return tuple(Perm(tuple(draw(st.permutations(range(n))))) for _ in range(count))


class TestPerm:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))
        with pytest.raises(ValueError):
            Perm((0, 1, 3))

    def test_rejects_images_that_are_not_a_tuple_of_ints(self):
        with pytest.raises(ValueError, match="must be a tuple of ints"):
            Perm([1, 0])

    def test_rejects_float_images(self):
        with pytest.raises(ValueError, match="must be a tuple of ints"):
            Perm((0.0, 1.0))

    def test_rejects_bool_images(self):
        # A bool image would make the point True a member of a finite action.
        with pytest.raises(ValueError, match="must be a tuple of ints"):
            Perm((True, False, 2))

    @given(perm_tuples(count=3))
    def test_unchecked_products_and_inverses_equal_checked_ones(self, perms):
        # compose and inverse build their results without re-validating them.
        p, q, r = perms
        built = [compose(p, q), p * q * r, p.inverse(), compose(q.inverse(), p)]
        checked = [Perm(x.images) for x in built]
        for x, y in zip(built, checked):
            assert x == y and y == x
            assert hash(x) == hash(y)
            assert x <= y <= x and not x < y and not y < x
        for (x, y), (x2, y2) in itertools.product(zip(built, checked), repeat=2):
            assert (x < x2) == (y < y2) == (x < y2) == (y < x2)
        assert len(set(built) | set(checked)) == len(set(built))

    def test_compose_applies_left_factor_first(self):
        # 0 -> 1 under (0 1), then 1 -> 2 under (0 1 2)
        assert compose(SWAP3, ROT3) == Perm((2, 1, 0))
        assert SWAP3 * ROT3 == Perm((2, 1, 0))
        assert ROT3 * SWAP3 == Perm((1, 2, 0)) * SWAP3 == Perm((0, 2, 1))

    def test_compose_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(SWAP3, Perm((1, 0)))

    def test_from_cycles_combines_left_to_right(self):
        assert Perm.from_cycles([(0, 1), (1, 2)], 3) == Perm((2, 0, 1))
        assert Perm.from_cycles([], 3) == Perm.identity(3)

    def test_from_cycles_rejects_bad_cycles(self):
        with pytest.raises(ValueError):
            Perm.from_cycles([(0, 0)], 3)
        with pytest.raises(ValueError):
            Perm.from_cycles([(0, 3)], 3)

    def test_cycles_starts_each_cycle_at_least_point(self):
        p = Perm.from_cycles([(2, 4), (0, 3, 1)], 5)
        assert p.cycles() == [(0, 3, 1), (2, 4)]
        assert Perm.identity(3).cycles() == []

    @given(perm_tuples(count=3))
    def test_associativity(self, perms):
        p, q, r = perms
        assert (p * q) * r == p * (q * r)

    @given(perm_tuples(count=1))
    def test_inverse_roundtrip(self, perms):
        p, = perms
        assert p * p.inverse() == Perm.identity(p.degree)
        assert p.inverse() * p == Perm.identity(p.degree)

    @given(perm_tuples(count=1))
    def test_cycles_rebuild_the_permutation(self, perms):
        p, = perms
        assert Perm.from_cycles(p.cycles(), p.degree) == p


class TestClosure:
    def test_sym3_breadth_first_listing_is_reproducible(self):
        G = closure([SWAP3, ROT3])
        assert [p.images for p in G.elements] == [
            (0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0), (0, 2, 1), (2, 0, 1)]

    def test_identity_always_listed_first(self):
        for G in (cyclic_group(5), alternating_group(4), quaternion_group()):
            assert G.elements[0] == G.identity

    def test_cap_is_enforced(self, monkeypatch):
        gens = symmetric_group(5).generators
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 100)
        with pytest.raises(GroupTooLargeError,
                           match="^too large for the closure cap: group order at least 101 > 100$"):
            closure(gens)

    def test_image_entry_budget_is_enforced(self, monkeypatch):
        # Sym(4) is 24 elements of degree 4: 96 image entries.
        gens = symmetric_group(4).generators
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 96)
        assert len(closure(gens)) == 24
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 95)
        with pytest.raises(GroupTooLargeError, match=r"^too large for the image-entry budget: "
                           r"24 elements of degree 4 hold 96 > 95$"):
            closure(gens)
        # A cap below the budget keeps its own message.
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 10)
        with pytest.raises(GroupTooLargeError,
                           match=r"^too large for the closure cap: group order at least 11 > 10$"):
            closure(gens)

    def test_the_search_stops_one_past_the_budget(self, monkeypatch):
        found, closed_images = [], groups._closed_images

        def counting(*args):
            found.append(len(images := closed_images(*args)))
            return images

        gens = symmetric_group(5).generators
        monkeypatch.setattr(groups, "_closed_images", counting)
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 5 * 10)
        with pytest.raises(GroupTooLargeError,
                           match="image-entry budget: 11 elements of degree 5 hold 55 > 50$"):
            closure(gens)
        assert found == [11]

    def test_degree_zero_closes_to_the_identity(self):
        assert closure([Perm(())]).elements == (Perm(()),)

    def test_rejects_empty_or_mismatched_generators(self):
        with pytest.raises(ValueError):
            closure([])
        with pytest.raises(ValueError):
            closure([SWAP3, Perm((1, 0))])

    def test_constructor_orders(self):
        assert [cyclic_group(n).order for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]
        assert symmetric_group(4).order == 24
        assert alternating_group(3).order == 3
        assert alternating_group(4).order == 12
        assert alternating_group(5).order == 60
        assert klein_four_group().order == 4
        assert dihedral_group(3).order == 6
        assert dihedral_group(4).order == 8
        assert quaternion_group().order == 8

    def test_known_orders_are_refused_before_any_perm_is_made(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a permutation or a group was built")

        monkeypatch.setattr(groups, "closure", unbuilt)
        monkeypatch.setattr(Perm, "__init__", unbuilt)
        monkeypatch.setattr(Perm, "from_cycles", unbuilt)
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 3)
        # The order product stops once it passes the cap: 2 * 3 for Sym, 3 * 4 for Alt.
        for build, order in ((partial(symmetric_group, 10**9), 6),
                             (partial(alternating_group, 10**9), 12),
                             (partial(cyclic_group, 1001), 1001), (klein_four_group, 4)):
            with pytest.raises(GroupTooLargeError,
                               match=f"closure cap: group order at least {order} > 3$"):
                build()

    def test_right_maps_multiply_on_the_right(self):
        G = symmetric_group(4)
        for i in (0, 1, 7, 23):
            assert G.right_map(i) == [G.index_of(x * G.elements[i]) for x in G.elements]
        assert G.right_map(7) is G.right_map(7)
        assert G.right_map(0) == list(range(24))

    def test_past_the_budget_a_group_keeps_no_rows(self, monkeypatch):
        tabled = symmetric_group(4)
        # One slot short of all 24 rows: the group is built without a table.
        monkeypatch.setattr(groups, "RIGHT_MAP_BUDGET", 24 * 24 - 1)
        G = symmetric_group(4)
        assert tabled._rows is not None and G._rows is None
        for k in (1, 2):
            for gens in itertools.combinations(range(24), k):
                assert (list(groups.generated_indices(G, gens))
                        == list(groups.generated_indices(tabled, gens)))
        for g, h in itertools.product(G.elements, repeat=2):
            assert G.product(g, h) is G.elements[G.index_of(compose(g, h))]
        assert G._rows is None
        assert generates(G, G.generators) and not generates(G, G.generators[1:])

    def test_a_directly_built_group_answers_with_its_own_elements(self):
        # Listed so that the identity comes last, not first.
        G = FiniteGroup(3, [SWAP3, ROT3], reversed(closure([SWAP3, ROT3]).elements))
        assert G.identity is G.elements[5] and G.identity.is_identity()
        for g, h in itertools.product(G.elements, repeat=2):
            p = G.product(Perm(g.images), Perm(h.images))
            assert p == compose(g, h) and p is G.elements[G.index_of(p)]
            assert G.product(g, h) is p
        for g in G.elements:
            inverse = G.inverse(Perm(g.images))
            assert inverse == g.inverse() and inverse is G.elements[G.index_of(inverse)]
            assert G.product(g, inverse) is G.identity
        # Wreath arithmetic drops a coordinate once it is this group's identity.
        W = WreathProduct(G, IntTranslation())
        u = W.element({0: SWAP3, 1: ROT3}, 0)
        assert u * u.inverse() == W.identity() and u ** 6 == W.identity()

    def test_a_group_keeps_rows_exactly_when_all_of_them_fit(self):
        # 2048 rows of 2048 slots fill RIGHT_MAP_BUDGET; C_2049 keeps no
        # table.  Both multiply directly.
        for n, tabled in ((2048, True), (2049, False)):
            G = cyclic_group(n)
            g, h = G.elements[5], G.elements[7]
            assert G.product(g, h) is G.elements[G.index_of(compose(g, h))]
            assert (G._rows is not None) is tabled

    def test_products_begin_no_row_and_right_map_builds_whole_ones(self):
        G = cyclic_group(161)
        for g, h in itertools.product(G.elements[:9], repeat=2):
            assert G.product(g, h) is G.elements[G.index_of(compose(g, h))]
        assert G._rows == [None] * 161
        for i in (0, 7, 160):
            assert G.right_map(i) == [G.index_of(compose(x, G.elements[i]))
                                      for x in G.elements]
        assert [i for i, row in enumerate(G._rows) if row is not None] == [0, 7, 160]
        assert G.right_map(7) is G._rows[7]

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_filled_in_any_order_give_the_same_answers(self, seed):
        # Products, right_map building rows and generated_indices reading
        # them, interleaved at random; a fresh group is the reference.
        rng = random.Random(seed)
        G, fresh = dihedral_group(6), dihedral_group(6)
        n = len(G)
        pairs = list(itertools.product(range(n), repeat=2))
        rng.shuffle(pairs)
        for step, (i, j) in enumerate(pairs[:200]):
            g, h = G.elements[i], G.elements[j]
            assert G.product(g, h) is G.elements[G.index_of(compose(g, h))]
            if step % 7 == 0:
                k = rng.randrange(n)
                assert G.right_map(k) == [G.index_of(compose(x, G.elements[k]))
                                          for x in G.elements]
            if step % 11 == 0:
                gens = rng.sample(range(n), rng.randint(1, 2))
                assert (sorted(groups.generated_indices(G, gens))
                        == sorted(groups.generated_indices(fresh, gens)))
        for i, j in pairs:
            assert G.product(G.elements[i], G.elements[j]) == compose(G.elements[i],
                                                                      G.elements[j])
        assert all(G.right_map(k) == fresh.right_map(k) for k in range(n))

    def test_an_element_list_without_the_identity_is_refused(self):
        with pytest.raises(ValueError, match="lacks the identity"):
            FiniteGroup(3, [SWAP3], [SWAP3])

    def test_listing_equality_and_membership(self):
        G = closure([SWAP3, ROT3])
        assert G == closure([SWAP3, ROT3])
        assert hash(G) == hash(closure([SWAP3, ROT3]))
        # Same group from reordered generators lists the elements differently.
        H = closure([ROT3, SWAP3])
        assert set(G.elements) == set(H.elements)
        assert G != H
        assert SWAP3 in G and Perm((1, 0, 2)) in G
        assert (1, 0, 2) not in G and Perm((1, 0, 2, 3)) not in G
        assert G.index_of(SWAP3) == 1


class TestConjugacyClasses:
    def test_sym3_class_sizes(self):
        sizes = [len(c) for c in conjugacy_classes(symmetric_group(3))]
        assert sizes == [1, 3, 2]

    def test_alt5_class_sizes(self):
        # Listed in order of first appearance: identity, 3-cycles, the two
        # 5-cycle classes, double transpositions.
        sizes = [len(c) for c in conjugacy_classes(alternating_group(5))]
        assert sizes == [1, 20, 12, 12, 15]
        assert sorted(sizes) == [1, 12, 12, 15, 20]

    def test_identity_class_first_and_members_sorted(self):
        classes = conjugacy_classes(symmetric_group(3))
        assert classes[0].members == (Perm.identity(3),)
        for c in classes:
            assert c.members == tuple(sorted(c.members))
            assert c.representative in c

    def test_classes_partition_the_group(self):
        G = dihedral_group(4)
        classes = conjugacy_classes(G)
        members = [m for c in classes for m in c.members]
        assert sorted(members) == sorted(G.elements)

    def test_class_of_rejects_outsiders(self):
        G = symmetric_group(3)
        assert SWAP3 in class_of(G, Perm((0, 2, 1)))
        with pytest.raises(ValueError):
            class_of(G, Perm((0, 1, 2, 3)))

    def test_class_of_refuses_an_outsider_before_computing_any_class(self):
        G = symmetric_group(4)
        with pytest.raises(ValueError, match="is not an element of the group"):
            class_of(G, Perm((0, 1, 2)))
        assert G._classes is None
        assert len(class_of(G, G.elements[1])) == 6 and G._classes is not None


class TestGenerates:
    def test_full_generator_set(self):
        G = symmetric_group(3)
        assert generates(G, [SWAP3, ROT3])
        assert generates(G, G.elements)

    def test_proper_subset(self):
        G = symmetric_group(3)
        assert not generates(G, [SWAP3])
        assert not generates(G, [ROT3])

    def test_empty_set_generates_only_the_trivial_group(self):
        assert generates(cyclic_group(1), [])
        assert not generates(symmetric_group(3), [])

    def test_rejects_outsiders(self):
        with pytest.raises(ValueError):
            generates(symmetric_group(3), [Perm((1, 0))])


class TestMaximalSubgroups:
    """One maximal subgroup per conjugacy class of them, as element indices."""

    @staticmethod
    def sizes(G):
        return sorted(len(M) for M in maximal_subgroups(G))

    def test_sym3_has_two_maximal_classes(self):
        assert self.sizes(symmetric_group(3)) == [2, 3]

    def test_klein_four_has_three_maximal_classes(self):
        # Abelian: every class holds one subgroup.
        assert self.sizes(klein_four_group()) == [2, 2, 2]

    def test_dihedral4_has_three_maximal_classes(self):
        assert self.sizes(dihedral_group(4)) == [4, 4, 4]

    def test_quaternion_has_three_maximal_classes(self):
        assert self.sizes(quaternion_group()) == [4, 4, 4]

    def test_cyclic4_has_one_maximal_subgroup(self):
        maximal = maximal_subgroups(cyclic_group(4))
        assert len(maximal) == 1
        assert len(maximal[0]) == 2

    @pytest.mark.parametrize("G", [symmetric_group(3), symmetric_group(4), dihedral_group(4),
                                   alternating_group(5)], ids=["sym3", "sym4", "d4", "alt5"])
    def test_each_is_a_proper_subgroup_that_every_outside_element_completes(self, G):
        for M in maximal_subgroups(G):
            inside = [G.elements[i] for i in M]
            assert len(M) < len(G)
            assert all(compose(a, b) in inside for a in inside for b in inside)
            for g in set(range(len(G))) - M:
                assert generates(G, inside + [G.elements[g]])

    def test_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(groups, "SUBGROUP_WALK_BUDGET", 10)
        with pytest.raises(GroupTooLargeError, match="subgroup-walk budget"):
            maximal_subgroups(symmetric_group(4))

    def test_budget_is_checked_on_cached_groups_too(self, monkeypatch):
        # (24 + 10 kept classes * 17 cyclic subgroups) * (24 // 2 + 3) closure steps.
        G = symmetric_group(4)
        assert len(maximal_subgroups(G)) == 3
        monkeypatch.setattr(groups, "SUBGROUP_WALK_BUDGET", 2909)
        with pytest.raises(GroupTooLargeError, match="^too large for the subgroup-walk budget: "
                           "estimated closure steps 2910 > 2909$"):
            maximal_subgroups(G)
