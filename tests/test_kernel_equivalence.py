"""The index-based closure kernel, the image-tuple closure, the listed cyclic
groups, the named groups, wreath arithmetic with finite heads, the alpha/beta
closed forms and the explicit invariable generating sets against test-local
copies of the code they replaced: element orders, closure orders, tuple-search
witnesses, conjugacy classes, the maximal subgroups, wreath products, closed
forms, head orbits and generating lists must all come out the same."""

import ast
import itertools
import random
import re
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathgen import groups
from wreathgen.actions import (FiniteAction, IntTranslation, apply, cyclic_orbit,
                               orbit_reps, regular_action)
from wreathgen.constructions import (alpha_power_form, assemble_alpha_power, assemble_beta,
                                     beta, build_alpha, nottorsion_igset, torsion_igset)
from wreathgen.groups import (FiniteGroup, GroupTooLargeError, Perm, alternating_group,
                              class_of, closure, compose, conjugacy_classes, cyclic_group,
                              generated_indices, generates, klein_four_group,
                              maximal_subgroups, symmetric_group)
from wreathgen.invgen import invariably_generates, invariably_generates_oracle
from wreathgen.parsing import parse_ambient, parse_group_spec
from wreathgen.verify import random_alpha
from wreathgen.wreath import WreathProduct

from small_groups import dihedral_group, quaternion_group

# -- the replaced code, kept here as the reference ----------------------------------


def old_closure(generators):
    """Breadth-first closure in Perm space: the elements in discovery order."""
    identity = Perm.identity(generators[0].degree)
    elements, seen = [identity], {identity}
    i = 0
    while i < len(elements):
        x = elements[i]
        i += 1
        for g in generators:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def old_invariably_generates(G, S, prune):
    elements = list(dict.fromkeys(S))
    pools = [class_of(G, s).members for s in elements]
    if prune:
        pools[0] = (elements[0],)
    for choice in itertools.product(*pools):
        sub = len(old_closure(choice))
        if sub != len(G):
            return False, tuple(zip(elements, choice)), sub
    return True, None, None


def old_conjugacy_classes(G):
    """Each class as the set of conjugates of its rep by every element of G."""
    inverses = {a: a.inverse() for a in G.elements}
    classes, assigned = [], set()
    for rep in G.elements:
        if rep in assigned:
            continue
        members = {compose(compose(inverses[a], rep), a) for a in G.elements}
        assigned |= members
        classes.append((rep, tuple(sorted(members))))
    return classes


def old_all_subgroups(G):
    """The fixpoint of pairwise joins of cyclic subgroups, closing A | C."""
    cyclics = {frozenset(old_closure([g])) for g in G.elements}
    subgroups = set(cyclics)
    frontier = list(subgroups)
    while frontier:
        fresh = []
        for A in frontier:
            for C in cyclics:
                if C <= A:
                    continue
                J = frozenset(old_closure(sorted(A | C)))
                if J not in subgroups:
                    subgroups.add(J)
                    fresh.append(J)
        frontier = fresh
    return sorted((tuple(sorted(s)) for s in subgroups), key=lambda t: (len(t), t))


def old_joined_subgroups(G):
    """all_subgroups' fixpoint, which the walk over subgroup classes replaced:
    every subgroup as element indices, each join closing the joined subgroup's
    stored generators plus one cyclic generator."""
    cyclics = {}
    for g in range(len(G)):
        cyclics.setdefault(frozenset(generated_indices(G, [g])), g)
    subgroups = {C: [g] for C, g in cyclics.items()}
    frontier = list(subgroups.items())
    while frontier:
        fresh = []
        for A, gens in frontier:
            for c in cyclics.values():
                if c in A:
                    continue
                joined = gens + [c]
                J = frozenset(generated_indices(G, joined))
                if J not in subgroups:
                    subgroups[J] = joined
                    fresh.append((J, joined))
        frontier = fresh
    return set(subgroups)


def old_row_search(G, generators):
    """generated_indices' own loop over right-multiplication rows."""
    gens = dict.fromkeys(generators)
    n = len(G)
    half = n // 2
    maps = [G.right_map(i) for i in gens]
    start = G.index_of(G.identity)
    found = [start]
    seen = bytearray(n)
    seen[start] = 1
    for x in found:
        for m in maps:
            y = m[x]
            if not seen[y]:
                seen[y] = 1
                found.append(y)
        if len(found) > half:
            return range(n)
    return found


def old_class_lists(G):
    """conjugacy_classes' own loop: the class number of every element and
    each class as (representative, sorted members)."""
    elements, index = G.elements, G._index
    conjugators = [(s.inverse().images, s.images) for s in G.generators]
    class_index = [-1] * len(elements)
    classes = []
    for i, rep in enumerate(elements):
        if class_index[i] >= 0:
            continue
        class_index[i] = len(classes)
        orbit = [i]
        for j in orbit:
            x = elements[j].images
            for s_inv, s in conjugators:
                y = index[tuple([s[x[k]] for k in s_inv])]
                if class_index[y] < 0:
                    class_index[y] = len(classes)
                    orbit.append(y)
        orbit.sort(key=lambda j: elements[j].images)
        classes.append((rep, tuple(elements[j] for j in orbit)))
    return class_index, classes


def old_orbit_reps(action):
    """orbit_reps' own stack search over point maps."""
    moves = [action.point_map(g) for g in action.head.generators]
    seen, reps = set(), []
    for x in action.points():
        if x in seen:
            continue
        reps.append(x)
        frontier = [x]
        seen.add(x)
        while frontier:
            y = frontier.pop()
            for move in moves:
                z = move(y)
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return reps


def old_cyclic_orbit(action, x, k):
    """cyclic_orbit's own walk for a finite head."""
    orbit = [x]
    y = apply(action, x, k)
    move = action.point_map(k)
    while y != x:
        orbit.append(y)
        y = move(y)
    return orbit


def old_compose_images(p, q):
    """compose's own comprehension: x -> q(p(x))."""
    qi = q.images
    return tuple([qi[i] for i in p.images])


def old_product(G, g, h):
    """FiniteGroup.product's own guard and itemgetter."""
    if G.degree < 2:
        return G.identity
    return G.elements[G._index[itemgetter(*g.images)(h.images)]]


def old_right_map(G, i):
    """right_map's own comprehension: j -> the index of elements[j] * elements[i]."""
    g, index = G.elements[i].images, G._index
    return [index[tuple([g[k] for k in x.images])] for x in G.elements]


def old_conjugation_maps(G):
    """_conjugation_maps' own comprehension: j -> the index of s^-1 * elements[j] * s."""
    index = G._index
    conjugators = [(s.inverse().images, s.images) for s in G.generators]
    images = [p.images for p in G.elements]
    return [[index[tuple([s[x[k]] for k in s_inv])] for x in images]
            for s_inv, s in conjugators]


def old_regular_generators(H):
    """regular_action's own loop: one composition and one index_of per entry."""
    gens = []
    for h in H.generators:
        gens.append(Perm(tuple(H.index_of(Perm(old_compose_images(x, h))) for x in H.elements)))
    return gens


def old_class_loop(G):
    """conjugacy_classes' own loop: each element not yet classed walks its _orbit."""
    elements, maps = G.elements, old_conjugation_maps(G)
    seen = bytearray(len(elements))
    class_index = [0] * len(elements)
    classes = []
    for i, rep in enumerate(elements):
        if seen[i]:
            continue
        orbit = groups._orbit(maps, i, seen)
        for j in orbit:
            class_index[j] = len(classes)
        orbit.sort(key=lambda j: elements[j].images)
        classes.append((rep, tuple(elements[j] for j in orbit)))
    return class_index, classes


def old_orbit_reps_loop(action):
    """orbit_reps' own loop: each point not yet seen walks its _orbit."""
    maps = [g.images for g in action.head.generators]
    seen = bytearray(action.degree)
    reps = []
    for x in action.points():
        if not seen[x]:
            reps.append(x)
            groups._orbit(maps, x, seen)
    return reps


def old_symmetric_group(n):
    """symmetric_group's own branches on n."""
    if n == 1:
        return closure([Perm.identity(1)])
    swap = Perm.from_cycles([(0, 1)], n)
    if n == 2:
        return closure([swap])
    return closure([swap, Perm(tuple((i + 1) % n for i in range(n)))])


def old_alternating_group(n):
    """alternating_group's own branches on n."""
    if n <= 2:
        return closure([Perm.identity(n)])
    three = Perm.from_cycles([(0, 1, 2)], n)
    if n == 3:
        return closure([three])
    if n % 2:
        long_cycle = Perm.from_cycles([tuple(range(n))], n)
    else:
        long_cycle = Perm.from_cycles([tuple(range(1, n))], n)
    return closure([three, long_cycle])


def old_klein_four_group():
    return closure([Perm.from_cycles([(0, 1), (2, 3)], 4), Perm.from_cycles([(0, 2), (1, 3)], 4)])


def old_torsion_igset(W, G_igset, H_igset):
    """torsion_igset's own loops over the (already checked) input sets."""
    out = []
    for y in orbit_reps(W.action):
        for g in G_igset:
            element = W.base_embed(g, y)
            if element.base and element not in out:
                out.append(element)
    for h in H_igset:
        element = W.head_embed(h)
        if h != W.action.head_identity() and element not in out:
            out.append(element)
    return tuple(out)


def old_nottorsion_igset(W, gens, t, S_H):
    """nottorsion_igset's own push closure over the (already checked) inputs."""
    out = []

    def push(element):
        if element != W.identity() and element not in out:
            out.append(element)

    for s in S_H:
        push(W.head_embed(s))
    shift = W.head_embed(t)
    for g in gens:
        push(W.base_embed(g, 0))
    for g in gens:
        push(W.base_embed(g, 0) * shift)
    push(shift)
    return tuple(out)


# -- groups -------------------------------------------------------------------------


def perm_group(degree, *cycle_lists) -> FiniteGroup:
    return closure([Perm.from_cycles(cycles, degree) for cycles in cycle_lists])


def embedded_72() -> FiniteGroup:
    """Sym(3) wr C2 in its imprimitive action on six points."""
    P, _ = parse_ambient("sym 3 wr (cyclic 2, natural)").imprimitive_embedding()
    return P


GROUPS = {
    "sym4": symmetric_group(4),
    "q8": quaternion_group(),
    "d4": dihedral_group(4),
    "embedded72": embedded_72(),
}


def nonidentity_reps(G):
    return [c.representative for c in conjugacy_classes(G)][1:]


class TestClosureKernel:
    @staticmethod
    def check_every_conjugate_pair(G, name):
        # Up to simultaneous conjugation a pair is (class rep, anything), so
        # on the order-72 group those pairs cover every conjugate tuple.
        assert G.order == {"sym4": 24, "q8": 8, "d4": 8, "embedded72": 72}[name]
        firsts = G.elements if G.order <= 24 else [c.representative for c in conjugacy_classes(G)]
        proper = 0
        for x, y in itertools.product(firsts, G.elements):
            expected = len(old_closure([x, y]))
            got = generated_indices(G, [G.index_of(x), G.index_of(y)])
            assert len(got) == expected, (x, y)
            assert generates(G, [x, y]) is (expected == G.order)
            if expected < G.order:
                proper += 1
                assert sorted(G.elements[i] for i in got) == sorted(old_closure([x, y]))
            else:
                assert got == range(G.order)
        assert proper > 0

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_order_equals_perm_closure_on_every_conjugate_pair(self, name):
        self.check_every_conjugate_pair(GROUPS[name], name)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_search_past_the_row_table_equals_perm_closure_on_every_conjugate_pair(
            self, name, monkeypatch):
        # A group that keeps no row table closes over images, breadth-first
        # like old_closure, so a proper subgroup is listed in its order.
        monkeypatch.setattr(groups, "RIGHT_MAP_BUDGET", 0)
        tabled = GROUPS[name]
        G = FiniteGroup(tabled.degree, tabled.generators, tabled.elements)
        assert G._rows is None
        self.check_every_conjugate_pair(G, name)
        for x, y in itertools.product(G.elements, repeat=2):
            got = generated_indices(G, [G.index_of(x), G.index_of(y)])
            if len(got) < G.order:
                assert [G.elements[i] for i in got] == old_closure([x, y]), (x, y)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_tuple_search_keeps_witnesses_and_orders(self, name):
        G = GROUPS[name]
        failures = 0
        for k in (1, 2):
            for S in itertools.permutations(nonidentity_reps(G), k):
                ok, witness = invariably_generates(G, S)
                old_ok, old_choice, old_order = old_invariably_generates(G, S, prune=True)
                assert ok is old_ok, S
                # Pinning the first coordinate changes no answer.
                assert old_invariably_generates(G, S, prune=False)[0] is ok, S
                if not ok:
                    failures += 1
                    assert witness.choice == old_choice
                    assert witness.generated_order == old_order < G.order
        assert failures > 0

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_row_search_lists_every_pair_in_the_old_order(self, name):
        G = GROUPS[name]
        for x, y in itertools.product(range(len(G)), repeat=2):
            got = generated_indices(G, [x, y])
            expected = old_row_search(G, [x, y])
            assert type(got) is type(expected) and list(got) == list(expected), (x, y)

    def test_whole_group_stops_past_half(self):
        G = symmetric_group(4)
        swap, four_cycle = G.generators
        assert generated_indices(G, [G.index_of(swap), G.index_of(four_cycle)]) == range(24)
        assert len(generated_indices(G, [G.index_of(four_cycle)])) == 4


class TestConjugacyClasses:
    @pytest.mark.parametrize("G", [symmetric_group(5), alternating_group(5),
                                   quaternion_group(), GROUPS["embedded72"]],
                             ids=["sym5", "alt5", "q8", "embedded72"])
    def test_generator_orbits_equal_all_conjugator_classes(self, G):
        got = [(c.representative, c.members) for c in conjugacy_classes(G)]
        assert got == old_conjugacy_classes(G)

    @pytest.mark.parametrize("G", [
        symmetric_group(5), alternating_group(5), quaternion_group(), GROUPS["embedded72"],
        # Listed so that the identity comes last, not first.
        FiniteGroup(3, symmetric_group(3).generators, reversed(symmetric_group(3).elements)),
    ], ids=["sym5", "alt5", "q8", "embedded72", "reversed-sym3"])
    def test_every_element_keeps_the_old_loops_class(self, G):
        class_index, classes = old_class_lists(G)
        assert [(c.representative, c.members) for c in conjugacy_classes(G)] == classes
        for i, g in enumerate(G.elements):
            c = class_of(G, g)
            assert (c.representative, c.members) == classes[class_index[i]]


class TestHeadOrbits:
    @pytest.mark.parametrize("action", [
        FiniteAction(parse_group_spec("sym 3")), FiniteAction(parse_group_spec("klein4")),
        FiniteAction(parse_group_spec("perm 5: (0 1), (2 3 4)")),
        regular_action(symmetric_group(3)),
    ], ids=["sym3", "klein4", "perm5", "regular-sym3"])
    def test_orbit_reps_and_cyclic_orbits_match_the_old_walks(self, action):
        assert orbit_reps(action) == old_orbit_reps(action)
        for x, k in itertools.product(action.points(), action.head.elements):
            assert cyclic_orbit(action, x, k) == old_cyclic_orbit(action, x, k), (x, k)


# Degrees 0 and 1, where only the identity exists; 2 and 3; 256, the last degree
# whose points fit a byte, and 257; the regular heads of ROADMAP item 8's list.
RULE_GROUPS = {
    "degree0": closure([Perm(())]), "degree1": symmetric_group(1),
    "degree2": symmetric_group(2), "degree3": symmetric_group(3),
    "degree256": perm_group(256, [(0, 255)], [(0, 1, 255)]),
    "degree257": perm_group(257, [(254, 255, 256)], [(0, 256)]),
    **GROUPS,
    **{f"regular-{name}": regular_action(H).head for name, H in [
        ("c12", cyclic_group(12)), ("klein4", klein_four_group()), ("sym3", symmetric_group(3)),
        ("sym4", symmetric_group(4)), ("sym5", symmetric_group(5))]},
    "c2-wr-sym1-head": parse_ambient("cyclic 2 wr (sym 1, natural)").action.head,
}


class TestCompositionRule:
    """compose, product, the right rows, the conjugation maps and the regular
    action all read "x then g" through one rule; each must equal the
    comprehension or loop it replaced."""

    @pytest.mark.parametrize("name", sorted(RULE_GROUPS))
    def test_every_composition_equals_the_replaced_code(self, name):
        G = RULE_GROUPS[name]
        for g, h in itertools.product(G.elements, repeat=2):
            assert compose(g, h).images == old_compose_images(g, h), (g, h)
            assert G.product(g, h) is old_product(G, g, h), (g, h)
        n = len(G)
        assert [G.right_map(i) for i in range(n)] == [old_right_map(G, i) for i in range(n)]
        assert groups._conjugation_maps(G) == old_conjugation_maps(G)

    @pytest.mark.parametrize("name", sorted(RULE_GROUPS))
    def test_regular_action_equals_the_replaced_loop(self, name):
        H = RULE_GROUPS[name]
        old = old_regular_generators(H)
        assert [Perm(tuple(groups._index_map(H, None, h))) for h in H.generators] == old
        head, expected = regular_action(H).head, closure(old)
        assert (head.generators, head.elements) == (expected.generators, expected.elements)

    def test_a_degree_mismatch_is_still_refused(self):
        with pytest.raises(ValueError, match="degree mismatch: 1 vs 0"):
            compose(Perm((0,)), Perm(()))

    def test_a_one_point_head_multiplies_like_the_compose_copy(self):
        W = parse_ambient("cyclic 2 wr (sym 1, natural)")
        elements = W.enumerate_elements()
        assert len(elements) == 2
        for u, v in itertools.product(elements, repeat=2):
            assert u * v == old_mul(u, v)


class TestOrbitPartition:
    """The conjugacy classes and the head orbits come from one partition loop;
    each must equal the loop it replaced."""

    @pytest.mark.parametrize("G", [
        *RULE_GROUPS.values(), symmetric_group(6), alternating_group(5),
        # Listed so that the identity comes last, not first.
        FiniteGroup(3, symmetric_group(3).generators, reversed(symmetric_group(3).elements)),
    ], ids=[*RULE_GROUPS, "sym6", "alt5", "reversed-sym3"])
    def test_classes_and_class_index_equal_the_replaced_loop(self, G):
        class_index, classes = old_class_loop(G)
        assert [(c.representative, c.members) for c in conjugacy_classes(G)] == classes
        assert G._class_index == class_index

    @pytest.mark.parametrize("spec", [
        "cyclic 2 wr perm-action 7: (0 1 2), (3 4)", "cyclic 2 wr perm-action 10: (0 1)",
        "cyclic 2 wr perm-action 9: (8 7 6), (5 2)", "cyclic 2 wr (sym 1, natural)",
        "cyclic 2 wr (sym 4, natural)", "cyclic 2 wr (klein4, regular)",
    ])
    def test_orbit_reps_equal_the_replaced_loop(self, spec):
        action = parse_ambient(spec).action
        assert orbit_reps(action) == old_orbit_reps_loop(action)

    def test_orbit_reps_with_fixed_points(self):
        action = parse_ambient("cyclic 2 wr perm-action 7: (0 1 2), (3 4)").action
        assert orbit_reps(action) == [0, 3, 5, 6]
        action = parse_ambient("cyclic 2 wr perm-action 10: (0 1)").action
        assert orbit_reps(action) == [0, *range(2, 10)]
        assert orbit_reps(FiniteAction(closure([Perm(())]))) == []

    def test_an_interrupted_call_leaves_no_classes(self, monkeypatch):
        class Interrupted(Exception):
            pass

        made = []

        def third_raises(*fields):
            made.append(fields)
            if len(made) == 3:
                raise Interrupted
            return real(*fields)

        G, real = symmetric_group(4), groups.ConjClass
        monkeypatch.setattr(groups, "ConjClass", third_raises)
        with pytest.raises(Interrupted):
            conjugacy_classes(G)
        assert len(made) == 3
        assert G._classes is None and G._class_index == []
        monkeypatch.undo()
        assert [c.representative for c in conjugacy_classes(G)] == \
            [rep for rep, _ in old_class_loop(G)[1]]


class TestSubgroups:
    """maximal_subgroups keeps exactly one member of each conjugacy class of the
    maximal subgroups of a reference lattice, found by the old containment pass."""

    @staticmethod
    def check_one_per_class(G, subgroups):
        proper = [s for s in subgroups if len(s) < len(G)]
        maximal = [s for s in proper if not any(s < t for t in proper if len(t) > len(s))]
        inverses = {g: g.inverse() for g in G.elements}
        classes = {frozenset(frozenset(G.index_of(compose(compose(inverses[g], G.elements[i]), g))
                                       for i in M) for g in G.elements) for M in maximal}
        got = maximal_subgroups(G)
        assert all(sum(M in c for M in got) == 1 for c in classes)
        assert len(got) == len(classes)

    @pytest.mark.parametrize("G", [
        cyclic_group(1), symmetric_group(3), klein_four_group(), quaternion_group(),
        dihedral_group(4), alternating_group(4), dihedral_group(6), cyclic_group(12),
        symmetric_group(4), dihedral_group(12),
        # C2^3 and C2 x D4 have subgroups that need three generators.
        perm_group(6, [(0, 1)], [(2, 3)], [(4, 5)]),
        perm_group(6, [(0, 1)], [(2, 3, 4, 5)], [(2, 4)]),
    ], ids=["c1", "sym3", "klein4", "q8", "d4", "alt4", "d6", "c12", "sym4", "d12",
            "c2^3", "c2xd4"])
    def test_one_maximal_subgroup_per_class_of_the_old_fixpoint(self, G):
        assert len(G) <= 24
        subgroups = {frozenset(map(G.index_of, s)) for s in old_all_subgroups(G)}
        assert old_joined_subgroups(G) == subgroups
        self.check_one_per_class(G, subgroups)

    # The Perm-space fixpoint takes 0.7-26 s on these; the join fixpoint, equal
    # to it on the groups above, takes under 0.2 s.
    @pytest.mark.parametrize("G", [
        alternating_group(5), symmetric_group(5), GROUPS["embedded72"],
        parse_ambient("cyclic 3 wr (sym 3, natural)").imprimitive_embedding()[0],
    ], ids=["alt5", "sym5", "embedded72", "embedded162"])
    def test_one_maximal_subgroup_per_class_of_the_replaced_join_fixpoint(self, G):
        self.check_one_per_class(G, old_joined_subgroups(G))


class TestImageTupleClosure:
    """closure searches over image tuples and cyclic_group lists its
    elements; both must give old_closure's elements in its order."""

    NAMED = {
        **{f"sym {n}": symmetric_group(n) for n in range(1, 7)},
        **{f"alt {n}": alternating_group(n) for n in range(1, 7)},
        **{f"cyclic {n}": cyclic_group(n) for n in range(1, 65)},
        "klein4": klein_four_group(),
    }

    @staticmethod
    def check(gens, expected):
        """closure(gens) lists `expected` and keeps the first occurrence of each
        generator but the identity, or the first generator when all are the
        identity; it passes at a closure cap of |G| and is refused at |G| - 1."""
        order, kept = len(expected), []
        for g in gens:
            if g not in kept and not g.is_identity():
                kept.append(g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups, "DEFAULT_CLOSURE_CAP", order)
            G = closure(gens)
            assert list(G.elements) == expected
            assert list(G.generators) == (kept or gens[:1])
            patch.setattr(groups, "DEFAULT_CLOSURE_CAP", order - 1)
            with pytest.raises(GroupTooLargeError,
                               match=f"^too large for the closure cap: group order at least "
                                     f"{order} > {order - 1}$"):
                closure(gens)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_groups_keep_the_perm_space_order(self, name):
        G = self.NAMED[name]
        expected = old_closure(list(G.generators))
        assert list(G.elements) == expected
        self.check(list(G.generators), expected)

    # Groups on either side of the largest degree whose points fit a byte.
    BYTE_BOUNDARY = {
        **{f"perm {n}: (0 {n - 1}), (0 1 2)": n for n in (255, 256, 257)},
        **{f"perm {n}: ({' '.join(map(str, range(n)))})": n for n in (255, 256, 257)},
    }

    @pytest.mark.parametrize("spec", BYTE_BOUNDARY,
                             ids=[f"{kind}-{n}" for kind in ("sym4", "cycle")
                                  for n in (255, 256, 257)])
    def test_groups_either_side_of_a_byte_keep_the_perm_space_order(self, spec):
        gens = list(parse_group_spec(spec).generators)
        assert gens[0].degree == self.BYTE_BOUNDARY[spec]
        expected = old_closure(gens)
        assert len(expected) in (24, gens[0].degree)
        self.check(gens, expected)
        for p in closure(gens).elements:
            assert type(p.images) is tuple and all(type(x) is int for x in p.images)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_cyclic_groups_are_listed_as_closure_finds_them(self, n):
        G = cyclic_group(n)
        (r,) = G.generators
        assert r == Perm(tuple((i + 1) % n for i in range(n)))
        assert G.elements == closure([r]).elements
        assert G.identity is G.elements[0]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(lambda p: Perm(tuple(p))), min_size=1, max_size=3)))
    def test_drawn_generator_lists_keep_the_perm_space_order(self, gens):
        self.check(gens, old_closure(gens))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(lambda p: Perm(tuple(p))), min_size=1, max_size=3).flatmap(
        lambda perms: st.lists(st.sampled_from([*perms, Perm.identity(n)]), min_size=1,
                               max_size=6))))
    def test_drawn_lists_with_repeats_and_identities_keep_the_perm_space_order(self, gens):
        self.check(gens, old_closure(gens))


def old_mul(u, v):
    """(w1, k1)(w2, k2) = (x -> w1(x) * w2(x.k1), k1 k2) over every point,
    heads and coordinates through compose."""
    W = u.ambient
    identity = W.base_group.identity
    left, right = dict(u.base), dict(v.base)
    base = {x: compose(left.get(x, identity), right.get(u.head.images[x], identity))
            for x in W.action.points()}
    return W.element({x: g for x, g in base.items() if not g.is_identity()},
                     compose(u.head, v.head))


def old_inverse(u):
    """(w, k)^-1 = (x.k -> w(x)^-1, k^-1), through Perm.inverse."""
    flipped = {u.head.images[x]: g.inverse() for x, g in u.base}
    return u.ambient.element(flipped, u.head.inverse())


def old_pow(u, n):
    """u^n as |n| products by u or by its inverse."""
    step = u if n >= 0 else old_inverse(u)
    result = u.ambient.identity()
    for _ in range(abs(n)):
        result = old_mul(result, step)
    return result


FINITE_WREATH = [
    "cyclic 2 wr (cyclic 2, natural)", "klein4 wr (cyclic 2, natural)",
    "cyclic 2 wr (sym 3, natural)", "cyclic 2 wr (klein4, natural)",
    "sym 3 wr (cyclic 2, natural)", "cyclic 3 wr (sym 3, natural)",
    "alt 4 wr (cyclic 2, natural)", "cyclic 2 wr (sym 3, regular)",
    "sym 3 wr (cyclic 3, natural)",
]


class TestFiniteHeads:
    """Finite heads multiply through the head group's own elements; the
    products, inverses and powers must equal the compose-based copies."""

    @pytest.mark.parametrize("spec", FINITE_WREATH)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_arithmetic_equals_the_compose_copy(self, spec, data):
        W = parse_ambient(spec)
        G, H = W.base_group, W.action.head

        def draw():
            # Copies of the groups' elements, so nothing starts out shared.
            picks = data.draw(st.lists(st.integers(0, len(G) - 1), min_size=H.degree,
                                       max_size=H.degree))
            head = H.elements[data.draw(st.integers(0, len(H) - 1))]
            return W.element({x: Perm(G.elements[i].images) for x, i in enumerate(picks)},
                             Perm(head.images))

        u, v = draw(), draw()
        results = [(u * v, old_mul(u, v)), (u.inverse(), old_inverse(u))]
        results += [(u ** n, old_pow(u, n)) for n in range(-5, 6)]
        for got, expected in results:
            assert got == expected
            assert got.head is H.elements[H.index_of(got.head)]

    @pytest.mark.parametrize("spec", FINITE_WREATH + ["sym 3 wr int-translation"])
    def test_equal_ambients_hash_equal(self, spec):
        W, again = parse_ambient(spec), parse_ambient(spec)
        assert W is not again and W == again
        assert hash(W) == hash(again) == hash((W.base_group, W.action))
        assert hash(W.identity()) == hash(again.identity())


# -- the alpha/beta closed forms ----------------------------------------------------


def old_assemble(alpha_e, alpha_f, m, n=0, conjugated=False):
    """The closed form built block by block: each block a validated pure base
    element over the conjugators' identity-filled windows, multiplied with
    wreath `*`."""
    W = alpha_e.element.ambient

    def window(alpha):
        c = alpha.support_radius
        return [(i, alpha.conjugator.coordinate(i)) for i in range(-c + 1, c)]

    a_window, b_window, f = window(alpha_e), window(alpha_f), alpha_f.g
    blocks = [
        {i: g.inverse() for i, g in a_window},
        {i + m - n: g for i, g in a_window},
        {i + m - n: g.inverse() for i, g in b_window},
        {j - n: f for j in range(1, m + 1)},
        {i - n: g for i, g in b_window},
    ]
    if conjugated:
        blocks += [
            {i - n: g.inverse() for i, g in a_window},
            {i: g for i, g in a_window},
        ]
    result = W.identity()
    for block in blocks:
        result = result * W.element(block, W.action.head_identity())
    return result


class TestClosedForms:
    """assemble_alpha_power and assemble_beta fold the blocks pointwise; they
    must equal the block-by-block copy and the literal wreath products."""

    BASES = {"cyclic 4": cyclic_group(4), "alt 4": alternating_group(4),
             "klein4": klein_four_group(), "sym 4": symmetric_group(4),
             "cyclic 1": cyclic_group(1)}

    @staticmethod
    def alphas(W, rng):
        """Pairs (alpha_e, alpha_f): empty conjugators, one-point conjugators
        and random ones up to radius 3, with g the identity and not."""
        G = W.base_group
        identity, last = G.identity, G.elements[-1]
        pairs = [(build_alpha(W, identity, {}, {}), build_alpha(W, g, {}, {}))
                 for g in (identity, last)]
        pairs.append((build_alpha(W, identity, {-1: last}, {}),
                      build_alpha(W, last, {}, {2: last})))
        for radius in range(4):
            for _ in range(6):
                pairs.append((random_alpha(rng, W, identity, radius),
                              random_alpha(rng, W, rng.choice(G.elements), radius)))
        return pairs

    @pytest.mark.parametrize("name", BASES)
    def test_closed_forms_equal_the_block_copy_and_the_literal_forms(self, name):
        W = WreathProduct(self.BASES[name], IntTranslation())
        rng = random.Random(name)
        for alpha_e, alpha_f in self.alphas(W, rng):
            for m in range(0, 6):
                power = assemble_alpha_power(alpha_e, alpha_f, m)
                assert power == old_assemble(alpha_e, alpha_f, m)
                assert power == alpha_power_form(alpha_e, alpha_f, m)
                for n in (0, 1, m, m + 2):
                    closed = assemble_beta(alpha_e, alpha_f, m, n)
                    assert closed == old_assemble(alpha_e, alpha_f, m, n, conjugated=True)
                    assert closed == beta(alpha_e, alpha_f, m, n)

    @pytest.mark.parametrize("name", BASES)
    def test_closed_forms_hold_the_base_groups_own_elements(self, name):
        W = WreathProduct(self.BASES[name], IntTranslation())
        G = W.base_group
        for alpha_e, alpha_f in self.alphas(W, random.Random(name)):
            for u in (assemble_alpha_power(alpha_e, alpha_f, 4),
                      assemble_beta(alpha_e, alpha_f, 4, 6)):
                assert all(g is G.elements[G.index_of(g)] for _, g in u.base)


# -- generating lists: one membership check, first occurrences kept -----------------


class TestGeneratingLists:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_named_groups_equal_their_old_branches(self, n):
        for new, old in [(symmetric_group, old_symmetric_group),
                         (alternating_group, old_alternating_group)]:
            got, expected = new(n), old(n)
            assert (got.generators, got.elements) == (expected.generators, expected.elements)

    def test_klein_four_equals_its_old_listing(self):
        got, expected = klein_four_group(), old_klein_four_group()
        assert (got.generators, got.elements) == (expected.generators, expected.elements)

    def test_igsets_with_repeats_and_identities_equal_the_old_loops(self):
        W = parse_ambient("sym 3 wr perm-action 3: (0 1)")  # two head orbits
        g, h = W.base_group.generators
        e, (k,) = W.base_group.identity, W.action.head.generators
        base, head = [g, g, e, h], [k, W.action.head_identity(), k]
        assert torsion_igset(W, base, head) == old_torsion_igset(W, base, head)
        assert len(torsion_igset(W, base, head)) == 2 * 2 + 1

        W = parse_ambient("sym 3 wr int-translation")
        shifts = [3, -2, 0, 3]
        assert nottorsion_igset(W, base, 2, shifts) == old_nottorsion_igset(W, base, 2, shifts)
        assert len(nottorsion_igset(W, base, 2, shifts)) == 2 + 2 + 2 + 1

    @pytest.mark.parametrize("outsider", [Perm((1, 0, 2)), Perm((1, 0)), 5],
                             ids=["odd-perm", "other-degree", "int"])
    def test_a_non_member_is_refused_with_one_text(self, outsider):
        G = alternating_group(3)
        message = f"^{re.escape(repr(outsider))} is not an element of the group$"
        for check in (class_of, generates, invariably_generates, invariably_generates_oracle):
            S = outsider if check is class_of else [G.generators[0], outsider]
            with pytest.raises(ValueError, match=message):
                check(G, S)
        with pytest.raises(ValueError, match=message):
            G.index_of(outsider)

    def test_membership_is_refused_only_in_index_of_and_the_cli(self):
        phrase = "is not an element of the group"

        def formatted_in(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from formatted_in(child, scope + [child.name])
                elif isinstance(child, ast.Constant) and phrase in str(child.value):
                    yield ".".join(scope)
                else:
                    yield from formatted_in(child, scope)

        src = Path(__file__).resolve().parents[1] / "src" / "wreathgen"
        found = [(path.stem, where) for path in sorted(src.glob("*.py"))
                 for where in formatted_in(ast.parse(path.read_text()), [])]
        assert found == [("cli", "_cmd_invgen"), ("groups", "FiniteGroup.index_of")]
