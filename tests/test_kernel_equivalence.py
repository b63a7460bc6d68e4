"""The index-based closure kernel, the image-tuple closure, the listed cyclic
groups, the named groups, the head orbits, wreath arithmetic with finite
heads, the alpha/beta closed forms and the explicit invariable generating sets
against the naive reference in tests/reference.py: element orders, closure
orders, tuple-search witnesses, conjugacy classes, the maximal subgroups, index
maps, wreath products, closed forms, head orbits and generating lists must all
come out as the reference computes them."""

import ast
import functools
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathgen import groups
from wreathgen.actions import (FiniteAction, IntTranslation, cyclic_orbit, orbit_reps,
                               regular_action)
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

import reference as ref
from small_groups import dihedral_group, quaternion_group

# -- groups -------------------------------------------------------------------------


def perm_group(degree, *cycle_lists) -> FiniteGroup:
    return closure([Perm.from_cycles(cycles, degree) for cycles in cycle_lists])


GROUPS = {
    "sym4": symmetric_group(4),
    "q8": quaternion_group(),
    "d4": dihedral_group(4),
    # Sym(3) wr C2 in its imprimitive action on six points.
    "embedded72": parse_ambient("sym 3 wr (cyclic 2, natural)").imprimitive_embedding()[0],
}


@functools.cache
def pair_closures(E):
    """The reference closure of every ordered pair of elements of the listing E,
    as element indices in breadth-first order."""
    index = {p: i for i, p in enumerate(E)}
    return {(x, y): [index[p] for p in ref.closure([E[x], E[y]])]
            for x, y in itertools.product(range(len(E)), repeat=2)}


class TestClosureKernel:
    @staticmethod
    def check_every_pair(G, name):
        """generated_indices lists a proper subgroup in the reference's
        breadth-first order, and returns the whole group as range(|G|)."""
        assert G.order == {"sym4": 24, "q8": 8, "d4": 8, "embedded72": 72}[name]
        proper = 0
        for (x, y), found in pair_closures(ref.images(G)).items():
            got = generated_indices(G, [x, y])
            expected = found if len(found) < G.order else range(G.order)
            assert type(got) is type(expected) and list(got) == list(expected), (x, y)
            assert generates(G, [G.elements[x], G.elements[y]]) is (len(found) == G.order)
            proper += len(found) < G.order
        assert proper > 0

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_row_search_lists_every_pair_in_the_reference_order(self, name):
        self.check_every_pair(GROUPS[name], name)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_search_past_the_row_table_lists_every_pair_in_the_reference_order(
            self, name, monkeypatch):
        # A group that keeps no row table closes over images, breadth-first
        # like the row search, so it lists a proper subgroup in the same order.
        monkeypatch.setattr(groups, "RIGHT_MAP_BUDGET", 0)
        tabled = GROUPS[name]
        G = FiniteGroup(tabled.degree, tabled.generators, tabled.elements)
        assert G._rows is None
        self.check_every_pair(G, name)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_tuple_search_keeps_witnesses_and_orders(self, name):
        G = GROUPS[name]
        E, reps = ref.images(G), [c.representative for c in conjugacy_classes(G)][1:]
        failures = 0
        for k in (1, 2):
            for S in itertools.permutations(reps, k):
                ok, witness = invariably_generates(G, S)
                expected = ref.first_failing_choice(E, ref.images(S))
                assert ok is (expected is None), S
                # Pinning the first coordinate changes no answer.
                assert (ref.first_failing_choice(E, ref.images(S), pinned=False) is None) is ok, S
                if not ok:
                    failures += 1
                    choice, order = expected
                    assert witness.choice == tuple(zip(S, map(Perm, choice)))
                    assert witness.generated_order == order < G.order
        assert failures > 0

    def test_whole_group_stops_past_half(self):
        G = symmetric_group(4)
        swap, four_cycle = G.generators
        assert generated_indices(G, [G.index_of(swap), G.index_of(four_cycle)]) == range(24)
        assert len(generated_indices(G, [G.index_of(four_cycle)])) == 4


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
    reference's composition and index maps."""

    @pytest.mark.parametrize("name", sorted(RULE_GROUPS))
    def test_every_composition_equals_the_reference(self, name):
        G = RULE_GROUPS[name]
        E = ref.images(G)
        index = {p: i for i, p in enumerate(E)}
        for g, h in itertools.product(G.elements, repeat=2):
            expected = ref.compose(g.images, h.images)
            assert compose(g, h).images == expected, (g, h)
            assert G.product(g, h) is G.elements[index[expected]], (g, h)
        assert [G.right_map(i) for i in range(len(G))] == [ref.index_map(E, None, e) for e in E]
        assert groups._conjugation_maps(G) == [ref.index_map(E, ref.inverse(s), s)
                                               for s in ref.images(G.generators)]

    @pytest.mark.parametrize("name", sorted(RULE_GROUPS))
    def test_regular_action_equals_the_reference_rows(self, name):
        H = RULE_GROUPS[name]
        E = ref.images(H)
        rows = [tuple(ref.index_map(E, None, h)) for h in ref.images(H.generators)]
        assert [tuple(groups._index_map(H, None, h)) for h in H.generators] == rows
        head = regular_action(H).head
        assert (list(ref.images(head.generators)), ref.images(head)) == (rows, ref.closure(rows))

    def test_a_degree_mismatch_is_still_refused(self):
        with pytest.raises(ValueError, match="degree mismatch: 1 vs 0"):
            compose(Perm((0,)), Perm(()))


class TestOrbitPartition:
    """The conjugacy classes and the head orbits come from one partition loop;
    each must equal the reference's classes and orbits."""

    @pytest.mark.parametrize("G", [
        *RULE_GROUPS.values(), symmetric_group(6), symmetric_group(5), alternating_group(5),
        # Listed so that the identity comes last, not first.
        FiniteGroup(3, symmetric_group(3).generators, reversed(symmetric_group(3).elements)),
    ], ids=[*RULE_GROUPS, "sym6", "sym5", "alt5", "reversed-sym3"])
    def test_classes_class_index_and_class_of_equal_the_reference(self, G):
        classes, number = ref.conjugacy_classes(ref.images(G))
        got = [(c.representative.images, ref.images(c.members)) for c in conjugacy_classes(G)]
        assert tuple(got) == classes and tuple(G._class_index) == number
        for i, g in enumerate(G.elements):
            c = class_of(G, g)
            assert (c.representative.images, ref.images(c.members)) == classes[number[i]]

    @pytest.mark.parametrize("spec", [
        "cyclic 2 wr perm-action 7: (0 1 2), (3 4)", "cyclic 2 wr perm-action 10: (0 1)",
        "cyclic 2 wr perm-action 9: (8 7 6), (5 2)", "cyclic 2 wr (sym 1, natural)",
        "cyclic 2 wr (sym 4, natural)", "cyclic 2 wr (klein4, regular)",
        "cyclic 2 wr (sym 3, natural)", "cyclic 2 wr (klein4, natural)",
        "cyclic 2 wr perm-action 5: (0 1), (2 3 4)", "cyclic 2 wr (sym 3, regular)",
    ])
    def test_orbit_reps_and_cyclic_orbits_equal_the_reference(self, spec):
        action = parse_ambient(spec).action
        assert orbit_reps(action) == ref.orbit_reps(ref.images(action.head.generators),
                                                    action.degree)
        for x, k in itertools.product(action.points(), action.head.elements):
            assert cyclic_orbit(action, x, k) == ref.cyclic_orbit(k.images, x), (x, k)

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
        assert [c.representative.images for c in conjugacy_classes(G)] == \
            [rep for rep, _ in ref.conjugacy_classes(ref.images(G))[0]]


class TestSubgroups:
    """maximal_subgroups keeps exactly one member of each conjugacy class of the
    maximal subgroups of the reference's lattice."""

    @pytest.mark.parametrize("G", [
        cyclic_group(1), symmetric_group(3), klein_four_group(), quaternion_group(),
        dihedral_group(4), alternating_group(4), dihedral_group(6), cyclic_group(12),
        symmetric_group(4), dihedral_group(12),
        # C2^3 and C2 x D4 have subgroups that need three generators.
        perm_group(6, [(0, 1)], [(2, 3)], [(4, 5)]),
        perm_group(6, [(0, 1)], [(2, 3, 4, 5)], [(2, 4)]),
        alternating_group(5), symmetric_group(5), GROUPS["embedded72"],
        "cyclic 3 wr (sym 3, natural)",
    ], ids=["c1", "sym3", "klein4", "q8", "d4", "alt4", "d6", "c12", "sym4", "d12",
            "c2^3", "c2xd4", "alt5", "sym5", "embedded72", "embedded162"])
    def test_one_maximal_subgroup_per_class_of_the_reference_lattice(self, G):
        if isinstance(G, str):  # embedded here: a broken ambient fails this test, not collection
            G = parse_ambient(G).imprimitive_embedding()[0]
        E = ref.images(G)
        proper = [s for s in ref.subgroups(E) if len(s) < len(G)]
        maximal = [s for s in proper if not any(s < t for t in proper)]
        maps = [ref.index_map(E, ref.inverse(g), g) for g in E]
        classes = {frozenset(frozenset(map(m.__getitem__, M)) for m in maps) for M in maximal}
        got = maximal_subgroups(G)
        assert all(sum(M in c for M in got) == 1 for c in classes)
        assert len(got) == len(classes)


class TestImageTupleClosure:
    """closure searches over image tuples and cyclic_group lists its elements;
    both must give the reference closure's elements in its order."""

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
        order = len(expected)
        kept = [g for g in dict.fromkeys(ref.images(gens)) if not ref.is_identity(g)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups, "DEFAULT_CLOSURE_CAP", order)
            G = closure(gens)
            assert ref.images(G) == expected
            assert list(ref.images(G.generators)) == (kept or [gens[0].images])
            patch.setattr(groups, "DEFAULT_CLOSURE_CAP", order - 1)
            with pytest.raises(GroupTooLargeError,
                               match=f"^too large for the closure cap: group order at least "
                                     f"{order} > {order - 1}$"):
                closure(gens)

    @pytest.mark.parametrize("name", NAMED)
    def test_named_groups_keep_the_reference_order(self, name):
        G = self.NAMED[name]
        expected = ref.closure(ref.images(G.generators))
        assert ref.images(G) == expected
        self.check(list(G.generators), expected)

    # Groups on either side of the largest degree whose points fit a byte.
    BYTE_BOUNDARY = {
        **{f"perm {n}: (0 {n - 1}), (0 1 2)": n for n in (255, 256, 257)},
        **{f"perm {n}: ({' '.join(map(str, range(n)))})": n for n in (255, 256, 257)},
    }

    @pytest.mark.parametrize("spec", BYTE_BOUNDARY,
                             ids=[f"{kind}-{n}" for kind in ("sym4", "cycle")
                                  for n in (255, 256, 257)])
    def test_groups_either_side_of_a_byte_keep_the_reference_order(self, spec):
        gens = list(parse_group_spec(spec).generators)
        assert gens[0].degree == self.BYTE_BOUNDARY[spec]
        expected = ref.closure(ref.images(gens))
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
    def test_drawn_generator_lists_keep_the_reference_order(self, gens):
        self.check(gens, ref.closure(ref.images(gens)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(lambda p: Perm(tuple(p))), min_size=1, max_size=3).flatmap(
        lambda perms: st.lists(st.sampled_from([*perms, Perm.identity(n)]), min_size=1,
                               max_size=6))))
    def test_drawn_lists_with_repeats_and_identities_keep_the_reference_order(self, gens):
        self.check(gens, ref.closure(ref.images(gens)))


FINITE_WREATH = [
    "cyclic 2 wr (cyclic 2, natural)", "klein4 wr (cyclic 2, natural)",
    "cyclic 2 wr (sym 3, natural)", "cyclic 2 wr (klein4, natural)",
    "sym 3 wr (cyclic 2, natural)", "cyclic 3 wr (sym 3, natural)",
    "alt 4 wr (cyclic 2, natural)", "cyclic 2 wr (sym 3, regular)",
    "sym 3 wr (cyclic 3, natural)",
    # Sym(3) from two transpositions: the self-test, on generators alone, cannot
    # tell a head from its inverse, but a 3-cycle in a product can.
    "sym 3 wr perm-action 3: (0 1), (1 2)",
]


class TestFiniteHeads:
    """Finite heads multiply through the head group's own elements; the
    products, inverses and powers must equal the reference's."""

    @pytest.mark.parametrize("spec", FINITE_WREATH)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_arithmetic_equals_the_reference(self, spec, data):
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
        a, b = ref.plain(u), ref.plain(v)
        results = [(u * v, ref.wreath_mul(a, b)), (u.inverse(), ref.wreath_inverse(a))]
        results += [(u ** n, ref.wreath_pow(a, n)) for n in range(-5, 6)]
        for got, expected in results:
            assert ref.plain(got) == expected
            assert got.head is H.elements[H.index_of(got.head)]

    @pytest.mark.parametrize("spec", FINITE_WREATH + ["sym 3 wr int-translation"])
    def test_equal_ambients_hash_equal(self, spec):
        W, again = parse_ambient(spec), parse_ambient(spec)
        assert W is not again and W == again
        assert hash(W) == hash(again) == hash((W.base_group, W.action))
        assert hash(W.identity()) == hash(again.identity())


# -- the alpha/beta closed forms ----------------------------------------------------


class TestClosedForms:
    """assemble_alpha_power and assemble_beta fold the blocks pointwise; they
    must equal the reference's block-by-block products and the literal forms."""

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
    def test_closed_forms_equal_the_reference_and_the_literal_forms(self, name):
        W = WreathProduct(self.BASES[name], IntTranslation())
        rng = random.Random(name)
        for alpha_e, alpha_f in self.alphas(W, rng):
            a, b = ref.plain(alpha_e.conjugator)[0], ref.plain(alpha_f.conjugator)[0]
            f = alpha_f.g.images
            for m in range(0, 6):
                power = assemble_alpha_power(alpha_e, alpha_f, m)
                assert ref.plain(power) == ref.closed_form(a, b, f, m)
                assert power == alpha_power_form(alpha_e, alpha_f, m)
                for n in (0, 1, m, m + 2):
                    closed = assemble_beta(alpha_e, alpha_f, m, n)
                    assert ref.plain(closed) == ref.closed_form(a, b, f, m, n)
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
    @staticmethod
    def check_documented(G, degree, cycle_lists):
        """G closes its documented generators, one per list of cycles, leaving
        out a list with a point past the degree."""
        gens = [ref.from_cycles(cycles, degree) for cycles in cycle_lists
                if all(x < degree for cycle in cycles for x in cycle)]
        assert list(ref.images(G.generators)) == \
            ([g for g in dict.fromkeys(gens) if not ref.is_identity(g)] or gens[:1])
        assert ref.images(G) == ref.closure(gens)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_named_groups_close_their_documented_generators(self, n):
        self.check_documented(symmetric_group(n), n, [[(0, 1)], [range(n)]])
        self.check_documented(alternating_group(n), n, [[(0, 1, 2)], [range(1 - n % 2, n)]])

    def test_klein_four_closes_its_documented_generators(self):
        self.check_documented(klein_four_group(), 4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])

    def test_igsets_with_repeats_and_identities_equal_the_reference(self):
        W = parse_ambient("sym 3 wr perm-action 3: (0 1)")  # two head orbits
        g, h = W.base_group.generators
        e, (k,) = W.base_group.identity, W.action.head.generators
        base, head = [g, g, e, h], [k, W.action.head_identity(), k]
        reps = ref.orbit_reps(ref.images(W.action.head.generators), W.action.degree)
        expected = ref.torsion_igset(reps, ref.images(base), ref.images(head))
        assert list(map(ref.plain, torsion_igset(W, base, head))) == expected
        assert len(expected) == 2 * 2 + 1

        W = parse_ambient("sym 3 wr int-translation")
        shifts = [3, -2, 0, 3]
        expected = ref.nottorsion_igset(ref.images(base), 2, shifts)
        assert list(map(ref.plain, nottorsion_igset(W, base, 2, shifts))) == expected
        assert len(expected) == 2 + 2 + 2 + 1

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
