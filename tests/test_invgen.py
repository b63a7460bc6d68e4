"""Invariable generation: tuple search, the maximal-subgroup test, minimal sizes."""

import itertools

import pytest

from wreathgen import groups, invgen
from wreathgen.actions import FiniteAction
from wreathgen.groups import (GroupTooLargeError, Perm, alternating_group, class_of, closure,
                              conjugacy_classes, cyclic_group, klein_four_group,
                              maximal_subgroups, refuse_above, symmetric_group)
from wreathgen.invgen import (invariably_generates, invariably_generates_oracle,
                              min_invariable_size)
from wreathgen.parsing import parse_ambient, parse_perm
from wreathgen.wreath import WreathProduct

import reference as ref
from small_groups import dihedral_group

SYM3 = symmetric_group(3)
SWAP = Perm.from_cycles([(0, 1)], 3)
OTHER_SWAP = Perm.from_cycles([(0, 2)], 3)
ROT = Perm.from_cycles([(0, 1, 2)], 3)


class TestTupleSearch:
    def test_transposition_and_rotation_invariably_generate_sym3(self):
        ok, witness = invariably_generates(SYM3, [SWAP, ROT])
        assert ok and witness is None

    def test_two_transpositions_do_not(self):
        ok, witness = invariably_generates(SYM3, [SWAP, OTHER_SWAP])
        assert not ok
        # Both picks land on the same transposition; together they give C2.
        assert witness.choice == ((SWAP, SWAP), (OTHER_SWAP, SWAP))
        assert witness.generated_order == 2

    def test_witness_is_validated(self):
        ok, witness = invariably_generates(SYM3, [SWAP, OTHER_SWAP])
        assert not ok
        picks = []
        for original, conjugate in witness.choice:
            assert conjugate in class_of(SYM3, original)
            picks.append(conjugate)
        generated = closure(picks)
        assert generated.order == witness.generated_order < SYM3.order

    def test_single_elements_never_suffice_in_sym3(self):
        for s in SYM3.elements[1:]:
            ok, _ = invariably_generates(SYM3, [s])
            assert not ok

    def test_duplicates_are_collapsed(self):
        assert invariably_generates(SYM3, [SWAP, SWAP])[0] == \
            invariably_generates(SYM3, [SWAP])[0]

    def test_supersets_preserve_generation(self):
        for extra in SYM3.elements:
            ok, _ = invariably_generates(SYM3, [SWAP, ROT, extra])
            assert ok

    def test_empty_set_is_rejected(self):
        with pytest.raises(ValueError):
            invariably_generates(SYM3, [])

    def test_outsiders_are_rejected(self):
        with pytest.raises(ValueError):
            invariably_generates(SYM3, [Perm((1, 0))])

    def test_pruning_does_not_change_the_answer(self):
        for size in (1, 2):
            for S in itertools.combinations(SYM3.elements[1:], size):
                pruned, _ = invariably_generates(SYM3, list(S))
                full = ref.first_failing_choice(ref.images(SYM3), ref.images(S), pinned=False)
                assert pruned is (full is None)


class TestOracle:
    def test_agrees_on_all_small_subsets_of_sym3(self):
        for size in (1, 2):
            for S in itertools.combinations(SYM3.elements, size):
                ok, _ = invariably_generates(SYM3, list(S))
                assert ok == invariably_generates_oracle(SYM3, list(S))

    def test_agrees_on_all_small_subsets_of_c6(self):
        G = cyclic_group(6)
        for size in (1, 2):
            for S in itertools.combinations(G.elements, size):
                ok, _ = invariably_generates(G, list(S))
                assert ok == invariably_generates_oracle(G, list(S))

    def test_agrees_on_sym5(self):
        G = symmetric_group(5)
        sets = [["(0 1)", "(0 1 2 3 4)"], ["(0 1)", "(0 1 2 3)"], ["(0 1 2)", "(0 1 2 3)"],
                ["(0 1)(2 3)", "(0 1 2 3 4)"], ["(0 1 2)(3 4)", "(0 1 2 3)"],
                ["(0 1 2 3 4)", "(0 1 2)", "(0 1)(2 3)"], ["(0 1 2 3)", "(0 1 2 3 4)"]]
        answers = []
        for cycles in sets:
            S = [parse_perm(c, 5) for c in cycles]
            ok, _ = invariably_generates(G, S)
            assert ok == invariably_generates_oracle(G, S), cycles
            answers.append(ok)
        assert True in answers and False in answers

    def test_agrees_on_class_representatives_of_finite_wreath_products(self):
        # The paper's finite wreath products, as their imprimitive embeddings.
        answers = []
        for spec, order in [("sym 3 wr (cyclic 2, natural)", 72),
                            ("cyclic 2 wr (sym 3, natural)", 48),
                            ("cyclic 3 wr (sym 3, natural)", 162),
                            ("klein4 wr (cyclic 2, natural)", 32),
                            ("cyclic 2 wr (cyclic 4, natural)", 64),
                            ("sym 3 wr (cyclic 3, natural)", 648)]:
            G, _ = parse_ambient(spec).imprimitive_embedding()
            assert len(G) == order
            reps = [c.representative for c in conjugacy_classes(G)]
            for size in (1, 2):
                for S in itertools.combinations(reps, size):
                    ok, _ = invariably_generates(G, list(S))
                    assert ok == invariably_generates_oracle(G, list(S)), (spec, S)
                    answers.append(ok)
        assert len(answers) == 702 and answers.count(True) == 69

    def test_agrees_on_pairs_of_class_representatives_of_sym6(self):
        # d_I(Sym 6) = 3: no pair invariably generates, and the triple --min finds does.
        G = symmetric_group(6)
        reps = [c.representative for c in conjugacy_classes(G)][1:]
        triple = [parse_perm(c, 6) for c in ("(0 1)", "(0 1 2 3 4 5)", "(0 2 3 4 5)")]
        answers = []
        for S in [*itertools.combinations(reps, 2), triple]:
            ok, _ = invariably_generates(G, list(S))
            assert ok == invariably_generates_oracle(G, list(S)), S
            answers.append(ok)
        assert answers == [False] * 45 + [True]

    def test_abelian_groups_reduce_to_plain_generation(self):
        # Classes are singletons, so invariable generation is generation.
        G = klein_four_group()
        a, b = G.generators
        assert invariably_generates(G, [a, b])[0]
        assert not invariably_generates(G, [a])[0]
        assert invariably_generates_oracle(G, [a, b])
        assert not invariably_generates_oracle(G, [a])


class TestMinimalSize:
    def test_trivial_group_needs_its_identity(self):
        G = cyclic_group(1)
        size, example = min_invariable_size(G)
        assert size == 1 and example == (G.identity,)

    def test_cyclic_groups_need_one(self):
        size, example = min_invariable_size(cyclic_group(6))
        assert size == 1
        assert invariably_generates(cyclic_group(6), list(example))[0]

    def test_sym3_needs_two(self):
        size, example = min_invariable_size(SYM3)
        assert size == 2
        assert invariably_generates(SYM3, list(example))[0]

    def test_dihedral4_needs_two(self):
        G = dihedral_group(4)
        size, example = min_invariable_size(G)
        assert size == 2
        assert invariably_generates(G, list(example))[0]

    def test_alt5_needs_two(self):
        G = alternating_group(5)
        size, example = min_invariable_size(G)
        assert size == 2
        ok, _ = invariably_generates(G, list(example))
        assert ok


class TestTupleSearchBudget:
    """The tuple search's estimate bounds its work, and a search past the
    budget is refused before any tuple is closed."""

    GROUPS = {
        "sym 4": lambda: symmetric_group(4),
        "sym 5": lambda: symmetric_group(5),
        "alt 5": lambda: alternating_group(5),
        "order 72": lambda: WreathProduct(
            symmetric_group(3), FiniteAction(cyclic_group(2))).imprimitive_embedding()[0],
        "order 162": lambda: WreathProduct(
            cyclic_group(3), FiniteAction(symmetric_group(3))).imprimitive_embedding()[0],
    }

    @pytest.mark.parametrize("table", [True, False], ids=["rows", "image tuples"])
    @pytest.mark.parametrize("name", GROUPS)
    def test_counted_work_never_exceeds_the_estimate(self, monkeypatch, name, table):
        if not table:
            monkeypatch.setattr(groups, "RIGHT_MAP_BUDGET", 0)
        G = self.GROUPS[name]()
        assert (G._rows is not None) == table
        # The classes are found before counting starts; they run _orbit too.
        reps = [c.representative for c in conjugacy_classes(G)][1:]
        work, estimates = [0], []
        orbit, closed_images, search = groups._orbit, groups._closed_images, invariably_generates

        def counted_orbit(*args):
            found = orbit(*args)
            work[0] += len(found)
            return found

        def counted_images(gen_images, degree, stop):
            images = closed_images(gen_images, degree, stop)
            work[0] += len(images) * degree
            return images

        def noted(what, estimate, limit):
            estimates.append((what, estimate))
            refuse_above(what, estimate, limit)

        def measured(G, S):
            (size_estimate,) = [e for what, e in estimates if "of size" in what][-1:]
            work[0] = 0
            result = search(G, S)
            assert 0 < work[0] <= estimates[-1][1] <= size_estimate
            return result

        monkeypatch.setattr(groups, "_orbit", counted_orbit)
        monkeypatch.setattr(groups, "_closed_images", counted_images)
        monkeypatch.setattr(invgen, "refuse_above", noted)
        for k in (1, 2):
            for S in itertools.combinations(reps, k):
                work[0] = 0
                search(G, S)
                assert 0 < work[0] <= estimates[-1][1]
        monkeypatch.setattr(invgen, "invariably_generates", measured)
        min_invariable_size(G)

    def test_a_search_past_the_budget_is_refused_before_any_tuple_is_closed(self, monkeypatch):
        # 6 transpositions, each closure within 24 // 2 + 2 of Sym(4)'s rows: 84 steps.
        G = symmetric_group(4)
        S = [Perm.from_cycles([(0, 1, 2, 3)], 4), Perm.from_cycles([(0, 1)], 4)]
        closed = []
        generated = groups.generated_indices
        monkeypatch.setattr(invgen, "generated_indices",
                            lambda *args: closed.append(args) or generated(*args))
        monkeypatch.setattr(invgen, "TUPLE_SEARCH_BUDGET", 84)
        assert invariably_generates(G, S)[0] is False and closed
        closed.clear()
        monkeypatch.setattr(invgen, "TUPLE_SEARCH_BUDGET", 83)
        with pytest.raises(GroupTooLargeError, match="^too large for the tuple-search budget: "
                           "estimated closure steps 84 > 83$"):
            invariably_generates(G, S)
        assert closed == []

    def test_a_minimal_size_past_the_budget_is_refused_before_its_searches(self, monkeypatch):
        # Size 1 takes 13 steps a search; size 2 pairs the 8 3-cycles with
        # another class, 8 * (24 // 2 + 2) = 112 steps.
        G = symmetric_group(4)
        sizes = []
        search = invariably_generates
        monkeypatch.setattr(invgen, "invariably_generates",
                            lambda G, S: sizes.append(len(S)) or search(G, S))
        monkeypatch.setattr(invgen, "TUPLE_SEARCH_BUDGET", 111)
        with pytest.raises(GroupTooLargeError, match="^too large for the tuple-search budget: "
                           "estimated closure steps of one search of size 2 112 > 111$"):
            min_invariable_size(G)
        assert sizes == [1, 1, 1, 1]
        monkeypatch.setattr(invgen, "TUPLE_SEARCH_BUDGET", 112)
        assert min_invariable_size(G)[0] == 2


class TestSubgroupWalkBudget:
    """The walk over subgroup classes never does more work than its estimates
    allow: each check's estimate covers all the work done before the next check."""

    @pytest.mark.parametrize("table", [True, False], ids=["rows", "image tuples"])
    @pytest.mark.parametrize("name", TestTupleSearchBudget.GROUPS)
    def test_counted_work_never_exceeds_the_estimate(self, monkeypatch, name, table):
        if not table:
            monkeypatch.setattr(groups, "RIGHT_MAP_BUDGET", 0)
        G = TestTupleSearchBudget.GROUPS[name]()
        assert (G._rows is not None) == table
        work, checks = [0], []
        orbit, closed_images = groups._orbit, groups._closed_images

        def counted_orbit(*args):
            found = orbit(*args)
            work[0] += len(found)
            return found

        def counted_images(gen_images, degree, stop):
            images = closed_images(gen_images, degree, stop)
            work[0] += len(images) * degree
            return images

        def noted(what, estimate, limit):
            assert what == "subgroup-walk budget: estimated closure steps"
            checks.append((work[0], estimate))
            refuse_above(what, estimate, limit)

        monkeypatch.setattr(groups, "_orbit", counted_orbit)
        monkeypatch.setattr(groups, "_closed_images", counted_images)
        monkeypatch.setattr(groups, "refuse_above", noted)
        maximal_subgroups(G)
        assert checks[0][0] == 0 and work[0] > 0
        for (_, estimate), (done, _) in zip(checks, checks[1:] + [(work[0], None)]):
            assert done <= estimate
        # A cached walk checks its last estimate again, and does no work.
        maximal_subgroups(G)
        assert checks[-1] == (work[0], checks[-2][1])
