"""Invariable generation: tuple search, the maximal-subgroup test, minimal sizes."""

import itertools

import pytest

from wreathgen.groups import (Perm, alternating_group, class_of, closure, conjugacy_classes,
                              cyclic_group, klein_four_group, symmetric_group)
from wreathgen.invgen import (invariably_generates, invariably_generates_oracle,
                              min_invariable_size)
from wreathgen.parsing import parse_ambient, parse_perm

from small_groups import dihedral_group
from test_kernel_equivalence import old_invariably_generates

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
                full, _, _ = old_invariably_generates(SYM3, list(S), prune=False)
                assert pruned == full


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
        # The paper's finite wreath products, as their imprimitive embeddings,
        # up to order 162: within the oracle's subgroup cap of 200.
        answers = []
        for spec, order in [("sym 3 wr (cyclic 2, natural)", 72),
                            ("cyclic 2 wr (sym 3, natural)", 48),
                            ("cyclic 3 wr (sym 3, natural)", 162),
                            ("klein4 wr (cyclic 2, natural)", 32),
                            ("cyclic 2 wr (cyclic 4, natural)", 64)]:
            G, _ = parse_ambient(spec).imprimitive_embedding()
            assert len(G) == order
            reps = [c.representative for c in conjugacy_classes(G)]
            for size in (1, 2):
                for S in itertools.combinations(reps, size):
                    ok, _ = invariably_generates(G, list(S))
                    assert ok == invariably_generates_oracle(G, list(S)), (spec, S)
                    answers.append(ok)
        assert len(answers) == 549 and answers.count(True) == 47

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
