"""The status engine: single products, the descriptor table, iterated towers."""

import itertools

import pytest

from wreathgen.actions import FiniteAction, IntTranslation
from wreathgen.classify import (FIG_FG, FINITE_ACTION, INT_TRANSLATION_ACTION,
                                ActionDescriptor, GroupDescriptor, IGStatus,
                                iterated_status, iterated_status_direct,
                                wreath_fg, wreath_status_with_rule)
from wreathgen.groups import symmetric_group
from wreathgen.parsing import chain_to_descriptors, parse_chain

FIG = IGStatus.FIG
IG = IGStatus.IG
NEG = IGStatus.NEG_IG

TORSION_FG = ActionDescriptor(torsion_type=True, finitely_many_orbits=True)

VALID_GROUPS = [
    GroupDescriptor(FIG, True),
    GroupDescriptor(IG, True),
    GroupDescriptor(IG, False),
    GroupDescriptor(NEG, True),
    GroupDescriptor(NEG, False),
]
ALL_ACTIONS = [ActionDescriptor(t, o) for t in (True, False) for o in (True, False)]


class TestDescriptors:
    def test_a_finite_invariable_set_forces_finite_generation(self):
        with pytest.raises(ValueError):
            GroupDescriptor(FIG, False)

    def test_finite_groups_descriptor(self):
        assert FIG_FG == GroupDescriptor(FIG, True)
        d, _ = chain_to_descriptors(parse_chain("sym 3"))[0]
        assert d == FIG_FG

    def test_action_descriptors(self):
        finite = FiniteAction(symmetric_group(3))
        assert ActionDescriptor(finite.torsion_type, finite.finitely_many_orbits) == FINITE_ACTION
        for action in ("natural", "regular"):
            _, head = chain_to_descriptors(parse_chain(f"sym 3 wr (sym 3, {action})"))
            assert head[1] == FINITE_ACTION == ActionDescriptor(True, True)
        shifts = IntTranslation()
        assert ActionDescriptor(shifts.torsion_type, shifts.finitely_many_orbits) == INT_TRANSLATION_ACTION
        _, head = chain_to_descriptors(parse_chain("sym 3 wr int-translation"))
        assert head[1] == INT_TRANSLATION_ACTION
        assert INT_TRANSLATION_ACTION == ActionDescriptor(False, True)

    def test_status_prints_as_its_name(self):
        assert str(FIG) == "FIG" and str(NEG) == "NEG_IG"


class TestWreathFg:
    def test_requires_both_factors_and_finite_orbits(self):
        fg = GroupDescriptor(FIG, True)
        nonfg = GroupDescriptor(IG, False)
        assert wreath_fg(fg, fg, TORSION_FG)
        assert not wreath_fg(nonfg, fg, TORSION_FG)
        assert not wreath_fg(fg, nonfg, TORSION_FG)
        assert not wreath_fg(fg, fg, ActionDescriptor(True, False))


class TestSingleProduct:
    def test_torsion_type_status_table(self):
        # Rows: base status; columns: head status.  Everything finitely
        # generated, torsion-type action with finitely many orbits.
        table = {
            (FIG, FIG): FIG, (FIG, IG): IG, (FIG, NEG): NEG,
            (IG, FIG): IG, (IG, IG): IG, (IG, NEG): NEG,
            (NEG, FIG): NEG, (NEG, IG): NEG, (NEG, NEG): NEG,
        }
        for (g, h), expected in table.items():
            G = GroupDescriptor(g, True)
            H = GroupDescriptor(h, True)
            assert wreath_status_with_rule(G, H, TORSION_FG)[0] is expected, (g, h)

    def test_head_failure_dominates_everything(self):
        for G in VALID_GROUPS:
            for action in ALL_ACTIONS:
                H = GroupDescriptor(NEG, True)
                status, rule = wreath_status_with_rule(G, H, action)
                assert status is NEG
                assert rule == "head not invariably generated"

    def test_fg_base_over_the_integers_is_fig(self):
        for status in (FIG, IG, NEG):
            G = GroupDescriptor(status, True)
            result, rule = wreath_status_with_rule(
                G, FIG_FG, INT_TRANSLATION_ACTION)
            assert result is FIG
            assert rule == "non-torsion action, FIG head, finitely generated product"

    def test_ig_head_acting_without_torsion_gives_ig(self):
        H = GroupDescriptor(IG, True)
        action = ActionDescriptor(torsion_type=False, finitely_many_orbits=True)
        for G in VALID_GROUPS:
            assert wreath_status_with_rule(G, H, action)[0] is IG

    def test_non_fg_base_over_the_integers_is_ig(self):
        for status in (IG, NEG):
            G = GroupDescriptor(status, False)
            result, rule = wreath_status_with_rule(
                G, FIG_FG, INT_TRANSLATION_ACTION)
            assert result is IG
            assert rule == "non-torsion action, FIG head, infinitely generated product"

    def test_torsion_type_rules_quote_the_base(self):
        H = GroupDescriptor(FIG, True)
        status, rule = wreath_status_with_rule(GroupDescriptor(NEG, True), H, TORSION_FG)
        assert status is NEG
        assert rule == "torsion-type action, base not invariably generated"
        status, rule = wreath_status_with_rule(GroupDescriptor(IG, True), H, TORSION_FG)
        assert status is IG
        assert rule == "torsion-type action, IG base or head"

    def test_fig_needs_finite_generation(self):
        G = GroupDescriptor(FIG, True)
        H = GroupDescriptor(FIG, True)
        infinite_orbits = ActionDescriptor(torsion_type=True, finitely_many_orbits=False)
        assert wreath_status_with_rule(G, H, TORSION_FG)[0] is FIG
        assert wreath_status_with_rule(G, H, infinite_orbits)[0] is IG

    def test_invariably_generated_factors_never_lose_everything(self):
        # Extensions of invariably generated groups stay invariably generated.
        for G in VALID_GROUPS:
            if G.status is NEG:
                continue
            for h_status in (FIG, IG):
                for h_fg in (True, False):
                    if h_status is FIG and not h_fg:
                        continue
                    H = GroupDescriptor(h_status, h_fg)
                    for action in ALL_ACTIONS:
                        assert wreath_status_with_rule(G, H, action)[0] is not NEG

    def test_wreath_descriptor_carries_finite_generation(self):
        G = GroupDescriptor(FIG, True)
        for G, expected in [(GroupDescriptor(FIG, True), GroupDescriptor(FIG, True)),
                            (GroupDescriptor(IG, False), GroupDescriptor(IG, False))]:
            status, _ = wreath_status_with_rule(G, FIG_FG, INT_TRANSLATION_ACTION)
            d = GroupDescriptor(status, wreath_fg(G, FIG_FG, INT_TRANSLATION_ACTION))
            assert d == expected


class TestIteratedTowers:
    def test_single_level_is_the_group_itself(self):
        for G in VALID_GROUPS:
            status, trace = iterated_status([(G, None)])
            assert status is G.status
            assert len(trace) == 1

    def test_tower_of_finite_groups_is_fig(self):
        fig = GroupDescriptor(FIG, True)
        chain = [(fig, None)] + [(fig, TORSION_FG)] * 3
        status, trace = iterated_status(chain)
        assert status is FIG
        assert len(trace) == 4

    def test_ig_base_over_the_integers_promotes_to_fig(self):
        chain = [(GroupDescriptor(IG, True), None),
                 (FIG_FG, INT_TRANSLATION_ACTION)]
        status, _ = iterated_status(chain)
        assert status is FIG

    def test_failed_base_poisons_torsion_towers(self):
        chain = [(GroupDescriptor(NEG, True), None),
                 (GroupDescriptor(FIG, True), TORSION_FG),
                 (GroupDescriptor(FIG, True), TORSION_FG)]
        status, trace = iterated_status(chain)
        assert status is NEG
        assert trace[-1].endswith("-> NEG_IG")

    def test_last_shift_level_washes_out_the_past(self):
        chain = [(GroupDescriptor(NEG, True), None),
                 (GroupDescriptor(FIG, True), TORSION_FG),
                 (FIG_FG, INT_TRANSLATION_ACTION)]
        status, _ = iterated_status(chain)
        assert status is FIG

    def test_malformed_chains_are_rejected(self):
        G = GroupDescriptor(FIG, True)
        with pytest.raises(ValueError):
            iterated_status([])
        with pytest.raises(ValueError):
            iterated_status([(G, TORSION_FG)])
        with pytest.raises(ValueError):
            iterated_status([(G, None), (G, None)])

    def test_fold_matches_the_direct_form_on_all_short_towers(self):
        levels = [(g, a) for g in VALID_GROUPS for a in ALL_ACTIONS]
        checked = 0
        for length in (1, 2, 3, 4):
            for first in VALID_GROUPS:
                for rest in itertools.product(levels, repeat=length - 1):
                    chain = [(first, None)] + list(rest)
                    folded, _ = iterated_status(chain)
                    assert folded is iterated_status_direct(chain)
                    checked += 1
        assert checked == 5 + 5 * 20 + 5 * 400 + 5 * 8000
