"""Head actions: point images, orbits, torsion typing, the regular construction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathgen.actions import (FiniteAction, IntTranslation, apply, cyclic_orbit,
                               orbit_reps, regular_action)
from wreathgen import groups
from wreathgen.groups import GroupTooLargeError, Perm, closure, cyclic_group, symmetric_group

SYM3_ACTION = FiniteAction(symmetric_group(3))
SHIFTS = IntTranslation()


class TestApply:
    def test_point_images(self):
        rot = Perm.from_cycles([(0, 1, 2)], 3)
        assert apply(SYM3_ACTION, 0, rot) == 1
        assert apply(SYM3_ACTION, 2, rot) == 0
        assert apply(SHIFTS, 5, -8) == -3

    def test_right_action_composition(self):
        a = Perm.from_cycles([(0, 1)], 3)
        b = Perm.from_cycles([(1, 2)], 3)
        for x in range(3):
            assert apply(SYM3_ACTION, apply(SYM3_ACTION, x, a), b) == \
                apply(SYM3_ACTION, x, SYM3_ACTION.head_compose(a, b))

    @pytest.mark.parametrize("call", [apply, cyclic_orbit])
    def test_rejects_foreign_points_and_heads(self, call):
        for action, x, h, message in [
                (SYM3_ACTION, 3, Perm.identity(3), "point 3 is not in the action's index set"),
                (SYM3_ACTION, 0, 1, "1 is not a head element of this action"),
                (SHIFTS, 0, Perm.identity(3),
                 "Perm((0, 1, 2)) is not a head element of this action"),
                (SHIFTS, 0, True, "True is not a head element of this action"),
                (SHIFTS, True, 1, "point True is not in the action's index set"),
                (SHIFTS, "a", 0, "point 'a' is not in the action's index set")]:
            with pytest.raises(ValueError) as exc:
                call(action, x, h)
            assert str(exc.value) == message

    @given(st.integers(), st.integers(), st.integers())
    def test_shift_action_axioms(self, x, s, t):
        assert apply(SHIFTS, x, 0) == x
        assert apply(SHIFTS, apply(SHIFTS, x, s), t) == apply(SHIFTS, x, s + t)


class TestOrbits:
    def test_transitive_action_has_one_rep(self):
        assert orbit_reps(SYM3_ACTION) == [0]
        assert orbit_reps(SHIFTS) == [0]

    def test_intransitive_action_lists_least_point_per_orbit(self):
        # <(0 1)(2 3 4)> splits the points into {0,1} and {2,3,4}.
        head = closure([Perm.from_cycles([(0, 1), (2, 3, 4)], 5)])
        assert orbit_reps(FiniteAction(head)) == [0, 2]

    def test_trivial_head_fixes_every_point(self):
        head = closure([Perm.identity(4)])
        assert orbit_reps(FiniteAction(head)) == [0, 1, 2, 3]

    def test_cyclic_orbit_walks_until_return(self):
        rot = Perm.from_cycles([(0, 1, 2)], 3)
        assert cyclic_orbit(SYM3_ACTION, 1, rot) == [1, 2, 0]
        assert cyclic_orbit(SYM3_ACTION, 2, Perm.from_cycles([(0, 1)], 3)) == [2]
        assert cyclic_orbit(SHIFTS, 7, 0) == [7]

    def test_cyclic_orbit_of_a_nonzero_shift_is_rejected(self):
        with pytest.raises(ValueError, match="^orbit of a nonzero shift on the integers is "
                                             "infinite$"):
            cyclic_orbit(SHIFTS, 0, 1)


class TestTorsionType:
    def test_finite_actions_are_torsion_type(self):
        assert SYM3_ACTION.torsion_type
        assert FiniteAction(cyclic_group(1)).torsion_type

    def test_integer_shifts_are_not(self):
        assert not SHIFTS.torsion_type

    def test_supported_actions_have_finitely_many_orbits(self):
        assert SYM3_ACTION.finitely_many_orbits
        assert SHIFTS.finitely_many_orbits


class TestRegularAction:
    def test_regular_action_is_simply_transitive(self):
        H = symmetric_group(3)
        action = regular_action(H)
        assert action.degree == H.order
        assert orbit_reps(action) == [0]
        # Only the identity fixes a point.
        for k in action.head.elements:
            if any(k.images[x] == x for x in range(action.degree)):
                assert k.is_identity()

    def test_regular_action_within_the_image_entry_budget_is_built(self, monkeypatch):
        # Six elements of degree 6: 36 image entries.
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 36)
        assert len(regular_action(symmetric_group(3)).head) == 6

    def test_regular_action_past_the_image_entry_budget_is_refused_before_any_perm(
            self, monkeypatch):
        H = symmetric_group(3)

        def unbuilt(*args):
            raise AssertionError("a permutation was built")

        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 35)
        monkeypatch.setattr(Perm, "__init__", unbuilt)
        with pytest.raises(GroupTooLargeError,
                           match="^too large for the image-entry budget: "
                                 "6 elements of degree 6 hold 36 > 35$"):
            regular_action(H)

    def test_regular_action_of_cyclic_group_is_the_rotation(self):
        action = regular_action(cyclic_group(4))
        assert set(action.head.elements) == set(cyclic_group(4).elements)
