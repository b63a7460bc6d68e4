"""Explicit generating sets, alpha/beta assembly, orbit collapse, coordinate reads."""

import random

import pytest

from wreathgen.actions import FiniteAction, IntTranslation
from wreathgen.constructions import (AlphaElement, BetaParams,
                                     CoordinateContractError, alpha_power_form,
                                     assemble_alpha_power, assemble_beta, beta,
                                     build_alpha, choose_mn,
                                     collapse_orbit_conjugator,
                                     collapse_orbit_product, gamma_coordinate,
                                     nottorsion_igset, torsion_igset,
                                     uniform_orbit_conjugator)
from wreathgen.groups import Perm, closure, cyclic_group, symmetric_group
from wreathgen.invgen import invariably_generates
from wreathgen.verify import _random_coords, random_alpha
from wreathgen.wreath import WreathProduct

SYM3 = symmetric_group(3)
OVER_Z = WreathProduct(SYM3, IntTranslation())
SWAP = Perm.from_cycles([(0, 1)], 3)
ROT = Perm.from_cycles([(0, 1, 2)], 3)
WINDOW = range(-3, 4)


class TestBuildAlpha:
    def test_trivial_conjugators_give_the_bare_element(self):
        alpha = build_alpha(OVER_Z, SWAP, {}, {})
        assert alpha.element == OVER_Z.element({0: SWAP}, 1)
        assert alpha.support_radius == 0
        assert alpha.g == SWAP
        assert alpha.conjugator == OVER_Z.identity()

    def test_single_conjugator_entry_spreads_to_two_coordinates(self):
        alpha = build_alpha(OVER_Z, ROT, {0: SWAP}, {})
        # b = swap@0, so b^-1 * rot@0 * t * b = (swap*rot)@0 * swap@-1 * t.
        assert alpha.element == OVER_Z.element(
            {0: SWAP.inverse() * ROT, -1: SWAP}, 1)
        assert alpha.support_radius == 1

    def test_element_is_a_literal_conjugate(self):
        rng = random.Random(3)
        for _ in range(50):
            g = rng.choice(SYM3.elements)
            alpha = build_alpha(OVER_Z, g, _random_coords(rng, SYM3, WINDOW),
                                _random_coords(rng, SYM3, WINDOW))
            b = alpha.conjugator
            bare = OVER_Z.element({0: g}, 1) if not g.is_identity() else OVER_Z.element({}, 1)
            assert alpha.element == b.inverse() * bare * b

    def test_support_radius_covers_the_conjugator(self):
        a = SYM3.elements[1]
        alpha = build_alpha(OVER_Z, SWAP, {-2: a, 3: a}, {})
        assert alpha.support_radius == 4
        alpha = build_alpha(OVER_Z, SWAP, {0: a}, {})
        assert alpha.support_radius == 1
        # Correction equal to the conjugating tuple cancels it entirely.
        alpha = build_alpha(OVER_Z, SWAP, {2: a}, {2: a})
        assert alpha.support_radius == 0

    def test_rejects_foreign_base_elements(self):
        with pytest.raises(ValueError):
            build_alpha(OVER_Z, Perm((1, 0)), {}, {})

    def test_needs_the_shift_action(self):
        W = WreathProduct(SYM3, FiniteAction(cyclic_group(2)))
        with pytest.raises(ValueError):
            build_alpha(W, SWAP, {}, {})


class TestAlphaPowers:
    def test_trivial_conjugators_leave_a_run_of_f(self):
        alpha_e = build_alpha(OVER_Z, SYM3.identity, {}, {})
        alpha_f = build_alpha(OVER_Z, SWAP, {}, {})
        product = alpha_power_form(alpha_e, alpha_f, 3)
        assert product == OVER_Z.element({1: SWAP, 2: SWAP, 3: SWAP}, 0)

    def test_zeroth_power_is_the_identity(self):
        alpha_e = build_alpha(OVER_Z, SYM3.identity, {}, {})
        alpha_f = build_alpha(OVER_Z, SWAP, {}, {})
        assert alpha_power_form(alpha_e, alpha_f, 0) == OVER_Z.identity()
        assert assemble_alpha_power(alpha_e, alpha_f, 0) == OVER_Z.identity()

    def test_negative_exponents_are_rejected(self):
        alpha = build_alpha(OVER_Z, SWAP, {}, {})
        with pytest.raises(ValueError):
            alpha_power_form(alpha, alpha, -1)
        with pytest.raises(ValueError):
            assemble_alpha_power(alpha, alpha, -1)

    def test_assembled_form_matches_direct_computation(self):
        rng = random.Random(41)
        for _ in range(100):
            alpha_e = build_alpha(OVER_Z, SYM3.identity,
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            alpha_f = build_alpha(OVER_Z, rng.choice(SYM3.elements),
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            m = rng.randint(0, 5)
            assert alpha_power_form(alpha_e, alpha_f, m) == \
                assemble_alpha_power(alpha_e, alpha_f, m)

    def test_assembled_form_matches_at_a_large_power(self):
        rng = random.Random(67)
        for _ in range(5):
            alpha_e = random_alpha(rng, OVER_Z, SYM3.identity, 4)
            alpha_f = random_alpha(rng, OVER_Z, rng.choice(SYM3.elements), 4)
            assert alpha_power_form(alpha_e, alpha_f, 1000) == \
                assemble_alpha_power(alpha_e, alpha_f, 1000)


class TestBeta:
    def test_no_outer_conjugation_reduces_to_the_power_form(self):
        rng = random.Random(43)
        alpha_e = build_alpha(OVER_Z, SYM3.identity, _random_coords(rng, SYM3, WINDOW), {})
        alpha_g = build_alpha(OVER_Z, ROT, _random_coords(rng, SYM3, WINDOW), {})
        assert beta(alpha_e, alpha_g, 4, 0) == alpha_power_form(alpha_e, alpha_g, 4)

    def test_trivial_conjugators_shift_the_run_down(self):
        alpha_e = build_alpha(OVER_Z, SYM3.identity, {}, {})
        alpha_f = build_alpha(OVER_Z, SWAP, {}, {})
        assert beta(alpha_e, alpha_f, 2, 1) == OVER_Z.element({0: SWAP, 1: SWAP}, 0)

    def test_head_is_always_the_zero_shift(self):
        rng = random.Random(47)
        for _ in range(50):
            alpha_e = build_alpha(OVER_Z, SYM3.identity,
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            alpha_g = build_alpha(OVER_Z, rng.choice(SYM3.elements),
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            assert beta(alpha_e, alpha_g, rng.randint(0, 5), rng.randint(0, 3)).head == 0

    def test_assembled_form_matches_direct_computation(self):
        rng = random.Random(53)
        for _ in range(100):
            alpha_e = build_alpha(OVER_Z, SYM3.identity,
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            alpha_g = build_alpha(OVER_Z, rng.choice(SYM3.elements),
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            m, n = rng.randint(0, 5), rng.randint(0, 3)
            assert beta(alpha_e, alpha_g, m, n) == \
                assemble_beta(alpha_e, alpha_g, m, n)

    def test_assembled_form_matches_at_large_exponents(self):
        rng = random.Random(71)
        for _ in range(5):
            alpha_e = random_alpha(rng, OVER_Z, SYM3.identity, 4)
            alpha_g = random_alpha(rng, OVER_Z, rng.choice(SYM3.elements), 4)
            assert beta(alpha_e, alpha_g, 1000, 500) == \
                assemble_beta(alpha_e, alpha_g, 1000, 500)


class TestForeignAmbients:
    def test_closed_forms_refuse_alphas_from_different_ambients(self):
        C3 = cyclic_group(3)
        other = WreathProduct(C3, IntTranslation())
        rot3 = C3.elements[1]
        alpha_s = build_alpha(OVER_Z, SWAP, {1: ROT}, {-1: SWAP})
        alpha_c = build_alpha(other, rot3, {0: rot3}, {})
        message = "^elements live in different ambient wreath products$"
        for first, second in ((alpha_s, alpha_c), (alpha_c, alpha_s)):
            for m in (0, 3):
                with pytest.raises(ValueError, match=message):
                    alpha_power_form(first, second, m)
                with pytest.raises(ValueError, match=message):
                    assemble_alpha_power(first, second, m)
                for n in (0, 2):
                    with pytest.raises(ValueError, match=message):
                        beta(first, second, m, n)
                    with pytest.raises(ValueError, match=message):
                        assemble_beta(first, second, m, n)


class TestBetaParams:
    def test_minimal_choices(self):
        assert (choose_mn(0, 0).m, choose_mn(0, 0).n) == (1, 1)
        assert (choose_mn(2, 3).m, choose_mn(2, 3).n) == (6, 2)
        assert (choose_mn(3, 1).m, choose_mn(3, 1).n) == (7, 1)

    def test_chosen_pairs_satisfy_the_constraints(self):
        for c in range(5):
            for d in range(5):
                params = choose_mn(c, d)
                assert params.m > c + max(c, d)
                assert params.d - params.n < params.c
                assert params.n >= 1

    def test_non_minimal_admissible_pairs_are_accepted(self):
        BetaParams(m=10, n=5, c=2, d=3)
        BetaParams(m=2, n=1, c=0, d=0)

    def test_inadmissible_pairs_are_rejected(self):
        with pytest.raises(ValueError):
            BetaParams(m=5, n=2, c=2, d=3)  # m not beyond the windows
        with pytest.raises(ValueError):
            BetaParams(m=10, n=0, c=2, d=3)  # n below 1
        with pytest.raises(ValueError):
            BetaParams(m=10, n=1, c=2, d=5)  # trailing window reaches c
        with pytest.raises(ValueError):
            BetaParams(m=10, n=1, c=-1, d=0)


class TestGammaCoordinate:
    def test_trivial_conjugators_read_at_zero(self):
        alpha_e = build_alpha(OVER_Z, SYM3.identity, {}, {})
        for g in (SWAP, ROT, SYM3.identity):
            alpha_g = build_alpha(OVER_Z, g, {}, {})
            params, found = gamma_coordinate(alpha_e, alpha_g)
            assert params.c == 0 and found == g

    def test_seeded_instances_isolate_the_element(self):
        rng = random.Random(59)
        for _ in range(50):
            alpha_e = build_alpha(OVER_Z, SYM3.identity,
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            g = rng.choice(SYM3.elements)
            alpha_g = build_alpha(OVER_Z, g,
                                  _random_coords(rng, SYM3, WINDOW),
                                  _random_coords(rng, SYM3, WINDOW))
            params, found = gamma_coordinate(alpha_e, alpha_g)
            assert params == choose_mn(alpha_e.support_radius, alpha_g.support_radius)
            assert params.c == alpha_e.support_radius
            assert found == g

    def test_lying_about_the_radius_breaks_the_contract(self):
        honest = build_alpha(OVER_Z, SYM3.identity, {-1: ROT}, {})
        lying = AlphaElement(honest.element, honest.g, honest.conjugator,
                             support_radius=0)
        alpha_g = build_alpha(OVER_Z, SWAP, {}, {})
        with pytest.raises(CoordinateContractError):
            gamma_coordinate(lying, alpha_g)


class TestOrbitCollapse:
    def setup_method(self):
        # Head <(0 1)> on three points: orbit {0, 1}, fixed point 2.
        self.W = WreathProduct(SYM3, FiniteAction(closure([Perm.from_cycles([(0, 1)], 3)])))
        self.k = Perm.from_cycles([(0, 1)], 3)

    def test_collapse_product_reads_around_the_orbit(self):
        u = {0: SWAP, 1: ROT}
        assert collapse_orbit_product(self.W, 0, self.k, u) == SWAP * ROT
        assert collapse_orbit_product(self.W, 0, self.k, {1: ROT}) == ROT

    def test_collapse_conjugator_folds_the_orbit_to_one_point(self):
        u = {0: SWAP, 1: ROT}
        v = {2: ROT}
        element = self.W.element({**u, **v}, self.k)
        a = collapse_orbit_conjugator(self.W, 0, self.k, u)
        folded = collapse_orbit_product(self.W, 0, self.k, u)
        assert element.conjugate_by(a) == self.W.element({0: folded, **v}, self.k)

    def test_uniform_conjugator_twists_one_coordinate(self):
        v = {2: SWAP}
        element = self.W.element({0: ROT, **v}, self.k)
        c = uniform_orbit_conjugator(self.W, 0, self.k, SWAP)
        assert c.support() == (0, 1)
        assert element.conjugate_by(c) == \
            self.W.element({0: SWAP.inverse() * ROT * SWAP, **v}, self.k)

    def test_off_orbit_coordinates_are_rejected(self):
        with pytest.raises(ValueError):
            collapse_orbit_product(self.W, 0, self.k, {2: SWAP})
        with pytest.raises(ValueError):
            collapse_orbit_conjugator(self.W, 0, self.k, {0: SWAP, 2: SWAP})

    def test_coordinates_outside_the_base_group_are_rejected(self):
        C3 = cyclic_group(3)
        W = WreathProduct(C3, FiniteAction(cyclic_group(2)))
        k = W.action.head.elements[1]
        for collapse in (collapse_orbit_product, collapse_orbit_conjugator):
            with pytest.raises(ValueError, match=r"^Perm\(\(1, 0, 2\)\) is not in the base group$"):
                collapse(W, 0, k, {0: SWAP})
            with pytest.raises(ValueError, match="is not in the base group"):
                collapse(W, 0, k, {0: C3.elements[1], 1: Perm((1, 0))})

    def test_a_bool_is_no_point(self):
        C3 = cyclic_group(3)
        W = WreathProduct(C3, FiniteAction(cyclic_group(2)))
        k = W.action.head.elements[1]
        for collapse in (collapse_orbit_product, collapse_orbit_conjugator):
            with pytest.raises(ValueError, match="^point True is not in the index set$"):
                collapse(W, 0, k, {True: C3.elements[1]})
            with pytest.raises(ValueError, match="^point False is not in the index set$"):
                collapse(W, 0, k, {False: C3.elements[1]})

    def test_collapse_returns_the_base_groups_own_elements(self):
        u = {0: Perm(SWAP.images), 1: Perm(ROT.images)}
        folded = collapse_orbit_product(self.W, 0, self.k, u)
        assert folded is SYM3.elements[SYM3.index_of(SWAP * ROT)]
        a = collapse_orbit_conjugator(self.W, 0, self.k, u)
        assert a.base == ((1, SYM3.elements[SYM3.index_of(ROT)]),)


class TestTorsionIgset:
    def test_c2_wr_c2_gives_two_elements(self):
        C2 = cyclic_group(2)
        W = WreathProduct(C2, FiniteAction(C2))
        flip = C2.elements[1]
        igset = torsion_igset(W, [flip], [flip])
        assert igset == (W.base_embed(flip, 0), W.head_embed(flip))

    def test_trivial_head_keeps_only_the_base_set(self):
        C2 = cyclic_group(2)
        trivial = cyclic_group(1)
        W = WreathProduct(C2, FiniteAction(trivial))
        igset = torsion_igset(W, [C2.elements[1]], [trivial.identity])
        assert igset == (W.base_embed(C2.elements[1], 0),)

    def test_transitive_action_uses_one_representative(self):
        W = WreathProduct(cyclic_group(3), FiniteAction(SYM3))
        rot3 = cyclic_group(3).elements[1]
        igset = torsion_igset(W, [rot3], [SWAP, ROT])
        assert len(igset) == 3

    def test_intransitive_action_embeds_per_orbit(self):
        # Head <(0 1)> on 3 points: orbits {0, 1} and {2}.
        head = closure([Perm.from_cycles([(0, 1)], 3)])
        C2 = cyclic_group(2)
        W = WreathProduct(C2, FiniteAction(head))
        flip = C2.elements[1]
        igset = torsion_igset(W, [flip], [head.elements[1]])
        assert igset == (W.base_embed(flip, 0), W.base_embed(flip, 2),
                         W.head_embed(head.elements[1]))

    def test_output_invariably_generates_the_ambient(self):
        C2 = cyclic_group(2)
        W = WreathProduct(C2, FiniteAction(C2))
        flip = C2.elements[1]
        igset = torsion_igset(W, [flip], [flip])
        ambient, embed = W.imprimitive_embedding()
        ok, _ = invariably_generates(ambient, [embed(u) for u in igset])
        assert ok

    def test_preconditions_are_checked(self):
        W = WreathProduct(SYM3, FiniteAction(cyclic_group(2)))
        flip = cyclic_group(2).elements[1]
        with pytest.raises(ValueError):
            torsion_igset(W, [SWAP], [flip])  # one transposition is not enough
        with pytest.raises(ValueError):
            torsion_igset(W, [SWAP, ROT], [cyclic_group(2).identity])
        with pytest.raises(ValueError):
            torsion_igset(OVER_Z, [SWAP, ROT], [flip])


class TestNottorsionIgset:
    def test_c2_over_the_shifts(self):
        C2 = cyclic_group(2)
        W = WreathProduct(C2, IntTranslation())
        flip = C2.elements[1]
        igset = nottorsion_igset(W, [flip], 1, [1])
        assert igset == (W.head_embed(1), W.base_embed(flip, 0),
                         W.base_embed(flip, 0) * W.head_embed(1))

    def test_trivial_base_keeps_only_the_shifts(self):
        trivial = cyclic_group(1)
        W = WreathProduct(trivial, IntTranslation())
        igset = nottorsion_igset(W, [trivial.identity], 1, [1])
        assert igset == (W.head_embed(1),)

    def test_sym3_with_a_distinct_orbit_shift_gives_six(self):
        igset = nottorsion_igset(OVER_Z, [SWAP, ROT], 2, [1])
        assert len(igset) == 6
        assert igset[0] == OVER_Z.head_embed(1)
        assert OVER_Z.head_embed(2) in igset

    def test_preconditions_are_checked(self):
        with pytest.raises(ValueError, match="does not generate the base group"):
            nottorsion_igset(OVER_Z, [SWAP], 1, [1])  # does not generate Sym(3)
        with pytest.raises(ValueError, match="infinite order"):
            nottorsion_igset(OVER_Z, [SWAP, ROT], 0, [1])  # zero orbit shift
        with pytest.raises(ValueError, match="do not invariably generate the integers"):
            nottorsion_igset(OVER_Z, [SWAP, ROT], 1, [2, 4])  # gcd 2
        W = WreathProduct(SYM3, FiniteAction(cyclic_group(2)))
        with pytest.raises(ValueError, match="^nottorsion-igset needs the integer-shift head$"):
            nottorsion_igset(W, [SWAP, ROT], 1, [1])  # a finite action
