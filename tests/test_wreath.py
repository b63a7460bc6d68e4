"""Wreath-product arithmetic against the defining relation and a faithful copy."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathgen import groups, wreath
from wreathgen.actions import (FiniteAction, IntTranslation, apply, cyclic_orbit,
                               orbit_reps, regular_action)
from wreathgen.groups import (GroupTooLargeError, Perm, cyclic_group,
                              symmetric_group)
from wreathgen.parsing import parse_ambient
from wreathgen.wreath import (DEFAULT_ENUMERATION_CAP, WreathElement,
                              WreathProduct)

C2 = cyclic_group(2)
SYM3 = symmetric_group(3)
SMALL = WreathProduct(C2, FiniteAction(C2))
OVER_Z = WreathProduct(SYM3, IntTranslation())
SYM3_WR_C3 = WreathProduct(SYM3, FiniteAction(cyclic_group(3)))
SWAP = Perm.from_cycles([(0, 1)], 3)


def random_z_element(rng, max_shift=4, window=8, W=OVER_Z):
    coords = {x: rng.choice(W.base_group.elements)
              for x in range(-window, window + 1) if rng.random() < 0.3}
    return W.element(coords, rng.randint(-max_shift, max_shift))


def random_element(rng, W):
    """A random element of either kind of ambient: a shift ambient or a finite one."""
    if isinstance(W.action, IntTranslation):
        return random_z_element(rng, W=W)
    coords = {x: rng.choice(W.base_group.elements)
              for x in W.action.points() if rng.random() < 0.5}
    return W.element(coords, rng.choice(W.action.head.elements))


def naive_pow(u, n):
    """u^n as |n| repeated products, the definition of the power."""
    step = u if n >= 0 else u.inverse()
    result = u.ambient.identity()
    for _ in range(abs(n)):
        result = result * step
    return result


def union_mul(u, v):
    """The product read point by point over the union of both supports:
    x -> u(x) * v(x.k1), composing with the identity off a support."""
    action = u.ambient.action
    left, right = dict(u.base), dict(v.base)
    k1_inv = action.head_inverse(u.head)
    points = set(left) | set(map(action.point_map(k1_inv), right))
    identity = u.ambient.base_group.identity
    merged = {}
    for x in points:
        g = left.get(x, identity) * right.get(action.point_map(u.head)(x), identity)
        if not g.is_identity():
            merged[x] = g
    return WreathElement(u.ambient, tuple(sorted(merged.items())),
                         action.head_compose(u.head, v.head))


def compose_mul(u, v):
    """The product as it was made before the base group's memo: a fresh Perm
    through compose for each point in both supports."""
    action = u.ambient.action
    k1_inv = action.head_inverse(u.head)
    identity = u.ambient.base_group.identity.images
    merged = dict(u.base)
    for z, h in v.base:
        x = action.point_map(k1_inv)(z)
        if x in merged:
            g = merged.pop(x) * h
            if g.images != identity:
                merged[x] = g
        else:
            merged[x] = h
    return WreathElement(u.ambient, tuple(sorted(merged.items())),
                         action.head_compose(u.head, v.head))


def compose_inverse(u):
    """The inverse as it was made before the memo: Perm.inverse per coordinate."""
    action = u.ambient.action
    flipped = {action.point_map(u.head)(x): g.inverse() for x, g in u.base}
    return WreathElement(u.ambient, tuple(sorted(flipped.items())),
                         action.head_inverse(u.head))


def compose_pow(u, n):
    """Square-and-multiply over compose_mul and compose_inverse."""
    if n < 0:
        return compose_pow(compose_inverse(u), -n)
    result, square = u.ambient.identity(), u
    while n:
        if n & 1:
            result = compose_mul(result, square)
        n >>= 1
        if n:
            square = compose_mul(square, square)
    return result


class TestAmbient:
    def test_conjugating_a_coordinate_translates_its_index(self):
        for W in (SMALL, WreathProduct(SYM3, FiniteAction(C2))):
            head_elements = W.action.head.elements
            for g in W.base_group.elements:
                for k in head_elements:
                    kk = W.head_embed(k)
                    for y in W.action.points():
                        assert kk.inverse() * W.base_embed(g, y) * kk == \
                            W.base_embed(g, apply(W.action, y, k))

    @pytest.mark.parametrize("action_type, spec", [
        (FiniteAction, "cyclic 3 wr (cyclic 3, natural)"),
        (FiniteAction, "cyclic 2 wr (sym 3, regular)"),
        (IntTranslation, "sym 3 wr int-translation"),
    ])
    def test_the_self_test_refuses_a_broken_convention(self, monkeypatch, action_type, spec):
        # Taking each head element for its own inverse breaks the relation
        # on a head generator of order above 2.
        monkeypatch.setattr(action_type, "head_inverse", lambda self, h: h)
        with pytest.raises(RuntimeError, match="^conjugation convention violated: "):
            parse_ambient(spec)

    def test_the_self_test_checks_every_orbit_representative(self, monkeypatch):
        # Each base generator is placed at every representative in one element.
        W = parse_ambient("sym 3 wr perm-action 7: (0 1 2), (3 4)")
        reps = orbit_reps(W.action)
        assert reps == [0, 3, 5, 6]
        placed = []
        element = WreathProduct.element

        def recorded(self, base, head):
            placed.append(dict(base))
            return element(self, base, head)

        monkeypatch.setattr(WreathProduct, "element", recorded)
        WreathProduct(W.base_group, W.action)
        for g in W.base_group.generators:
            assert dict.fromkeys(reps, g) in placed

    def test_many_head_orbits_are_refused_before_any_product(self, monkeypatch):
        monkeypatch.setattr(wreath, "DEFAULT_ENUMERATION_CAP", 5)
        products = []
        mul = WreathElement.__mul__

        def counted(u, v):
            products.append((u, v))
            return mul(u, v)

        monkeypatch.setattr(WreathElement, "__mul__", counted)
        # (0 1) fixes 8 of 10 points: at least 8 orbits, past the cap of 5.
        with pytest.raises(GroupTooLargeError, match=r"^too large for the enumeration cap: "
                           r"head orbits to self-test, at least 8 > 5$"):
            parse_ambient("cyclic 2 wr perm-action 10: (0 1)")
        assert products == []
        # The bound subtracts each generator's moved points: 10 - 4 - 2 = 4,
        # under the cap, so this one builds, with 7 orbits.
        W = parse_ambient("cyclic 2 wr perm-action 10: (0 1 2 3), (0 1)")
        assert len(orbit_reps(W.action)) == 7
        assert products

    def test_orders(self):
        assert SMALL.order() == 8
        assert WreathProduct(SYM3, FiniteAction(C2)).order() == 72
        assert WreathProduct(cyclic_group(3), FiniteAction(SYM3)).order() == 162

    def test_infinite_ambient_has_no_order(self):
        with pytest.raises(ValueError):
            OVER_Z.order()
        with pytest.raises(ValueError, match="infinite"):
            OVER_Z.enumerate_elements()
        with pytest.raises(ValueError, match="infinite"):
            OVER_Z.imprimitive_embedding()

    def test_element_drops_identity_coordinates(self):
        u = SMALL.element({0: C2.identity, 1: C2.elements[1]}, C2.identity)
        assert u.support() == (1,)
        assert u.coordinate(0) == C2.identity

    def test_element_validation(self):
        flip = C2.elements[1]
        with pytest.raises(ValueError):
            SMALL.element({2: flip}, C2.identity)
        with pytest.raises(ValueError):
            SMALL.element({0: Perm.identity(3)}, C2.identity)
        with pytest.raises(ValueError):
            SMALL.element({0: flip}, Perm.identity(3))
        with pytest.raises(ValueError):
            OVER_Z.element({0: SYM3.elements[1]}, True)

    def test_a_bool_is_no_point_of_either_action(self):
        # True == 1 is a point of the natural action of C_2, but not as a bool:
        # `(0 1)@True` would not read back.
        W = parse_ambient("sym 3 wr (cyclic 2, natural)")
        flip = W.action.head.elements[1]
        for ambient in (W, OVER_Z):
            with pytest.raises(ValueError, match="^point True is not in the index set$"):
                ambient.element({True: SWAP}, ambient.action.head_identity())
            with pytest.raises(ValueError, match="^point True is not in the index set$"):
                ambient.base_embed(SWAP, True)
            with pytest.raises(ValueError, match="^point True is not in the index set$"):
                apply(ambient.action, True, ambient.action.head_identity())
        with pytest.raises(ValueError, match="^point True is not in the index set$"):
            cyclic_orbit(W.action, True, flip)
        assert W.base_embed(SWAP, 1).coordinate(1) == SWAP
        assert cyclic_orbit(W.action, 1, flip) == [1, 0]

    def test_enumeration_is_deterministic_and_complete(self):
        listed = SMALL.enumerate_elements()
        assert len(listed) == 8
        assert len(set(listed)) == 8
        assert listed == SMALL.enumerate_elements()
        assert listed[0] == SMALL.identity()

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(wreath, "DEFAULT_ENUMERATION_CAP", 10)
        W = WreathProduct(SYM3, FiniteAction(C2))
        with pytest.raises(GroupTooLargeError,
                           match="enumeration cap: elements to enumerate 72 > 10$"):
            W.enumerate_elements()

    def test_embedding_cap_comes_before_any_generator(self, monkeypatch):
        monkeypatch.setattr(wreath, "DEFAULT_ENUMERATION_CAP", 10)
        W = WreathProduct(SYM3, FiniteAction(C2))

        def unbuilt(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(WreathProduct, "base_embed", unbuilt)
        with pytest.raises(GroupTooLargeError,
                           match="enumeration cap: order of the copy to embed 72 > 10$"):
            W.imprimitive_embedding()


class TestElementArithmetic:
    def test_known_product_over_the_integers(self):
        a = SYM3.elements[1]
        c = SYM3.elements[2]
        u = OVER_Z.element({0: a}, 2)
        v = OVER_Z.element({-1: c}, -3)
        expected = OVER_Z.element({0: a, -3: c}, -1)
        assert u * v == expected

    def test_identity_and_inverse(self):
        rng = random.Random(11)
        for _ in range(100):
            u = random_z_element(rng)
            assert u * OVER_Z.identity() == u
            assert OVER_Z.identity() * u == u
            assert u * u.inverse() == OVER_Z.identity()
            assert u.inverse() * u == OVER_Z.identity()

    def test_associativity_over_the_integers(self):
        rng = random.Random(5)
        for _ in range(200):
            u, v, w = (random_z_element(rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_head_of_a_product_is_the_product_of_heads(self):
        rng = random.Random(7)
        for _ in range(100):
            u, v = random_z_element(rng), random_z_element(rng)
            assert (u * v).head == u.head + v.head

    def test_support_of_a_product_is_bounded(self):
        rng = random.Random(13)
        for _ in range(200):
            u, v = random_z_element(rng), random_z_element(rng)
            allowed = set(u.support()) | {x - u.head for x in v.support()}
            assert set((u * v).support()) <= allowed

    def test_powers(self):
        rng = random.Random(17)
        for _ in range(50):
            u = random_z_element(rng, max_shift=2, window=3)
            assert u ** 0 == OVER_Z.identity()
            assert u ** 3 == u * u * u
            assert u ** -2 == (u.inverse()) ** 2
            assert u ** 2 * u ** -2 == OVER_Z.identity()

    def test_conjugation_is_by_inverse_on_the_left(self):
        rng = random.Random(19)
        for _ in range(50):
            u, a = random_z_element(rng), random_z_element(rng)
            assert u.conjugate_by(a) == a.inverse() * u * a

    def test_elements_of_different_ambients_do_not_mix(self):
        u = SMALL.identity()
        v = OVER_Z.identity()
        with pytest.raises(ValueError):
            u * v

    def test_coordinate_point_validation(self):
        with pytest.raises(ValueError):
            SMALL.identity().coordinate(5)


class TestFastPathsAgainstDefinitions:
    """Square-and-multiply powers and the fold-in product against the
    definitions they replace, over the integers and over a finite head."""

    def test_product_equals_the_union_of_points_product(self):
        rng = random.Random(53)
        for W in (OVER_Z, SYM3_WR_C3):
            for _ in range(300):
                u, v = random_element(rng, W), random_element(rng, W)
                assert u * v == union_mul(u, v)

    def test_power_equals_repeated_products(self):
        rng = random.Random(59)
        for W in (OVER_Z, SYM3_WR_C3):
            for _ in range(6):
                u = random_element(rng, W)
                for n in range(-40, 41):
                    assert u ** n == naive_pow(u, n)

    @pytest.mark.parametrize("spec", ["sym 3", "sym 4", "cyclic 5", "alt 4"])
    def test_shift_powers_equal_square_and_multiply(self, spec):
        W = parse_ambient(f"{spec} wr int-translation")
        G = W.base_group
        rng = random.Random(67)
        cases = []
        for h in (-7, -3, -1, 1, 2, 5, 40):
            for density in (0.15, 0.6):
                coords = {x: rng.choice(G.elements)
                          for x in range(-12, 13) if rng.random() < density}
                cases.append(W.element(coords, h))
        g = G.generators[0]
        cases += [
            W.element({0: g, 50: g, 51: g}, 1),             # gaps wider than n
            W.element({0: g, 1: G.inverse(g), 4: g}, 1),    # a window multiplying to 1
            W.element({5: g, 2: G.inverse(g), -1: g}, -3),  # the same with h < 0
        ]
        for u in cases:
            for n in (0, 1, -1, 2, -2, 3, 7, 60, -60, 257):
                power = u ** n
                assert power == compose_pow(u, n), (u, n)
                assert all(c is G.elements[G.index_of(c)] for _, c in power.base)

    def test_a_shift_power_forms_no_wreath_product(self, monkeypatch):
        u = OVER_Z.element({0: SWAP, 3: SYM3.elements[4], 4: SWAP}, 2)
        expected = {n: compose_pow(u, n) for n in (500, -500)}

        def refused(*args):
            raise AssertionError("a wreath product was formed")
        monkeypatch.setattr(WreathElement, "__mul__", refused)
        for n, power in expected.items():
            assert u ** n == power

    def test_large_power_has_the_closed_form(self):
        # (swap@0 * t)^n puts swap at 0, -1, ..., -(n-1) under the head n.
        u = OVER_Z.element({0: SWAP}, 1)
        for n in (2000, 4097):
            assert u ** n == OVER_Z.element({-i: SWAP for i in range(n)}, n)
            assert u ** -n == (u ** n).inverse()


KERNEL_AMBIENTS = ["sym 3 wr int-translation", "alt 4 wr (cyclic 2, natural)",
                   "cyclic 2 wr (sym 3, regular)"]


class TestBaseGroupMemo:
    """`*`, `inverse` and `**` through the base group's `product` and row of
    inverses, against the compose-based copies above."""

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "past-budget"])
    @pytest.mark.parametrize("spec", KERNEL_AMBIENTS)
    def test_memo_arithmetic_equals_the_compose_copy(self, monkeypatch, spec, kept):
        if not kept:
            # One slot short of all the base group's rows: it keeps no table.
            order = len(parse_ambient(spec).base_group)
            monkeypatch.setattr(groups, "RIGHT_MAP_BUDGET", order * order - 1)
        W = parse_ambient(spec)
        G = W.base_group

        def own(u):
            return all(g is G.elements[G.index_of(g)] for _, g in u.base)

        rng = random.Random(71)
        for _ in range(300):
            # Coordinates given as copies: element() swaps in G's own objects.
            u, v = (W.element({x: Perm(g.images) for x, g in w.base}, w.head)
                    for w in (random_element(rng, W), random_element(rng, W)))
            n = rng.randint(-9, 9)
            product, inverse, power = u * v, u.inverse(), u ** n
            assert product == compose_mul(u, v)
            assert inverse == compose_inverse(u)
            assert power == compose_pow(u, n)
            assert all(map(own, (u, v, product, inverse, power)))
        # Inverses were read from the row of inverses.
        assert any(G._inverses)
        # Products were worked out directly: the arithmetic began no row.
        if kept:
            assert not any(G._rows)
        else:
            assert G._rows is None


class TestPowerBudget:
    def test_a_pure_shift_power_answers_at_once(self):
        assert OVER_Z.head_embed(1) ** 99999999 == OVER_Z.head_embed(99999999)

    def test_a_growing_power_is_refused_before_it_starts(self):
        u = OVER_Z.element({0: SWAP}, 1)
        for n in (99999999, -99999999):
            with pytest.raises(GroupTooLargeError,
                               match="support may reach 99999999 > 100000$"):
                u ** n

    def test_the_estimate_is_support_times_exponent(self):
        u = OVER_Z.element({0: SWAP, 1: SWAP}, 3)
        limit = DEFAULT_ENUMERATION_CAP // 2
        assert len((u ** limit).base) == DEFAULT_ENUMERATION_CAP
        with pytest.raises(GroupTooLargeError):
            u ** (limit + 1)

    def test_the_estimate_is_at_most_width_plus_spread(self):
        # 200 points of support, but u^1000 covers at most 200 + 999 points.
        u = OVER_Z.element({x: SWAP for x in range(200)}, 1)
        assert len((u ** 1000).base) <= 1199
        assert len((u ** -1000).base) <= 1199

    def test_powers_that_cannot_grow_are_not_refused(self):
        pure_base = OVER_Z.element({0: SWAP, 5: SYM3.elements[3]}, 0)
        assert pure_base ** 99999999 == pure_base ** 3
        rng = random.Random(61)
        for _ in range(20):
            # Every element order divides |sym 3 wr c3| = 648.
            u = random_element(rng, SYM3_WR_C3)
            assert u ** (648 * 10**9 + 5) == u ** 5


class TestFaithfulCopy:
    def test_embedding_is_a_bijective_homomorphism_on_c2_wr_c2(self):
        group, embed = SMALL.imprimitive_embedding()
        elements = SMALL.enumerate_elements()
        images = {embed(u) for u in elements}
        assert len(images) == len(elements) == group.order
        assert images == set(group.elements)
        for u in elements:
            for v in elements:
                assert embed(u * v) == embed(u) * embed(v)

    def test_embedding_spot_checks_on_c3_wr_sym3(self):
        W = WreathProduct(cyclic_group(3), FiniteAction(SYM3))
        group, embed = W.imprimitive_embedding()
        assert group.order == 162
        rng = random.Random(23)
        pool = W.enumerate_elements()
        for _ in range(200):
            u, v = rng.choice(pool), rng.choice(pool)
            assert embed(u * v) == embed(u) * embed(v)

    def test_embedding_rejects_foreign_elements(self):
        _, embed = SMALL.imprimitive_embedding()
        with pytest.raises(ValueError):
            embed(OVER_Z.identity())

    def test_embedding_accepts_an_equal_ambient_rebuilt_from_the_same_text(self):
        text = "sym 3 wr (cyclic 2, natural)"
        W = parse_ambient(text)
        _, embed = W.imprimitive_embedding()
        rebuilt = parse_ambient(text)
        assert rebuilt is not W and rebuilt == W
        for u in rebuilt.enumerate_elements():
            assert embed(u) == embed(W.element(dict(u.base), u.head))

    def test_embedding_refuses_an_element_of_another_finite_ambient(self):
        _, embed = parse_ambient("sym 3 wr (cyclic 2, natural)").imprimitive_embedding()
        other = parse_ambient("cyclic 3 wr (cyclic 2, natural)")
        for u in (other.identity(), other.head_embed(other.action.head.generators[0])):
            with pytest.raises(ValueError,
                               match="^element from a different ambient wreath product$"):
                embed(u)


class TestDirectConstruction:
    """enumerate_elements and the embedding build their results without the
    checks of WreathProduct.element and Perm; they must give what those give."""

    AMBIENTS = {
        "natural": WreathProduct(SYM3, FiniteAction(C2)),
        "regular": WreathProduct(C2, regular_action(SYM3)),
        "trivial base": WreathProduct(cyclic_group(1), FiniteAction(SYM3)),
        "alt 4 wr (cyclic 2, natural)": parse_ambient("alt 4 wr (cyclic 2, natural)"),
        # Three heads share each of the 216 base tuples.
        "sym 3 wr (cyclic 3, natural)": parse_ambient("sym 3 wr (cyclic 3, natural)"),
    }

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_enumeration_equals_building_through_element(self, name):
        W = self.AMBIENTS[name]
        points = list(W.action.points())
        built = [W.element(dict(zip(points, picks)), head)
                 for head in W.action.head.elements
                 for picks in itertools.product(W.base_group.elements, repeat=len(points))]
        assert W.enumerate_elements() == built

    @pytest.mark.parametrize("name", AMBIENTS)
    def test_embedded_images_are_valid_permutations(self, name):
        W = self.AMBIENTS[name]
        group, embed = W.imprimitive_embedding()
        for u in W.enumerate_elements():
            image = embed(u)
            assert image == Perm(image.images)
            assert image in group


class TestAgainstFiniteWindow:
    """Products over the integers against a large cyclic head, support kept clear
    of the wraparound."""

    MODULUS = 40
    OFFSET = 20

    def setup_method(self):
        self.windowed = WreathProduct(SYM3, FiniteAction(cyclic_group(self.MODULUS)))
        self.rotation = self.windowed.action.head.generators[0]

    def to_window(self, u):
        coords = {x + self.OFFSET: g for x, g in u.base}
        head = self.windowed.action.head.identity
        step = self.rotation if u.head >= 0 else self.rotation.inverse()
        for _ in range(abs(u.head)):
            head = head * step
        return self.windowed.element(coords, head)

    def test_products_agree_inside_the_safe_window(self):
        rng = random.Random(29)
        for _ in range(200):
            u = random_z_element(rng, max_shift=4, window=8)
            v = random_z_element(rng, max_shift=4, window=8)
            assert self.to_window(u * v) == self.to_window(u) * self.to_window(v)

    def test_inverses_agree_inside_the_safe_window(self):
        rng = random.Random(31)
        for _ in range(200):
            u = random_z_element(rng, max_shift=4, window=8)
            assert self.to_window(u.inverse()) == self.to_window(u).inverse()


@given(st.lists(st.sampled_from(range(6)), min_size=1, max_size=5),
       st.integers(min_value=-3, max_value=3))
def test_hypothesis_inverse_of_products(indices, shift):
    factors = [OVER_Z.element({i - 2: SYM3.elements[i]}, shift) for i in indices]
    product = OVER_Z.identity()
    for f in factors:
        product = product * f
    reversed_inverses = OVER_Z.identity()
    for f in reversed(factors):
        reversed_inverses = reversed_inverses * f.inverse()
    assert product.inverse() == reversed_inverses


# Copies of `element`, `identity`, `base_embed`, `head_embed`, `*`, `inverse`
# and `FiniteGroup.product` as they were before the pure-head shortcuts: every
# element built through one dict and a sort, every product through a list.

def old_product(G, g, h):
    hi = h.images
    return G.elements[G._index[tuple([hi[x] for x in g.images])]]


def old_element(W, base, head):
    group = W.base_group
    elements, index, identity = group.elements, group._index, group.identity
    canonical = {}
    for x, g in base.items():
        if not W.action.contains_point(x):
            raise ValueError(f"point {x!r} is not in the index set")
        i = index.get(g.images) if isinstance(g, Perm) else None
        if i is None:
            raise ValueError(f"{g!r} is not in the base group")
        g = elements[i]
        if g is not identity:
            canonical[x] = g
    if isinstance(W.action, FiniteAction):
        is_head = isinstance(head, Perm) and head in W.action.head
    else:
        is_head = W.action.contains_head(head)
    if not is_head:
        raise ValueError(f"{head!r} is not a head element")
    return wreath._element(W, tuple(sorted(canonical.items())), head)


def old_mul(u, v):
    if u.ambient is not v.ambient and u.ambient != v.ambient:
        raise ValueError("elements live in different ambient wreath products")
    action, G = u.ambient.action, u.ambient.base_group
    new_head = action.head_compose(u.head, v.head)
    point = action.point_map(action.head_inverse(u.head))
    merged = dict(u.base)
    for z, h in v.base:
        x = point(z)
        g = merged.pop(x, None)
        if g is None:
            merged[x] = h
        else:
            g = old_product(G, g, h)
            if g is not G.identity:
                merged[x] = g
    return wreath._element(u.ambient, tuple(sorted(merged.items())), new_head)


def old_inverse(u):
    action = u.ambient.action
    point = action.point_map(u.head)
    flipped = {point(x): u.ambient.base_group.inverse(g) for x, g in u.base}
    return wreath._element(u.ambient, tuple(sorted(flipped.items())),
                           action.head_inverse(u.head))


def outcome(build, *args):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# The nine finite ambients the benchmark's finite-wreath workload builds, then
# an integer head and the trivial groups as base and head.
SAME_RESULT_AMBIENTS = [
    "cyclic 2 wr (cyclic 2, natural)", "klein4 wr (cyclic 2, natural)",
    "cyclic 2 wr (sym 3, natural)", "cyclic 2 wr (klein4, natural)",
    "sym 3 wr (cyclic 2, natural)", "cyclic 3 wr (sym 3, natural)",
    "alt 4 wr (cyclic 2, natural)", "cyclic 2 wr (sym 3, regular)",
    "sym 3 wr (cyclic 3, natural)",
    "sym 3 wr int-translation", "sym 1 wr (cyclic 2, natural)",
    "cyclic 1 wr int-translation", "perm 1: () wr (sym 3, natural)",
    "cyclic 2 wr (sym 1, natural)", "cyclic 2 wr perm-action 1: ()"]


class TestSameResultsAsBefore:
    @staticmethod
    def assert_own(u):
        """Coordinates, and a finite head, are the groups' own objects."""
        G = u.ambient.base_group
        assert all(g is G.elements[G.index_of(g)] for _, g in u.base)
        if isinstance(u.ambient.action, FiniteAction):
            H = u.ambient.action.head
            assert u.head is H.elements[H.index_of(u.head)]

    @staticmethod
    def assert_same(new, old):
        assert new == old
        if isinstance(new, WreathElement):
            assert all(a is b for (_, a), (_, b) in zip(new.base, old.base))
            assert new.head is old.head or not isinstance(new.head, Perm)

    @pytest.mark.parametrize("spec", SAME_RESULT_AMBIENTS)
    def test_products_of_base_and_head_groups(self, spec):
        W = parse_ambient(spec)
        groups_ = [W.base_group]
        if isinstance(W.action, FiniteAction):
            groups_.append(W.action.head)
        for G in groups_:
            for g, h in itertools.product(G.elements, repeat=2):
                assert G.product(g, h) is old_product(G, g, h)

    @pytest.mark.parametrize("spec", SAME_RESULT_AMBIENTS)
    def test_constructors_and_their_errors(self, spec):
        W = parse_ambient(spec)
        G, action = W.base_group, W.action
        finite = isinstance(action, FiniteAction)
        degree = action.degree if finite else 3
        points = [0, degree - 1, -1, degree, True, "0"] if finite else [0, -5, 7, True, "0"]
        coords = [*G.elements, Perm.identity(G.degree + 1), Perm(G.elements[-1].images), 3, None]
        heads = ([*action.head.elements, Perm.identity(degree + 1), 1, None] if finite
                 else [0, 2, -3, True, Perm.identity(2), None])
        same = self.assert_same
        same(W.identity(), old_element(W, {}, action.head_identity()))
        for k in heads:
            same(outcome(W.head_embed, k), outcome(old_element, W, {}, k))
            same(outcome(W.element, {}, k), outcome(old_element, W, {}, k))
        for x, g in itertools.product(points, coords):
            same(outcome(W.base_embed, g, x),
                 outcome(old_element, W, {x: g}, action.head_identity()))
            for k in heads:
                same(outcome(W.element, {x: g}, k), outcome(old_element, W, {x: g}, k))
                # Two points: a fault at either is reported before the head's.
                base = {degree - 1: G.elements[-1], x: g}
                same(outcome(W.element, base, k), outcome(old_element, W, base, k))
        for u in (W.identity(), *map(W.head_embed, heads[:len(action.head) if finite else 3])):
            self.assert_own(u)

    @pytest.mark.parametrize("spec", SAME_RESULT_AMBIENTS)
    def test_products_and_inverses(self, spec):
        W = parse_ambient(spec)
        rng = random.Random(spec)
        heads = W.action.head.elements if isinstance(W.action, FiniteAction) else [0, 1, -2]
        samples = [W.identity(), *map(W.head_embed, heads)]
        samples += [random_element(rng, W) for _ in range(30)]
        samples += [W.element(dict(u.base), W.action.head_identity()) for u in samples[-5:]]
        for u in samples:
            self.assert_same(u.inverse(), old_inverse(u))
            self.assert_own(u.inverse())
            for v in rng.sample(samples, 10):
                self.assert_same(u * v, old_mul(u, v))
                self.assert_own(u * v)
        other = parse_ambient("cyclic 3 wr (cyclic 3, natural)").identity()
        assert outcome(lambda: samples[0] * other) == outcome(lambda: old_mul(samples[0], other))
