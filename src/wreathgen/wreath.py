"""Exact wreath-product arithmetic: finitely supported base tuples with a head element.

An element is a pair (w, k): a finitely supported map w from index points to
base-group elements, together with a head element k acting on the points from
the right.  Multiplication follows the convention that conjugating a single
base coordinate by a head element translates its index:

    k^-1 * g@y * k  ==  g@(y.k)

which forces (w1, k1)(w2, k2) = (x -> w1(x) * w2(x.k1), k1 k2).  Every ambient
runs a construction-time self-test of that relation on its generators.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from operator import eq
from typing import Callable

from . import groups
from .actions import ActionSpec, FiniteAction, IntTranslation, orbit_reps
from .groups import FiniteGroup, Frozen, Perm, _trusted, closure, refuse_above

DEFAULT_ENUMERATION_CAP = 100_000

HeadElement = Perm | int


class WreathProduct(Frozen):
    """The ambient wreath product of a finite base group by an acting head."""

    __match_args__ = ("base_group", "action")

    def __init__(self, base_group: FiniteGroup, action: ActionSpec) -> None:
        if not isinstance(action, (FiniteAction, IntTranslation)):
            raise TypeError(f"unsupported action: {action!r}")
        super().__init__(base_group, action)
        self._self_test()

    def __hash__(self) -> int:
        # Each element's hash hashes its ambient, yet most queries hash none.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.base_group, self.action))
        return h

    def _head_generators(self) -> list[HeadElement]:
        if isinstance(self.action, IntTranslation):
            return [1]
        return list(self.action.head.generators)

    def _self_test(self) -> None:
        # The multiplication formula is only trusted because this relation
        # holds literally; check it on generators before handing out elements,
        # at every orbit representative y at once, as the points y.k are
        # distinct and `*` treats each on its own.  A point no head generator
        # moves is an orbit of its own: refuse past the cap before any product.
        if isinstance(self.action, FiniteAction):
            d = self.action.degree
            fixed = d - sum(d - sum(map(eq, k.images, range(d))) for k in self._head_generators())
            refuse_above("enumeration cap: head orbits to self-test, at least", fixed,
                         DEFAULT_ENUMERATION_CAP)
        reps = orbit_reps(self.action)
        identity = self.action.head_identity()
        heads = []
        for k in self._head_generators():
            kk = self.head_embed(k)
            heads.append((self.action.point_map(k), kk, kk.inverse()))
        for g in self.base_group.generators:
            for move, kk, kk_inv in heads:
                lhs = kk_inv * self.element(dict.fromkeys(reps, g), identity) * kk
                rhs = self.element({move(y): g for y in reps}, identity)
                if lhs != rhs:
                    raise RuntimeError(f"conjugation convention violated: {lhs!r} != {rhs!r}")

    # -- element constructors ------------------------------------------------

    def element(self, base: Mapping[int, Perm], head: HeadElement) -> WreathElement:
        """Build an element from a mapping of points to base-group elements
        and a head element.

        Each coordinate is stored as the base group's own element equal to it.
        """
        coords: tuple[tuple[int, Perm], ...] = ()
        if base:
            group = self.base_group
            elements, index, identity = group.elements, group._index, group.identity
            contains_point = self.action.contains_point
            canonical = []
            for x, g in base.items():
                if not contains_point(x):
                    raise ValueError(f"point {x!r} is not in the index set")
                i = index.get(g.images) if isinstance(g, Perm) else None
                if i is None:
                    raise ValueError(f"{g!r} is not in the base group")
                g = elements[i]
                if g is not identity:
                    canonical.append((x, g))
            canonical.sort()  # by point: a mapping holds each point once
            coords = tuple(canonical)
        if not self.action.contains_head(head):
            raise ValueError(f"{head!r} is not a head element")
        return _element(self, coords, head)

    def identity(self) -> WreathElement:
        return self.element({}, self.action.head_identity())

    def base_embed(self, g: Perm, x: int) -> WreathElement:
        """The base element g placed at coordinate x."""
        return self.element({x: g}, self.action.head_identity())

    def head_embed(self, head: HeadElement) -> WreathElement:
        return self.element({}, head)

    # -- whole-group views ---------------------------------------------------

    def order(self) -> int:
        if isinstance(self.action, IntTranslation):
            raise ValueError("wreath product over the integers is infinite")
        return len(self.base_group) ** self.action.degree * len(self.action.head)

    def enumerate_elements(self) -> list[WreathElement]:
        """All elements, head-major: base tuples cycle fastest, rightmost point fastest."""
        refuse_above("enumeration cap: elements to enumerate", self.order(),
                     DEFAULT_ENUMERATION_CAP)
        # Group elements on ascending points: canonical once identities are dropped.
        points = self.action.points()
        identity = self.base_group.identity
        bases = [tuple([(x, g) for x, g in zip(points, picks) if g is not identity])
                 for picks in itertools.product(self.base_group.elements, repeat=len(points))]
        return [_element(self, base, head) for head in self.action.head.elements for base in bases]

    def imprimitive_embedding(self) -> tuple[FiniteGroup, Callable[[WreathElement], Perm]]:
        """A faithful permutation copy on points (x, p), plus the embedding map.

        The pair (x, p) is encoded as x * degree(base) + p and moves to
        (x.k, p.w(x)); the returned group is the closure of the embedded
        generators and has the full wreath-product order.
        """
        order = self.order()
        refuse_above("enumeration cap: order of the copy to embed", order, DEFAULT_ENUMERATION_CAP)
        degree_g = self.base_group.degree
        points = list(self.action.points())

        def embed(u: WreathElement) -> Perm:
            if u.ambient is not self and u.ambient != self:
                raise ValueError("element from a different ambient wreath product")
            images: list[int] = []
            lookup = dict(u.base)
            move = self.action.point_map(u.head)
            for x in points:  # in order 0, 1, ..., so each block lands at x * degree_g
                xk = move(x) * degree_g
                images += [xk + p for p in lookup.get(x, self.base_group.identity).images]
            return _trusted(tuple(images))

        gens = [self.base_embed(g, y)
                for y in orbit_reps(self.action) for g in self.base_group.generators]
        gens += [self.head_embed(k) for k in self._head_generators()]
        group = closure([embed(u) for u in gens])
        if len(group) != order:
            raise RuntimeError("embedded copy has wrong order")
        return group, embed


class WreathElement(Frozen):
    """One wreath-product element: sorted nontrivial base coordinates plus a head."""

    __match_args__ = ("ambient", "base", "head")

    def __eq__(self, other: object) -> bool:  # as Record's, without its getattr loop
        if other.__class__ is WreathElement:
            return (self.ambient, self.base, self.head) == (other.ambient, other.base, other.head)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient, self.base, self.head))

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.base)

    def coordinate(self, x: int) -> Perm:
        """The base entry at point x; the base group's identity off the support."""
        if not self.ambient.action.contains_point(x):
            raise ValueError(f"point {x!r} is not in the index set")
        for point, g in self.base:
            if point == x:
                return g
        return self.ambient.base_group.identity

    def is_base(self) -> bool:
        return self.head == self.ambient.action.head_identity()

    def __mul__(self, other: object) -> WreathElement:
        """(w1, k1)(w2, k2) = (x -> w1(x) * w2(x.k1), k1 k2).

        Costs one dict pass over each operand plus a sort of the result, or
        neither for a pure head on the right: each entry (z, h) of the right
        operand lands at x = z.k1^-1, and only points in both supports
        multiply two base elements, through the base group's `product`.
        """
        if not isinstance(other, WreathElement):
            return NotImplemented
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise ValueError("elements live in different ambient wreath products")
        action = self.ambient.action
        new_head = action.head_compose(self.head, other.head)
        if not other.base:
            return _element(self.ambient, self.base, new_head)
        point = action.point_map(action.head_inverse(self.head))
        group = self.ambient.base_group
        product, identity = group.product, group.identity
        merged = dict(self.base)
        for z, h in other.base:
            x = point(z)
            g = merged.pop(x, None)
            if g is None:
                merged[x] = h
            else:
                g = product(g, h)
                if g is not identity:
                    merged[x] = g
        return _element(self.ambient, tuple(sorted(merged.items())), new_head)

    def inverse(self) -> WreathElement:
        action = self.ambient.action
        k_inv = action.head_inverse(self.head)
        if not self.base:
            return _element(self.ambient, (), k_inv)
        point, inverse = action.point_map(self.head), self.ambient.base_group.inverse
        flipped = {point(x): inverse(g) for x, g in self.base}
        return _element(self.ambient, tuple(sorted(flipped.items())), k_inv)

    def __pow__(self, n: int) -> WreathElement:
        """u^n, for any integer n; u^-n is (u^-1)^n.

        Over the integers, with a nonzero head h and a nonempty base, the
        support of u^n spreads over the support of u shifted by 0, -h, ...,
        -(|n|-1)h: at most len(u.base) * |n| points, and at most the width
        of u's support plus (|n|-1)|h|.  The smaller of the two is refused
        past its budgets before any product is formed; otherwise u^n is read
        off in one pass by _shift_power, with O(len(u.base)) base-group products.

        Every other element, a pure base element, a pure shift or an element
        of a finite ambient, keeps its support bounded and is never refused.
        Its power is by square-and-multiply, at most 2 log2|n| + 1 products,
        so that an astronomically large n still answers at once.
        """
        if n < 0:
            return self.inverse() ** (-n)
        if isinstance(self.ambient.action, IntTranslation) and self.head != 0 and self.base:
            width = self.base[-1][0] - self.base[0][0] + 1
            estimate = min(len(self.base) * n, width + (n - 1) * abs(self.head))
            refuse_above("enumeration cap: points the power's support may reach", estimate,
                         DEFAULT_ENUMERATION_CAP)
            degree = self.ambient.base_group.degree
            refuse_above(f"image-entry budget: {estimate} support points of degree {degree} hold",
                         estimate * degree, groups.IMAGE_ENTRY_BUDGET)
            if n:
                return _shift_power(self, n)
        result = self.ambient.identity()
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def conjugate_by(self, a: WreathElement) -> WreathElement:
        """a^-1 * self * a."""
        return a.inverse() * self * a

    def __repr__(self) -> str:
        entries = ", ".join(f"{x}: {g.images}" for x, g in self.base)
        head = self.head.images if isinstance(self.head, Perm) else f"shift({self.head:+d})"
        return f"WreathElement({{{entries}}}, head={head})"


def _element(ambient: WreathProduct, base: tuple, head: HeadElement) -> WreathElement:
    """A WreathElement, unchecked, from sorted coordinates that are the base
    group's own elements, none the identity, and a head element."""
    u = object.__new__(WreathElement)
    d = u.__dict__
    d["ambient"], d["base"], d["head"] = ambient, base, head
    return u


def _shift_power(u: WreathElement, n: int) -> WreathElement:
    """u^n over the integers, for a head h != 0, a nonempty base and n >= 1.

    The coordinate of u^n at x is w(x) w(x+h) ... w(x+(n-1)h).  Write each
    point as r + j*h with r = x mod |h|: within one residue class the window
    j, ..., j+n-1 gains support entry i at j = i-n+1 and loses it at j = i+1,
    and between two such events the coordinate is one constant, the product
    of the entries in the window, read from running products in j order.
    """
    if n == 1:
        return u
    h = u.head
    group = u.ambient.base_group
    product, inverse, identity = group.product, group.inverse, group.identity
    step = abs(h)
    classes: dict[int, list[tuple[int, Perm]]] = {}
    for x, g in u.base:
        r = x % step
        classes.setdefault(r, []).append(((x - r) // h, g))
    coords: dict[int, Perm] = {}
    for r, entries in classes.items():
        if h < 0:
            entries.reverse()  # ascending x is descending j
        js = [j for j, _ in entries]
        prefix = list(itertools.accumulate((g for _, g in entries), product, initial=identity))
        events = sorted({*(j - n + 1 for j in js), *(j + 1 for j in js)})
        size = len(js)
        entered = left = 0
        for a, b in zip(events, events[1:]):
            while entered < size and js[entered] - n < a:
                entered += 1
            while left < size and js[left] < a:
                left += 1
            if entered - left == 1:
                value = entries[left][1]
            elif entered > left:
                value = product(inverse(prefix[left]), prefix[entered])
            else:
                continue
            if value is not identity:
                coords.update(dict.fromkeys(range(r + a * h, r + b * h, h), value))
    return _element(u.ambient, tuple(sorted(coords.items())), n * h)
