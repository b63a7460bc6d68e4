"""Head-group actions on index sets: finite faithful actions and integer shifts."""

from __future__ import annotations

from typing import Callable

from .groups import FiniteGroup, Frozen, Perm, _orbit, _refuse_order, closure, compose


class FiniteAction(Frozen):
    """A finite group permuting the points {0, ..., degree-1} it is written on.

    The head group's elements are permutations of the point set itself, so
    the action is faithful by construction: distinct elements are distinct
    point maps.

    An action is of torsion type when some point y has a head orbit whose
    every point x has a finite orbit under each cyclic subgroup <k> of the
    head.  A finite action always is, and its orbits are finitely many.
    """

    torsion_type = True
    finitely_many_orbits = True
    __match_args__ = ("head",)

    @property
    def degree(self) -> int:
        return self.head.degree

    def points(self) -> range:
        return range(self.degree)

    def head_identity(self) -> Perm:
        return self.head.identity

    def head_compose(self, a: Perm, b: Perm) -> Perm:
        return self.head.product(a, b)

    def head_inverse(self, h: Perm) -> Perm:
        return self.head.inverse(h)

    def contains_head(self, h: object) -> bool:
        return h in self.head

    def contains_point(self, x: object) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.degree

    def point_map(self, h: Perm) -> Callable[[int], int]:
        """x -> x.h, as a C-level callable."""
        return h.images.__getitem__


class IntTranslation(Frozen):
    """The integers shifting themselves: point x under shift s goes to x + s.

    Not of torsion type (see FiniteAction): the shift by one already gives
    every point an infinite orbit.  The integers form a single orbit.
    """

    torsion_type = False
    finitely_many_orbits = True

    def head_identity(self) -> int:
        return 0

    def head_compose(self, a: int, b: int) -> int:
        return a + b

    def head_inverse(self, h: int) -> int:
        return -h

    def contains_head(self, h: object) -> bool:
        return isinstance(h, int) and not isinstance(h, bool)

    def contains_point(self, x: object) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    def point_map(self, s: int) -> Callable[[int], int]:
        """x -> x + s, as a C-level callable."""
        return s.__add__


ActionSpec = FiniteAction | IntTranslation


def apply(action: ActionSpec, x: int, h) -> int:
    """The image of point x under head element h (a right action)."""
    if not action.contains_point(x):
        raise ValueError(f"point {x!r} is not in the action's index set")
    if not action.contains_head(h):
        raise ValueError(f"{h!r} is not a head element of this action")
    return action.point_map(h)(x)


def orbit_reps(action: ActionSpec) -> list[int]:
    """One representative per head orbit: the least point of each, ascending."""
    if isinstance(action, IntTranslation):
        return [0]
    maps = [g.images for g in action.head.generators]
    seen = bytearray(action.degree)
    reps: list[int] = []
    for x in action.points():
        if not seen[x]:
            reps.append(x)
            _orbit(maps, x, seen)
    return reps


def cyclic_orbit(action: ActionSpec, x: int, k) -> list[int]:
    """The finite orbit [x, x·k, x·k², ...] of x under the cyclic group <k>."""
    apply(action, x, k)  # refuses a point or head element outside the action
    if isinstance(action, IntTranslation):
        if k != 0:
            raise ValueError("orbit of a nonzero shift on the integers is infinite")
        return [x]
    return _orbit([k.images], x, bytearray(action.degree))


def regular_action(H: FiniteGroup) -> FiniteAction:
    """H permuting its own element list by right multiplication: |H| elements
    of degree |H|, refused past the image-entry budget before any Perm is made."""
    _refuse_order([len(H)], len(H))
    gens = []
    for h in H.generators:
        gens.append(Perm(tuple(H.index_of(compose(x, h)) for x in H.elements)))
    head = closure(gens)
    if len(head) != len(H):
        raise RuntimeError("regular action has wrong order")
    return FiniteAction(head)
