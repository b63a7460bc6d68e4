"""Exact arithmetic for finite permutation groups: closure, conjugacy, subgroups."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

DEFAULT_CLOSURE_CAP = 1_000_000
DEFAULT_SUBGROUP_CAP = 200


class GroupTooLargeError(Exception):
    """Raised when a closure or enumeration would exceed its configured cap."""


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation of {0, ..., n-1} stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Perm:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> Perm:
        """Build a permutation from cycles, applied left to right."""
        result = cls.identity(degree)
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {tuple(cycle)}")
            images = list(range(degree))
            for i, point in enumerate(cycle):
                if not 0 <= point < degree:
                    raise ValueError(f"point {point} out of range for degree {degree}")
                images[point] = cycle[(i + 1) % len(cycle)]
            result = compose(result, cls(tuple(images)))
        return result

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: object) -> Perm:
        if not isinstance(other, Perm):
            return NotImplemented
        return compose(self, other)

    def inverse(self) -> Perm:
        images = [0] * len(self.images)
        for x, y in enumerate(self.images):
            images[y] = x
        return Perm(tuple(images))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, each cycle starting at its least point."""
        seen = [False] * self.degree
        out: list[tuple[int, ...]] = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles(include_fixed=True)))

    def __repr__(self) -> str:
        return f"Perm({self.images})"


def compose(p: Perm, q: Perm) -> Perm:
    """Product under the right-action convention: x -> q(p(x)), with p acting first."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Perm(tuple(q.images[i] for i in p.images))


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class: its first-found representative and all members, sorted."""

    representative: Perm
    members: tuple[Perm, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: object) -> bool:
        return p in self.members


class FiniteGroup:
    """A finite permutation group held as a fully closed element list.

    Elements are listed breadth-first from the identity using the generators
    in the order given, so the listing is reproducible run to run.  Instances
    are treated as immutable after construction; the caches they carry are
    populated lazily and never change an observable value.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], elements: Sequence[Perm]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.identity = Perm.identity(degree)
        self._classes: list[ConjClass] | None = None
        self._class_index: dict[Perm, int] = {}
        self._subgroups: list[tuple[Perm, ...]] | None = None
        self._maximal: list[tuple[Perm, ...]] | None = None
        self._hash: int | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _index(self) -> dict[Perm, int]:
        # Built on the first membership or index query only: most closures
        # run inside a search are asked for their order and nothing else.
        return {p: i for i, p in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return p in self._index

    def index_of(self, p: Perm) -> int:
        return self._index[p]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.degree, self.elements))
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def closure(generators: Sequence[Perm], cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Close a nonempty generator list under multiplication, breadth-first.

    The element list starts at the identity and explores products in FIFO
    order, multiplying by the generators in the order given, which fixes a
    deterministic element order.  Raises GroupTooLargeError beyond `cap`.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"degree mismatch among generators: {g.degree} vs {degree}")
    identity = Perm.identity(degree)
    elements = [identity]
    seen = {identity}
    i = 0
    while i < len(elements):
        x = elements[i]
        i += 1
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                if len(elements) >= cap:
                    raise GroupTooLargeError(f"group too large: closure exceeded cap {cap}")
                seen.add(y)
                elements.append(y)
    return FiniteGroup(degree, gens, elements)


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    """Partition G into conjugation orbits; the identity's class comes first."""
    if G._classes is None:
        inverses = {a: a.inverse() for a in G.elements}
        classes: list[ConjClass] = []
        assigned: dict[Perm, int] = {}
        for rep in G.elements:
            if rep in assigned:
                continue
            members = {compose(compose(inverses[a], rep), a) for a in G.elements}
            for m in members:
                assigned[m] = len(classes)
            classes.append(ConjClass(rep, tuple(sorted(members))))
        G._classes = classes
        G._class_index = assigned
    return G._classes


def class_of(G: FiniteGroup, s: Perm) -> ConjClass:
    classes = conjugacy_classes(G)
    if s not in G._class_index:
        raise ValueError(f"{s!r} is not an element of the group")
    return classes[G._class_index[s]]


def generates(G: FiniteGroup, S: Iterable[Perm]) -> bool:
    """Whether the elements of S generate all of G.  S must lie inside G."""
    gens = list(S)
    for s in gens:
        if s not in G:
            raise ValueError(f"{s!r} is not an element of the group")
    if not gens:
        return len(G) == 1
    return len(closure(gens, cap=len(G))) == len(G)


def all_subgroups(G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list[tuple[Perm, ...]]:
    """Every subgroup of G, each as a sorted element tuple.

    Subgroups are produced by closing the set of cyclic subgroups under
    pairwise joins until no new subgroup appears; every subgroup is a join
    of the cyclic subgroups it contains, so the fixpoint is complete.  Only
    groups with at most `cap` elements are accepted.
    """
    if len(G) > cap:
        raise GroupTooLargeError(f"group too large for subgroup enumeration: {len(G)} > {cap}")
    if G._subgroups is None:
        cyclics = {frozenset(closure([g], cap=len(G)).elements) for g in G.elements}
        subgroups: set[frozenset[Perm]] = set(cyclics)
        frontier = list(subgroups)
        while frontier:
            fresh: list[frozenset[Perm]] = []
            for A in frontier:
                for C in cyclics:
                    if C <= A:
                        continue
                    J = frozenset(closure(sorted(A | C), cap=len(G)).elements)
                    if J not in subgroups:
                        subgroups.add(J)
                        fresh.append(J)
            frontier = fresh
        G._subgroups = sorted((tuple(sorted(s)) for s in subgroups), key=lambda t: (len(t), t))
    return G._subgroups


def maximal_subgroups(G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list[tuple[Perm, ...]]:
    """The maximal elements of the proper-subgroup poset of G."""
    if G._maximal is None:
        subs = all_subgroups(G, cap=cap)
        proper = [frozenset(s) for s in subs if len(s) < len(G)]
        maximal = [
            s for s in proper
            if not any(s < t for t in proper if len(t) > len(s))
        ]
        G._maximal = sorted((tuple(sorted(s)) for s in maximal), key=lambda t: (len(t), t))
    return G._maximal


def cyclic_group(n: int) -> FiniteGroup:
    """C_n as the rotation <(0 1 ... n-1)>; the trivial group when n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return closure([Perm.identity(1)])
    return closure([Perm(tuple((i + 1) % n for i in range(n)))])


def symmetric_group(n: int) -> FiniteGroup:
    """Sym(n) generated by (0 1) and the n-cycle (0 1 ... n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return closure([Perm.identity(1)])
    swap = Perm.from_cycles([(0, 1)], n)
    if n == 2:
        return closure([swap])
    return closure([swap, Perm(tuple((i + 1) % n for i in range(n)))])


def alternating_group(n: int) -> FiniteGroup:
    """Alt(n) from a 3-cycle and a long even cycle; trivial for n <= 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
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


def klein_four_group() -> FiniteGroup:
    """C2 x C2 as <(0 1)(2 3), (0 2)(1 3)> on four points."""
    return closure([
        Perm.from_cycles([(0, 1), (2, 3)], 4),
        Perm.from_cycles([(0, 2), (1, 3)], 4),
    ])


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n acting on the vertices of an n-gon, n >= 3."""
    if n < 3:
        raise ValueError("n must be >= 3")
    rotation = Perm(tuple((i + 1) % n for i in range(n)))
    reflection = Perm(tuple((n - i) % n for i in range(n)))
    return closure([rotation, reflection])


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 as permutations of eight points."""
    i = Perm.from_cycles([(0, 2, 1, 3), (4, 6, 5, 7)], 8)
    j = Perm.from_cycles([(0, 4, 1, 5), (2, 7, 3, 6)], 8)
    return closure([i, j])
