"""Exact arithmetic for finite permutation groups: closure, conjugacy, maximal subgroups."""

from __future__ import annotations

from functools import total_ordering
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

DEFAULT_CLOSURE_CAP = 1_000_000
# A group keeps a table of right-multiplication rows for the subgroup kernel,
# each of |G| list slots (8 bytes each), exactly when all |G| rows fit in this
# many slots: up to order 2048.  A bigger group closes subgroups over images,
# as closure does.
RIGHT_MAP_BUDGET = 1 << 22
# Image entries (order times degree) a group may hold.  Under a 600 MB
# address-space limit `classes 'cyclic n'` built C_5000 (25 million entries)
# and ran out of memory at C_5500; this leaves a margin below that.
IMAGE_ENTRY_BUDGET = 1 << 24
# Closure steps one walk over the subgroup classes may take (see maximal_subgroups).
SUBGROUP_WALK_BUDGET = 1 << 24


class GroupTooLargeError(Exception):
    """Raised, by refuse_above alone, when a search's estimate passes its limit."""


def refuse_above(what: str, estimate: int, limit: int) -> None:
    """The one refusal rule: raise GroupTooLargeError when a search's estimate
    passes its limit.  `what` names the limit, then after a colon the quantity."""
    if estimate > limit:
        raise GroupTooLargeError(f"too large for the {what} {estimate} > {limit}")


class Record:
    """A value whose fields are named once, in __match_args__; __init__ sets each from one
    positional or keyword argument.  As a dataclass, it equals its own class's instances with
    equal fields, shows as Name(field=value, ...) and is unhashable unless frozen."""

    __slots__ = __match_args__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        fields = self.__match_args__
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__} takes each of its fields "
                            f"({', '.join(fields)}) once, by position or keyword")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    """A Record hashed as the tuple of its fields, which cannot be assigned or deleted."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:  # copies and pickles are built by __init__, not setattr
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Perm(Frozen):
    """A permutation of {0, ..., n-1} stored as its tuple of images."""

    # A slot, smaller than an instance dict, which _trusted fills through its setter.
    __slots__ = __match_args__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        if type(images) is not tuple or any(type(x) is not int for x in images):
            raise ValueError(f"images must be a tuple of ints: {images!r}")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        _set_images(self, images)

    def __eq__(self, other: object) -> bool:  # as Record's, without its getattr loop
        return self.images == other.images if other.__class__ is Perm else NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    def __lt__(self, other: object) -> bool:
        return self.images < other.images if other.__class__ is Perm else NotImplemented

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> Perm:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> Perm:
        """Build a permutation from cycles, applied left to right."""
        cycles = list(cycles)
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {tuple(cycle)}")
            for point in cycle:
                if not 0 <= point < degree:
                    raise ValueError(f"point {point} out of range for degree {degree}")
        return _cycles_product(cycles, degree)

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
        return _trusted(tuple(images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial disjoint cycles, each starting at its least point."""
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
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __repr__(self) -> str:
        return f"Perm({self.images})"


_set_images = Perm.images.__set__


def _trusted(images: tuple[int, ...]) -> Perm:
    """A Perm from images that are a permutation by construction, unchecked."""
    p = object.__new__(Perm)
    _set_images(p, images)
    return p


def _cycles_product(cycles: Iterable[Sequence[int]], degree: int) -> Perm:
    """The product, left to right, of cycles of distinct points below degree,
    unchecked.  Following the product so far by a cycle moves the images of
    the points it sends onto the cycle: O(degree) once, then O(len) a cycle."""
    images = list(range(degree))
    source = images[:]  # source[y]: the point the product so far sends to y
    for cycle in cycles:
        if cycle:
            moved = [*map(source.__getitem__, cycle)]
            for x, y in zip(moved, [*cycle[1:], cycle[0]]):
                images[x] = y
                source[y] = x
    return _trusted(tuple(images))


def _then(x: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The images of x then g, the right-action convention: point k goes to g[x[k]].
    Below two points only the identity exists, and itemgetter would return an int."""
    return itemgetter(*x)(g) if len(x) > 1 else x


def compose(p: Perm, q: Perm) -> Perm:
    """Product under the right-action convention: x -> q(p(x)), with p acting first."""
    if len(p.images) != len(q.images):
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return _trusted(_then(p.images, q.images))


class ConjClass(Frozen):
    """A conjugacy class: its first-found representative and all members, sorted."""

    __match_args__ = ("representative", "members")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: object) -> bool:
        return p in self.members


class FiniteGroup:
    """A finite permutation group held as a fully closed element list.

    Elements are listed breadth-first from the identity using the generators
    in the order given, so the listing is reproducible run to run.  Instances
    are treated as immutable after construction; the caches they carry are
    populated lazily and never change an observable value.  `identity`,
    `product` and `inverse` return the group's own element objects, so
    equal results are the same object.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], elements: Sequence[Perm]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        # Keyed by image tuples, which hash and compare in C.
        self._index = {p.images: i for i, p in enumerate(self.elements)}
        i = self._index.get(tuple(range(degree)))
        if i is None:
            raise ValueError("the element list lacks the identity")
        self.identity = self.elements[i]
        self._classes: list[ConjClass] | None = None
        self._class_index: list[int] = []
        # The walk's last estimate, and one maximal subgroup per class.
        self._maximal: tuple[int, list[frozenset[int]]] | None = None
        n = len(self.elements)
        # The table of right-multiplication rows, kept when all n of them fit
        # in RIGHT_MAP_BUDGET: None for a row right_map has not built.  The
        # row of inverses is never larger than the element list: every group
        # keeps it.
        self._rows: list | None = [None] * n if n * n <= RIGHT_MAP_BUDGET else None
        self._inverses: list[Perm | None] = [None] * n
        self._hash: int | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, Perm) and p.images in self._index

    def index_of(self, p: object) -> int:
        """The index of p in the element list: the one membership check,
        raising ValueError for anything that is not an element."""
        i = self._index.get(p.images) if isinstance(p, Perm) else None
        if i is None:
            raise ValueError(f"{p!r} is not an element of the group")
        return i

    def right_map(self, i: int) -> list[int]:
        """j -> the index of elements[j] * elements[i], an `_index_map` built on
        first use and kept.  Only a group that keeps a table has rows."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = _index_map(self, None, self.elements[i])
        return row

    def product(self, g: Perm, h: Perm) -> Perm:
        """The group's own element g * h, g then h by `_then`, for elements g and h of the group."""
        return self.elements[self._index[_then(g.images, h.images)]]

    def inverse(self, g: Perm) -> Perm:
        """The group's own element g^-1, for an element g of the group, kept
        in the row of inverses."""
        i = self._index[g.images]
        p = self._inverses[i]
        if p is None:
            p = self._inverses[i] = self.elements[self._index[g.inverse().images]]
        return p

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


def closure(generators: Sequence[Perm]) -> FiniteGroup:
    """Close a nonempty generator list under multiplication, breadth-first.

    The element list starts at the identity and explores products in FIFO
    order, multiplying by the generators in the order given, which fixes a
    deterministic element order.  The group keeps the first occurrence of each
    generator but the identity, or the first generator if all are the identity.
    It stops and refuses past DEFAULT_CLOSURE_CAP elements or the image-entry budget.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"degree mismatch among generators: {g.degree} vs {degree}")
    gens = [g for g in dict.fromkeys(gens) if not g.is_identity()] or gens[:1]
    stop = min(DEFAULT_CLOSURE_CAP, IMAGE_ENTRY_BUDGET // max(degree, 1))
    images = _closed_images([g.images for g in gens], degree, stop)
    _refuse_order([len(images)], degree)  # the search stops one past either limit
    images = [_trusted(tuple(x)) for x in images]  # the bytes are freed before indexing
    return FiniteGroup(degree, gens, images)


def _closed_images(gen_images: list[tuple[int, ...]], degree: int, stop: int) -> list:
    """The images of the group generated by gen_images, breadth-first from the
    identity, multiplying by the generators in the order given; the search ends
    as soon as more than `stop` have been found.  They are `bytes` while every
    point fits a byte, and x then g (`_then`'s convention) is x.translate(g padded
    to 256 bytes), in C; above 256 points they are tuples, composed as `_then` does."""
    if degree <= 256:
        pad = bytes(256 - degree)
        images, gens = [bytes(range(degree))], [bytes(g) + pad for g in gen_images]
        then = attrgetter("translate")
    else:
        images, gens, then = [tuple(range(degree))], gen_images, lambda x: itemgetter(*x)
    seen = set(images)
    for x in images:
        image_of = then(x)
        for g in gens:
            y = image_of(g)
            if y not in seen:
                seen.add(y)
                images.append(y)
                if len(images) > stop:
                    return images
    return images


def _orbit(maps: Sequence[Sequence[int]], start: int, seen: bytearray,
           stop: int | None = None) -> list[int]:
    """The points reached from `start` under the integer `maps`, breadth-first
    in the order found, each marked in `seen` (which must not yet mark
    `start`); the search ends once more than `stop` points are found."""
    found = [start]
    seen[start] = 1
    if stop is None:
        stop = len(seen)
    for x in found:
        for m in maps:
            y = m[x]
            if not seen[y]:
                seen[y] = 1
                found.append(y)
        if len(found) > stop:
            break
    return found


def generated_indices(G: FiniteGroup, generators: Iterable[int]) -> Sequence[int]:
    """Indices of the subgroup of G generated by the elements at `generators`.

    A breadth-first search from the identity: over G's right-multiplication
    rows when G keeps a table, otherwise closure's search over images, bytes
    up to 256 points and tuples above.  It stops once more than half of G is
    reached: a proper subgroup has at most |G|/2 elements (Lagrange), so the
    subgroup is then G itself and range(len(G)) is returned.
    """
    gens = dict.fromkeys(generators)
    n = len(G)
    half = n // 2
    if G._rows is None:
        images = _closed_images([G.elements[i].images for i in gens], G.degree, half)
        return range(n) if len(images) > half else [*map(G._index.__getitem__, map(tuple, images))]
    maps = [G.right_map(i) for i in gens]
    found = _orbit(maps, G.index_of(G.identity), bytearray(n), half)
    return range(n) if len(found) > half else found


def _orbits(maps: Sequence[Sequence[int]], n: int) -> Iterator[list[int]]:
    """The orbits of the points below n under the integer `maps`, each as `_orbit`
    finds it from its least point, in the order of those points."""
    seen = bytearray(n)
    return (_orbit(maps, x, seen) for x in range(n) if not seen[x])


def _index_map(G: FiniteGroup, a: Perm | None, b: Perm) -> list[int]:
    """j -> the index of a * elements[j] * b, for elements a (None: no left
    factor) and b of G: a right row, or with a = b^-1 a conjugation map."""
    images = [p.images for p in G.elements]
    if a is not None:
        images = [_then(a.images, x) for x in images]
    index, b = G._index, b.images
    return [index[_then(x, b)] for x in images]


def _conjugation_maps(G: FiniteGroup) -> list[list[int]]:
    """One index map per generator s of G: j -> the index of s^-1 * elements[j] * s."""
    return [_index_map(G, s.inverse(), s) for s in G.generators]


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    """Partition G into conjugation orbits; the identity's class comes first.

    Each class is the orbit of its representative, the first element not yet
    classed, under the conjugation maps, one per generator of G.
    """
    if G._classes is None:
        elements = G.elements
        class_index, classes = [0] * len(elements), []
        for orbit in _orbits(_conjugation_maps(G), len(elements)):
            for j in orbit:
                class_index[j] = len(classes)
            members = sorted(map(elements.__getitem__, orbit), key=attrgetter("images"))
            classes.append(ConjClass(elements[orbit[0]], tuple(members)))
        G._class_index, G._classes = class_index, classes  # classes last: then the index is set
    return G._classes


def class_of(G: FiniteGroup, s: Perm) -> ConjClass:
    i = G.index_of(s)
    return conjugacy_classes(G)[G._class_index[i]]


def generates(G: FiniteGroup, S: Iterable[Perm]) -> bool:
    """Whether the elements of S generate all of G.  S must lie inside G."""
    gens = [*map(G.index_of, S)]
    return len(generated_indices(G, gens)) == len(G) if gens else len(G) == 1


def _closure_steps(G: FiniteGroup, closures: int, size: int) -> int:
    """A bound on the steps of `closures` closures of up to `size` generators: a closure
    stops once past |G|/2 elements, at most one per generator past it, and a step is
    a row lookup when G keeps a table, else a composition of G's degree."""
    return closures * min(len(G), len(G) // 2 + size) * (G.degree if G._rows is None else 1)


def maximal_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """One maximal subgroup from each conjugacy class of them, as element indices.

    A walk keeps one subgroup of each class of proper subgroups, from the trivial
    one: it joins each with every cyclic subgroup it misses, and keeps a proper
    join not yet seen, marking its conjugates seen.  If K = A' v <c> and A'^g = A,
    then K^g = A v <c^g>, so every class is reached; a kept subgroup is maximal
    exactly when none of its joins is proper.  The budget is checked before the
    cyclic pass and before each class's joins, so a refusal can come after up to
    one budget's worth of work, and a finished walk's last estimate on every call.
    """
    n, what = len(G), "subgroup-walk budget: estimated closure steps"
    steps, maximal = G._maximal or (_closure_steps(G, n, 1), None)
    refuse_above(what, steps, SUBGROUP_WALK_BUDGET)
    if maximal is None:
        cyclics = {frozenset(generated_indices(G, [g])): g for g in range(n)}
        trivial = frozenset([G.index_of(G.identity)])
        # Joined in the order kept, so that the generator lists never shrink.
        kept, seen, maximal = [(trivial, [])] if n > 1 else [], {trivial}, []
        maps = _conjugation_maps(G)
        for A, gens in kept:
            steps = _closure_steps(G, n + len(kept) * len(cyclics), len(gens) + 1)
            refuse_above(what, steps, SUBGROUP_WALK_BUDGET)
            joins = [(generated_indices(G, gens + [c]), c) for c in cyclics.values() if c not in A]
            proper = [(frozenset(J), c) for J, c in joins if len(J) < n]
            if not proper:
                maximal.append(A)
            for J, c in proper:
                if J not in seen:
                    kept.append((J, gens + [c]))
                    seen.add(J)
                    conjugates = [J]
                    for B in conjugates:
                        fresh = {frozenset(map(m.__getitem__, B)) for m in maps} - seen
                        seen |= fresh
                        conjugates += fresh
        G._maximal = steps, maximal
    return maximal


def _refuse_order(factors: Iterable[int], degree: int) -> None:
    """Refuse, before any Perm is made, a group whose order, the product of
    `factors`, passes DEFAULT_CLOSURE_CAP or whose elements pass the image-entry
    budget; the product stops growing once past the cap, so a huge order is never formed."""
    cap, order = DEFAULT_CLOSURE_CAP, 1
    for f in factors:
        if order > cap:
            break
        order *= f
    refuse_above("closure cap: group order at least", order, cap)
    refuse_above(f"image-entry budget: {order} elements of degree {degree} hold",
                 order * degree, IMAGE_ENTRY_BUDGET)


def cyclic_group(n: int) -> FiniteGroup:
    """C_n as the rotation r = (0 1 ... n-1), trivial when n = 1, listed as
    r^0, ..., r^(n-1): the order closure([r]) finds them in."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _refuse_order([n], n)
    r = Perm(tuple((i + 1) % n for i in range(n)))
    twice = tuple(range(n)) * 2
    return FiniteGroup(n, [r], [_trusted(twice[k:k + n]) for k in range(n)])


def _named_group(degree: int, factors: Iterable[int],
                 cycle_lists: Iterable[Iterable[Sequence[int]]]) -> FiniteGroup:
    """The closure of one generator per list of cycles, refused by its order,
    the product of `factors`, before any Perm is built.  A generator with a
    point past the degree is dropped; the last list always fits the degree."""
    if degree < 1:
        raise ValueError("n must be >= 1")
    _refuse_order(factors, degree)
    return closure([_cycles_product(cycles, degree) for cycles in cycle_lists
                    if all(point < degree for cycle in cycles for point in cycle)])


def symmetric_group(n: int) -> FiniteGroup:
    """Sym(n) generated by (0 1) and the n-cycle (0 1 ... n-1)."""
    return _named_group(n, range(2, n + 1), [[(0, 1)], [range(n)]])


def alternating_group(n: int) -> FiniteGroup:
    """Alt(n) from the 3-cycle (0 1 2) and the long even cycle (0 1 ... n-1)
    or (1 2 ... n-1); trivial for n <= 2."""
    return _named_group(n, range(3, n + 1), [[(0, 1, 2)], [range(1 - n % 2, n)]])


def klein_four_group() -> FiniteGroup:
    """C2 x C2 as <(0 1)(2 3), (0 2)(1 3)> on four points."""
    return _named_group(4, [4], [[(0, 1), (2, 3)], [(0, 2), (1, 3)]])
