"""Reference arithmetic that the benchmark checks answers against.

It shares no code with wreathgen.  A permutation is a tuple of images, and
products follow the same right-action convention as the program: in
`compose(p, q)`, p applies first.  A group is the sorted tuple of its
elements.  An element of a wreath product is a pair (base, head): base maps
points to non-identity permutations; head is a permutation for a finite
action and an integer shift for the integers.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property

_CYCLE = re.compile(r"\(([^()]*)\)")


# -- permutations ---------------------------------------------------------------


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[i] for i in p)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def is_identity(p: tuple[int, ...]) -> bool:
    return all(x == y for x, y in enumerate(p))


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Cycle notation such as '(0 1 2)(3 4)', cycles applied left to right."""
    result = identity(n)
    for body in _CYCLE.findall(text):
        points = [int(tok) for tok in body.split()]
        images = list(range(n))
        for i, x in enumerate(points):
            images[x] = points[(i + 1) % len(points)]
        result = compose(result, tuple(images))
    return result


def format_cycles(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cycle = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


# -- finite groups ----------------------------------------------------------------


def closure(gens: list[tuple[int, ...]], n: int) -> tuple[tuple[int, ...], ...]:
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


def symmetric(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(itertools.permutations(range(n))))


def alternating(n: int) -> tuple[tuple[int, ...], ...]:
    def even(p):
        return (len(p) - len(cycles_with_fixed(p))) % 2 == 0
    return tuple(p for p in symmetric(n) if even(p))


def cycles_with_fixed(p: tuple[int, ...]) -> list[int]:
    """Cycle lengths of p, fixed points included."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return lengths


class RefGroup:
    """A finite group as its sorted elements, with conjugacy classes.

    A class is keyed by its least member, which no implementation detail
    can change.  The classes are worked out on first use.
    """

    def __init__(self, elements: tuple[tuple[int, ...], ...]):
        self.elements = elements
        self.degree = len(elements[0])
        self.order = len(elements)

    @cached_property
    def classes(self) -> dict[tuple[int, ...], frozenset]:
        inverses = {a: inverse(a) for a in self.elements}
        classes = {}
        seen = set()
        for x in self.elements:
            if x in seen:
                continue
            members = frozenset(compose(compose(inverses[a], x), a) for a in self.elements)
            classes[min(members)] = members
            seen |= members
        return classes

    @cached_property
    def class_key(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return {m: key for key, members in self.classes.items() for m in members}

    def nonidentity_classes(self) -> list[tuple[int, ...]]:
        return sorted(k for k in self.classes if not is_identity(k))


def invariably_generates(G: RefGroup, reps: list[tuple[int, ...]]) -> bool:
    """Whether every choice of one conjugate of each of reps generates G.

    Conjugating a whole tuple does not change whether it generates, so the
    first element stays fixed and the others run over their classes.
    """
    first, *rest = reps
    for choice in itertools.product(*(G.classes[G.class_key[r]] for r in rest)):
        if len(closure([first, *choice], G.degree)) != G.order:
            return False
    return True


def min_invariable_size(G: RefGroup) -> int:
    """The least number of distinct classes, one element each, that
    invariably generate G."""
    classes = G.nonidentity_classes()
    for k in range(1, len(classes) + 1):
        if any(invariably_generates(G, list(keys)) for keys in itertools.combinations(classes, k)):
            return k
    raise ValueError("no set of classes invariably generates the group")


# -- wreath products ------------------------------------------------------------------


def wreath_mul(u, v, finite: bool):
    """(w1, k1)(w2, k2) = (x -> w1(x) * w2(x.k1), k1 k2)."""
    (w1, k1), (w2, k2) = u, v
    if finite:
        k1_inv = inverse(k1)
        points = set(w1) | {k1_inv[z] for z in w2}
        image = k1.__getitem__
        head = compose(k1, k2)
    else:
        points = set(w1) | {z - k1 for z in w2}
        head = k1 + k2

        def image(x):
            return x + k1
    out = {}
    for x in points:
        a = w1.get(x)
        b = w2.get(image(x))
        g = b if a is None else a if b is None else compose(a, b)
        if not is_identity(g):
            out[x] = g
    return out, head


def wreath_inverse(u, finite: bool):
    w, k = u
    if finite:
        return {k[x]: inverse(g) for x, g in w.items()}, inverse(k)
    return {x + k: inverse(g) for x, g in w.items()}, -k


def wreath_pow(u, n: int, identity_head, finite: bool):
    if n < 0:
        return wreath_pow(wreath_inverse(u, finite), -n, identity_head, finite)
    result = ({}, identity_head)
    square = u
    while n:
        if n & 1:
            result = wreath_mul(result, square, finite)
        square = wreath_mul(square, square, finite)
        n >>= 1
    return result
