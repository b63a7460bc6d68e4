"""A naive reference for the facts the tests check wreathgen against.

It imports nothing from wreathgen and computes each fact the plainest way.
A permutation is the tuple of its images, and products follow the
right-action convention: in `compose(p, q)`, p applies first.  A group is the
tuple of its elements in breadth-first order.  A wreath element is a pair
(base, head): base maps points to permutations, and head is a permutation for
a finite action, or an integer shift for the integers, where point x moves to
x + head.  Results carry no identity coordinate.
"""

import functools
import itertools


def is_identity(p):
    return p == tuple(range(len(p)))


def compose(p, q):
    """p then q: point k goes to q[p[k]]."""
    return tuple(map(q.__getitem__, p))


def inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def from_cycles(cycles, n):
    """The permutation of n points with the given disjoint cycles."""
    out = list(range(n))
    for cycle in cycles:
        for x, y in zip(cycle, [*cycle[1:], *cycle[:1]]):
            out[x] = y
    return tuple(out)


def images(perms):
    """The image tuples of wreathgen permutations, read through their attributes."""
    return tuple(p.images for p in perms)


def _search(start, gens, then):
    """Everything reached from start by then(x, g), breadth-first, trying the
    generators in the order given, in the order found."""
    found, seen = [start], {start}
    for x in found:
        for g in gens:
            y = then(x, g)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found


def closure(gens):
    """The group gens generate, listed from the identity: wreathgen's documented order."""
    return tuple(_search(tuple(range(len(gens[0]))), gens, compose))


def index_map(elements, a, b):
    """j -> the index of a e_j b, with no left factor when a is None."""
    index = {x: i for i, x in enumerate(elements)}
    return [index[compose(x if a is None else compose(a, x), b)] for x in elements]


@functools.cache
def conjugacy_classes(elements):
    """The classes of the group listed by the tuple `elements`, by conjugating
    with every element: (representative, sorted members) pairs, each
    representative the first element not yet classed, and each element's class
    number, in list order."""
    number, classes, inverses = {}, [], {a: inverse(a) for a in elements}
    for x in elements:
        if x not in number:
            members = tuple(sorted({compose(compose(inverses[a], x), a) for a in elements}))
            number.update(dict.fromkeys(members, len(classes)))
            classes.append((x, members))
    return tuple(classes), tuple(map(number.__getitem__, elements))


@functools.cache
def subgroups(elements):
    """Every subgroup of the group listed by the tuple `elements`, as a
    frozenset of indices into it: the fixpoint of joining each subgroup found
    with every cyclic subgroup, closed over the group's own multiplication table."""
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[compose(x, y)] for y in elements] for x in elements]
    start = index[tuple(range(len(elements[0])))]

    def generated(gens):
        return frozenset(_search(start, gens, lambda x, g: table[x][g]))

    cyclics = {generated([g]): g for g in range(len(elements))}
    found = {C: [g] for C, g in cyclics.items()}
    frontier = list(found.items())
    while frontier:
        fresh = []
        for A, gens in frontier:
            for c in cyclics.values():
                J = A if c in A else generated(gens + [c])
                if J not in found:
                    found[J] = gens + [c]
                    fresh.append((J, gens + [c]))
        frontier = fresh
    return frozenset(found)


def first_failing_choice(elements, S, pinned=True):
    """The tuple search: the first choice of one conjugate of each distinct
    element of S, in product order over the sorted class members, that does not
    generate the group listed by `elements`, with the order it generates; None
    when every choice generates.  When pinned, the first element stays itself."""
    S = list(dict.fromkeys(S))
    classes, number = conjugacy_classes(elements)
    pools = [classes[number[elements.index(s)]][1] for s in S]
    if pinned:
        pools[0] = [S[0]]
    for choice in itertools.product(*pools):
        order = len(closure(choice))
        if order < len(elements):
            return choice, order
    return None


def move(x, k):
    """The point x under the head k."""
    return x + k if isinstance(k, int) else k[x]


def orbit_reps(gens, degree):
    """The least point of each orbit of the head group gens generate, ascending."""
    return [x for x in range(degree) if x == min(_search(x, gens, move))]


def cyclic_orbit(k, x):
    """[x, x.k, x.k^2, ...] up to the return to x."""
    return _search(x, [k], move)


def plain(u):
    """A wreathgen element, read through its attributes, as a (base, head) pair.

    The dict forgets the order of u's base, so its points are first checked to
    strictly increase: wreathgen keeps them sorted, and equality compares them
    in order."""
    points = [x for x, _ in u.base]
    assert points == sorted(set(points)), f"base points not strictly increasing: {points}"
    return {x: g.images for x, g in u.base}, u.head if isinstance(u.head, int) else u.head.images


def _unit(k):
    return {}, 0 if isinstance(k, int) else tuple(range(len(k)))


def wreath_mul(u, v):
    """(w1, k1)(w2, k2) = (x -> w1(x) w2(x.k1), k1 k2), over every point of a finite
    action and over both supports on the integers."""
    (w1, k1), (w2, k2) = u, v
    if isinstance(k1, int):
        points, head = {*w1, *(z - k1 for z in w2)}, k1 + k2
    else:
        points, head = range(len(k1)), compose(k1, k2)
    base = {}
    for x in points:
        a, b = w1.get(x), w2.get(move(x, k1))
        g = a if b is None else b if a is None else compose(a, b)
        if g is not None and not is_identity(g):
            base[x] = g
    return base, head


def wreath_inverse(u):
    """(w, k)^-1 = (x.k -> w(x)^-1, k^-1)."""
    w, k = u
    head = -k if isinstance(k, int) else inverse(k)
    return {move(x, k): inverse(g) for x, g in w.items()}, head


def wreath_pow(u, n):
    """u^n by squaring u, or its inverse when n < 0, and multiplying with
    `wreath_mul`; tests/test_reference.py checks it against |n| products."""
    square = u if n >= 0 else wreath_inverse(u)
    result, n = _unit(u[1]), abs(n)
    while n:
        if n & 1:
            result = wreath_mul(result, square)
        n >>= 1
        if n:
            square = wreath_mul(square, square)
    return result


def closed_form(a, b, f, m, n=None):
    """The closed form of alpha_e^-m alpha_f^m over the integers, from the
    conjugators' bases a and b and alpha_f's g = f, block by block with
    `wreath_mul`; given n, beta's: the blocks shifted down by n and wrapped in
    a's, the product conjugated by alpha_e^n."""
    s = n or 0
    blocks = [
        {i: inverse(g) for i, g in a.items()},
        {i + m - s: g for i, g in a.items()},
        {i + m - s: inverse(g) for i, g in b.items()},
        {j - s: f for j in range(1, m + 1)},
        {i - s: g for i, g in b.items()},
    ]
    if n is not None:
        blocks += [{i - n: inverse(g) for i, g in a.items()}, a]
    result = {}, 0
    for block in blocks:
        result = wreath_mul(result, (block, 0))
    return result


def igset(elements):
    """A generating list's rule: first occurrences only, identities dropped."""
    out = []
    for u in elements:
        u = wreath_mul(_unit(u[1]), u)  # drops identity coordinates
        if u not in out and u != _unit(u[1]):
            out.append(u)
    return out


def torsion_igset(reps, G_igset, H_igset):
    """Each g of G_igset at each orbit representative, then each head of H_igset."""
    e = tuple(range(len(H_igset[0])))
    return igset([*(({y: g}, e) for y in reps for g in G_igset), *(({}, h) for h in H_igset)])


def nottorsion_igset(gens, t, S_H):
    """The shifts S_H, each generator at 0, each of those times the shift t, then t."""
    base = [({0: g}, 0) for g in gens]
    shifted = [wreath_mul(u, ({}, t)) for u in base]
    return igset([*(({}, s) for s in S_H), *base, *shifted, ({}, t)])
