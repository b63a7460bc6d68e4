"""The reference in tests/reference.py against counts from outside the program:
group orders, class numbers and subgroup numbers known from the literature, and
its power against repeated products."""

import math

import pytest

from wreathgen.groups import conjugacy_classes
from wreathgen.parsing import parse_ambient

import reference as ref


def group(n, *cycle_lists):
    return ref.closure([ref.from_cycles(cycles, n) for cycles in cycle_lists])


def sym(n):
    """Sym(n) from wreathgen's documented generators, (0 1) and (0 1 ... n-1)."""
    return group(n, [(0, 1)] if n > 1 else [], [range(n)])


# |Sym(n)| = n!, and its classes are counted by the partition numbers, OEIS A000041.
@pytest.mark.parametrize("n, count", enumerate([1, 2, 3, 5, 7, 11, 15], start=1))
def test_symmetric_group_orders_and_class_numbers(n, count):
    assert len(sym(n)) == math.factorial(n)
    assert len(ref.conjugacy_classes(sym(n))[0]) == count


# Every subgroup counted, the trivial group and G itself too: OEIS A005432 for
# Sym(1)-Sym(5), and the known counts for Alt(4), Alt(5), Q8, Klein-4 and D4.
SUBGROUP_COUNTS = {
    "sym1": (sym(1), 1), "sym2": (sym(2), 2), "sym3": (sym(3), 6),
    "sym4": (sym(4), 30), "sym5": (sym(5), 156),
    "alt4": (group(4, [(0, 1, 2)], [(1, 2, 3)]), 10),
    "alt5": (group(5, [(0, 1, 2)], [range(5)]), 59),
    "q8": (group(8, [(0, 2, 1, 3), (4, 6, 5, 7)], [(0, 4, 1, 5), (2, 7, 3, 6)]), 6),
    "klein4": (group(4, [(0, 1), (2, 3)], [(0, 2), (1, 3)]), 5),
    "d4": (group(4, [range(4)], [(1, 3)]), 10),
}


@pytest.mark.parametrize("name", SUBGROUP_COUNTS)
def test_subgroup_counts(name):
    elements, count = SUBGROUP_COUNTS[name]
    assert len(ref.subgroups(elements)) == count


# (base, head) pairs: a finite head, a 3-cycle on three points, and a shift by 2.
ROT, SWAP = (1, 2, 0), (1, 0, 2)


@pytest.mark.parametrize("u, identity", [
    (({0: SWAP, 2: ROT}, ROT), ({}, (0, 1, 2))), (({0: SWAP, 3: ROT, 4: SWAP}, 2), ({}, 0)),
], ids=["finite", "shift"])
def test_power_equals_repeated_products(u, identity):
    assert ref.wreath_mul(u, ref.wreath_inverse(u)) == identity
    for step, sign in ((u, 1), (ref.wreath_inverse(u), -1)):
        product = identity
        for n in range(13):
            assert ref.wreath_pow(u, sign * n) == product
            product = ref.wreath_mul(product, step)


# The classes of C2 wr Sym(n) are the 2-coloured partitions of n, OEIS A000712.
@pytest.mark.parametrize("n, count", [(2, 5), (3, 10), (4, 20)])
def test_classes_of_c2_wr_sym_n_are_coloured_partitions(n, count):
    P, _ = parse_ambient(f"cyclic 2 wr (sym {n}, natural)").imprimitive_embedding()
    classes, _ = ref.conjugacy_classes(ref.images(P))
    assert len(classes) == len(conjugacy_classes(P)) == count
