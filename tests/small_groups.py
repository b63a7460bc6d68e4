"""Small named groups that only the tests use."""

from wreathgen.groups import FiniteGroup, Perm, closure


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
