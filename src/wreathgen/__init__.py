"""Exact arithmetic in wreath products, invariable generation, and the
classification of iterated wreath products by generation behaviour.

The building blocks:

- groups: permutations, finite groups by closure, conjugacy classes, maximal subgroups
- actions: finite head actions and the integer-shift action
- wreath: restricted wreath products and their elements
- invgen: invariable-generation tests and minimal-size search
- constructions: explicit generating sets and the coordinate-isolation gadget
- classify: FIG / IG / NEG_IG status of iterated products from descriptors
- parsing: the text grammars used by the command line
- verify: seeded randomized cross-check suites
"""

from .actions import FiniteAction, cyclic_orbit
from .constructions import (alpha_power_form, assemble_alpha_power,
                            assemble_beta, beta, build_alpha,
                            collapse_orbit_conjugator, torsion_igset)
from .groups import Perm, cyclic_group, symmetric_group
from .invgen import (invariably_generates, invariably_generates_oracle,
                     min_invariable_size)
from .parsing import (format_wreath_element, parse_ambient, parse_group_spec,
                      parse_perm)
from .wreath import WreathProduct

__version__ = "0.1.0"

__all__ = [
    "FiniteAction", "Perm", "WreathProduct", "alpha_power_form",
    "assemble_alpha_power", "assemble_beta", "beta", "build_alpha",
    "collapse_orbit_conjugator", "cyclic_group", "cyclic_orbit",
    "format_wreath_element", "invariably_generates",
    "invariably_generates_oracle", "min_invariable_size", "parse_ambient",
    "parse_group_spec", "parse_perm", "symmetric_group", "torsion_igset",
]
