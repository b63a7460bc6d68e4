"""Chain levels, decoded once, against a copy of the string-tagged decoding
they replace: the same descriptors, the same ambients, the same errors."""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import pytest

from wreathgen.actions import FiniteAction, IntTranslation, regular_action
from wreathgen.classify import FIG_FG, ActionDescriptor, GroupDescriptor
from wreathgen.groups import FiniteGroup, GroupTooLargeError, closure
from wreathgen.parsing import (ParseError, _descriptor, _group_spec, _Parser,
                               _perm_generators, ambient_from_chain,
                               chain_to_descriptors, parse_chain)
from wreathgen.wreath import WreathProduct

# -- the reference: each level tagged by its kind and action word ----------------


@dataclass(frozen=True)
class _Level:
    kind: str  # 'concrete' | 'abstract' | 'int-translation'
    build: Callable[[], FiniteGroup] | None
    descriptor: GroupDescriptor | None
    action: str | None


def _ref_level(p: _Parser, first: bool) -> _Level:
    tok = p.peek()
    if p.at_word("int-translation"):
        p.advance()
        return _Level("int-translation", None, None, None if first else "int-translation")
    if p.at_punct("{"):
        descriptor = _descriptor(p)
        if not first:
            p.error("a head level needs an action: ({...}, torsion) or ({...}, non-torsion)", tok)
        return _Level("abstract", None, descriptor, None)
    if p.at_word("perm-action"):
        tok = p.advance()
        gens = _perm_generators(p)
        if first:
            p.error("the first level is a group, not an action", tok)
        return _Level("concrete", partial(closure, gens), None, "natural")
    if p.at_punct("("):
        open_tok = p.advance()
        if p.at_punct("{"):
            kind, build, descriptor = "abstract", None, _descriptor(p)
            actions, expected = ("torsion", "non-torsion"), "'torsion' or 'non-torsion'"
        else:
            kind, build, descriptor = "concrete", _group_spec(p), None
            actions, expected = ("natural", "regular"), "an action: 'natural' or 'regular'"
        p.expect_punct(",")
        if not p.at_word(*actions):
            p.error(f"expected {expected}")
        action = p.advance().value.lower()
        p.expect_punct(")")
        if first:
            p.error("the first level carries no action", open_tok)
        return _Level(kind, build, descriptor, action)
    build = _group_spec(p)
    if not first:
        p.error("a head level needs an action: (group, natural|regular) or int-translation", tok)
    return _Level("concrete", build, None, None)


def _ref_parse(text: str) -> list[_Level]:
    p = _Parser(text)
    levels = [_ref_level(p, first=True)]
    while p.at_word("wr"):
        p.advance()
        levels.append(_ref_level(p, first=False))
    p.expect_eof()
    return levels


_FINITE = ActionDescriptor(FiniteAction.torsion_type, FiniteAction.finitely_many_orbits)
_REF_ACTIONS = {
    None: None,
    "natural": _FINITE,
    "regular": _FINITE,
    "torsion": ActionDescriptor(True, True),
    "non-torsion": ActionDescriptor(False, True),
    "int-translation": ActionDescriptor(IntTranslation.torsion_type,
                                        IntTranslation.finitely_many_orbits),
}


def _ref_descriptors(levels: list[_Level]) -> list:
    return [(level.descriptor if level.kind == "abstract" else FIG_FG,
             _REF_ACTIONS[level.action]) for level in levels]


def _ref_ambient(levels: list[_Level]) -> WreathProduct:
    if len(levels) != 2:
        raise ValueError("an ambient needs exactly two levels: base wr head")
    base, head = levels
    if base.kind != "concrete":
        raise ValueError("the base level must be a concrete group")
    if head.kind == "int-translation":
        return WreathProduct(base.build(), IntTranslation())
    if head.kind != "concrete":
        raise ValueError("the head level must be concrete to build elements")
    if head.action == "regular":
        return WreathProduct(base.build(), regular_action(head.build()))
    return WreathProduct(base.build(), FiniteAction(head.build()))


# -- the corpus ----------------------------------------------------------------------

# Every chain in README.md, tests/test_classify.py and tests/test_parsing.py,
# the nine finite-wreath ambients and the shift ambient of bench/workloads.py,
# and one chain per chain or ambient error.
CHAINS = [
    # README.md
    "sym 3 wr (cyclic 2, natural)",
    "sym 3 wr (sym 3, regular)",
    "sym 3 wr int-translation",
    "cyclic 2 wr perm-action 3: (0 1 2), (0 1)",
    "{IG, nonfg} wr ({FIG, fg}, non-torsion)",
    "{FIG, nonfg}",
    "sym 10 wr int-translation",
    "cyclic 3 wr (sym 3, natural)",
    # tests/test_classify.py and tests/test_parsing.py
    "sym 3",
    "sym 9",
    "int-translation",
    "{IG, nonfg} wr ({FIG, fg}, torsion) wr int-translation",
    "cyclic 2 wr perm-action 3: (0 1), (0 1 2)",
    "sym 3 wr cyclic 2",
    "sym 3 wr {FIG, fg}",
    "(sym 3, natural)",
    "({FIG, fg}, torsion) wr sym 3",
    "sym 3 wr (cyclic 0, natural)",
    "cyclic 2 wr perm-action 3: (0 3)",
    "cyclic 2 wr perm-action 3: (0 1 0)",
    "sym 3 wr ({IG, fg}, non-torsion) wr int-translation",
    "cyclic 2 wr int-translation",
    "cyclic 2 wr (sym 3, regular)",
    "sym 3 wr (cyclic 3, natural)",
    "cyclic 3 wr (cyclic 2, natural)",
    "{FIG, fg} wr int-translation",
    "sym 3 wr ({FIG, fg}, torsion)",
    "sym 9 wr (sym 7, regular) wr int-translation",
    # the finite-wreath ambients not listed above
    "cyclic 2 wr (cyclic 2, natural)",
    "klein4 wr (cyclic 2, natural)",
    "cyclic 2 wr (sym 3, natural)",
    "cyclic 2 wr (klein4, natural)",
    "alt 4 wr (cyclic 2, natural)",
    # chain and ambient errors: a perm-action first, three levels as an
    # ambient, an integer base, an abstract head, a missing action word
    "perm-action 3: (0 1) wr sym 3",
    "sym 3 wr (cyclic 2, natural) wr int-translation",
    "int-translation wr (cyclic 2, natural)",
    "sym 3 wr ({IG, fg}, non-torsion)",
    "sym 3 wr (cyclic 2, torsion)",
    "sym 3 wr ({FIG, fg}, natural)",
    "sym 3 wr (sym 7, regular)",
]


def _outcome(decode: Callable, *args):
    """What decode returns, or the type and message of what it raises."""
    try:
        return decode(*args)
    except (ParseError, ValueError, GroupTooLargeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chain", CHAINS)
def test_chains_decode_as_the_reference_does(chain):
    levels, reference = _outcome(parse_chain, chain), _outcome(_ref_parse, chain)
    if isinstance(reference, tuple):
        assert levels == reference
        return
    assert chain_to_descriptors(levels) == _ref_descriptors(reference)
    assert _outcome(ambient_from_chain, levels) == _outcome(_ref_ambient, reference)


def test_the_corpus_builds_ambients_and_refuses_chains():
    built = refused = 0
    for chain in CHAINS:
        reference = _outcome(_ref_parse, chain)
        if isinstance(reference, tuple):
            refused += 1
        elif isinstance(_outcome(_ref_ambient, reference), WreathProduct):
            built += 1
    assert (built, refused) == (15, 11)
