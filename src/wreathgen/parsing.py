"""Text grammars: cycle notation, group specs, wreath-element expressions, chains.

One compiled regular expression scans the text into (kind, value, offset)
tokens, which the rules read with one token of lookahead and no backtracking.
All grammars are whitespace-insensitive; an error gives the line and column of
its token, worked out from the offset only when it is raised.  parse_perm
first tries a second pattern that reads a well-formed cycle text whole, and
leaves any other text to the token grammar, the one reporter of errors.
Formatting and parsing round-trip: format_perm always re-parses to the same
permutation, and format_wreath_element emits a valid expression.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Callable, NamedTuple, NoReturn

from .actions import FiniteAction, IntTranslation, regular_action
from .classify import (FIG_FG, FINITE_ACTION, INT_TRANSLATION_ACTION, ActionDescriptor,
                       GroupDescriptor, IGStatus)
from . import groups
from .groups import (FiniteGroup, Frozen, Perm, _cycles_product, _trusted, alternating_group,
                     closure, cyclic_group, klein_four_group, symmetric_group)
from .wreath import WreathElement, WreathProduct


class ParseError(ValueError):
    """A grammar error at an offset in the text, carrying its 1-based line and
    column; only '\\n' starts a line."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {self.line}, column {self.col})")


class Token(NamedTuple):
    kind: str  # 'int' | 'word' | 'punct' | 'eof'
    value: int | str  # an int for 'int', the text otherwise: no word is a punct
    offset: int


# \s, \d and \w accept exactly str.isspace, str.isdecimal (the digits int()
# accepts) and isalnum() or '_'; no class is str.isalpha, so _misread checks
# words.  Whitespace only separates tokens: a match never skips anything else.
_SCAN = re.compile(r"""\s*(?:
    (?P<punct>[(){},:*^@])
  | (?P<int>-?\d+)
  | (?P<word>[^\W\d_]\w*(?:-[^\W\d_]\w*)*)
  | (?P<bad>\S))""", re.X)


def _misread(word: str) -> int:
    """Where a scanned word fails the word rule, or -1: 0 if it does not start
    with a letter, else its first '-' not followed by one.  [^\\W\\d_] also takes
    numerals such as '²', and a '-' before one starts no token either."""
    if not word[0].isalpha():
        return 0
    i = word.find("-")
    while i > 0 and word[i + 1].isalpha():
        i = word.find("-", i + 1)
    return i


def _scan(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _SCAN.finditer(text):
        kind = m.lastgroup
        start, value = m.start(kind), m[kind]
        if kind == "int":
            value = int(value)
        elif kind == "word" and (bad := _misread(value)) >= 0:
            kind, start, value = "bad", start + bad, value[bad:]
        if kind == "bad":
            raise ParseError(f"unexpected character {value[0]!r}", text, start)
        # tuple.__new__ skips the NamedTuple's Python-level __new__ on the
        # scanner's hottest line.
        tokens.append(tuple.__new__(Token, (kind, value, start)))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.i = 0

    # The rules advance and look ahead only from a checked token, never from 'eof'.
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.i + ahead]

    def advance(self) -> Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def error(self, message: str, token: Token | None = None) -> NoReturn:
        raise ParseError(message, self.text, (token or self.peek()).offset)

    def at_punct(self, ch: str) -> bool:
        return self.tokens[self.i].value == ch

    def at_word(self, *words: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "word" and tok.value.lower() in words

    def expect_punct(self, ch: str) -> Token:
        if not self.at_punct(ch):
            self.error(f"expected {ch!r}")
        return self.advance()

    def expect_int(self, what: str = "an integer") -> Token:
        if self.peek().kind != "int":
            self.error(f"expected {what}")
        return self.advance()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            # A token's text runs to the next token, less the whitespace between.
            text = self.text[tok.offset:self.tokens[self.i + 1].offset].rstrip()
            self.error(f"unexpected trailing input {text!r}")


def _parse_whole(text: str, rule, *args):
    """Apply one grammar rule to the whole of text.  Only element expressions
    recurse, three rules per level of parentheses; nesting past the recursion
    limit (about 320 levels from a fresh process) is refused where it stops."""
    p = _Parser(text)
    try:
        result = rule(p, *args)
    except RecursionError:
        p.error("parentheses nested too deeply")
    p.expect_eof()
    return result


# -- permutations --------------------------------------------------------------


def _cycle_group(p: _Parser, degree: int) -> Perm:
    """One or more parenthesized cycles, read by token index, each point
    checked where it stands; the cycles combine left to right."""
    tokens, i = p.tokens, p.i
    if tokens[i].value != "(":
        p.error("expected a cycle")
    cycles: list[list[int]] = []
    while tokens[i].value == "(":
        i += 1
        points: list[int] = []
        seen: set[int] = set()
        while (tok := tokens[i]).kind == "int":
            i += 1
            x = tok.value
            if not 0 <= x < degree:
                p.error(f"point {x} out of range for degree {degree}", tok)
            if x in seen:
                p.error(f"point {x} repeated in cycle", tok)
            seen.add(x)
            points.append(x)
        p.i = i
        p.expect_punct(")")
        i += 1
        cycles.append(points)
    p.i = i
    return _cycles_product(cycles, degree)


# Whole texts of parenthesized runs of decimal integers, with whitespace
# between the integers and around the parentheses; \d+(\s+\d+)* splits a
# run of digits one way only, so a failing match does not backtrack.
_CYCLES = re.compile(r"\s*(?:\((?:\s*\d+(?:\s+\d+)*)?\s*\)\s*)+")


def _read_cycles(text: str, degree: int) -> Perm | None:
    """The permutation a well-formed cycle text denotes, or None for any text
    the grammar would refuse; it leaves the error and its position to the
    grammar.  The pattern admits no sign, so only the top of the range and
    repeats are left to check."""
    if _CYCLES.fullmatch(text) is None:
        return None
    cycles = [[*map(int, chunk.split())] for chunk in text.replace(")", " ").split("(")[1:]]
    for cycle in cycles:
        if cycle and (max(cycle) >= degree or len(set(cycle)) < len(cycle)):
            return None
    return _cycles_product(cycles, degree)


def parse_perm(text: str, degree: int) -> Perm:
    """Cycle notation for one permutation, e.g. '(0 1)(2 3)' or '()' for identity.

    A well-formed text is read whole by _read_cycles; any other goes to the
    cycle grammar, which reports the fault.
    """
    perm = _read_cycles(text, degree)
    if perm is None:
        perm = _parse_whole(text, _cycle_group, degree)
    return perm


def _perm_list(p: _Parser, degree: int) -> list[Perm]:
    perms = [_cycle_group(p, degree)]
    while p.at_punct(",") and p.peek(1).value == "(":
        p.advance()
        perms.append(_cycle_group(p, degree))
    return perms


def parse_perm_list(text: str, degree: int) -> list[Perm]:
    """A comma-separated list of permutations in cycle notation."""
    return _parse_whole(text, _perm_list, degree)


def format_perm(perm: Perm) -> str:
    """Canonical cycle notation: fixed points omitted, '()' for the identity."""
    return _cycle_text(perm.images)


# Keyed by image tuples; a program formats few distinct permutations over and
# over (a base group's elements, a head's), and a listing of a big group
# only cycles through the cache.
@lru_cache(maxsize=1024)
def _cycle_text(images: tuple[int, ...]) -> str:
    cycles = _trusted(images).cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


# -- group specs ---------------------------------------------------------------

def _perm_generators(p: _Parser) -> list[Perm]:
    """The 'N: gens' after 'perm' or 'perm-action': a degree, then generators on it."""
    size = p.expect_int("the degree")
    if size.value < 1:
        p.error("degree must be >= 1", size)
    budget = groups.IMAGE_ENTRY_BUDGET
    if 4 * size.value > budget:  # folding and closing hold four degree-sized arrays
        share = "" if size.value > budget else "a quarter of "
        p.error(f"degree {size.value} is above {share}the image-entry budget {budget}", size)
    p.expect_punct(":")
    return _perm_list(p, size.value)


_SIZED_GROUPS = {"cyclic": cyclic_group, "sym": symmetric_group, "alt": alternating_group}


def _group_spec(p: _Parser) -> Callable[[], FiniteGroup]:
    """A group spec, checked now and closed later, when the returned function is called."""
    if not p.at_word("perm", "klein4", *_SIZED_GROUPS):
        p.error("expected a group spec (perm, cyclic, sym, alt, klein4)")
    word = p.advance().value.lower()
    if word == "klein4":
        return klein_four_group
    if word == "perm":
        return partial(closure, _perm_generators(p))
    size = p.expect_int("the size")
    if size.value < 1:
        p.error("n must be >= 1", size)
    return partial(_SIZED_GROUPS[word], size.value)


def parse_group_spec(text: str) -> FiniteGroup:
    """A named group or explicit generators: 'sym 3', 'perm 3: (0 1), (0 1 2)', ...

    The whole text is read before any group is built.  GroupTooLargeError comes at once
    for a named group of order above the closure cap, for 'perm' once closure passes a limit.
    """
    return _parse_whole(text, _group_spec)()


# -- chains and ambients -------------------------------------------------------


class ParsedLevel(Frozen):
    """One level of a tower, decoded once: its descriptor (FIG, fg for a concrete
    group and the integers), its action (None on the first level) and build,
    which closes the first level's group or makes a head level's action (None
    for an abstract level and a first-level int-translation)."""

    __match_args__ = ("descriptor", "action", "build")


def _descriptor(p: _Parser) -> GroupDescriptor:
    p.expect_punct("{")
    status_tok = p.peek()
    if not p.at_word("fig", "ig", "neg_ig"):
        p.error("expected a status: FIG, IG or NEG_IG")
    status = IGStatus[p.advance().value.upper()]
    p.expect_punct(",")
    if not p.at_word("fg", "nonfg"):
        p.error("expected 'fg' or 'nonfg'")
    fg = p.advance().value.lower() == "fg"
    p.expect_punct("}")
    try:
        return GroupDescriptor(status, fg)
    except ValueError as exc:
        p.error(str(exc), status_tok)


# A head level's action word: what makes a concrete head's action, or an abstract one.
_CONCRETE_ACTIONS = {"natural": FiniteAction, "regular": regular_action}
_ABSTRACT_ACTIONS = {"torsion": ActionDescriptor(True, True),
                     "non-torsion": ActionDescriptor(False, True)}


def _chain_level(p: _Parser, first: bool) -> ParsedLevel:
    tok = p.peek()  # a level's errors point at its first token
    if p.at_word("int-translation"):
        p.advance()
        if first:
            return ParsedLevel(FIG_FG, None, None)
        return ParsedLevel(FIG_FG, INT_TRANSLATION_ACTION, IntTranslation)
    if p.at_punct("{"):
        descriptor = _descriptor(p)
        if not first:
            p.error("a head level needs an action: ({...}, torsion) or ({...}, non-torsion)", tok)
        return ParsedLevel(descriptor, None, None)
    if p.at_word("perm-action"):
        p.advance()
        gens = _perm_generators(p)
        if first:
            p.error("the first level is a group, not an action", tok)
        return ParsedLevel(FIG_FG, FINITE_ACTION, lambda: FiniteAction(closure(gens)))
    if p.at_punct("("):
        p.advance()
        abstract = p.at_punct("{")
        level = _descriptor(p) if abstract else _group_spec(p)
        actions = _ABSTRACT_ACTIONS if abstract else _CONCRETE_ACTIONS
        p.expect_punct(",")
        if not p.at_word(*actions):
            p.error("expected 'torsion' or 'non-torsion'" if abstract
                    else "expected an action: 'natural' or 'regular'")
        action = actions[p.advance().value.lower()]
        p.expect_punct(")")
        if first:
            p.error("the first level carries no action", tok)
        if abstract:
            return ParsedLevel(level, action, None)
        return ParsedLevel(FIG_FG, FINITE_ACTION, lambda: action(level()))
    build = _group_spec(p)
    if not first:
        p.error("a head level needs an action: (group, natural|regular) or int-translation", tok)
    return ParsedLevel(FIG_FG, None, build)


def parse_chain(text: str) -> list[ParsedLevel]:
    """A tower spec: levels separated by 'wr', actions attached from level two on.

    Every check on the text is made here; a concrete level's group is closed
    only when its ParsedLevel.build is called.
    """
    p = _Parser(text)
    levels = [_chain_level(p, first=True)]
    while p.at_word("wr"):
        p.advance()
        levels.append(_chain_level(p, first=False))
    p.expect_eof()
    return levels


def chain_to_descriptors(levels: list[ParsedLevel]
                         ) -> list[tuple[GroupDescriptor, ActionDescriptor | None]]:
    """Symbolic view of a parsed chain, ready for the classification engine.

    A concrete level reads as FIG, fg: no level's group is closed.
    """
    return [(level.descriptor, level.action) for level in levels]


def ambient_from_chain(levels: list[ParsedLevel]) -> WreathProduct:
    """A concrete two-level chain as an ambient wreath product."""
    if len(levels) != 2:
        raise ValueError("an ambient needs exactly two levels: base wr head")
    base, head = levels
    if base.build is None:
        raise ValueError("the base level must be a concrete group")
    if head.build is None:
        raise ValueError("the head level must be concrete to build elements")
    return WreathProduct(base.build(), head.build())


def parse_ambient(text: str) -> WreathProduct:
    """e.g. 'sym 3 wr (cyclic 2, natural)' or 'cyclic 2 wr int-translation'."""
    return ambient_from_chain(parse_chain(text))


# -- wreath-element expressions -------------------------------------------------


_EXPECTED_ELEMENT = "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id'"


def _element_primary(p: _Parser, W: WreathProduct) -> WreathElement:
    action = W.action
    if p.at_word("id"):
        p.advance()
        return W.identity()
    if p.at_word("t"):
        tok = p.advance()
        if not isinstance(action, IntTranslation):
            p.error("'t' denotes the unit shift; this head is a finite group", tok)
        return W.head_embed(1)
    if p.at_word("h"):
        tok = p.advance()
        p.expect_punct(":")
        if not isinstance(action, FiniteAction):
            p.error("'h:' needs a finite head; use 't' powers for shifts", tok)
        perm_tok = p.peek()
        perm = _cycle_group(p, action.degree)
        if perm not in action.head:
            p.error(f"{format_perm(perm)} is not in the head group", perm_tok)
        return W.head_embed(perm)
    if not p.at_punct("("):
        p.error(_EXPECTED_ELEMENT)
    # '(' then '(' or a word opens a parenthesized expression; anything else
    # opens a base atom '(cycles)@point'.
    after = p.peek(1)
    if after.kind == "word" or after.value == "(":
        p.advance()
        inner = _element_expr(p, W)
        p.expect_punct(")")
        return inner
    perm_tok = p.peek()
    perm = _cycle_group(p, W.base_group.degree)
    if not p.at_punct("@"):
        p.error(_EXPECTED_ELEMENT, after)
    p.advance()
    if perm not in W.base_group:
        p.error(f"{format_perm(perm)} is not in the base group", perm_tok)
    point_tok = p.expect_int("a coordinate")
    if not action.contains_point(point_tok.value):
        p.error(f"point {point_tok.value} is not in the index set", point_tok)
    return W.base_embed(perm, point_tok.value)


def _element_factor(p: _Parser, W: WreathProduct) -> WreathElement:
    primary = _element_primary(p, W)
    if p.at_punct("^"):
        p.advance()
        exponent = p.expect_int("an exponent")
        return primary ** exponent.value
    return primary


def _element_expr(p: _Parser, W: WreathProduct) -> WreathElement:
    result = _element_factor(p, W)
    while p.at_punct("*"):
        p.advance()
        result = result * _element_factor(p, W)
    return result


def parse_wreath_element(text: str, W: WreathProduct) -> WreathElement:
    """A product of atoms: '(0 1)@0 * h:(0 1)' or '(0 1 2)@-2 * t^3'."""
    return _parse_whole(text, _element_expr, W)


def format_wreath_element(u: WreathElement) -> str:
    """A re-parsable expression for u; 'id' for the identity."""
    head = u.head
    return _element_text({x: format_perm(g) for x, g in u.base},
                         head if isinstance(head, int) else format_perm(head))


def _element_text(base: dict, head: int | str) -> str:
    """The expression for coordinate cycle texts keyed by point, then the head:
    a shift, or the cycle text of a finite head."""
    parts = [f"{g}@{x}" for x, g in base.items()]
    if head not in (0, "()"):
        parts.append(f"h:{head}" if isinstance(head, str) else "t" if head == 1 else f"t^{head}")
    return " * ".join(parts) if parts else "id"
