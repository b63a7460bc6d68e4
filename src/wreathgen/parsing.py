"""Text grammars: cycle notation, group specs, wreath-element expressions, chains.

All grammars are whitespace-insensitive and report errors with a line and
column.  Formatting and parsing round-trip: format_perm always re-parses to
the same permutation, and format_wreath_element emits a valid expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, NoReturn

from .actions import FiniteAction, IntTranslation, regular_action
from .classify import (FIG_FG, INT_TRANSLATION_ACTION, ActionDescriptor,
                       GroupDescriptor, IGStatus, descriptor_for_action)
from .groups import (DEFAULT_CLOSURE_CAP, FiniteGroup, Perm, _trusted, alternating_group,
                     closure, cyclic_group, klein_four_group, symmetric_group)
from .wreath import WreathElement, WreathProduct


class ParseError(ValueError):
    """A grammar error, carrying the 1-based line and column it occurred at."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # 'int' | 'word' | 'punct' | 'eof'
    text: str
    line: int
    col: int

    @property
    def value(self) -> int:
        return int(self.text)


_PUNCT = set("(){},:*^@")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        # isdecimal, not isdigit: it accepts exactly the digits int() accepts.
        if ch.isdecimal() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdecimal()):
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(text) and (
                text[j].isalnum() or text[j] == "_"
                or (text[j] == "-" and j + 1 < len(text) and text[j + 1].isalpha())
            ):
                j += 1
            tokens.append(Token("word", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, token: Token | None = None) -> NoReturn:
        tok = token or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text.lower() in words

    def expect_punct(self, ch: str) -> Token:
        if not self.at_punct(ch):
            self.error(f"expected {ch!r}")
        return self.advance()

    def expect_int(self, what: str = "an integer") -> Token:
        if self.peek().kind != "int":
            self.error(f"expected {what}")
        return self.advance()

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            self.error(f"unexpected trailing input {self.peek().text!r}")


def _parse_whole(text: str, rule, *args):
    """Apply one grammar rule to the whole of text."""
    p = _Parser(text)
    result = rule(p, *args)
    p.expect_eof()
    return result


# -- permutations --------------------------------------------------------------


def _cycle_group(p: _Parser, degree: int) -> Perm:
    """One or more parenthesized cycles, combined left to right into one image list."""
    if not p.at_punct("("):
        p.error("expected a cycle")
    images = list(range(degree))
    while p.at_punct("("):
        p.advance()
        points: list[int] = []
        seen: set[int] = set()
        while p.peek().kind == "int":
            tok = p.advance()
            if not 0 <= tok.value < degree:
                p.error(f"point {tok.value} out of range for degree {degree}", tok)
            if tok.value in seen:
                p.error(f"point {tok.value} repeated in cycle", tok)
            seen.add(tok.value)
            points.append(tok.value)
        p.expect_punct(")")
        # Follow the product so far by this cycle.
        cycle = dict(zip(points, points[1:] + points[:1]))
        images = [cycle.get(y, y) for y in images]
    return _trusted(tuple(images))


def parse_perm(text: str, degree: int) -> Perm:
    """Cycle notation for one permutation, e.g. '(0 1)(2 3)' or '()' for identity."""
    return _parse_whole(text, _cycle_group, degree)


def _perm_list(p: _Parser, degree: int) -> list[Perm]:
    perms = [_cycle_group(p, degree)]
    while p.at_punct(",") and p.peek(1).kind == "punct" and p.peek(1).text == "(":
        p.advance()
        perms.append(_cycle_group(p, degree))
    return perms


def parse_perm_list(text: str, degree: int) -> list[Perm]:
    """A comma-separated list of permutations in cycle notation."""
    return _parse_whole(text, _perm_list, degree)


def format_perm(perm: Perm) -> str:
    """Canonical cycle notation: fixed points omitted, '()' for the identity."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


# -- group specs ---------------------------------------------------------------

_GROUP_WORDS = ("perm", "cyclic", "sym", "alt", "klein4")


def _perm_generators(p: _Parser) -> list[Perm]:
    """The 'N: gens' after 'perm' or 'perm-action': a degree, then generators on it."""
    size = p.expect_int("the degree")
    if size.value < 1:
        p.error("degree must be >= 1", size)
    p.expect_punct(":")
    return _perm_list(p, size.value)


def _group_spec(p: _Parser, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    tok = p.peek()
    if not p.at_word(*_GROUP_WORDS):
        p.error("expected a group spec (perm, cyclic, sym, alt, klein4)")
    word = p.advance().text.lower()
    if word == "klein4":
        return klein_four_group(cap)
    if word == "perm":
        return closure(_perm_generators(p), cap)
    size = p.expect_int("the size")
    try:
        if word == "cyclic":
            return cyclic_group(size.value, cap)
        if word == "sym":
            return symmetric_group(size.value, cap)
        return alternating_group(size.value, cap)
    except ValueError as exc:
        p.error(str(exc), size)


def parse_group_spec(text: str, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """A named group or explicit generators: 'sym 3', 'perm 3: (0 1), (0 1 2)', ...

    Raises GroupTooLargeError as soon as the group reaches cap + 1 elements.
    """
    return _parse_whole(text, _group_spec, cap)


# -- chains and ambients -------------------------------------------------------


@dataclass(frozen=True)
class ParsedLevel:
    """One level of a tower: a concrete group, an abstract descriptor, or the integers."""

    kind: str  # 'concrete' | 'abstract' | 'int-translation'
    group: FiniteGroup | None
    descriptor: GroupDescriptor | None
    action: str | None  # None | 'natural' | 'regular' | 'int-translation' | 'torsion' | 'non-torsion'


def _descriptor(p: _Parser) -> GroupDescriptor:
    p.expect_punct("{")
    status_tok = p.peek()
    if not p.at_word("fig", "ig", "neg_ig"):
        p.error("expected a status: FIG, IG or NEG_IG")
    status = IGStatus[p.advance().text.upper()]
    p.expect_punct(",")
    if not p.at_word("fg", "nonfg"):
        p.error("expected 'fg' or 'nonfg'")
    fg = p.advance().text.lower() == "fg"
    p.expect_punct("}")
    try:
        return GroupDescriptor(status, fg)
    except ValueError as exc:
        p.error(str(exc), status_tok)


def _chain_level(p: _Parser, first: bool) -> ParsedLevel:
    if p.at_word("int-translation"):
        p.advance()
        if first:
            return ParsedLevel("int-translation", None, None, None)
        return ParsedLevel("int-translation", None, None, "int-translation")
    if p.at_punct("{"):
        descriptor = _descriptor(p)
        if not first:
            p.error("a head level needs an action: ({...}, torsion) or ({...}, non-torsion)")
        return ParsedLevel("abstract", None, descriptor, None)
    if p.at_word("perm-action"):
        tok = p.advance()
        gens = _perm_generators(p)
        if first:
            p.error("the first level is a group, not an action", tok)
        return ParsedLevel("concrete", closure(gens), None, "natural")
    if p.at_punct("("):
        open_tok = p.advance()
        if p.at_punct("{"):
            kind, group, descriptor = "abstract", None, _descriptor(p)
            actions, expected = ("torsion", "non-torsion"), "'torsion' or 'non-torsion'"
        else:
            kind, group, descriptor = "concrete", _group_spec(p), None
            actions, expected = ("natural", "regular"), "an action: 'natural' or 'regular'"
        p.expect_punct(",")
        if not p.at_word(*actions):
            p.error(f"expected {expected}")
        action = p.advance().text.lower()
        p.expect_punct(")")
        if first:
            p.error("the first level carries no action", open_tok)
        return ParsedLevel(kind, group, descriptor, action)
    group = _group_spec(p)
    if not first:
        p.error("a head level needs an action: (group, natural|regular) or int-translation")
    return ParsedLevel("concrete", group, None, None)


def parse_chain(text: str) -> list[ParsedLevel]:
    """A tower spec: levels separated by 'wr', actions attached from level two on."""
    p = _Parser(text)
    levels = [_chain_level(p, first=True)]
    while p.at_word("wr"):
        p.advance()
        levels.append(_chain_level(p, first=False))
    p.expect_eof()
    return levels


def chain_to_descriptors(levels: list[ParsedLevel]
                         ) -> list[tuple[GroupDescriptor, ActionDescriptor | None]]:
    """Symbolic view of a parsed chain, ready for the classification engine."""
    out: list[tuple[GroupDescriptor, ActionDescriptor | None]] = []
    action_table = {
        "natural": descriptor_for_action(FiniteAction),
        "regular": descriptor_for_action(FiniteAction),
        "torsion": ActionDescriptor(True, True),
        "non-torsion": ActionDescriptor(False, True),
        "int-translation": INT_TRANSLATION_ACTION,
    }
    for i, level in enumerate(levels):
        group = level.descriptor if level.kind == "abstract" else FIG_FG
        action = None if i == 0 else action_table[level.action]
        out.append((group, action))
    return out


def ambient_from_chain(levels: list[ParsedLevel]) -> WreathProduct:
    """A concrete two-level chain as an ambient wreath product."""
    if len(levels) != 2:
        raise ValueError("an ambient needs exactly two levels: base wr head")
    base, head = levels
    if base.kind != "concrete":
        raise ValueError("the base level must be a concrete group")
    if head.kind == "int-translation":
        return WreathProduct(base.group, IntTranslation())
    if head.kind != "concrete":
        raise ValueError("the head level must be concrete to build elements")
    if head.action == "regular":
        return WreathProduct(base.group, regular_action(head.group))
    return WreathProduct(base.group, FiniteAction(head.group))


def parse_ambient(text: str) -> WreathProduct:
    """e.g. 'sym 3 wr (cyclic 2, natural)' or 'cyclic 2 wr int-translation'."""
    return ambient_from_chain(parse_chain(text))


# -- wreath-element expressions -------------------------------------------------


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
    if p.at_punct("("):
        # Either a base atom '(cycles)@point' or a parenthesized expression;
        # try the atom first and backtrack if no '@' follows.
        mark = p.i
        perm_tok = p.peek()
        cycle_err: ParseError | None = None
        perm: Perm | None = None
        try:
            perm = _cycle_group(p, W.base_group.degree)
        except ParseError as exc:
            cycle_err = exc
        if perm is not None and p.at_punct("@"):
            p.advance()
            if perm not in W.base_group:
                p.error(f"{format_perm(perm)} is not in the base group", perm_tok)
            point_tok = p.expect_int("a coordinate")
            if not action.contains_point(point_tok.value):
                p.error(f"point {point_tok.value} is not in the index set", point_tok)
            return W.base_embed(perm, point_tok.value)
        p.i = mark
        try:
            p.advance()
            inner = _element_expr(p, W)
            p.expect_punct(")")
            return inner
        except ParseError:
            if cycle_err is not None:
                raise cycle_err
            raise
    p.error("expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id'")


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
    parts = [f"{format_perm(g)}@{x}" for x, g in u.base]
    head = u.head
    if isinstance(u.ambient.action, IntTranslation):
        if head == 1:
            parts.append("t")
        elif head != 0:
            parts.append(f"t^{head}")
    elif not head.is_identity():
        parts.append(f"h:{format_perm(head)}")
    return " * ".join(parts) if parts else "id"
