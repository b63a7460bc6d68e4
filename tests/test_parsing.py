"""The text grammars: cycles, group specs, chains, element expressions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathgen import groups, parsing
from wreathgen.actions import FiniteAction, IntTranslation
from wreathgen.classify import (FIG_FG, FINITE_ACTION, INT_TRANSLATION_ACTION,
                                ActionDescriptor, GroupDescriptor, IGStatus)
from wreathgen.groups import GroupTooLargeError, Perm, closure, cyclic_group, symmetric_group
from wreathgen.parsing import (ParseError, ambient_from_chain,
                               chain_to_descriptors, format_perm,
                               format_wreath_element, parse_ambient,
                               parse_chain, parse_group_spec, parse_perm,
                               parse_perm_list, parse_wreath_element)

SWAP = Perm.from_cycles([(0, 1)], 3)
ROT = Perm.from_cycles([(0, 1, 2)], 3)


class TestPermGrammar:
    def test_basic_cycles(self):
        assert parse_perm("(0 1)", 3) == SWAP
        assert parse_perm("(0 1 2)", 3) == ROT
        assert parse_perm("(0 1)(2 3)", 4) == Perm((1, 0, 3, 2))
        assert parse_perm("()", 3) == Perm.identity(3)

    def test_cycles_combine_left_to_right(self):
        assert parse_perm("(0 1)(1 2)", 3) == Perm((2, 0, 1))

    def test_whitespace_is_free(self):
        assert parse_perm("  ( 0   1 )  ", 3) == SWAP

    def test_perm_list(self):
        assert parse_perm_list("(0 1), (0 1 2)", 3) == [SWAP, ROT]
        assert parse_perm_list("(0 1)", 3) == [SWAP]

    def test_point_out_of_range_is_positioned(self):
        with pytest.raises(ParseError, match=r"out of range.*column 4"):
            parse_perm("(0 3)", 3)

    def test_repeated_point_is_positioned(self):
        with pytest.raises(ParseError, match=r"repeated.*column"):
            parse_perm("(0 1 0)", 3)
        with pytest.raises(ParseError, match="repeated"):
            parse_perm("(0 1)(1 2)(0 0)", 3)

    def test_trailing_input_is_rejected(self):
        with pytest.raises(ParseError, match="column 7"):
            parse_perm("(0 1) x", 3)

    def test_only_decimal_digits_are_integers(self):
        # Superscripts pass str.isdigit() but int() rejects them.
        with pytest.raises(ParseError, match=r"unexpected character '²'.*column 4"):
            parse_perm("(0 ²)", 3)
        assert parse_perm("(0 ２)", 3) == Perm((2, 1, 0))

    def test_unclosed_cycle(self):
        with pytest.raises(ParseError):
            parse_perm("(0 1", 3)

    def test_format_omits_fixed_points(self):
        assert format_perm(Perm.identity(3)) == "()"
        assert format_perm(SWAP) == "(0 1)"
        assert format_perm(Perm((1, 0, 3, 2))) == "(0 1)(2 3)"

    @given(st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.permutations(range(n))))
    def test_format_equals_an_uncached_copy(self, images):
        p = Perm(tuple(images))
        assert format_perm(p) == uncached_format(p)  # first sight, or a hit
        assert format_perm(Perm(tuple(images))) == uncached_format(p)  # a hit

    def test_format_past_a_full_cache(self):
        # Sym(7) has 5040 elements, more than the cache keeps: it fills,
        # then evicts, and every text stays right.
        for _ in range(2):
            for p in symmetric_group(7):
                assert format_perm(p) == uncached_format(p)

    def test_format_parse_roundtrip(self):
        rng = random.Random(61)
        for _ in range(100):
            images = list(range(5))
            rng.shuffle(images)
            p = Perm(tuple(images))
            assert parse_perm(format_perm(p), 5) == p


def uncached_format(p):
    """format_perm without its cache: each cycle from its least point."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in p.cycles()) or "()"


def reference_cycle_group(p, degree):
    """The cycle grammar as one validated Perm.from_cycles per cycle,
    multiplied into the product so far."""
    if not p.at_punct("("):
        p.error("expected a cycle")
    result = Perm.identity(degree)
    while p.at_punct("("):
        p.advance()
        points, seen = [], set()
        while p.peek().kind == "int":
            tok = p.advance()
            if not 0 <= tok.value < degree:
                p.error(f"point {tok.value} out of range for degree {degree}", tok)
            if tok.value in seen:
                p.error(f"point {tok.value} repeated in cycle", tok)
            seen.add(tok.value)
            points.append(tok.value)
        p.expect_punct(")")
        if points:
            result = result * Perm.from_cycles([points], degree)
    return result


FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
GAPS = st.sampled_from(["", " ", "  ", "\n", " \n  "])
SEPARATORS = st.sampled_from([" ", "   ", "\n", "\n "])


@st.composite
def cycle_texts(draw, degree):
    """Up to four cycles on degree points: mostly valid, some with points out
    of range or repeated, in ASCII or full-width digits."""
    cycles = draw(st.lists(st.one_of(
        st.lists(st.integers(0, degree - 1), unique=True, max_size=min(4, degree)),
        st.lists(st.integers(-2, degree + 1), max_size=4),
    ), max_size=4))
    text = draw(GAPS)
    for cycle in cycles:
        inner = "".join(f"{x}{draw(SEPARATORS)}" for x in cycle)
        text += f"({draw(GAPS)}{inner}){draw(GAPS)}"
    return text.translate(FULL_WIDTH) if draw(st.booleans()) else text


@st.composite
def degrees_and_texts(draw, max_perms):
    degree = draw(st.integers(1, 9))
    texts = draw(st.lists(cycle_texts(degree), min_size=1, max_size=max_perms))
    return degree, ",".join(texts)


def outcome(parse, text, degree):
    """What a parse gives: its result, or its error's message and position."""
    try:
        return parse(text, degree)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def reference_parse_perm(text, degree):
    """parse_perm with no whole-text reader: the token grammar alone, one
    validated Perm per cycle."""
    return parsing._parse_whole(text, reference_cycle_group, degree)


# Digits that are decimal ('２') and not ('²'), signs and joiners the cycle
# pattern refuses, and line breaks that are not '\n'.
CYCLE_ALPHABET = "()-+_,x0123456789２²\n\r\x85 "


class TestCycleParserAgainstReference:
    """The whole-text reader and the direct image-list grammar give the same
    permutation, or the same error at the same place, as multiplying one
    validated Perm per cycle."""

    @staticmethod
    def reference(parse, text, degree):
        if parse is parse_perm:
            # Patching _cycle_group would leave the reader in the path.
            return outcome(reference_parse_perm, text, degree)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parsing, "_cycle_group", reference_cycle_group)
            return outcome(parse, text, degree)

    @given(degrees_and_texts(max_perms=1))
    def test_parse_perm(self, case):
        degree, text = case
        assert outcome(parse_perm, text, degree) == self.reference(parse_perm, text, degree)

    @given(st.integers(1, 9), st.text(alphabet=CYCLE_ALPHABET, max_size=20))
    def test_parse_perm_on_random_text(self, degree, text):
        assert outcome(parse_perm, text, degree) == self.reference(parse_perm, text, degree)

    @given(degrees_and_texts(max_perms=3))
    def test_parse_perm_list(self, case):
        degree, text = case
        assert (outcome(parse_perm_list, text, degree)
                == self.reference(parse_perm_list, text, degree))

    def test_examples_of_each_outcome(self):
        for text, degree in [("(0 1)(1 2)", 3), ("(2)(0 4 1)()(3 0)", 5), ("", 3),
                             ("(0 3)", 3), ("(0 1)\n(1 ２ 1)", 3), ("(0 1", 2),
                             (" ( )\r\x85", 2), ("(0-1)", 2), ("(+1)", 2), ("(1_0)", 2),
                             ("(01)", 2), ("(0 ²)", 3), ("(0 1),(1 2)", 3), ("(0 1)x", 2)]:
            assert outcome(parse_perm, text, degree) == self.reference(parse_perm, text, degree)


def reference_tokenize(text):
    """The per-character tokenizer the regex scanner replaced: its tokens as
    (kind, value, line, column) with ints as int, or its error message."""
    tokens = []
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
        if ch in "(){},:*^@":
            tokens.append(("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdecimal() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdecimal()):
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), start_line, start_col))
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
            tokens.append(("word", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        return f"unexpected character {ch!r} (line {start_line}, column {start_col})"
    tokens.append(("eof", "", line, col))
    return tokens


def regex_scan(text):
    """The scanner's tokens with their lines and columns, or its error."""
    try:
        tokens = parsing._scan(text)
    except ParseError as exc:
        return str(exc)
    return [(tok.kind, tok.value, text.count("\n", 0, tok.offset) + 1,
             tok.offset - text.rfind("\n", 0, tok.offset)) for tok in tokens]


# Digits that are decimal ('２'), digits and numerals that are not ('²', '½'),
# line breaks that are not '\n' ('\r', '\x85'), and the word joiners.
SCANNER_ALPHABET = "ab_-0１9２²½ \n\r\x85(),:*^@{}x!"


class TestScannerAgainstReference:
    """The regex scanner gives the per-character tokenizer's kinds, values,
    lines and columns, or its error at the same place."""

    @given(st.text(alphabet=SCANNER_ALPHABET, max_size=24))
    def test_random_text(self, text):
        assert regex_scan(text) == reference_tokenize(text)

    def test_examples_of_each_outcome(self):
        for text in ["(0 ²)", "(0 ２)", "a-b-²c", "int-translation-", "x_1-2", "a\r\x85\nb",
                     "-", "--1", "½", "\n\n  ", ""]:
            assert regex_scan(text) == reference_tokenize(text)


@st.composite
def cycle_lists(draw):
    """A degree and up to four cycles: mostly on distinct points in range."""
    degree = draw(st.integers(1, 9))
    cycles = draw(st.lists(st.one_of(
        st.lists(st.integers(0, degree - 1), unique=True, max_size=degree),
        st.lists(st.integers(-1, degree), max_size=4),
    ), max_size=4))
    return degree, cycles


@given(cycle_lists())
def test_from_cycles_matches_the_cycle_grammar(case):
    degree, cycles = case
    text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
    try:
        expected = Perm.from_cycles(cycles, degree)
    except ValueError:
        with pytest.raises(ParseError):
            parse_perm(text, degree)
    else:
        assert parse_perm(text, degree) == expected


class TestGroupSpecs:
    def test_named_groups(self):
        assert parse_group_spec("sym 3").order == 6
        assert parse_group_spec("cyclic 4").order == 4
        assert parse_group_spec("alt 4").order == 12
        assert parse_group_spec("klein4").order == 4

    def test_explicit_generators(self):
        G = parse_group_spec("perm 3: (0 1), (0 1 2)")
        assert G.order == 6
        assert G.generators == (SWAP, ROT)

    def test_bad_specs_are_positioned(self):
        with pytest.raises(ParseError, match="expected a group spec"):
            parse_group_spec("frobnicate 3")
        with pytest.raises(ParseError, match="degree must be >= 1"):
            parse_group_spec("perm 0: ()")
        with pytest.raises(ParseError):
            parse_group_spec("sym 0")
        with pytest.raises(ParseError):
            parse_group_spec("cyclic")

    def test_cap_refuses_while_closing(self, monkeypatch):
        # Sym(9) has 362,880 elements; it is refused before any is built.
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 100)
        with pytest.raises(GroupTooLargeError,
                           match="closure cap: group order at least 120 > 100$"):
            parse_group_spec("sym 9")
        for spec in ("cyclic 5", "alt 4", "klein4", "perm 3: (0 1), (0 1 2)",
                     "sym 1", "alt 1", "alt 2", "cyclic 1", "sym 4"):
            order = parse_group_spec(spec).order
            monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", order)
            assert parse_group_spec(spec).order == order
            monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", order - 1)
            with pytest.raises(GroupTooLargeError,
                               match=f"closure cap: group order at least {order} > {order - 1}$"):
                parse_group_spec(spec)
            monkeypatch.undo()

    def test_trailing_input_is_reported_before_closing(self, monkeypatch):
        closures, closure = [], groups.closure

        def counting_closure(*args, **kwargs):
            closures.append(args)
            return closure(*args, **kwargs)

        for module in (groups, parsing):
            monkeypatch.setattr(module, "closure", counting_closure)
        with pytest.raises(ParseError, match=r"^unexpected trailing input 'x' \(line 1, column 15\)$"):
            parse_group_spec("perm 3: (0 1) x")
        assert closures == []
        # Sym(10) is past the default cap: the trailing text is still what is reported.
        with pytest.raises(ParseError, match=r"^unexpected trailing input 'x' \(line 1, column 8\)$"):
            parse_group_spec("sym 10 x")
        assert closures == []


class TestChains:
    def test_single_concrete_level(self):
        levels = parse_chain("sym 3")
        assert len(levels) == 1
        assert levels[0].descriptor == FIG_FG and levels[0].action is None
        assert levels[0].build().order == 6

    def test_concrete_tower(self):
        levels = parse_chain("sym 3 wr (cyclic 2, natural)")
        assert [lvl.descriptor for lvl in levels] == [FIG_FG, FIG_FG]
        assert all(lvl.build is not None for lvl in levels)
        assert levels[1].action == FINITE_ACTION
        assert levels[1].build() == FiniteAction(cyclic_group(2))

    def test_abstract_descriptor_levels(self):
        levels = parse_chain("{IG, nonfg} wr ({FIG, fg}, torsion) wr int-translation")
        assert levels[0].descriptor == GroupDescriptor(IGStatus.IG, False)
        assert levels[1].descriptor == GroupDescriptor(IGStatus.FIG, True)
        assert levels[0].build is None and levels[1].build is None
        assert levels[1].action == ActionDescriptor(True, True)
        assert levels[2].action == INT_TRANSLATION_ACTION
        assert levels[2].build() == IntTranslation()

    def test_perm_action_sugar(self):
        levels = parse_chain("cyclic 2 wr perm-action 3: (0 1), (0 1 2)")
        head = levels[1].build()
        assert levels[1].descriptor == FIG_FG
        assert isinstance(head, FiniteAction) and head.head.order == 6
        assert levels[1].action == FINITE_ACTION

    def test_descriptor_invariant_is_positioned(self):
        with pytest.raises(ParseError, match="finitely generated"):
            parse_chain("{FIG, nonfg}")

    def test_head_without_action_is_rejected(self):
        # Reported at the head level's first token.
        for text, where in [("sym 3 wr cyclic 2", "line 1, column 10"),
                            ("sym 3 wr sym 3", "line 1, column 10"),
                            ("sym 3 wr {FIG, fg}", "line 1, column 10"),
                            ("sym 3 wr sym 3 wr int-translation", "line 1, column 10"),
                            ("sym 3\nwr sym 3", "line 2, column 4")]:
            with pytest.raises(ParseError, match=rf"needs an action: .* \({where}\)$"):
                parse_chain(text)

    def test_first_level_with_action_is_rejected(self):
        with pytest.raises(ParseError, match="first level"):
            parse_chain("(sym 3, natural)")
        with pytest.raises(ParseError, match="first level"):
            parse_chain("({FIG, fg}, torsion) wr sym 3")

    def test_groups_are_closed_when_read(self, monkeypatch):
        closed = []
        monkeypatch.setattr(parsing, "closure",
                            lambda gens: closed.append(gens) or closure(gens))
        levels = parse_chain("cyclic 2 wr perm-action 3: (0 1), (0 1 2)")
        assert closed == []
        assert levels[1].build().head.order == 6 and len(closed) == 1
        levels[1].build()
        assert len(closed) == 2

    def test_each_build_closes_once(self, monkeypatch):
        closures, closure = [], groups.closure

        def counting_closure(*args, **kwargs):
            closures.append(args)
            return closure(*args, **kwargs)

        for module in (groups, parsing):
            monkeypatch.setattr(module, "closure", counting_closure)
        levels = parse_chain("sym 9 wr (sym 7, regular) wr int-translation")
        assert chain_to_descriptors(levels) == [
            (FIG_FG, None), (FIG_FG, FINITE_ACTION), (FIG_FG, INT_TRANSLATION_ACTION)]
        assert closures == []
        assert levels[0].build().order == 362880 and len(closures) == 1
        # Sym(7) is closed, then its regular action (5040 points) is refused.
        with pytest.raises(GroupTooLargeError,
                           match="image-entry budget: 5040 elements of degree 5040 hold"):
            levels[1].build()
        assert len(closures) == 2
        assert levels[2].build() == IntTranslation() and len(closures) == 2

    def test_level_checks_stay_at_parse_time(self):
        with pytest.raises(ParseError, match=r"n must be >= 1 \(line 1, column 18\)"):
            parse_chain("sym 3 wr (cyclic 0, natural)")
        with pytest.raises(ParseError, match=r"point 3 out of range.*column 31"):
            parse_chain("cyclic 2 wr perm-action 3: (0 3)")
        with pytest.raises(ParseError, match=r"point 0 repeated.*column 33"):
            parse_chain("cyclic 2 wr perm-action 3: (0 1 0)")

    def test_chain_to_descriptors(self):
        chain = chain_to_descriptors(parse_chain(
            "sym 3 wr ({IG, fg}, non-torsion) wr int-translation"))
        assert chain[0] == (GroupDescriptor(IGStatus.FIG, True), None)
        assert chain[1] == (GroupDescriptor(IGStatus.IG, True),
                            ActionDescriptor(False, True))
        assert chain[2][1] == INT_TRANSLATION_ACTION


class TestAmbients:
    def test_natural_and_shift_ambients(self):
        W = parse_ambient("sym 3 wr (cyclic 2, natural)")
        assert isinstance(W.action, FiniteAction)
        assert W.order() == 72
        WZ = parse_ambient("cyclic 2 wr int-translation")
        assert isinstance(WZ.action, IntTranslation)

    def test_regular_ambient_acts_on_the_head_order(self):
        W = parse_ambient("cyclic 2 wr (sym 3, regular)")
        assert W.action.degree == 6
        assert W.order() == 2 ** 6 * 6

    def test_ambient_needs_two_concrete_levels(self):
        with pytest.raises(ValueError):
            ambient_from_chain(parse_chain("sym 3"))
        with pytest.raises(ValueError):
            ambient_from_chain(parse_chain("{FIG, fg} wr int-translation"))
        with pytest.raises(ValueError):
            ambient_from_chain(parse_chain("sym 3 wr ({FIG, fg}, torsion)"))


class TestElementExpressions:
    def setup_method(self):
        self.finite = parse_ambient("sym 3 wr (cyclic 2, natural)")
        self.shifts = parse_ambient("sym 3 wr int-translation")

    def test_base_head_and_shift_atoms(self):
        u = parse_wreath_element("(0 1)@0", self.finite)
        assert u == self.finite.base_embed(SWAP, 0)
        k = parse_wreath_element("h:(0 1)", self.finite)
        assert k == self.finite.head_embed(Perm((1, 0)))
        t = parse_wreath_element("t", self.shifts)
        assert t == self.shifts.head_embed(1)
        assert parse_wreath_element("id", self.shifts) == self.shifts.identity()

    def test_products_powers_and_parentheses(self):
        u = parse_wreath_element("(0 1)@0 * h:(0 1)", self.finite)
        assert u == self.finite.element({0: SWAP}, Perm((1, 0)))
        v = parse_wreath_element("t^-3 * (0 1 2)@4", self.shifts)
        assert v == self.shifts.element({7: ROT}, -3)
        w = parse_wreath_element("((0 1)@0 * t)^2", self.shifts)
        assert w == (self.shifts.element({0: SWAP}, 1)) ** 2

    def test_negative_points_need_the_shift_action(self):
        u = parse_wreath_element("(0 1)@-2", self.shifts)
        assert u.support() == (-2,)
        with pytest.raises(ParseError):
            parse_wreath_element("(0 1)@-2", self.finite)

    def test_shift_atoms_are_rejected_over_finite_heads(self):
        with pytest.raises(ParseError, match="finite group"):
            parse_wreath_element("t", self.finite)

    def test_head_atoms_check_membership(self):
        with pytest.raises(ParseError, match="needs a finite head"):
            parse_wreath_element("h:(0 1)", self.shifts)
        C3_natural = parse_ambient("sym 3 wr (cyclic 3, natural)")
        with pytest.raises(ParseError):
            parse_wreath_element("h:(0 1)", C3_natural)

    def test_base_atoms_check_membership(self):
        W = parse_ambient("cyclic 3 wr (cyclic 2, natural)")
        with pytest.raises(ParseError):
            parse_wreath_element("(0 1)@0", W)

    def test_point_out_of_range(self):
        with pytest.raises(ParseError, match="not in the index set"):
            parse_wreath_element("(0 1)@5", self.finite)

    def test_format_roundtrip_finite(self):
        pool = self.finite.enumerate_elements()
        for u in pool:
            text = format_wreath_element(u)
            assert parse_wreath_element(text, self.finite) == u

    def test_format_roundtrip_shifts(self):
        rng = random.Random(71)
        sym3 = symmetric_group(3)
        for _ in range(100):
            coords = {x: rng.choice(sym3.elements)
                      for x in range(-4, 5) if rng.random() < 0.4}
            u = self.shifts.element(coords, rng.randint(-3, 3))
            assert parse_wreath_element(format_wreath_element(u), self.shifts) == u

    def test_identity_formats_as_id(self):
        assert format_wreath_element(self.shifts.identity()) == "id"


# Outcomes recorded from the grammar that tried cycles first and backtracked;
# only errors inside a parenthesized expression have changed since.
ELEMENT_OUTCOMES = [
    ('finite', '((0 1)@0 * (1 2)@1)^2', ('value', 'id')),
    ('finite', '(((0 1)@0))', ('value', '(0 1)@0')),
    ('finite', '(h:(0 1) * (0 1 2)@1)^-1', ('value', '(0 2 1)@1 * h:(0 1)')),
    ('shifts', '(id)', ('value', 'id')),
    ('shifts', '(t * (0 1)@0)^3', ('value', '(0 1)@-3 * (0 1)@-2 * (0 1)@-1 * t^3')),
    ('shifts', 't^-2 * (id * t)', ('value', 't^-1')),
    ('finite', 'h:(0 1)(0 1)', ('value', 'id')),
    ('shifts', '(\n(0 1 2)@-1 *\n t)^-2', ('value', '(0 2 1)@0 * (0 2 1)@1 * t^-2')),
    ('finite', 'ID * H:(0 1)', ('value', 'h:(0 1)')),
    ('shifts', 'h:(0 1)', ('error', "'h:' needs a finite head; use 't' powers for shifts (line 1, column 1)")),
    ('finite', 't', ('error', "'t' denotes the unit shift; this head is a finite group (line 1, column 1)")),
    ('finite', '(0 1)', ('error', "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' (line 1, column 2)")),
    ('shifts', '(0 1)(1 2)', ('error', "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' (line 1, column 2)")),
    ('finite', '(0 1)@', ('error', 'expected a coordinate (line 1, column 7)')),
    ('finite', '(0 1)@2', ('error', 'point 2 is not in the index set (line 1, column 7)')),
    ('shifts', '(0 3)@0', ('error', 'point 3 out of range for degree 3 (line 1, column 4)')),
    ('finite', 'h:(0 1 2)', ('error', 'point 2 out of range for degree 2 (line 1, column 8)')),
    ('shifts', 'id id', ('error', "unexpected trailing input 'id' (line 1, column 4)")),
    ('shifts', '(0 1)@0 *', ('error', "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' (line 1, column 10)")),
    ('shifts', 't^', ('error', 'expected an exponent (line 1, column 3)')),
    ('finite', 'x', ('error', "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' (line 1, column 1)")),
    ('finite', 'h(0 1)', ('error', "expected ':' (line 1, column 2)")),
    ('shifts', '(0 1)@0 ２', ('error', "unexpected trailing input '２' (line 1, column 9)")),
    ('shifts', '(0 1)@0 t', ('error', "unexpected trailing input 't' (line 1, column 9)")),
    ('shifts', '(0 1 @0', ('error', "expected ')' (line 1, column 6)")),
    ('finite', '()', ('error', "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' (line 1, column 2)")),
    ('shifts', '(0 1)@0 ^ 2 ^ 2', ('error', "unexpected trailing input '^' (line 1, column 13)")),
    ('shifts', 't ** 2', ('error', "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' (line 1, column 4)")),
]


class TestElementOutcomes:
    @pytest.mark.parametrize("ambient, text, expected", ELEMENT_OUTCOMES)
    def test_outcome(self, ambient, text, expected):
        W = parse_ambient({"finite": "sym 3 wr (cyclic 2, natural)",
                           "shifts": "sym 3 wr int-translation"}[ambient])
        try:
            got = "value", format_wreath_element(parse_wreath_element(text, W))
        except ParseError as exc:
            got = "error", str(exc)
        assert got == expected

    @pytest.mark.parametrize("text, message", [
        ("((0 1)@0 * )", "expected an element: '(cycles)@point', 'h:(cycles)', 't' or 'id' "
                         "(line 1, column 12)"),
        ("(t * h)", "expected ':' (line 1, column 7)"),
        ("((0 1)@0 * t", "expected ')' (line 1, column 13)"),
        ("(t", "expected ')' (line 1, column 3)"),
    ])
    def test_errors_inside_parentheses_point_at_the_fault(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_wreath_element(text, parse_ambient("sym 3 wr int-translation"))
        assert str(info.value) == message
