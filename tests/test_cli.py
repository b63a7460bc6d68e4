"""The command line, driven in-process through main(argv)."""

import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wreathgen import actions, cli, constructions, groups, invgen, parsing, wreath
from wreathgen.actions import FiniteAction, IntTranslation
from wreathgen.classify import IGStatus
from wreathgen.cli import main
from wreathgen.wreath import WreathElement

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    return code, payload, err


class TestClasses:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "classes", "sym 3")
        assert code == 0
        assert "order 6" in out
        assert "classes (3):" in out
        assert "rep (0 1 2)" in out

    def test_json_output(self, capsys):
        code, payload, _ = run_json(capsys, "classes", "sym 3")
        assert code == 0
        assert payload["command"] == "classes"
        assert payload["group"] == {"degree": 3, "order": 6}
        assert [c["size"] for c in payload["classes"]] == [1, 3, 2]
        assert payload["classes"][0]["representative"] == "()"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "classes", "perm 3: (0 0)")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["classes", "invgen"])
    def test_there_is_no_cap_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "sym 4", "--cap", "10"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --cap 10" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["classes", "sym 9"], ["invgen", "sym 9", "--min"]])
    def test_cap_refuses_before_building_the_group(self, capsys, monkeypatch, argv):
        # Sym(9) has 362,880 elements; it is refused before any is built.
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 100)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: too large for the closure cap: group order at least 120 > 100\n"


class TestKnownOrders:
    """Named groups whose order is past the cap exit 2 before any Perm or group is built."""

    # The order product stops once it passes the cap of 10^6: at 10! for Sym, 10!/2 for Alt.
    @pytest.mark.parametrize("argv, order", [
        (["classes", "sym 200"], 3628800),
        (["classes", "sym 1000"], 3628800),
        (["classes", "alt 1000000000"], 1814400),
        (["wreath", "eval", "sym 10 wr int-translation", "t"], 3628800),
        (["construct", "gamma", "sym 10"], 3628800),
    ])
    def test_refused_before_building(self, capsys, monkeypatch, argv, order):
        built = []

        def unbuilt(*args, **kwargs):
            built.append(args)
            raise AssertionError("a permutation or a group was built")

        for module in (groups, parsing):
            monkeypatch.setattr(module, "closure", unbuilt)
        monkeypatch.setattr(groups.Perm, "from_cycles", unbuilt)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: too large for the closure cap: group order at least {order} "
                       "> 1000000\n")
        assert built == []

    @pytest.mark.parametrize("argv, order, degree", [
        (["classes", "cyclic 100000"], 100000, 100000),
        (["classes", "cyclic 4097"], 4097, 4097),
        (["classes", "alt 10"], 1814400, 10),
        (["classes", "sym 10"], 3628800, 10),
        (["wreath", "eval", "cyclic 5000 wr int-translation", "t"], 5000, 5000),
    ])
    def test_image_entries_past_the_budget_are_refused_before_building(
            self, capsys, monkeypatch, argv, order, degree):
        # Each is under a closure cap raised to 4 * 10^6, but its elements would
        # hold more than IMAGE_ENTRY_BUDGET = 2^24 images.
        monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 4_000_000)
        built = []

        def unbuilt(*args, **kwargs):
            built.append(args)
            raise AssertionError("a permutation or a group was built")

        for module in (groups, parsing):
            monkeypatch.setattr(module, "closure", unbuilt)
        monkeypatch.setattr(groups.Perm, "__init__", unbuilt)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: too large for the image-entry budget: {order} elements of degree "
                       f"{degree} hold {order * degree} > 16777216\n")
        assert built == []

    def test_perm_group_past_the_image_budget_is_refused(self, capsys, monkeypatch):
        # A 37-cycle and a swap on 50 points generate Sym(37); with a budget of
        # 1000 image entries the closure stops past 1000 // 50 = 20 elements.
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 1000)
        cycle = " ".join(map(str, range(37)))
        code, out, err = run(capsys, "classes", f"perm 50: ({cycle}), (0 1)")
        assert (code, out) == (2, "")
        assert err == ("error: too large for the image-entry budget: 21 elements of degree 50 "
                       "hold 1050 > 1000\n")

    @pytest.mark.parametrize("argv, degree, budget, column", [
        (["classes", "perm 1001: (0 1)"], 1001, 1000, 6),
        (["classes", "perm 30000000: (0 1)"], 30000000, 16777216, 6),
        (["classify", "cyclic 2 wr perm-action 1001: (0 1)"], 1001, 1000, 25)])
    def test_perm_degree_past_the_image_budget_is_refused_before_any_cycle(
            self, capsys, monkeypatch, argv, degree, budget, column):
        def unfolded(*args):
            raise AssertionError("a cycle was folded")

        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", budget)
        monkeypatch.setattr(parsing, "_cycles_product", unfolded)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: degree {degree} is above the image-entry budget {budget} "
                       f"(line 1, column {column})\n")

    @pytest.mark.parametrize("argv, degree, column", [
        (["classes", "perm 251: (0 1)"], 251, 6),
        (["classify", "cyclic 2 wr perm-action 1000: (0 1)"], 1000, 25)])
    def test_perm_degree_past_a_quarter_of_the_image_budget_is_refused_before_any_cycle(
            self, capsys, monkeypatch, argv, degree, column):
        # Folding a generator and starting its closure would hold four arrays of
        # the degree, 4 * degree > 1000 entries, though one alone is within the budget.
        def unfolded(*args):
            raise AssertionError("a cycle was folded")

        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 1000)
        monkeypatch.setattr(parsing, "_cycles_product", unfolded)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: degree {degree} is above a quarter of the image-entry budget "
                       f"1000 (line 1, column {column})\n")

    def test_perm_degree_at_a_quarter_of_the_image_budget_answers(self, capsys, monkeypatch):
        # 4 * 250 entries fill the budget: the group of the identity and (0 1)
        # is closed, within the budget // degree = 4 elements.
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 1000)
        code, out, err = run(capsys, "classes", "perm 250: (0 1)", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["group"]["order"] == 2

    @pytest.mark.parametrize("head, order", [("sym 8", 40320), ("sym 7", 5040)])
    def test_regular_heads_past_the_image_budget_are_refused(self, capsys, head, order):
        # The regular action of a group of order n is n elements of degree n.
        code, out, err = run(capsys, "construct", "torsion-igset",
                             f"cyclic 2 wr ({head}, regular)")
        assert (code, out) == (2, "")
        assert err == (f"error: too large for the image-entry budget: {order} elements of degree "
                       f"{order} hold {order * order} > 16777216\n")

    @pytest.mark.parametrize("spec", ["cyclic 4096", "sym 9"])
    def test_named_groups_within_the_image_budget_pass_the_check(self, monkeypatch, spec):
        # C_4096 holds exactly 2^24 images and Sym(9) 3.3 million: the check
        # lets them through to the group's construction.  C_4096 is listed
        # without a closure, so the stub is FiniteGroup, which both reach;
        # Sym(9) is still closed first (about a second), and their classes,
        # which would take seconds more, are never found.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(groups.FiniteGroup, "__init__", reached)
        with pytest.raises(Reached):
            cli.main(["classes", spec])

    def test_a_named_group_within_the_image_budget_builds(self, capsys):
        code, payload, _ = run_json(capsys, "classes", "cyclic 1000")
        assert code == 0
        assert payload["group"] == {"degree": 1000, "order": 1000}


class TestInvgen:
    def test_generating_pair(self, capsys):
        code, out, _ = run(capsys, "invgen", "sym 3", "(0 1), (0 1 2)")
        assert code == 0
        assert "invariably generates: yes" in out

    def test_failing_pair_shows_witness(self, capsys):
        code, out, _ = run(capsys, "invgen", "sym 3", "(0 1), (0 2)")
        assert code == 0
        assert "invariably generates: no" in out
        assert "witness:" in out and "generates order 2" in out

    def test_oracle_agreement_is_reported(self, capsys):
        code, out, _ = run(capsys, "invgen", "sym 3", "(0 1), (0 1 2)", "--oracle")
        assert code == 0
        assert "oracle: yes (agrees)" in out

    def test_oracle_past_the_subgroup_walk_budget_is_refused_before_any_closure(
            self, capsys, monkeypatch):
        # Sym(7) keeps no row table: 5040 cyclic closures * (5040 // 2 + 1) * degree 7.
        def unsearched(*args):
            raise AssertionError("the tuple search or a subgroup closure ran")
        monkeypatch.setattr(cli, "invariably_generates", unsearched)
        monkeypatch.setattr(groups, "generated_indices", unsearched)
        code, out, err = run(capsys, "invgen", "sym 7", "(0 1), (0 1 2 3 4 5 6)", "--oracle")
        assert code == 2 and out == ""
        assert err == ("error: too large for the subgroup-walk budget: "
                       "estimated closure steps 88940880 > 16777216\n")

    def test_min_mode(self, capsys):
        code, payload, _ = run_json(capsys, "invgen", "sym 3", "--min")
        assert code == 0
        assert payload["minimal_size"] == 2
        assert len(payload["example"]) == 2

    def test_json_witness(self, capsys):
        code, payload, _ = run_json(capsys, "invgen", "sym 3", "(0 1), (0 2)")
        assert code == 0
        assert payload["invariably_generates"] is False
        assert payload["witness"]["generated_order"] == 2
        assert payload["witness"]["choice"] == [["(0 1)", "(0 1)"], ["(0 2)", "(0 1)"]]

    def test_elements_outside_the_group_exit_2(self, capsys):
        code, _, err = run(capsys, "invgen", "cyclic 3", "(0 1)")
        assert code == 2
        assert "not an element" in err

    def test_missing_elements_exit_2(self, capsys):
        code, _, err = run(capsys, "invgen", "sym 3")
        assert code == 2
        assert "--min" in err

    @pytest.mark.parametrize("argv, message", [
        (["invgen", "sym 3", "(0 1), (0 1 2)", "--min"], "drop the ELEMENTS"),
        (["invgen", "sym 3", "--min", "--oracle"], "cannot be combined with --min"),
        (["invgen", "sym 3", "(0 1), (0 1 2)", "--min", "--oracle"], "drop the ELEMENTS"),
    ])
    def test_min_refuses_elements_and_oracle(self, capsys, argv, message):
        # --min searches for its own set, so a given set or an oracle check
        # would be silently ignored.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err


class TestClassify:
    def test_text_trace(self, capsys):
        code, out, _ = run(capsys, "classify", "{FIG, fg} wr int-translation")
        assert code == 0
        assert "level 1: base group is FIG" in out
        assert "status: FIG" in out

    def test_json_trace(self, capsys):
        code, payload, _ = run_json(
            capsys, "classify", "sym 3 wr ({IG, fg}, non-torsion) wr ({IG, nonfg}, torsion)")
        assert code == 0
        assert payload["status"] == "IG"
        assert len(payload["trace"]) == 3

    def test_concrete_levels_are_read_without_closing(self, capsys, monkeypatch):
        closures, closure = [], groups.closure

        def counting_closure(*args, **kwargs):
            closures.append(args)
            return closure(*args, **kwargs)

        for module in (groups, parsing):
            monkeypatch.setattr(module, "closure", counting_closure)
        # Sym(10) has 3,628,800 elements, past the default closure cap.
        for chain in ("sym 10 wr int-translation",
                      "alt 4 wr perm-action 3: (0 1), (0 1 2) wr (klein4, regular)"):
            code, out, _ = run(capsys, "classify", chain)
            assert code == 0
            assert out.endswith("status: FIG\n")
        assert closures == []

    def test_invalid_descriptor_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "{FIG, nonfg}")
        assert code == 2
        assert "finitely generated" in err


class TestWreathEval:
    def test_finite_ambient(self, capsys):
        code, out, _ = run(capsys, "wreath", "eval",
                           "sym 3 wr (cyclic 2, natural)", "(0 1)@0 * h:(0 1)")
        assert code == 0
        assert "element: (0 1)@0 * h:(0 1)" in out
        assert "support: 0" in out

    def test_shift_ambient_json(self, capsys):
        code, payload, _ = run_json(capsys, "wreath", "eval",
                                    "sym 3 wr int-translation",
                                    "(0 1 2)@-2 * t^-3 * (0 1)@4")
        assert code == 0
        assert payload["head"] == -3
        assert payload["base"] == {"-2": "(0 1 2)", "7": "(0 1)"}

    def test_bad_expression_exits_2(self, capsys):
        code, _, err = run(capsys, "wreath", "eval",
                           "sym 3 wr (cyclic 2, natural)", "t^2")
        assert code == 2
        assert "error:" in err

    def test_huge_powers_answer_at_once_or_exit_2(self, capsys):
        code, payload, _ = run_json(capsys, "wreath", "eval",
                                    "sym 3 wr int-translation", "t^99999999")
        assert code == 0
        assert payload["head"] == 99999999
        assert payload["base"] == {}
        code, out, err = run(capsys, "wreath", "eval",
                             "sym 3 wr int-translation", "((0 1)@0 * t)^99999999")
        assert code == 2
        assert out == ""
        assert err == ("error: too large for the enumeration cap: points the power's support "
                       "may reach 99999999 > 100000\n")

    def test_powers_past_the_image_budget_exit_2_before_any_product(self, capsys, monkeypatch):
        # About 50,000 coordinates of degree 1000: within the support cap,
        # but past IMAGE_ENTRY_BUDGET, so the power is refused up front.
        products = 0
        mul = WreathElement.__mul__

        def counting_mul(u, v):
            nonlocal products
            products += 1
            return mul(u, v)

        r = " ".join(map(str, range(1000)))
        argv = ["wreath", "eval", "cyclic 1000 wr int-translation", f"(({r})@0 * ({r})@1 * t)"]
        monkeypatch.setattr(WreathElement, "__mul__", counting_mul)
        assert run(capsys, *argv)[0] == 0
        unpowered, products = products, 0
        argv[-1] += "^49999"
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out) == (2, "")
        assert err == ("error: too large for the image-entry budget: 50000 support points of "
                       "degree 1000 hold 50000000 > 16777216\n")
        assert products == unpowered

    def test_powers_within_the_image_budget_run(self, capsys):
        # 50,000 coordinates of degree 3: 150,000 image entries.
        code, payload, _ = run_json(capsys, "wreath", "eval", "sym 3 wr int-translation",
                                    "((0 1)@0 * (0 1 2)@1 * t)^49999")
        assert code == 0
        assert payload["head"] == 49999 and len(payload["base"]) == 50000

    def test_the_image_budget_is_support_times_degree(self, capsys, monkeypatch):
        # ((0 1)@0 * (0 1 2)@1 * t)^99 may reach 100 points of degree 3.
        argv = ("wreath", "eval", "sym 3 wr int-translation", "((0 1)@0 * (0 1 2)@1 * t)^99")
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 300)
        assert run_json(capsys, *argv)[0] == 0
        monkeypatch.setattr(groups, "IMAGE_ENTRY_BUDGET", 299)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("100 support points of degree 3 hold 300 > 299\n")

    def test_a_closed_pipe_ends_the_command_quietly(self):
        # About 1.9 MB of output: the command is still writing when the
        # reader stops after 300 bytes.
        proc = subprocess.Popen(
            [sys.executable, "-m", "wreathgen.cli", "wreath", "eval",
             "sym 3 wr int-translation", "((0 1)@0 * (0 1 2)@1 * t)^49999"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")})
        head = proc.stdout.read(300)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head.startswith(b"element: (0 1)@-49998 * ")
        assert err == b""

    @staticmethod
    def nested(depth):
        return "(" * depth + "t" + ")" * depth

    def test_300_levels_of_parentheses_evaluate(self, capsys):
        code, payload, _ = run_json(capsys, "wreath", "eval", "sym 3 wr int-translation",
                                    self.nested(300))
        assert code == 0
        assert payload["element"] == "t"

    @pytest.mark.parametrize("depth", [400, 5000])
    def test_deeper_nesting_exits_2_with_one_error_line(self, capsys, depth):
        code, out, err = run(capsys, "wreath", "eval", "sym 3 wr int-translation",
                             self.nested(depth))
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses nested too deeply (line 1, column ")
        assert len(err.splitlines()) == 1


EVAL_AMBIENTS = {text: parsing.parse_ambient(text) for text in
                 ("sym 3 wr int-translation", "sym 3 wr (cyclic 3, natural)")}


@st.composite
def eval_cases(draw, ambient):
    W = EVAL_AMBIENTS[ambient]
    if isinstance(W.action, IntTranslation):
        points, heads = range(-6, 7), st.integers(-3, 3)
    else:
        points, heads = W.action.points(), st.sampled_from(W.action.head.elements)
    coords = draw(st.dictionaries(st.sampled_from(points),
                                  st.sampled_from(W.base_group.elements)))
    return W.element(coords, draw(heads))


class TestWreathEvalFormatsOnce:
    @pytest.mark.parametrize("ambient", EVAL_AMBIENTS)
    @given(data=st.data())
    def test_each_coordinate_is_formatted_once(self, ambient, data):
        u = data.draw(eval_cases(ambient))
        text = parsing.format_wreath_element(u)
        format_perm = parsing.format_perm
        calls = 0

        def counting(perm):
            nonlocal calls
            calls += 1
            return format_perm(perm)

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
            mp.setattr(cli, "format_perm", counting)
            mp.setattr(parsing, "format_perm", counting)
            assert main(["wreath", "eval", ambient, text, "--json"]) == 0
        payload = json.loads(out.getvalue())
        assert payload["element"] == text
        assert payload["base"] == {str(x): format_perm(g) for x, g in u.base}
        assert calls <= len(u.base) + 1


class TestConstruct:
    def test_torsion_igset(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "torsion-igset",
                                    "cyclic 3 wr (sym 3, natural)")
        assert code == 0
        assert payload["igset"] == ["(0 1 2)@0", "h:(0 1)", "h:(0 1 2)"]

    def test_torsion_igset_needs_a_finite_action(self, capsys):
        code, _, err = run(capsys, "construct", "torsion-igset",
                           "cyclic 3 wr int-translation")
        assert code == 2
        assert "finite action" in err

    def test_nottorsion_igset(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "nottorsion-igset",
                                    "sym 3 wr int-translation")
        assert code == 0
        assert payload["igset"][0] == "t"
        assert len(payload["igset"]) == 5

    def test_a_repeated_or_identity_generator_is_listed_once_or_not_at_all(self, capsys):
        code, out, _ = run(capsys, "construct", "nottorsion-igset",
                           "perm 3: (0 1), (0 1), () wr int-translation")
        assert (code, out) == (0, "base generators: (0 1)\ninvariable generating set "
                                  "(3 elements):\n  t\n  (0 1)@0\n  (0 1)@0 * t\n")
        code, out, _ = run(capsys, "construct", "gamma", "perm 3: (0 1), (0 1), ()")
        assert (code, out) == (0, "group: order 2, degree 3 (seed 0)\n"
                                  "  (0 1): c=2 d=4 m=7 n=3 -> coordinate 2 holds (0 1)\n")

    def test_nottorsion_igset_needs_the_shifts(self, capsys):
        code, _, err = run(capsys, "construct", "nottorsion-igset",
                           "sym 3 wr (cyclic 2, natural)")
        assert code == 2

    def test_gamma(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "gamma", "sym 3",
                                    "--seed", "3", "--support", "2")
        assert code == 0
        rows = payload["rows"]
        assert [r["found"] for r in rows] == ["(0 1)", "(0 1 2)"]
        for r in rows:
            assert r["coordinate"] == r["c"]

    def test_gamma_rejects_a_negative_support(self, capsys):
        code, out, err = run(capsys, "construct", "gamma", "sym 3", "--support", "-1")
        assert code == 2
        assert out == ""
        assert "at least 0" in err

    def test_gamma_is_seed_deterministic(self, capsys):
        _, first, _ = run_json(capsys, "construct", "gamma", "sym 3", "--seed", "9")
        _, second, _ = run_json(capsys, "construct", "gamma", "sym 3", "--seed", "9")
        assert first == second

    def test_gamma_refuses_an_oversized_window_before_drawing(self, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(random.Random, "random", lambda self: draws.append(self))
        code, out, err = run(capsys, "construct", "gamma", "sym 4", "--support", "100000000")
        assert (code, out) == (2, "")
        assert err == ("error: too large for the enumeration cap: conjugator window points "
                       "200000001 > 100000\n")
        assert draws == []

    def test_gamma_runs_on_a_wide_window(self, capsys):
        # 40,001 points, each drawn for both conjugators of each generator.
        code, payload, _ = run_json(capsys, "construct", "gamma", "sym 4", "--support", "20000")
        assert code == 0
        assert [r["found"] for r in payload["rows"]] == ["(0 1)", "(0 1 2 3)"]
        assert all(r["coordinate"] == r["c"] for r in payload["rows"])


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "alpha", "--count", "20")
        assert code == 0
        assert "PASS" in out and "0 failed" in out

    def test_all_suites_json(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "all", "--count", "5")
        assert code == 0
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"]) == 20
        assert all(c["passed"] for c in payload["checks"])

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_a_count_below_one_exits_2(self, capsys, count):
        code, out, err = run(capsys, "verify", "alpha", "--count", count)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "frobnicate"])


def _first_generator_only(gens):
    return groups.closure(gens[:1])


class TestInternalChecks:
    """A failed internal check is a RuntimeError; main turns it into exit 1,
    nothing on stdout and one `error:` line on stderr, never a traceback."""

    @pytest.mark.parametrize("patch, argv, message", [
        ((cli, "iterated_status_direct", lambda chain: IGStatus.NEG_IG),
         ["classify", "sym 3 wr (cyclic 2, natural)"], "fold gave FIG, closed form gave NEG_IG"),
        ((cli, "invariably_generates_oracle", lambda G, S: False),
         ["invgen", "sym 3", "(0 1), (0 1 2)", "--oracle"],
         "the tuple search says yes, the maximal-subgroup oracle says no"),
        ((FiniteAction, "head_inverse", lambda self, h: h),
         ["wreath", "eval", "cyclic 3 wr (cyclic 3, natural)", "h:(0 1 2)"],
         "conjugation convention violated: "),
        ((actions, "closure", _first_generator_only),
         ["construct", "torsion-igset", "cyclic 2 wr (sym 3, regular)"],
         "regular action has wrong order"),
        ((wreath, "closure", _first_generator_only),
         ["verify", "igsets"], "embedded copy has wrong order"),
        ((invgen, "invariably_generates", lambda G, S: (False, None)),
         ["invgen", "sym 3", "--min"], "class representatives failed to invariably generate"),
        ((constructions, "beta", lambda alpha_e, alpha_g, m, n: alpha_e.element.ambient.identity()),
         ["construct", "gamma", "sym 3"],
         "expected Perm((1, 0, 2)) at coordinate 4, found Perm((0, 1, 2)) (c=4, d=4, m=9, n=1)\n"),
    ], ids=["classify", "oracle", "self-test", "regular-action", "embedding", "min", "gamma"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_exits_1_with_one_error_line(self, capsys, monkeypatch, patch, argv, message,
                                         json_flag):
        monkeypatch.setattr(*patch)
        code, out, err = run(capsys, *argv, *json_flag)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


class TestParserReuse:
    SEQUENCE = [
        ["invgen", "sym 3", "--bogus"],
        ["verify", "coset", "--seed", "5", "--count", "1", "--json"],
        ["verify", "coset", "--count", "1", "--json"],
        ["verify", "coset", "--count", "1"],
        ["invgen", "sym 4", "--min", "--json"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_kept_parser_answers_as_a_fresh_one(self, capsys):
        kept = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert kept == fresh
        assert kept[0][0] == 2 and "--bogus" in kept[0][2]
        assert json.loads(kept[1][1])["seed"] == 5
        # The seed given to the call before does not stick.
        assert json.loads(kept[2][1])["seed"] == 0
        assert not kept[3][1].startswith("{")
        assert json.loads(kept[4][1])["minimal_size"] == 2
        assert all(code == 0 for code, _, _ in kept[1:])


class TestJsonText:
    """Every --json stdout is json.dumps(payload, indent=2, sort_keys=True) and a newline."""

    @pytest.mark.parametrize("argv", [
        ["classes", "sym 4"],
        ["invgen", "sym 4", "(0 1 2 3), (0 1 2)"],
        ["invgen", "sym 4", "(0 1 2 3), (0 1 2)", "--oracle"],
        ["invgen", "sym 4", "--min"],
        ["classify", "{FIG, fg} wr int-translation wr (sym 3, natural)"],
        ["wreath", "eval", "sym 3 wr int-translation", "((0 1)@0 * (0 1 2)@-3 * t^-2)^7"],
        ["construct", "torsion-igset", "cyclic 3 wr (sym 3, natural)"],
        ["construct", "nottorsion-igset", "sym 3 wr int-translation"],
        ["construct", "gamma", "sym 4", "--support", "5"],
        ["verify", "all", "--seed", "1", "--count", "2"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_every_subcommand(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestConsoleScript:
    def test_the_declared_script_is_main_and_answers_help(self, capsys):
        # tomllib is in the standard library from Python 3.11 on.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"wreathgen": "wreathgen.cli:main"}
        module, attr = scripts["wreathgen"].split(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry is main
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wreathgen ")
