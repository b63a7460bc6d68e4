"""The budgets: one refusal rule in the source, every raise a kind that main
reports, each limit bound once and moved by one monkeypatch, and the command
line's guards against blow-ups, each run as a user runs it: a fresh
`python -m wreathgen.cli` process, killed past a timeout, and for some under an
address-space limit that acts on that child process alone."""

import ast
import builtins
import importlib
import os
import re
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathgen import cli, groups, parsing

SRC = str(Path(__file__).resolve().parents[1] / "src")
ONE_GB = 1_000_000 * 1024  # `ulimit -v 1000000`, which counts KiB
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(SRC, "wreathgen").glob("*.py"))}
LIMIT_NAME = re.compile(r"[A-Z][A-Z0-9_]*_(CAP|BUDGET)")


def test_group_too_large_is_raised_only_inside_refuse_above():
    def raises(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
                and node.exc is not None and "GroupTooLargeError" in ast.unparse(node.exc)]

    (helper,) = [node for node in MODULES["groups"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "refuse_above"]
    everywhere = [node for tree in MODULES.values() for node in raises(tree)]
    assert len(everywhere) == 1 and everywhere == raises(helper)


def _raised(node, scope=()):
    """(qualified scope, raised name) for every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield ".".join(scope), ast.unparse(exc)
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        yield from _raised(child, (*scope, child.name) if named else scope)


def test_every_raise_is_a_fault_kind_that_main_reports():
    # main turns a ValueError (ParseError among them) or a GroupTooLargeError,
    # raised by refuse_above alone, into exit 2 and a RuntimeError, an internal
    # check, into exit 1.  Any other kind would leave main as a traceback, so
    # each is named here with the one library-only place it may be raised.
    others = set()
    for stem, tree in MODULES.items():
        module = importlib.import_module(f"wreathgen.{stem}".removesuffix(".__init__"))
        for scope, name in _raised(tree):
            kind = getattr(module, name, None) or vars(builtins)[name]
            if not issubclass(kind, (ValueError, RuntimeError)):
                others.add((stem, scope, name))
    assert others == {("groups", "refuse_above", "GroupTooLargeError"),
                      ("groups", "Record.__init__", "TypeError"),
                      ("wreath", "WreathProduct.__init__", "TypeError"),
                      ("groups", "Frozen.__setattr__", "AttributeError"),
                      ("groups", "Frozen.__delattr__", "AttributeError")}


def test_each_limit_is_bound_once_and_by_no_other_module():
    defined: dict[str, list[str]] = {}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and LIMIT_NAME.fullmatch(target.id):
                        defined.setdefault(target.id, []).append(module)
    assert defined == {"DEFAULT_CLOSURE_CAP": ["groups"], "SUBGROUP_WALK_BUDGET": ["groups"],
                       "RIGHT_MAP_BUDGET": ["groups"], "IMAGE_ENTRY_BUDGET": ["groups"],
                       "DEFAULT_ENUMERATION_CAP": ["wreath"],
                       "TUPLE_SEARCH_BUDGET": ["invgen"]}
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound = [node.id]
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                # A default is bound once, when its function is defined, out
                # of reach of a monkeypatch of the limit.
                defaults = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
                bound = [ast.unparse(default) for default in defaults]
                assert not any(map(LIMIT_NAME.search, bound)), f"{module} defaults to {bound}"
                continue
            else:
                continue
            for name in bound:
                assert defined.get(name, [module]) == [module], f"{module} binds {name}"


SYM4_GENERATORS = [groups.Perm.from_cycles([(0, 1)], 4), groups.Perm.from_cycles([range(4)], 4)]


@pytest.mark.parametrize("build, order", [
    (partial(parsing.parse_group_spec, "sym 4"), 24),
    (partial(groups.symmetric_group, 4), 24),
    (partial(groups.cyclic_group, 11), 11),
    (partial(groups.closure, SYM4_GENERATORS), 11),  # the search stops one past the cap
], ids=["parse_group_spec", "symmetric_group", "cyclic_group", "closure"])
def test_one_monkeypatch_moves_the_closure_cap_on_every_route(monkeypatch, build, order):
    monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 10)
    with pytest.raises(groups.GroupTooLargeError,
                       match=f"^too large for the closure cap: group order at least {order} > 10$"):
        build()


def test_one_monkeypatch_moves_the_closure_cap_of_the_command_line(capsys, monkeypatch):
    assert cli.main(["classes", "sym 4"]) == 0  # the parser is built and kept
    capsys.readouterr()
    monkeypatch.setattr(groups, "DEFAULT_CLOSURE_CAP", 10)
    assert cli.main(["classes", "sym 4"]) == 2
    assert capsys.readouterr() == (
        "", "error: too large for the closure cap: group order at least 24 > 10\n")


def wreathgen(*argv: str, timeout: float, memory: int | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python -m wreathgen.cli ARGV`, killed
    past `timeout` seconds, with its address space limited to `memory` bytes."""
    def limit_memory():
        if memory is not None:
            resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "wreathgen.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            preexec_fn=limit_memory)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out.decode(), err.decode()


def error_lines(err: str, pattern: str = "") -> int:
    return len(re.findall(rf"^error: .*{pattern}", err, re.M))


NESTED = "(" * 5000 + "t" + ")" * 5000
R1000 = " ".join(map(str, range(1000)))
CYCLE37 = " ".join(map(str, range(37)))


@pytest.mark.parametrize("argv", [
    ["classes", "sym 1000"],
    ["wreath", "eval", "sym 3 wr int-translation", NESTED],
    ["classes", "cyclic 100000"],
    ["construct", "gamma", "sym 4", "--support", "100000000"],
    ["wreath", "eval", "cyclic 1000 wr int-translation",
     f"(({R1000})@0 * ({R1000})@1 * t)^49999", "--json"],
], ids=["sym 1000", "nested 5000 deep", "cyclic 100000", "gamma window",
        "power past the budget"])
def test_refused_with_exit_2_within_10_s(argv):
    assert wreathgen(*argv, timeout=10)[0] == 2


def test_a_49999th_power_over_the_integers_answers_within_20_s():
    assert wreathgen("wreath", "eval", "sym 3 wr int-translation",
                     "((0 1)@0 * (0 1 2)@1 * t)^49999", "--json", timeout=20)[0] == 0


@pytest.mark.parametrize("spec", [f"perm 5000: ({CYCLE37}), (0 1)", "perm 30000000: (0 1)",
                                  "perm 16000000: (0 1)", "perm 7000000: (0 1)",
                                  "perm 8388608: (0 1)"],
                         ids=lambda spec: spec.split(":")[0])
def test_perm_groups_past_the_image_entry_budget_exit_2_with_one_error_line_under_1_gb(spec):
    code, _, err = wreathgen("classes", spec, timeout=20, memory=ONE_GB)
    assert code == 2
    assert error_lines(err, "image-entry budget") == 1
    assert error_lines(err) == 1


def test_a_perm_action_head_of_degree_20000_builds_within_10_s():
    assert wreathgen("wreath", "eval", "cyclic 2 wr perm-action 20000: (0 1)", "id",
                     timeout=10)[0] == 0


def test_a_perm_action_head_of_degree_2_22_exits_2_with_one_error_line_under_1_gb():
    code, _, err = wreathgen("wreath", "eval", "cyclic 2 wr perm-action 4194304: (0 1)", "id",
                             timeout=20, memory=ONE_GB)
    assert code == 2
    assert error_lines(err) == 1


def test_the_sym8_triple_exits_2_with_one_error_line_within_1_s():
    # 1 * 5760 * 28 tuples, each closed over up to 20,163 image tuples of
    # degree 8: about 2.6 * 10^10 steps, past the tuple-search budget.
    start = time.perf_counter()
    code, out, err = wreathgen("invgen", "sym 8", "(0 1 2 3 4 5 6 7), (1 2 3 4 5 6 7), (0 1)",
                               timeout=10, memory=ONE_GB)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert error_lines(err, "tuple-search budget") == 1
    assert error_lines(err) == 1


def test_a_verify_count_past_the_enumeration_cap_exits_2_with_one_error_line_within_1_s():
    start = time.perf_counter()
    code, out, err = wreathgen("verify", "conjugation", "--count", "100000000",
                               timeout=10, memory=ONE_GB)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert error_lines(err, "enumeration cap") == 1
    assert error_lines(err) == 1


def test_the_oracle_on_c2_7_exits_2_with_one_error_line_within_1_s():
    # Order 128, under the old subgroup cap of 200, with 29,212 subgroups, each
    # a class of its own: the walk's estimate passes its budget once 1,999
    # classes are kept, after the joins of 41.
    start = time.perf_counter()
    code, out, err = wreathgen("invgen", "perm 14: (0 1), (2 3), (4 5), (6 7), (8 9), (10 11), "
                               "(12 13)", "(0 1)", "--oracle", timeout=10, memory=ONE_GB)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert error_lines(err, "subgroup-walk budget") == 1
    assert error_lines(err) == 1


# -- no boundary integer ends in a traceback or a hang ---------------------------

BOUNDARY = [-1, 0, 1, 2, 255, 256, 257, 2**22, 2**22 + 1, 2**23, 2**24, 10**8]
VERIFY_COUNT = ("verify", "{suite}", "--count", "{n}")
TEMPLATES = [
    VERIFY_COUNT,
    ("verify", "coset", "--seed", "{n}", "--count", "1"),
    ("construct", "gamma", "sym 3", "--support", "{n}"),
    ("construct", "gamma", "sym 3", "--seed", "{n}"),
    ("classes", "sym {n}"),
    ("classes", "cyclic {n}"),
    ("classes", "perm {n}: (0 1)"),
    ("invgen", "cyclic {n}", "--min"),
    ("wreath", "eval", "sym 3 wr int-translation", "((0 1)@0 * t)^{n}"),
    ("wreath", "eval", "cyclic 2 wr (cyclic {n}, natural)", "id"),
]
VERIFY_SUITES = ["alpha", "beta", "conjugation", "coset", "gamma", "igsets", "all"]
# Empty, one `error:` line, or argparse's usage (which may wrap) and its error line.
CLEAN_STDERR = re.compile(r"(usage: .*\n(?: .*\n)*\S[^\n]*?: )?error: .*\n")


def command(template: tuple[str, ...], suite: str, n: int) -> list[str]:
    return [word.format(suite=suite, n=n) for word in template]


def assert_exits_cleanly(argv: list[str]) -> None:
    code, _, err = wreathgen(*argv, timeout=20, memory=ONE_GB)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert err == "" or CLEAN_STDERR.fullmatch(err), (argv, err)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.sampled_from(TEMPLATES), st.sampled_from(VERIFY_SUITES), st.sampled_from(BOUNDARY))
@example(VERIFY_COUNT, "alpha", 10**8)
def test_no_boundary_integer_ends_in_a_traceback_or_a_hang(template, suite, n):
    # A slice; slow/test_slow_guards.py runs every template at every integer.
    assert_exits_cleanly(command(template, suite, n))
