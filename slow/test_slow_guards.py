"""The command line's slow guards: queries that take seconds each, too long
for the tier-1 suite, run as a user runs them, through the fresh-process
helper of tests/test_limits.py.

    python -m pytest slow/test_slow_guards.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_limits import (BOUNDARY, ONE_GB, TEMPLATES, VERIFY_COUNT,  # noqa: E402
                         VERIFY_SUITES, assert_exits_cleanly, command, wreathgen)


def answer(*argv: str, timeout: float, memory: int | None = None) -> dict:
    """The JSON payload of a query that must exit 0 within `timeout` seconds."""
    code, out, err = wreathgen(*argv, "--json", timeout=timeout, memory=memory)
    assert code == 0, err
    return json.loads(out)


def test_sym6_minimal_invariable_generating_set_within_120_s():
    assert answer("invgen", "sym 6", "--min", timeout=120)["minimal_size"] == 3


def test_sym6_oracle_answers_and_agrees_within_120_s():
    code, out, err = wreathgen("invgen", "sym 6", "(0 1), (0 1 2 3 4 5)", "--oracle",
                               timeout=120)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "oracle: no (agrees)"


def test_sym8_past_the_row_table_finds_its_witness_of_order_5040_within_120_s():
    r = answer("invgen", "sym 8", "(0 1), (0 1 2 3 4 5 6)", timeout=120)
    assert r["invariably_generates"] is False and r["witness"]["generated_order"] == 5040


def test_classes_past_the_row_table_within_60_s():
    r = answer("classes", "sym 7", timeout=60)
    assert r["group"]["order"] == 5040 and len(r["classes"]) == 15


def test_an_igset_on_a_degree_120_regular_head_within_60_s():
    r = answer("construct", "torsion-igset", "cyclic 2 wr (sym 5, regular)", timeout=60)
    assert len(r["igset"]) == 3


@pytest.mark.parametrize("suite", ["alpha", "beta", "coset"])
def test_a_verify_suite_passes_on_2000_instances_within_60_s(suite):
    # The alpha and beta closed forms against the literal products, and the
    # coset collapse against its independent fold.
    code, _, err = wreathgen("verify", suite, "--seed", "1", "--count", "2000", timeout=60)
    assert (code, err) == (0, "")


def test_a_perm_group_of_degree_2_22_answers_within_20_s_under_1_gb():
    # A quarter of the image-entry budget.
    code, _, err = wreathgen("classes", "perm 4194304: (0 1)", timeout=20, memory=ONE_GB)
    assert (code, err) == (0, "")


# Every numeric template of tests/test_limits.py at every boundary integer:
# 192 fresh processes, about 25 s together.
@pytest.mark.parametrize("argv", [
    command(template, suite, n) for template in TEMPLATES
    for suite in (VERIFY_SUITES if template == VERIFY_COUNT else [""]) for n in BOUNDARY
], ids=" ".join)
def test_no_boundary_integer_ends_in_a_traceback_or_a_hang(argv):
    assert_exits_cleanly(argv)
