"""The randomized cross-check harness: determinism, coverage, failure shape."""

import random

import pytest

from wreathgen import verify, wreath
from wreathgen.actions import IntTranslation
from wreathgen.groups import GroupTooLargeError, symmetric_group
from wreathgen.verify import SUITES, random_alpha, run_suites
from wreathgen.wreath import WreathProduct


def test_same_seed_reproduces_the_run():
    first = run_suites(["alpha"], seed=5, count=30)
    second = run_suites(["alpha"], seed=5, count=30)
    assert first == second


def test_all_expands_to_every_suite():
    results = run_suites(["all"], seed=0, count=3)
    names = {r.name.split(":")[0] for r in results}
    assert names == set(SUITES)
    assert all(r.passed for r in results)


def test_each_suite_passes_alone():
    for name in SUITES:
        results = run_suites([name], seed=2, count=5)
        assert results and all(r.passed for r in results), name


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nonsense"], seed=0)


@pytest.mark.parametrize("count", [0, -3])
def test_a_count_below_one_is_rejected(count):
    with pytest.raises(ValueError, match="at least 1"):
        run_suites(["alpha"], seed=0, count=count)


def test_random_alpha_refuses_a_window_past_the_cap_before_drawing(monkeypatch):
    W = WreathProduct(symmetric_group(3), IntTranslation())
    monkeypatch.setattr(wreath, "DEFAULT_ENUMERATION_CAP", 9)
    random_alpha(random.Random(1), W, W.base_group.identity, 4)  # 9 points: drawn
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(GroupTooLargeError, match="^too large for the enumeration cap: "
                       "conjugator window points 11 > 9$"):
        random_alpha(rng, W, W.base_group.identity, 5)
    assert rng.getstate() == state


def test_a_failed_check_carries_its_first_failure():
    results = []
    verify._record(results, "passes", [], "3 instances")
    verify._record(results, "fails", ["first", "second"], "3 instances")
    assert results == [verify.CheckResult("passes", True, "3 instances"),
                       verify.CheckResult("fails", False, "first")]


def _fails_on_its_third_call(fn):
    calls = []

    def wrapped(*args):
        calls.append(args)
        return None if len(calls) == 3 else fn(*args)
    return wrapped


def test_the_alpha_suite_draws_its_pinned_instances(monkeypatch):
    monkeypatch.setattr(verify, "assemble_alpha_power",
                        _fails_on_its_third_call(verify.assemble_alpha_power))
    (result,) = run_suites(["alpha"], seed=1, count=4)
    assert not result.passed
    assert result.detail == (
        "m=3 e-conj={-4: Perm((1, 2, 0)), -3: Perm((1, 2, 0)), -2: Perm((2, 1, 0)), "
        "-1: Perm((0, 2, 1)), 1: Perm((2, 1, 0)), 2: Perm((2, 1, 0)), 4: Perm((2, 0, 1))} "
        "f=Perm((0, 1, 2)) f-conj={-3: Perm((2, 1, 0)), -1: Perm((2, 0, 1)), "
        "0: Perm((1, 2, 0)), 1: Perm((2, 0, 1)), 2: Perm((1, 2, 0)), 4: Perm((2, 1, 0))}")


def test_the_beta_suite_draws_its_pinned_instances(monkeypatch):
    monkeypatch.setattr(verify, "assemble_beta", _fails_on_its_third_call(verify.assemble_beta))
    form, head = run_suites(["beta"], seed=1, count=4)
    assert not form.passed and head.passed
    assert form.detail == (
        "m=2 n=0 e-conj={-4: Perm((1, 0, 2)), -3: Perm((1, 2, 0)), -2: Perm((2, 1, 0)), "
        "0: Perm((0, 2, 1)), 2: Perm((1, 0, 2)), 4: Perm((2, 0, 1))} g=Perm((2, 1, 0)) "
        "g-conj={-4: Perm((1, 0, 2)), -3: Perm((2, 1, 0)), -2: Perm((1, 2, 0)), "
        "0: Perm((1, 2, 0)), 2: Perm((0, 2, 1)), 4: Perm((1, 2, 0))}")


def test_a_count_past_the_enumeration_cap_is_refused_before_any_suite_runs(monkeypatch):
    ran = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda seed, count, name=name: ran.append(name) or [])
    with pytest.raises(GroupTooLargeError, match="^too large for the enumeration cap: "
                       "seeded instances per check 100001 > 100000$"):
        run_suites(["all"], seed=0, count=100_001)
    assert ran == []
    run_suites(["all"], seed=0, count=100_000)
    assert ran == list(SUITES)
