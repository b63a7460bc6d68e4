"""The randomized cross-check harness: determinism, coverage, failure shape."""

import pytest

from wreathgen.verify import SUITES, run_suites


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
