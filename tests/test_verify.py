"""The randomized cross-check harness: determinism, coverage, failure shape."""

import random

import pytest

from wreathgen import verify, wreath
from wreathgen.actions import IntTranslation
from wreathgen.constructions import AlphaElement, gamma_coordinate
from wreathgen.groups import GroupTooLargeError, Perm, symmetric_group
from wreathgen.verify import SUITES, random_alpha, run_suites
from wreathgen.wreath import WreathElement, WreathProduct


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
    results = [verify._check("passes", [], "3 instances"),
               verify._check("fails", ["first", "second"], "3 instances")]
    assert results == [verify.CheckResult("passes", True, "3 instances"),
                       verify.CheckResult("fails", False, "first")]


def _fails_on_calls(fn, *failing, failed=None):
    """fn, returning `failed` instead on the calls numbered in `failing`
    (from 1).  The wrapper keeps every call's arguments in its `calls`."""
    def wrapped(*args):
        wrapped.calls.append(args)
        return failed if len(wrapped.calls) in failing else fn(*args)
    wrapped.calls = []
    return wrapped


def _gamma_misreading_on_call(n):
    """verify.gamma_coordinate, told on its nth call that alpha_g encodes the
    identity, so that the real coordinate contract breaks there."""
    def wrapped(alpha_e, alpha_g):
        wrapped.calls.append((alpha_e, alpha_g))
        if len(wrapped.calls) == n:
            alpha_g = AlphaElement(alpha_g.element, Perm((0, 1, 2)), alpha_g.conjugator,
                                   alpha_g.support_radius)
        return gamma_coordinate(alpha_e, alpha_g)
    wrapped.calls = []
    return wrapped


def test_a_failing_check_draws_nothing_after_its_first_failure(monkeypatch):
    assemble = _fails_on_calls(verify.assemble_alpha_power, 1)
    monkeypatch.setattr(verify, "assemble_alpha_power", assemble)
    (alpha,) = run_suites(["alpha"], seed=1, count=5)
    assert len(assemble.calls) == 1
    assert alpha.detail == (
        "m=2 e-conj={-4: Perm((2, 0, 1)), 3: Perm((2, 0, 1))} f=Perm((2, 1, 0)) "
        "f-conj={-4: Perm((1, 0, 2)), -3: Perm((0, 2, 1)), -1: Perm((1, 2, 0)), "
        "0: Perm((2, 1, 0)), 1: Perm((0, 2, 1)), 2: Perm((1, 2, 0)), 4: Perm((1, 2, 0))}")

    misread = _gamma_misreading_on_call(1)
    monkeypatch.setattr(verify, "gamma_coordinate", misread)
    (gamma,) = run_suites(["gamma"], seed=1, count=5)
    assert len(misread.calls) == 1
    assert gamma.detail == ("expected Perm((0, 1, 2)) at coordinate 5, found Perm((1, 0, 2)) "
                            "(c=5, d=5, m=11, n=1)")


def test_the_alpha_suite_draws_its_pinned_instances(monkeypatch):
    monkeypatch.setattr(verify, "assemble_alpha_power",
                        _fails_on_calls(verify.assemble_alpha_power, 3))
    (result,) = run_suites(["alpha"], seed=1, count=4)
    assert not result.passed
    assert result.detail == (
        "m=3 e-conj={-4: Perm((1, 2, 0)), -3: Perm((1, 2, 0)), -2: Perm((2, 1, 0)), "
        "-1: Perm((0, 2, 1)), 1: Perm((2, 1, 0)), 2: Perm((2, 1, 0)), 4: Perm((2, 0, 1))} "
        "f=Perm((0, 1, 2)) f-conj={-3: Perm((2, 1, 0)), -1: Perm((2, 0, 1)), "
        "0: Perm((1, 2, 0)), 1: Perm((2, 0, 1)), 2: Perm((1, 2, 0)), 4: Perm((2, 1, 0))}")


def test_the_beta_suite_draws_its_pinned_instances(monkeypatch):
    monkeypatch.setattr(verify, "assemble_beta", _fails_on_calls(verify.assemble_beta, 3))
    form, head = run_suites(["beta"], seed=1, count=4)
    assert not form.passed and head.passed
    assert form.detail == (
        "m=2 n=0 e-conj={-4: Perm((1, 0, 2)), -3: Perm((1, 2, 0)), -2: Perm((2, 1, 0)), "
        "0: Perm((0, 2, 1)), 2: Perm((1, 0, 2)), 4: Perm((2, 0, 1))} g=Perm((2, 1, 0)) "
        "g-conj={-4: Perm((1, 0, 2)), -3: Perm((2, 1, 0)), -2: Perm((1, 2, 0)), "
        "0: Perm((1, 2, 0)), 2: Perm((0, 2, 1)), 4: Perm((1, 2, 0))}")


def test_the_conjugation_suite_draws_its_pinned_instances(monkeypatch):
    monkeypatch.setattr(verify, "class_of", _fails_on_calls(verify.class_of, 3, failed=()))
    embedded, *rest = run_suites(["conjugation"], seed=1, count=4)
    assert not embedded.passed and all(r.passed for r in rest)
    assert embedded.detail == ("u=WreathElement({}, head=(0, 1)) "
                               "a=WreathElement({0: (1, 0)}, head=(0, 1)) "
                               "gave WreathElement({}, head=(0, 1))")


def test_the_conjugation_suite_draws_its_pinned_triples(monkeypatch):
    # The seeded check runs last and conjugates three times a triple: break
    # the first conjugation of its third triple.
    conjugate_by = WreathElement.conjugate_by
    counted = _fails_on_calls(conjugate_by)
    monkeypatch.setattr(WreathElement, "conjugate_by", counted)
    run_suites(["conjugation"], seed=1, count=4)
    monkeypatch.setattr(WreathElement, "conjugate_by",
                        _fails_on_calls(conjugate_by, len(counted.calls) - 3 * 4 + 7))
    *rest, seeded = run_suites(["conjugation"], seed=1, count=4)
    assert not seeded.passed and all(r.passed for r in rest)
    assert seeded.detail == ("u=WreathElement({0: (2, 0, 1), 1: (0, 2, 1)}, head=(0, 1)) "
                             "v=WreathElement({0: (1, 0, 2), 1: (2, 0, 1)}, head=(1, 0)) "
                             "a=WreathElement({0: (1, 2, 0)}, head=(0, 1))")


def test_the_coset_suite_draws_its_pinned_instances(monkeypatch):
    # Two conjugations an instance: break both of the third.
    monkeypatch.setattr(WreathElement, "conjugate_by",
                        _fails_on_calls(WreathElement.conjugate_by, 5, 6))
    collapse, uniform, *rest = run_suites(["coset"], seed=1, count=4)
    assert not collapse.passed and not uniform.passed and all(r.passed for r in rest)
    assert collapse.detail == "y=1 k=Perm((1, 0)) u={1: Perm((0, 1)), 0: Perm((1, 0))} v={}"
    assert uniform.detail == "y=1 k=Perm((1, 0)) u0=Perm((0, 1)) g=Perm((1, 0)) v={}"


def test_the_gamma_suite_draws_its_pinned_instances(monkeypatch):
    misread = _gamma_misreading_on_call(3)
    monkeypatch.setattr(verify, "gamma_coordinate", misread)
    (result,) = run_suites(["gamma"], seed=1, count=4)
    assert not result.passed
    assert result.detail == ("expected Perm((0, 1, 2)) at coordinate 5, found Perm((1, 0, 2)) "
                             "(c=5, d=5, m=11, n=1)")
    # The detail shows only the radii, so pin the third pair's conjugators too.
    alpha_e, alpha_g = misread.calls[2]
    assert dict(alpha_e.conjugator.base) == {
        -4: Perm((1, 0, 2)), -2: Perm((2, 0, 1)), -1: Perm((2, 0, 1)), 1: Perm((2, 1, 0)),
        2: Perm((2, 1, 0))}
    assert dict(alpha_g.conjugator.base) == {
        -4: Perm((2, 0, 1)), -2: Perm((1, 0, 2)), -1: Perm((0, 2, 1)), 0: Perm((0, 2, 1)),
        2: Perm((1, 2, 0)), 4: Perm((2, 0, 1))}


def test_the_igsets_suite_draws_its_pinned_instances(monkeypatch):
    # c2 wr c2 tries its 8 conjugators first; break the third seeded choice after them.
    monkeypatch.setattr(verify, "generates", _fails_on_calls(verify.generates, 8 + 3))
    *rest, seeded = run_suites(["igsets"], seed=1, count=4)
    assert not seeded.passed and all(r.passed for r in rest)
    assert seeded.detail == (
        "conjugators [WreathElement({0: (1, 2, 0), 1: (1, 2, 0), 2: (1, 2, 0)}, head=(1, 0, 2)), "
        "WreathElement({0: (2, 0, 1), 1: (2, 0, 1), 2: (2, 0, 1)}, head=(2, 0, 1))]")


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
