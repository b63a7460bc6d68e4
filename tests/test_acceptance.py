"""Acceptance gate: every headline behaviour, one pass/fail line per criterion.

Each test prints its own PASS/FAIL line (visible with -s; pytest -v shows the
same verdicts through the test names).  Budgets are asserted where a runtime
limit is part of the requirement.
"""

import itertools
import time
from contextlib import contextmanager

from wreathgen.classify import (FIG_FG, INT_TRANSLATION_ACTION, ActionDescriptor,
                                GroupDescriptor, IGStatus, iterated_status,
                                iterated_status_direct, wreath_status_with_rule)
from wreathgen.groups import (Perm, alternating_group, class_of, closure,
                              cyclic_group, klein_four_group, symmetric_group)
from wreathgen.invgen import (invariably_generates, invariably_generates_oracle,
                              min_invariable_size)
from wreathgen.verify import run_suites

from small_groups import dihedral_group, quaternion_group

SWAP = Perm.from_cycles([(0, 1)], 3)
OTHER = Perm.from_cycles([(0, 2)], 3)
ROT = Perm.from_cycles([(0, 1, 2)], 3)


@contextmanager
def criterion(name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert budget is None or elapsed < budget, f"{name}: {elapsed:.1f}s over budget {budget}s"
    print(f"PASS {name} ({elapsed:.1f}s)")


def test_criterion_invariable_generation_ground_truths():
    with criterion("ground truths: Sym(3) pairs and the Alt(5) minimum", budget=60):
        sym3 = symmetric_group(3)
        ok, witness = invariably_generates(sym3, [SWAP, ROT])
        assert ok and witness is None

        ok, witness = invariably_generates(sym3, [SWAP, OTHER])
        assert not ok
        picks = []
        for original, conjugate in witness.choice:
            assert conjugate in class_of(sym3, original)
            picks.append(conjugate)
        assert closure(picks).order == witness.generated_order < sym3.order

        alt5 = alternating_group(5)
        size, example = min_invariable_size(alt5)
        assert size == 2
        assert invariably_generates(alt5, list(example))[0]


def test_criterion_decider_agreement():
    with criterion("two independent deciders agree on all small subsets", budget=120):
        groups = [symmetric_group(3), cyclic_group(6), dihedral_group(4),
                  quaternion_group(), klein_four_group(), symmetric_group(4)]
        checked = 0
        for G in groups:
            for size in (1, 2):
                for S in itertools.combinations(G.elements, size):
                    ok, _ = invariably_generates(G, list(S))
                    assert ok == invariably_generates_oracle(G, list(S)), S
                    checked += 1
        assert checked == sum(len(G) + len(G) * (len(G) - 1) // 2
                              for G in groups)


def test_criterion_explicit_sets_invariably_generate():
    with criterion("explicit sets invariably generate the finite ambients", budget=600):
        results = run_suites(["igsets"])
        invariable = [r for r in results if "sets invariably generate" in r.name]
        assert [r.detail for r in invariable] == ["order 8, exhaustive tuple search",
                                                  "order 162, exhaustive tuple search"]
        for r in results:
            assert r.passed, r


def test_criterion_conjugation_decomposition_exhaustive():
    with criterion("conjugation decomposition, exhaustive over 72 elements"):
        results = run_suites(["conjugation"])
        details = {r.name: r.detail for r in results}
        assert details["conjugation: embedded elements in sym3 wr c2"] == \
            "72 conjugators, exhaustive"
        for r in results:
            assert r.passed, r


def test_criterion_orbit_collapse_forms():
    with criterion("orbit-collapse conjugate forms, 500 seeded instances each"):
        results = run_suites(["coset"], seed=0, count=500)
        assert len(results) == 8
        for r in results:
            assert r.passed, r


def test_criterion_power_product_closed_forms():
    with criterion("power-product and conjugate closed forms over the shifts"):
        results = run_suites(["alpha"], seed=0, count=200)
        results += run_suites(["beta"], seed=0, count=200)
        assert len(results) == 3
        for r in results:
            assert r.passed, r


def test_criterion_coordinate_isolation():
    with criterion("coordinate isolation for both generators, 200 seeded instances"):
        results = run_suites(["gamma"], seed=0, count=200)
        assert len(results) == 1 and results[0].passed, results


def test_criterion_classification_engine():
    with criterion("status table, embedding conclusions, towers to height 4", budget=10):
        FIG, IG, NEG = IGStatus.FIG, IGStatus.IG, IGStatus.NEG_IG
        torsion = ActionDescriptor(torsion_type=True, finitely_many_orbits=True)
        table = {
            (FIG, FIG): FIG, (FIG, IG): IG, (FIG, NEG): NEG,
            (IG, FIG): IG, (IG, IG): IG, (IG, NEG): NEG,
            (NEG, FIG): NEG, (NEG, IG): NEG, (NEG, NEG): NEG,
        }
        for (g, h), expected in table.items():
            result, _ = wreath_status_with_rule(GroupDescriptor(g, True),
                                                GroupDescriptor(h, True), torsion)
            assert result is expected, (g, h)

        valid = [GroupDescriptor(FIG, True), GroupDescriptor(IG, True),
                 GroupDescriptor(IG, False), GroupDescriptor(NEG, True),
                 GroupDescriptor(NEG, False)]

        # A finitely generated base over the shifts always lands on FIG.
        for status in (FIG, IG, NEG):
            assert wreath_status_with_rule(GroupDescriptor(status, True), FIG_FG,
                                           INT_TRANSLATION_ACTION)[0] is FIG
        # A finitely generated IG head beyond torsion type gives IG over any base.
        mixed_head = GroupDescriptor(IG, True)
        free_action = ActionDescriptor(torsion_type=False, finitely_many_orbits=True)
        for G in valid:
            assert wreath_status_with_rule(G, mixed_head, free_action)[0] is IG
        # A base that is not finitely generated over the shifts gives IG.
        for status in (IG, NEG):
            assert wreath_status_with_rule(GroupDescriptor(status, False), FIG_FG,
                                           INT_TRANSLATION_ACTION)[0] is IG

        actions = [ActionDescriptor(t, o) for t in (True, False) for o in (True, False)]
        levels = [(g, a) for g in valid for a in actions]
        checked = 0
        for length in (1, 2, 3, 4):
            for first in valid:
                for rest in itertools.product(levels, repeat=length - 1):
                    chain = [(first, None)] + list(rest)
                    folded, _ = iterated_status(chain)
                    assert folded is iterated_status_direct(chain)
                    checked += 1
        assert checked == 5 + 100 + 2000 + 40000
