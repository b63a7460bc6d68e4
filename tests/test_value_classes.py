"""The hand-written value classes against copies of the dataclasses they
replace (cli.Output, a NamedTuple before, against the dataclass it stands for):
the same equality, hashes, reprs, orderings, keyword construction, defaults,
validation errors and refused assignments, on instances the program builds,
and each constructor binding its arguments to fields once each."""

import copy
import itertools
import operator
import pickle
from dataclasses import dataclass, field, fields
from typing import Callable

import pytest

from wreathgen import cli, verify
from wreathgen.actions import FiniteAction, IntTranslation
from wreathgen.classify import FIG_FG, ActionDescriptor, GroupDescriptor, IGStatus
from wreathgen.constructions import AlphaElement, BetaParams, build_alpha, choose_mn, torsion_igset
from wreathgen.groups import (ConjClass, Frozen, Perm, Record, alternating_group,
                              conjugacy_classes, cyclic_group, klein_four_group, symmetric_group)
from wreathgen.invgen import IGWitness, invariably_generates, min_invariable_size
from wreathgen.parsing import ParsedLevel, parse_ambient, parse_chain
from wreathgen.verify import CheckResult
from wreathgen.wreath import WreathElement, WreathProduct

# -- the reference: each class as the dataclass it was -------------------------------
# Each copy takes its class's name below, so reprs and messages read the same.
# Perm and WreathElement wrote their own repr, which the copies borrow.


@dataclass(frozen=True, order=True)
class _Perm:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.images) is not tuple or any(type(x) is not int for x in self.images):
            raise ValueError(f"images must be a tuple of ints: {self.images!r}")
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    __repr__ = Perm.__repr__


@dataclass(frozen=True)
class _ConjClass:
    representative: Perm
    members: tuple[Perm, ...]


@dataclass(frozen=True)
class _FiniteAction:
    head: object


@dataclass(frozen=True)
class _IntTranslation:
    pass


@dataclass(frozen=True)
class _GroupDescriptor:
    status: IGStatus
    finitely_generated: bool

    def __post_init__(self) -> None:
        if self.status is IGStatus.FIG and not self.finitely_generated:
            raise ValueError("a group with a finite invariable generating set is finitely generated")


@dataclass(frozen=True)
class _ActionDescriptor:
    torsion_type: bool
    finitely_many_orbits: bool


@dataclass(frozen=True)
class _WreathProduct:
    base_group: object
    action: object

    def __post_init__(self) -> None:
        if not isinstance(self.action, (FiniteAction, IntTranslation)):
            raise TypeError(f"unsupported action: {self.action!r}")

    def __hash__(self) -> int:
        return hash((self.base_group, self.action))


@dataclass(frozen=True)
class _WreathElement:
    ambient: WreathProduct = field(repr=False)
    base: tuple[tuple[int, Perm], ...]
    head: object

    __repr__ = WreathElement.__repr__


@dataclass(frozen=True)
class _AlphaElement:
    element: WreathElement
    g: Perm
    conjugator: WreathElement
    support_radius: int


@dataclass(frozen=True)
class _BetaParams:
    m: int
    n: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.c < 0 or self.d < 0:
            raise ValueError("support radii must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.m > self.c + max(self.c, self.d):
            raise ValueError(f"m = {self.m} is not beyond the conjugator windows")
        if not self.d - self.n < self.c:
            raise ValueError(f"n = {self.n} leaves the trailing window over coordinate {self.c}")


@dataclass(frozen=True)
class _IGWitness:
    choice: tuple[tuple[Perm, Perm], ...]
    generated_order: int


@dataclass(frozen=True)
class _ParsedLevel:
    descriptor: GroupDescriptor
    action: ActionDescriptor | None
    build: Callable | None


@dataclass
class _CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class _Output:
    payload: dict
    lines: list
    code: int = 0


COPIES = {Perm: _Perm, ConjClass: _ConjClass, FiniteAction: _FiniteAction,
          IntTranslation: _IntTranslation, GroupDescriptor: _GroupDescriptor,
          ActionDescriptor: _ActionDescriptor, WreathProduct: _WreathProduct,
          WreathElement: _WreathElement, AlphaElement: _AlphaElement, BetaParams: _BetaParams,
          IGWitness: _IGWitness, ParsedLevel: _ParsedLevel, CheckResult: _CheckResult,
          cli.Output: _Output}
for cls, copy_class in COPIES.items():
    copy_class.__name__ = copy_class.__qualname__ = cls.__name__


def _values(copy_class, x) -> dict:
    return {f.name: getattr(x, f.name) for f in fields(copy_class)}


def _copy(x):
    """The reference instance with the same field values as x."""
    copy_class = COPIES[type(x)]
    return copy_class(**_values(copy_class, x))


# -- the samples -----------------------------------------------------------------------

FINITE_AMBIENTS = [
    "cyclic 2 wr (cyclic 2, natural)", "klein4 wr (cyclic 2, natural)",
    "cyclic 2 wr (sym 3, natural)", "cyclic 2 wr (klein4, natural)",
    "sym 3 wr (cyclic 2, natural)", "cyclic 3 wr (sym 3, natural)",
    "alt 4 wr (cyclic 2, natural)", "cyclic 2 wr (sym 3, regular)",
    "sym 3 wr (cyclic 3, natural)"]
SHIFT_AMBIENT = "sym 3 wr int-translation"


def _samples() -> dict[type, list]:
    groups = [symmetric_group(3), symmetric_group(4), cyclic_group(4), klein_four_group(),
              alternating_group(4)]
    ambients = [parse_ambient(text) for text in FINITE_AMBIENTS]
    # A second copy of one ambient: equal to the first, not the same object.
    ambients.append(parse_ambient(FINITE_AMBIENTS[4]))
    shift = parse_ambient(SHIFT_AMBIENT)
    S3 = groups[0]
    s = {cls: [] for cls in COPIES}
    for G in groups:
        s[Perm] += G.elements[:6]
        s[ConjClass] += conjugacy_classes(G)
    for W in ambients[:6]:
        s[WreathElement] += W.enumerate_elements()[:4]
        s[Perm] += [W.imprimitive_embedding()[0].elements[5]]
    for W in ambients:
        s[WreathProduct].append(W)
        s[FiniteAction].append(W.action)
        s[WreathElement] += torsion_igset(W, min_invariable_size(W.base_group)[1],
                                          min_invariable_size(W.action.head)[1])
    s[WreathProduct].append(shift)
    s[IntTranslation] += [shift.action, IntTranslation()]
    t, g = S3.generators[0], S3.generators[-1]
    s[AlphaElement] += [build_alpha(shift, t, {}, {}), build_alpha(shift, t, {}, {}),
                        build_alpha(shift, g, {1: t, -2: g}, {0: g}),
                        build_alpha(shift, t, {3: g}, {})]
    s[WreathElement] += [a.element for a in s[AlphaElement]] + [shift.head_embed(3)]
    s[BetaParams] += [choose_mn(c, d) for c, d in itertools.product(range(3), repeat=2)]
    s[BetaParams].append(choose_mn(1, 2))
    S4, C4 = groups[1], groups[2]
    for G, S in [(S3, [t]), (S3, [t]), (S4, [S4.generators[0]]), (C4, [C4.elements[2]])]:
        holds, witness = invariably_generates(G, S)
        assert not holds
        s[IGWitness].append(witness)
    for chain in ["sym 3 wr (cyclic 2, natural)", "sym 3 wr int-translation",
                  "{IG, nonfg} wr ({FIG, fg}, torsion) wr int-translation",
                  "{IG, nonfg} wr ({FIG, fg}, torsion)",
                  "cyclic 2 wr perm-action 3: (0 1 2), (0 1)"]:
        levels = parse_chain(chain)
        s[ParsedLevel] += levels
        s[GroupDescriptor] += [level.descriptor for level in levels]
        s[ActionDescriptor] += [level.action for level in levels if level.action is not None]
    s[GroupDescriptor] += [FIG_FG, GroupDescriptor(IGStatus.NEG_IG, False)]
    s[ActionDescriptor].append(ActionDescriptor(True, False))
    # A second run of a suite gives an equal record, not the same object.
    s[CheckResult] += verify.suite_alpha(seed=1, count=2) + verify.suite_alpha(seed=1, count=2) + [
        CheckResult("x", True, ""), CheckResult("x", False, "why")]
    for argv in (["classify", "sym 3 wr int-translation"], ["classify", "sym 3 wr int-translation"],
                 ["verify", "alpha", "--count", "2"]):
        args = cli._build_parser().parse_args(argv)
        s[cli.Output].append(args.func(args))
    s[cli.Output] += [cli.Output({}, []), cli.Output({}, [], 0), cli.Output({}, [], 1)]
    return s


SAMPLES = _samples()


# -- the comparisons ---------------------------------------------------------------------


def _outcome(f):
    """f's value, or its exception's kind and message.  A dataclass refuses an
    assignment with FrozenInstanceError, a kind of AttributeError."""
    try:
        return "value", f()
    except AttributeError as exc:
        return "AttributeError", str(exc)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
class TestAgainstTheDataclass:
    def test_every_class_has_samples_with_equal_and_unequal_pairs(self, cls):
        pairs = list(itertools.combinations(SAMPLES[cls], 2))
        assert any(x == y and x is not y for x, y in pairs)
        assert any(x != y for x, y in pairs) or cls is IntTranslation

    def test_equality_hash_and_repr(self, cls):
        xs = SAMPLES[cls]
        copies = [_copy(x) for x in xs]
        # Another value class with the same fields.
        twin_class = type("Twin", (Frozen,), {"__match_args__": tuple(_values(COPIES[cls], xs[0]))})
        for x, cx in zip(xs, copies):
            assert type(x) is cls
            assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(cx))
            assert repr(x) == repr(cx)
            # Only its own class: not the other's, a twin's, a tuple of its fields or None.
            fields_tuple = tuple(_values(COPIES[cls], x).values())
            twin = twin_class(*fields_tuple)
            for other, other_of_copy in ((cx, x), (twin, twin), (fields_tuple, fields_tuple),
                                         (None, None)):
                assert (x == other) is (cx == other_of_copy) is False
                assert (x != other) is (cx != other_of_copy) is True
        for (x, cx), (y, cy) in itertools.product(zip(xs, copies), repeat=2):
            assert (x == y) is (cx == cy)
            assert (x != y) is (cx != cy)

    def test_construction_by_keyword(self, cls):
        if cls is WreathProduct:  # each build runs the self-test: one is enough
            xs = SAMPLES[cls][:1]
        else:
            xs = SAMPLES[cls]
        for x in xs:
            values = _values(COPIES[cls], x)
            assert cls(**values) == x
            assert COPIES[cls](**values) == _copy(x)
            assert cls(*values.values()) == x

    def test_copies_and_pickles(self, cls):
        for x in SAMPLES[cls][:4]:
            cx = _copy(x)
            assert copy.copy(x) == x
            # A deep copy of a ParsedLevel copies its build, which is equal only to itself.
            assert (copy.deepcopy(x) == x) is (copy.deepcopy(cx) == cx)
            if cls is not ParsedLevel:  # its build may be a lambda, which pickle refuses
                assert pickle.loads(pickle.dumps(x)) == x

    def test_assignment_and_deletion(self, cls):
        # A fresh instance, as a mutable one keeps the change.
        x = cls(**_values(COPIES[cls], SAMPLES[cls][0]))
        cx = _copy(x)
        frozen = COPIES[cls].__dataclass_params__.frozen
        for name in [f.name for f in fields(COPIES[cls])] + ["unknown"]:
            value = getattr(x, name, None)
            assigned = _outcome(lambda: setattr(x, name, value))
            assert assigned == _outcome(lambda: setattr(cx, name, value))
            if frozen:
                assert assigned == ("AttributeError", f"cannot assign to field {name!r}")
            if name != "unknown":
                assert _outcome(lambda: delattr(x, name)) == _outcome(lambda: delattr(cx, name))


def test_perm_orderings():
    perms = SAMPLES[Perm]
    for p, q in itertools.product(perms, repeat=2):
        cp, cq = _copy(p), _copy(q)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            assert compare(p, q) is compare(cp, cq)
            assert _outcome(lambda: compare(p, q.images))[0] == "TypeError"
            assert _outcome(lambda: compare(cp, cq.images))[0] == "TypeError"
    assert sorted(perms) == sorted(perms, key=_copy)


@pytest.mark.parametrize("cls, args", [
    (Perm, ([0, 1],)), (Perm, ((0, 1.0),)), (Perm, ((0, 0),)), (Perm, ((0, 2),)),
    (Perm, ((True, 0),)),
    (GroupDescriptor, (IGStatus.FIG, False)),
    (BetaParams, (5, 1, -1, 0)), (BetaParams, (5, 0, 1, 1)), (BetaParams, (2, 1, 1, 1)),
    (BetaParams, (5, 1, 1, 3)),
    (WreathProduct, (symmetric_group(3), "regular")),
    (WreathProduct, (symmetric_group(3), cyclic_group(2))),
])
def test_validation_errors_and_their_messages(cls, args):
    new = _outcome(lambda: cls(*args))
    assert new[0] != "value"
    assert new == _outcome(lambda: COPIES[cls](*args))


@pytest.mark.parametrize("cls, args", [(cli.Output, ({}, [])), (cli.Output, ({}, [], 1))])
def test_defaults(cls, args):
    assert _values(COPIES[cls], cls(*args)) == _values(COPIES[cls], COPIES[cls](*args))


# -- binding arguments to fields -------------------------------------------------------


@pytest.mark.parametrize("cls", COPIES, ids=lambda cls: cls.__name__)
def test_arguments_bind_to_fields_once_each(cls):
    names = cls.__match_args__
    values = [getattr(SAMPLES[cls][0], name) for name in names]
    assert cls(*values) == cls(**dict(zip(names, values)))
    calls = {"unexpected": lambda: cls(*values, unknown=None),
             "surplus": lambda: cls(*values, None)}
    if names:
        calls["missing"] = lambda: cls(**dict(zip(names[1:], values[1:])))
        calls["repeated"] = lambda: cls(*values, **{names[0]: values[0]})
    if len(names) > 1:  # the last field missing, the first given twice
        calls["repeated for a missing one"] = lambda: cls(*values[:-1], **{names[0]: values[0]})
    for kind, call in calls.items():
        outcome = _outcome(call)
        assert outcome[0] == "TypeError", kind
        if cls.__init__ is Record.__init__:  # the base's message names the class and its fields
            assert cls.__name__ in outcome[1] and all(name in outcome[1] for name in names)


def test_only_classes_that_validate_or_take_defaults_write_an_init():
    own = {cls for cls in COPIES if cls.__init__ is not Record.__init__}
    assert own == {Perm, GroupDescriptor, BetaParams, WreathProduct, cli.Output}
