"""Every name the benchmark's tracer patches still exists in wreathgen.

bench/tracer.py patches each `TRACED` entry by name, and the benchmark breaks
when one is renamed or removed; this reads the list with `ast`, without
importing the tracer, and resolves each entry here."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced() -> list[tuple[str, str, str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {TRACER}")


TRACED = _traced()


def test_the_list_is_read():
    assert ("verify", "run_suites", "verify.run_suites", "span") in TRACED


@pytest.mark.parametrize("module_name, attr, name, kind", TRACED,
                         ids=[f"{entry[0]}.{entry[1]}" for entry in TRACED])
def test_each_traced_name_resolves(module_name, attr, name, kind):
    owner = importlib.import_module(f"wreathgen.{module_name}")
    if "." in attr:  # a method on a class
        cls_name, method = attr.split(".")
        owner = getattr(owner, cls_name)
        assert isinstance(owner, type)
        attr = method
    assert callable(getattr(owner, attr))
