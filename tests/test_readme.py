"""The README's CLI examples and library quick start, run as written."""

import re
import shlex
from pathlib import Path

import pytest

from wreathgen.cli import main
from wreathgen.parsing import parse_chain

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _cli_examples() -> list[tuple[str, str]]:
    """(command line, printed output) for every `$ wreathgen ...` example."""
    block = README.split("### Examples", 1)[1].split("```", 2)[1]
    examples = []
    for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, _, output = chunk.partition("\n")
        examples.append((command, output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _cli_examples()


def test_every_example_is_found():
    assert len(EXAMPLES) == 9
    assert all(command.startswith("wreathgen ") for command, _ in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    if expected.startswith("...\n"):
        # The README elides all but the summary line.
        assert out.splitlines()[-1] == expected.splitlines()[-1]
    else:
        assert out == expected


def _chains() -> list[str]:
    """Every chain in the code blocks of README "Chains", without its comment."""
    section = README.split("### Chains", 1)[1].split("\n### ", 1)[0]
    blocks = section.split("```")[1::2]
    return [re.split(r"\s{2,}", line.strip())[0]
            for block in blocks for line in block.splitlines() if line.strip()]


CHAINS = _chains()


def test_every_chain_is_found():
    assert len(CHAINS) == 5


@pytest.mark.parametrize("chain", CHAINS)
def test_chain_parses(chain):
    parse_chain(chain)


def test_library_quick_start(capsys):
    code = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    assert capsys.readouterr().out == "id\n"
    assert namespace["ok"] is True and namespace["witness"] is None
    assert len(namespace["igset"]) == 3
