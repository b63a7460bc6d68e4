"""Importing the package afresh leaves nothing of the earlier copy alive, and
builds no dataclass."""

import gc
import importlib
import subprocess
import sys
import weakref
from pathlib import Path


def _package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "wreathgen" or name.startswith("wreathgen.")}


def test_a_fresh_import_frees_the_previous_copy():
    # Module-level typing.Union aliases once kept each copy's classes, and
    # through their methods every module global, in typing's cache.
    saved = _package_modules()
    try:
        for name in saved:
            del sys.modules[name]
        importlib.import_module("wreathgen.cli")
        old = weakref.ref(sys.modules["wreathgen.groups"].Perm)
        for name in _package_modules():
            del sys.modules[name]
        importlib.import_module("wreathgen.cli")
        gc.collect()
        assert old() is None
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_the_program_imports_without_dataclasses():
    # A fresh interpreter, without site packages and writing no bytecode,
    # imports the CLI and with it every module: no dataclass is built, so
    # neither dataclasses nor the inspect module it loads is imported.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wreathgen.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
