"""Importing the package afresh leaves nothing of the earlier copy alive."""

import gc
import importlib
import sys
import weakref


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
