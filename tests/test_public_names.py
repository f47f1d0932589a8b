"""Every name a dualrec module lists in ``__all__`` exists in that module,
so trimming a module's public surface cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import dualrec

MODULES = [importlib.import_module(f"dualrec.{info.name}")
           for info in pkgutil.iter_modules(dualrec.__path__) if info.name != "__main__"]
NAMES = [(module.__name__, name) for module in MODULES for name in getattr(module, "__all__", ())]


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_every_public_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
