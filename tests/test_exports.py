"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import slowcaps

MODULES = ["slowcaps"] + [
    f"slowcaps.{m.name}" for m in pkgutil.iter_modules(slowcaps.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
