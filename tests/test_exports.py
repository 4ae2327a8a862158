"""Every exported name of the package and its modules resolves, every
autodiff op has a caller, and every import sits at module level."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent


def _tensor_references(path: Path) -> set[str]:
    """Names a module takes from ``slowcaps.tensor``: imported from it, or
    read as an attribute of a module bound to ``T`` or ``tensor``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "slowcaps.tensor"):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("T", "tensor")):
            names.add(node.attr)
    return names


def test_every_tensor_op_has_a_caller():
    """An op left behind when a stage becomes one fused node is deleted,
    not kept: each exported name of ``slowcaps.tensor`` is used by the
    package or the benchmark."""
    from slowcaps import tensor

    files = [p for p in (ROOT / "src" / "slowcaps").glob("*.py") if p.name != "tensor.py"]
    used = set().union(*map(_tensor_references, files + list((ROOT / "perfbench").glob("*.py"))))
    assert sorted(set(tensor.__all__) - used) == []


def test_no_function_imports():
    """An import inside a function hides a dependency between modules
    (a cycle, say) from the module's header: none is kept."""
    found = []
    for path in sorted((ROOT / "src" / "slowcaps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{n.lineno}" for n in ast.walk(node)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert found == []
