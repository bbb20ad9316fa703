"""Package hygiene, checked with the stdlib only: every name a module exports
exists, the package publishes each one once, and every module-level import
in src/mubkit is used."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mubkit"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", ["mubkit"] + [f"mubkit.{m}" for m in MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes"


@pytest.mark.parametrize("module", MODULES)  # __init__.py only re-exports
def test_every_module_level_import_is_used(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {n.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for n in node.value.elts}
    assert sorted(imported - used - exported) == []


def test_package_publishes_each_submodule_name_once():
    # the package star-imports its submodules, so a name in two __all__ lists
    # would be silently shadowed by the later module
    import mubkit
    modules = [importlib.import_module(f"mubkit.{m}") for m in MODULES]
    published = [n for module in modules for n in getattr(module, "__all__", ())]
    assert sorted({n for n in published if published.count(n) > 1}) == []
    assert set(mubkit.__all__) == set(published) | {"__version__"}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert getattr(mubkit, name) is getattr(module, name), f"mubkit.{name}"
