"""Every exported name resolves, so a stale ``__all__`` entry fails.

The demos are not run by the tests, so their ``locpacf`` imports are
resolved here from the source text.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import locpacf

MODULES = ["locpacf"] + [
    f"locpacf.{m.name}" for m in pkgutil.iter_modules(locpacf.__path__)
]
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "locpacf"
    ]
    assert imports
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert missing == []
