"""The package exports the union of its library modules' ``__all__``, and
each of those lists every public function and class of its module.  Every
exported name resolves, so a stale ``__all__`` entry fails, every private
module-level name has a user, so a dead helper fails, no module but
``estimators.py`` calls an estimator directly, and no module but
``kernels.py`` builds a moving sum of its own.

The demos are not run by the tests, so their ``locpacf`` imports are
resolved here from the source text.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import locpacf

MODULES = ["locpacf"] + [
    f"locpacf.{m.name}" for m in pkgutil.iter_modules(locpacf.__path__)
]
# every module but the command line and the verification suite
LIBRARY = [m for m in MODULES[1:] if m not in ("locpacf.cli", "locpacf.verify")]
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))
SOURCES = sorted(pathlib.Path(locpacf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_exports_the_concatenated_all_of_the_library_modules():
    assert sorted(m.__name__ for m in locpacf._LIBRARY) == sorted(LIBRARY)
    names = [n for m in locpacf._LIBRARY for n in m.__all__]
    assert locpacf.__all__ == names
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_function_and_class_is_in_its_modules_all(name):
    module = importlib.import_module(name)
    public = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    assert [n for n in public if n not in module.__all__] == []


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


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_name_is_used_in_the_package():
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert unused == []


def test_only_the_estimators_module_calls_an_estimator():
    # EstimatorConfig.estimate_stack is the package's one way into an
    # estimator, and estimate its one-series case
    callers = sorted(
        {
            path.name
            for path in SOURCES
            if path.name != "estimators.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            in ("windowed_lpacf", "wavelet_lpacf", "_windowed_stack")
        }
    )
    assert callers == []


def test_only_the_kernels_module_builds_a_moving_sum():
    # kernels._window_sums is the package's one moving sum: no other module
    # builds strided windows or calls np.convolve
    builders = sorted(
        {
            path.name
            for path in SOURCES
            if path.name != "kernels.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "numpy.lib.stride_tricks"
            )
            or (
                isinstance(node, ast.Import)
                and any(a.name.startswith("numpy.lib.stride_tricks") for a in node.names)
            )
            or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "convolve")
        }
    )
    assert builders == []
