"""Every exported name resolves, so a stale ``__all__`` entry fails."""

import importlib
import pkgutil

import pytest

import locpacf

MODULES = ["locpacf"] + [
    f"locpacf.{m.name}" for m in pkgutil.iter_modules(locpacf.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
