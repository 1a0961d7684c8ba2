import importlib
import inspect
import pkgutil

import pytest

import thztrack

MODULES = sorted(m.name for m in pkgutil.iter_modules(thztrack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"thztrack.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    exported = {n for name in MODULES for n in getattr(importlib.import_module(f"thztrack.{name}"), "__all__", ())}
    public = [n for n, v in vars(thztrack).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert public
    assert [n for n in public if n not in exported] == []
