import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import thztrack

MODULES = sorted(m.name for m in pkgutil.iter_modules(thztrack.__path__))
SRC = str(Path(thztrack.__file__).resolve().parents[1])


def fresh_python(*args):
    """Run a fresh interpreter that finds this ``thztrack`` first on its path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"thztrack.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    # every name is imported from its module: the package itself defines none
    assert [n for n, v in vars(thztrack).items() if not n.startswith("_") and not inspect.ismodule(v)] == []


def test_importing_the_package_loads_no_module():
    run = fresh_python("-c", "import sys, thztrack; print(sorted(m for m in sys.modules if m.startswith('thztrack.')))")
    assert (run.returncode, run.stdout.strip()) == (0, "[]"), run.stderr


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_without_warnings(name):
    run = fresh_python("-W", "error", "-c", f"import thztrack.{name}")
    assert run.returncode == 0, run.stderr
