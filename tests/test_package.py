import ast
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


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but neither uses nor lists in ``__all__``; imports marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_a_module_does_not_use():
    source = "import os\nimport numpy as np\nfrom math import pi, tau  # noqa: F401\nfrom .a import b\n__all__ = ['b']\nnp.pi\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_name_it_imports(name):
    source = (Path(SRC) / "thztrack" / f"{name}.py").read_text()
    assert unused_imports(source) == []
