import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sdglab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sdglab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_name_in_all(name):
    namespace = {}
    exec(f"from sdglab.{name} import *", namespace)
    module = importlib.import_module(f"sdglab.{name}")
    assert module.__all__, name
    missing = [n for n in module.__all__ if n not in namespace]
    assert not missing, f"sdglab.{name}.__all__ lists names it does not define: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(sdglab.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert getattr(getattr(sdglab, module), name) is getattr(sdglab, name), (module, name)
