"""Every exported name resolves, so a deletion leaves no dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qimpute

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(qimpute.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qimpute.{name}")
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(qimpute.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(qimpute, name)] == []
