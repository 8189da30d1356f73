"""Every exported name resolves, so a deletion cannot leave a stale export behind."""

import ast
import importlib
import pkgutil

import pytest

import optexec

MODULES = sorted(info.name for info in pkgutil.iter_modules(optexec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"optexec.{name}")
    # a name listed here but missing breaks `from optexec.<module> import *`
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    with open(optexec.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"optexec.{module_name}")
        assert getattr(optexec, name) is getattr(module, name), (module_name, name)
        if hasattr(module, "__all__"):
            assert name in module.__all__, (module_name, name)
