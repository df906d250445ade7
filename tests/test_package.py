"""Package surface: every exported name resolves, no private name crosses
a module boundary."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dpring

MODULES = ["dpring"] + sorted(
    f"dpring.{info.name}" for info in pkgutil.iter_modules(dpring.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_private_cross_module_imports():
    # a private helper stays in the module that owns its decision
    found = []
    for path in sorted(Path(dpring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
