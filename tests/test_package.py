"""Package surface: every exported name resolves, no private name crosses
a module boundary, no function binds a local it never reads."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dpring

MODULES = ["dpring"] + sorted(
    f"dpring.{info.name}" for info in pkgutil.iter_modules(dpring.__path__))
SOURCES = sorted(Path(dpring.__file__).parent.glob("*.py"))
# nodes opening a scope of their own; comprehensions stay with their function
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def parsed():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_private_cross_module_imports():
    # a private helper stays in the module that owns its decision, whether
    # it is imported by name or reached as an attribute of a sibling module
    found = []
    for name, tree in parsed():
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
                if not node.module:
                    siblings.update(alias.asname or alias.name
                                    for alias in node.names)
        found += [f"{name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in siblings
                  and node.attr.startswith("_")]
    assert found == []


def _own_nodes(scope):
    """Nodes of a scope, not descending into the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_no_dead_local_bindings():
    # a local that is bound and never read (`_` excepted) is dead code or a
    # mistake; reads in nested functions count, `x += 1` alone does not
    found = []
    for name, tree in parsed():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound: dict[str, int] = {}
            declared = set()
            for node in _own_nodes(fn):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    bound.setdefault(node.id, node.lineno)
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    bound.setdefault(node.name, node.lineno)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)}
            found += [f"{name}:{line}: {fn.name} binds {var}"
                      for var, line in bound.items()
                      if var != "_" and var not in read and var not in declared]
    assert found == []
