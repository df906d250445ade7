"""Package surface: every exported name resolves, no private name crosses
a module boundary, no private module-level name goes unread in its module,
no function binds a local it never reads, one function reads the family
budget, one builds the span cores, one inserts rows into an echelon, only
SpanOracle asks for a family echelon, only the echelon and the windowed
non-member invert a scalar, and the README's examples run."""
import ast
import collections
import contextlib
import importlib
import io
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import dpring
from dpring.cli import main

MODULES = ["dpring"] + sorted(
    f"dpring.{info.name}" for info in pkgutil.iter_modules(dpring.__path__))
SOURCES = sorted(Path(dpring.__file__).parent.glob("*.py"))
# nodes opening a scope of their own; comprehensions stay with their function
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


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


def _reads(node) -> collections.Counter:
    """How often each name is read inside a node."""
    return collections.Counter(n.id for n in ast.walk(node)
                               if isinstance(n, ast.Name)
                               and isinstance(n.ctx, ast.Load))


def test_no_orphaned_private_names():
    # a private module-level function, class or constant that nothing else
    # in its own module reads is dead code, left behind when its last
    # caller went
    found = []
    for name, tree in parsed():
        reads = _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _reads(node)
            found += [f"{name}:{node.lineno}: {var}" for var in defined
                      if var.startswith("_") and not var.startswith("__")
                      and reads[var] == own[var]]
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


def test_one_function_reads_the_basis_budget():
    # every span's family is counted and refused in one place, the
    # closed-form layout; budgets.py defines the field, and cli.py takes
    # the budget keys from the dataclass without naming one
    allowed = {("construction.py", "_layout")}
    found = set()
    for name, tree in parsed():
        if name == "budgets.py":
            continue
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.Module, *SCOPES)):
                found.update((name, getattr(scope, "name", type(scope).__name__))
                             for node in _own_nodes(scope)
                             if isinstance(node, ast.Attribute)
                             and node.attr == "max_basis_size")
    assert found == allowed


def test_one_function_builds_the_span_cores():
    # a span's cores, the derivatives D^l(w) and the collision elements,
    # are built and memoized in one place that every row and window echelon
    # reads (the layout only counts them); a second builder, in any module,
    # would be a second row order or a second copy of the cores
    found = {(name, getattr(scope, "name", type(scope).__name__))
             for name, tree in parsed()
             for scope in ast.walk(tree)
             if isinstance(scope, (ast.Module, *SCOPES))
             for node in _own_nodes(scope)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id in ("derive_iter", "collision_elements")}
    assert found == {("construction.py", "_cores")}


def test_only_extend_inserts_rows_into_an_echelon():
    # `Echelon.extend` is the one statement of the insertion order,
    # single-term rows first, that the echelon's shortcuts rely on; a caller
    # inserting rows itself would be a second copy of that order.  No other
    # `.insert(` is called in the package, so every such call counts
    found = {(name, getattr(scope, "name", type(scope).__name__))
             for name, tree in parsed()
             for scope in ast.walk(tree)
             if isinstance(scope, (ast.Module, *SCOPES))
             for node in _own_nodes(scope)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "insert"}
    assert found == {("membership.py", "extend")}


def test_only_the_oracle_builds_a_family_echelon():
    # `SpanOracle.member` alone picks a `collisions` member's route, from
    # the query itself; a caller building the family echelon first would
    # steer that choice from outside.  `normal_form` reads it for the spaces
    # without a windowed quotient
    found = {(name, getattr(scope, "name", type(scope).__name__))
             for name, tree in parsed()
             for scope in ast.walk(tree)
             if isinstance(scope, (ast.Module, *SCOPES))
             for node in _own_nodes(scope)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "echelon"}
    assert found == {("construction.py", "member"),
                     ("construction.py", "normal_form")}


def test_only_the_echelon_and_the_windowed_non_member_invert_a_scalar():
    # `membership.Echelon` is the one exact solver: it normalizes its pivots
    # in `insert` and marks a non-member's residue in `certificate`, and
    # `_Windows.non_member` marks the windowed residue the same way.  A
    # second `.inv(` would be a second solver beside it
    found = {(name, getattr(scope, "name", type(scope).__name__))
             for name, tree in parsed()
             for scope in ast.walk(tree)
             if isinstance(scope, (ast.Module, *SCOPES))
             for node in _own_nodes(scope)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "inv"}
    assert found == {("membership.py", "insert"),
                     ("membership.py", "certificate"),
                     ("construction.py", "non_member")}


def _fenced(heading: str, lang: str) -> str:
    """The first fenced block of `lang` under the README section `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    # each print is followed by a comment that starts with what it prints
    code = _fenced("Library example", "python")
    expected = [line.split("#", 1)[1].split(",")[0].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == expected


def test_readme_command_lines_run(capsys):
    # the command lines that need no input or config file
    lines = [line for line in _fenced("Command line", "sh").splitlines()
             if line.startswith("dpring ")
             and "--input" not in line and "--config" not in line]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        json.loads(capsys.readouterr().out)
