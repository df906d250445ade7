"""Package surface: every exported name resolves."""
import importlib
import pkgutil

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
