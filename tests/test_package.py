"""Package surface: every name a module exports resolves."""
import importlib
import pkgutil

import pytest

import akzeta

MODULES = sorted(m.name for m in pkgutil.iter_modules(akzeta.__path__))


def test_modules_found():
    assert {"exact", "umbral", "polybernoulli", "zetanum", "verify", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"akzeta.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
