"""Package surface: every name a module exports resolves, every global a
module reads is defined, every name a module imports is used, every
private name is read, and the source stays within its line cap."""
import ast
import builtins
import importlib
import pkgutil
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import akzeta

MODULES = sorted(m.name for m in pkgutil.iter_modules(akzeta.__path__))


def test_modules_found():
    assert {"exact", "umbral", "polybernoulli", "zetanum", "verify", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"akzeta.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _global_reads(table: symtable.SymbolTable):
    """Names read as globals anywhere in the table and its nested scopes."""
    for sym in table.get_symbols():
        if sym.is_global() and sym.is_referenced():
            yield sym.get_name()
    for child in table.get_children():
        yield from _global_reads(child)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_undefined_globals(name):
    # a global that is neither assigned nor imported raises NameError only
    # when its line runs; this finds it without running the module's code
    module = importlib.import_module("akzeta" if name == "__init__" else f"akzeta.{name}")
    path = Path(akzeta.__file__).with_name(f"{name}.py")
    table = symtable.symtable(path.read_text(), str(path), "exec")
    undefined = {
        g for g in _global_reads(table) if not hasattr(module, g) and not hasattr(builtins, g)
    }
    assert undefined == set()


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # __init__ is exempt: it imports to re-export
    module = importlib.import_module(f"akzeta.{name}")
    tree = ast.parse(Path(akzeta.__file__).with_name(f"{name}.py").read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert imported - read - set(getattr(module, "__all__", ())) == set()


def _defined(stmt):
    """The names that a module-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(stmt):
    """The names that a statement loads and the attributes that it accesses."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(stmt)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    }


def test_no_uncalled_private_names():
    # a private module-level name that nothing in the package reads outside
    # its own definition is code with no callers
    stmts = [s for p in Path(akzeta.__file__).parent.glob("*.py") for s in ast.parse(p.read_text()).body]
    reads = [_reads(s) for s in stmts]
    unread = [
        name
        for i, stmt in enumerate(stmts)
        for name in _defined(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unread == []


def test_numeric_names_resolve_lazily_to_zetanum():
    # every name zetanum adds to quadspec's resolves on the package to
    # zetanum's own object, and the package import itself loads no numpy
    script = (
        "import sys, akzeta\n"
        "print('numpy' in sys.modules)\n"
        "from akzeta import quadspec, zetanum\n"
        "names = sorted(set(zetanum.__all__) - set(quadspec.__all__))\n"
        "print([n for n in names if getattr(akzeta, n, None) is not getattr(zetanum, n)])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]


def test_source_within_line_cap():
    # the package may not grow past its line cap (ROADMAP's design aim)
    lines = sum(len(p.read_text().splitlines()) for p in Path(akzeta.__file__).parent.glob("*.py"))
    assert lines <= 3217
