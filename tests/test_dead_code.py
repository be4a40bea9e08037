"""Dead-code guard for src/hksym, read with the standard library's ast only.

Three kinds of leftover fail it: a module that imports a name it never uses
(the package __init__ is exempt, since its imports are the public API), a
module-level _private function that no src/hksym module references outside
its own body, and a public module-level function that the package __init__
does not export and no src/hksym module references outside its own body.
Tests, oracles and the benchmark do not count as users: a helper that only
they reach belongs with them.  generators is exempt from the public check,
as a public module: the benchmark's corpus imports its functions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hksym"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
           for p in sorted(SRC.glob("*.py"))}


def imported_names(tree):
    """{bound name: line} for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def loaded_names(tree):
    """Every bare name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def references(name, skip_module, skip_def):
    """Where name is read as a bare name, an attribute or an imported name,
    leaving out the body of skip_def in skip_module."""
    found = []
    for module, tree in MODULES.items():
        for stmt in tree.body:
            if module == skip_module and isinstance(stmt, ast.FunctionDef) and stmt.name == skip_def:
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name
                        or isinstance(node, ast.alias) and node.name == name):
                    found.append((module, node))
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = loaded_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


@pytest.mark.parametrize("module", list(MODULES))
def test_every_private_function_is_referenced(module):
    private = [stmt.name for stmt in MODULES[module].body
               if isinstance(stmt, ast.FunctionDef)
               and stmt.name.startswith("_") and not stmt.name.startswith("__")]
    assert [name for name in private if not references(name, module, name)] == []


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("__init__", "generators")])
def test_every_public_function_is_used(module):
    # an export by the package __init__ is a reference there
    public = [stmt.name for stmt in MODULES[module].body
              if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    assert [name for name in public if not references(name, module, name)] == []


def test_guard_sees_a_leftover():
    # an import kept after its last use went
    tree = ast.parse("from dataclasses import dataclass, field\n\n"
                     "@dataclass\nclass A:\n    x: int\n")
    assert set(imported_names(tree)) - loaded_names(tree) == {"field"}
