"""Dead-code guard for src/hksym, read with the standard library's ast only.

Four kinds of leftover fail it: a module that imports a name it never uses
(the package __init__ is exempt, since its imports are the public API), a
module-level _private function that no src/hksym module references outside
its own body, a public module-level function that the package __init__
does not export and no src/hksym module references outside its own body,
and a method of a src/hksym class, dunders aside, that no src/hksym module
references outside its own body.
Tests, oracles and the benchmark do not count as users: a helper that only
they reach belongs with them.  generators is exempt from the public check,
as a public module: the benchmark's corpus imports its functions.
A fifth check holds the other way round: tests/oracles.py imports no
_private name from hksym, since a reference that borrows a production
helper is not independent of the code it checks.
A sixth check keeps the public API to what src/hksym itself reads: every
name the package __init__ exports is read outside its own definition,
unless ALLOWED_UNREAD_EXPORTS lists it, and that list holds no name the
check would pass without it.  A read is resolved against the export's home
module, the one __init__ imports it from: a load of the name there, and in
another module only `from .home import name` or `home.name`, so a local
variable or a field of the same name elsewhere does not count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hksym"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
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


def private_imports_from_hksym(tree):
    """Every _private name the module imports from hksym, at any depth."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hksym"
            for alias in node.names if alias.name.startswith("_")]


def loaded_names(tree):
    """Every bare name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def read_name(node):
    """The name node reads as a bare name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


READS = {}
for _tree in MODULES.values():
    for _node in ast.walk(_tree):
        READS.setdefault(read_name(_node), []).append(_node)


def export_homes(init):
    """Every name the package __init__ imports from a module, in order, with
    that module: its home."""
    return [(alias.name, node.module) for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def reads_export(node, name, home, at_home):
    """Whether node reads the export name of module home: a load of the bare
    name in home itself, and elsewhere only an import of it from home or
    the attribute home.name.  A local variable of the same name elsewhere
    is another object, and a store is no read."""
    if at_home:
        return isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.ImportFrom):
        return node.module == home and any(alias.name == name for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == home)


def unread_exports(modules):
    """The exports of modules["__init__"] that no other module reads, as
    reads_export resolves a read, outside the body of their own top-level
    definition."""
    return [name for name, home in export_homes(modules["__init__"])
            if not any(reads_export(node, name, home, module == home)
                       for module, tree in modules.items() if module != "__init__"
                       for stmt in tree.body if getattr(stmt, "name", None) != name
                       for node in ast.walk(stmt))]


def export_faults(modules, allowed):
    """The unread exports that allowed does not list, then the entries of
    allowed that are not an unread export (no longer exported, or read)."""
    unread = unread_exports(modules)
    return ([name for name in unread if name not in allowed]
            + [name for name in allowed if name not in unread])


# The exports that no src/hksym module reads, each with the reason it stays
# public.  perfbench/tracer.py looks the first four up by getattr, and
# tests/test_benchmark_tracer.py pins them: removing one breaks --trace 1.
ALLOWED_UNREAD_EXPORTS = (
    "check_invariance",  # tracer-pinned: timed as hkalgebra.check_invariance
    "double_contraction_endo",  # tracer-pinned: counted as symtensor.double_contraction_endo
    "support",  # tracer-pinned: timed as symtensor.support
    "flat_decomposition",  # tracer-pinned, and paper-facing: the flat split E = E^1 + E^0
    "compute_aut",  # paper-facing: aut(S) as matrices on E_+, in README's library section
    "isomorphic8",  # paper-facing: the dim-8 isomorphism test
)


def references(name, skip):
    """Where name is read in src/hksym, leaving out the body of the definition skip."""
    inside = {id(node) for node in ast.walk(skip)}
    return [node for node in READS.get(name, ()) if id(node) not in inside]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = loaded_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


@pytest.mark.parametrize("module", list(MODULES))
def test_every_private_function_is_referenced(module):
    private = [stmt for stmt in MODULES[module].body
               if isinstance(stmt, ast.FunctionDef)
               and stmt.name.startswith("_") and not stmt.name.startswith("__")]
    assert [stmt.name for stmt in private if not references(stmt.name, stmt)] == []


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("__init__", "generators")])
def test_every_public_function_is_used(module):
    # an export by the package __init__ is a reference there
    public = [stmt for stmt in MODULES[module].body
              if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")]
    assert [stmt.name for stmt in public if not references(stmt.name, stmt)] == []


@pytest.mark.parametrize("module", list(MODULES))
def test_every_method_is_used(module):
    methods = [(cls.name, stmt) for cls in MODULES[module].body if isinstance(cls, ast.ClassDef)
               for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__")]
    assert ["%s.%s" % (cls, stmt.name) for cls, stmt in methods if not references(stmt.name, stmt)] == []


def test_every_export_is_read_or_allowed():
    assert export_faults(MODULES, ALLOWED_UNREAD_EXPORTS) == []


def test_guard_sees_a_leftover():
    # an import kept after its last use went
    tree = ast.parse("from dataclasses import dataclass, field\n\n"
                     "@dataclass\nclass A:\n    x: int\n")
    assert set(imported_names(tree)) - loaded_names(tree) == {"field"}


def test_export_guard_sees_an_unread_export_and_a_stale_allowance():
    # f reads only itself and h nothing reads, so both are unread; h is
    # allowed, g is allowed but read by h, and gone is not exported
    modules = {
        "__init__": ast.parse("from .a import f, g, h\n"),
        "a": ast.parse("def f():\n    return f\n\n\ndef g():\n    return 1\n\n\n"
                       "def h():\n    return g()\n"),
    }
    assert unread_exports(modules) == ["f", "h"]
    assert export_faults(modules, ("h", "g", "gone")) == ["f", "g", "gone"]


def test_export_guard_resolves_a_read_against_the_home_module():
    # b has a local f and a field f, which are not a's f; g is read at
    # home, h through an import from a, and k as the attribute a.k
    modules = {
        "__init__": ast.parse("from .a import f, g, h, k\n"),
        "a": ast.parse("def f():\n    return 1\n\n\ndef g():\n    return 1\n\n\n"
                       "def h():\n    return g()\n\n\ndef k():\n    return 1\n"),
        "b": ast.parse("from . import a\nfrom .a import h\n\n\nclass T:\n    f: int\n\n\n"
                       "def u(t):\n    f = t.f\n    return f, h, a.k\n"),
    }
    assert unread_exports(modules) == ["f"]


def test_oracles_borrow_no_private_helper():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    assert private_imports_from_hksym(tree) == []


def test_oracle_guard_sees_a_borrowed_helper():
    tree = ast.parse("from hksym.exactnum import ZERO\n\n"
                     "def f():\n    from hksym.dim8 import _char_poly_3\n")
    assert private_imports_from_hksym(tree) == ["_char_poly_3"]
