"""The benchmark's tracer (perfbench/tracer.py) wraps hksym functions by name.

Tracer.install looks every name in its TIMED and COUNTED tables up with
getattr, so deleting or renaming one of them breaks `perfbench/run.py
--trace 1`.  This test loads the tracer from its file, as the benchmark
worker does, installs it and uninstalls it, and checks that every binding in
hksym was wrapped and then restored.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import hksym.cli  # noqa: F401  (imports every layer the tracer wraps)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hksym_namespaces():
    """Every hksym module and every class defined in one, by name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "hksym" and not name.startswith("hksym."):
            continue
        out[name] = module
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == name:
                out["%s.%s" % (name, attr)] = value
    return out


def bindings(namespaces):
    return {(ns, attr): value for ns, obj in namespaces.items() for attr, value in vars(obj).items()}


def traced(tracer_module):
    """The (namespace, attribute) of every name the tracer wraps at its home."""
    return [("hksym.%s.%s" % (layer, func)).rpartition(".")[::2]
            for table in (tracer_module.TIMED, tracer_module.COUNTED)
            for layer, funcs in table.items() for func in funcs]


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer_module = load_tracer()
    namespaces = hksym_namespaces()
    before = bindings(namespaces)
    names = traced(tracer_module)
    for key in names:
        assert key in before, "traced name %s.%s is gone" % key

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        during = bindings(namespaces)
        assert [key for key in names if during[key] is before[key]] == []
    finally:
        tracer.uninstall()

    after = bindings(namespaces)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
