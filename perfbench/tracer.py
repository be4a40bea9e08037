"""Spans and counts around hksym's public functions, recorded from outside.

The tracer replaces each listed function by a wrapper in every hksym module
that holds the name, because cli, hkalgebra and realform bind their callees
with `from ... import`.  Callers must therefore look entry points up at call
time (`cli.main(...)`), not through a name bound before install().

A timed function records a span (name, start, end, parent, case); a counted
function only bumps a counter, since it is called thousands of times per
case and its time belongs to the caller.  Spans stay in memory until the
run ends.  Self time is a span's duration minus that of its child spans.
"""

import sys
import time
from collections import Counter

LAYERS = ("cli", "hkalgebra", "realform", "symtensor", "symplectic", "exactnum", "dim8")

TIMED = {
    "cli": ("main",),
    "hkalgebra": (
        "analyze_quartic",
        "check_invariance",
        "holonomy",
        "find_lagrangian",
        "flat_decomposition",
        "build_complex_algebra",
        "verify_model",
        "verify_jacobi",
        "curvature_ricci",
    ),
    "realform": ("check_reality", "real_holonomy", "build_real_algebra"),
    "symtensor": ("support", "tau", "quartic_from_dict"),
    "symplectic": ("extend_to_lagrangian", "lagrangian_complement"),
    "exactnum": (
        "echelon_basis",
        "rank_kernel",
        "hermitian_inertia",
        "SpanSolver.__init__",
        "SpanSolver.coords",
    ),
    "dim8": ("classify_complex8", "classify_real8"),
}

COUNTED = {
    "symtensor": ("double_contraction_endo", "sp_action", "contract"),
    "exactnum": ("inverse",),
}


def _echelon_cells(vectors):
    vectors = list(vectors)
    return (vectors,), len(vectors) * (len(vectors[0]) if vectors else 0)


def _rank_kernel_cells(m):
    return (m,), m.nrows * m.ncols


# rows x cols of the matrix each elimination starts from
CELLS = {
    "exactnum.echelon_basis": _echelon_cells,
    "exactnum.rank_kernel": _rank_kernel_cells,
}

# SpanSolver is one layer object with two entry points, timed together
RENAMED = {
    "exactnum.SpanSolver.__init__": "exactnum.SpanSolver.builds",
    "exactnum.SpanSolver.coords": "exactnum.SpanSolver.coords_calls",
}


def metric_names():
    """(name, unit) of every per-layer metric summarize() reports."""
    names = []
    for layer in LAYERS:
        for func in TIMED.get(layer, ()):
            full = "%s.%s" % (layer, func)
            if full in RENAMED:
                names.append((RENAMED[full], "count"))
            else:
                names += [(full + ".calls", "count"), (full + ".self_s", "s")]
            if full in CELLS:
                names.append((full + ".cells", "count"))
        names += [("%s.%s.calls" % (layer, func), "count") for func in COUNTED.get(layer, ())]
        classes = sorted({func.split(".")[0] for func in TIMED.get(layer, ()) if "." in func})
        names += [("%s.%s.self_s" % (layer, cls), "s") for cls in classes]
        names.append((layer + ".self_s", "s"))
    return names


class Tracer:
    """Records spans and counts for the case named by `case` while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.case = None
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def install(self):
        for layer in LAYERS:
            module = sys.modules["hksym." + layer]
            for func in TIMED.get(layer, ()):
                self._wrap(module, layer, func, self._timed)
            for func in COUNTED.get(layer, ()):
                self._wrap(module, layer, func, self._counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, module, layer, func, make):
        name = "%s.%s" % (layer, func)
        if "." in func:
            cls_name, attr = func.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make(name, original))
            self._undo.append((cls, attr, original))
            return
        original = getattr(module, func)
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hksym" and not mod_name.startswith("hksym."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.case, name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        cells = CELLS.get(name)

        def wrapper(*args, **kwargs):
            if cells is not None:
                args, n = cells(*args)
                counts[self.case, name + ".cells"] += n
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.case)

        return wrapper


def summarize(spans, counts):
    """Per-case call counts and per-layer totals from spans and counters.

    Returns (metrics, per_case): metrics maps every name of metric_names()
    to its value; per_case maps case id to {metric: count} for the counts.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, case in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = Counter()
    per_case = {}
    for i, (name, start, end, parent, case) in enumerate(spans):
        self_s = end - start - child_time[i]
        calls = RENAMED.get(name, name + ".calls")
        totals[calls] += 1
        totals[name + ".self_s"] += self_s
        parts = name.split(".")
        totals[parts[0] + ".self_s"] += self_s
        if len(parts) == 3:
            # a method: its class is the layer object
            totals["%s.%s.self_s" % tuple(parts[:2])] += self_s
        case_counts = per_case.setdefault(case, Counter())
        case_counts[calls] += 1
    for (case, metric), n in counts.items():
        totals[metric] += n
        per_case.setdefault(case, Counter())[metric] += n
    metrics = {name: totals.get(name, 0) for name, _ in metric_names()}
    return metrics, {case: dict(c) for case, c in per_case.items()}
