"""In-memory spans around the public functions of each ``duotoc`` module.

Nothing here edits the library: ``install`` replaces module attributes with
wrappers after import, both in the defining module and wherever another
``duotoc`` module bound the same function by name (``duotoc.cli`` imports
with ``from .transfer import ...``; ``otoc_finite`` finds ``boundary_right``
through the ``duotoc.transfer`` globals).  Each span records its name, start,
end, parent span and thread id.  CLI rows run in pool threads, where the
thread-local span stack is empty, so row spans take their parent explicitly
from the thread that submitted them.  ``layer_metrics`` turns the spans into
the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# modules whose public functions get a span each
TRACED_MODULES = ("transfer", "oracle", "channels", "closed_forms",
                  "eigenbases", "gates")
DEPTHS = range(1, 6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1]["id"] if stack else None

    def run(self, name, fn, args, kwargs, parent=None, attrs=None):
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": parent if parent is not None else self.current(),
                "thread": threading.get_ident(), "attrs": dict(attrs or {})}
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        _annotate(span, result)
        return result

    def wrap(self, name, fn, label=None):
        """``label(arguments) -> (name suffix or None, span attrs)``."""
        sig = inspect.signature(fn) if label is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full, attrs = name, None
            if label is not None:
                suffix, attrs = label(sig.bind_partial(*args, **kwargs).arguments)
                full = f"{name}.{suffix}" if suffix else name
            return self.run(full, fn, args, kwargs, attrs=attrs)
        return traced


def _boundary_label(arguments):
    return arguments.get("parity"), {}


def _longtime_label(arguments):
    return None, {"n": arguments.get("n")}


_LABELS = {"transfer.boundary_right": _boundary_label,
           "transfer.otoc_longtime": _longtime_label}


def _annotate(span, result):
    if span["name"] == "transfer.otoc_longtime":
        meta = getattr(result, "meta", {}) or {}
        span["attrs"]["iterations"] = int(meta.get("iterations", 0))
        span["attrs"]["converged"] = bool(meta.get("converged", False))


def install(tracer: Tracer):
    """Wrap every public function of TRACED_MODULES, SlotState.vector,
    cli.main, and each row that cli._map_rows hands to its pool."""
    import duotoc
    from duotoc import cli, eigenbases

    replace = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"duotoc.{short}"]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            replace[obj] = tracer.wrap(name, obj, _LABELS.get(name))
    replace[cli.main] = tracer.wrap("cli.main", cli.main)

    original_map_rows = cli._map_rows

    def map_rows(fn, items):
        parent = tracer.current()

        def row(item):
            return tracer.run("cli.row", fn, (item,), {}, parent=parent)
        return original_map_rows(row, items)
    replace[original_map_rows] = map_rows

    for mod in [duotoc] + [m for name, m in list(sys.modules.items())
                           if name.startswith("duotoc.")]:
        for attr, obj in list(vars(mod).items()):
            try:
                new = replace.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if new is not None:
                setattr(mod, attr, new)

    vector = eigenbases.SlotState.vector
    eigenbases.SlotState.vector = tracer.wrap("eigenbases.SlotState.vector", vector)


# ------------------------------------------------------------------ metrics

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _self_times(spans):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inner = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                 for c in children.get(s["id"], [])]
        inner = [iv for iv in inner if iv[1] > iv[0]]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(inner)
    return out


def _outermost(spans, match):
    """Spans that match and have no matching ancestor (recursion and nested
    calls within one layer are counted once)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if not match(s["name"]):
            continue
        p = by_id.get(s["parent"])
        while p is not None and not match(p["name"]):
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans, solve_s):
    """Per-layer metrics from a finished traced run (see BENCHMARK.json)."""
    self_t = _self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(match):
        return sum(s["end"] - s["start"] for s in _outermost(spans, match))

    def is_(name):
        return lambda n: n == name

    m = {}
    finite = named("transfer.otoc_finite")
    m["transfer.otoc_finite.calls"] = len(finite)
    m["transfer.otoc_finite.busy_s"] = busy(is_("transfer.otoc_finite"))
    m["transfer.otoc_finite.self_s"] = sum(self_t[s["id"]] for s in finite)
    for parity in ("odd", "even"):
        name = f"transfer.boundary_right.{parity}"
        m[f"{name}.busy_s"] = busy(is_(name))
    m["transfer.boundary_left.busy_s"] = busy(is_("transfer.boundary_left"))

    longtime = named("transfer.otoc_longtime")
    m["transfer.otoc_longtime.calls"] = len(longtime)
    m["transfer.otoc_longtime.self_s"] = sum(self_t[s["id"]] for s in longtime)
    m["transfer.otoc_longtime.iterations"] = sum(
        s["attrs"].get("iterations", 0) for s in longtime)
    for n in DEPTHS:
        at_n = [s for s in longtime if s["attrs"].get("n") == n]
        its = sum(s["attrs"].get("iterations", 0) for s in at_n)
        if n == 5:
            m["transfer.otoc_longtime.iterations.n5"] = its
        secs = sum(s["end"] - s["start"] for s in at_n)
        m[f"transfer.otoc_longtime.s_per_iteration.n{n}"] = secs / its if its else 0.0
    m["transfer.otoc_longtime.unconverged"] = sum(
        1 for s in longtime if not s["attrs"].get("converged", False))

    m["eigenbases.SlotState.vector.busy_s"] = busy(is_("eigenbases.SlotState.vector"))

    m["oracle.oracle_otoc.calls"] = len(named("oracle.oracle_otoc"))
    m["oracle.oracle_otoc.busy_s"] = busy(is_("oracle.oracle_otoc"))
    m["oracle.oracle_correlator.busy_s"] = busy(is_("oracle.oracle_correlator"))
    m["oracle.layer_unitaries.calls"] = len(named("oracle.layer_unitaries"))
    m["oracle.layer_unitaries.busy_s"] = busy(is_("oracle.layer_unitaries"))
    m["oracle.evolution_operator.busy_s"] = busy(is_("oracle.evolution_operator"))

    m["channels.lightcone_correlator.busy_s"] = busy(
        is_("channels.lightcone_correlator"))
    closed = _outermost(spans, lambda n: n.startswith("closed_forms."))
    m["closed_forms.calls"] = len(closed)
    m["closed_forms.busy_s"] = sum(s["end"] - s["start"] for s in closed)
    m["gates.build_s"] = busy(lambda n: n.startswith(("gates.build_",
                                                      "gates.random_")))

    rows = named("cli.row")
    main = named("cli.main")
    m["cli.rows"] = len(rows)
    m["cli.self_s"] = sum(self_t[s["id"]] for s in main)
    workers = len({s["thread"] for s in rows})
    row_s = sum(s["end"] - s["start"] for s in rows)
    m["cli.parallel_efficiency"] = (row_s / (solve_s * workers)
                                    if rows and solve_s > 0 else 0.0)
    return m
