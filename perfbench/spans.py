"""Span tracing of the u6n_ncg layers, applied from outside the package.

`Tracer.install()` wraps every public function and public method of the
layer modules and rebinds the wrapper in every `u6n_ncg` namespace that
holds the original (for example `verify` imports `find_induced` by name).
`Tracer.uninstall()` puts the originals back. Each call records a span
(name, start, end, parent, raised) in memory; nothing is written until
`write()` runs at the end of a benchmark.

The package itself is not modified: spans sit at the layer boundaries,
around the calls into each public function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from math import comb
from time import perf_counter_ns

LAYERS = ("groups", "graphs", "polynomials", "invariants", "closed_forms", "verify", "cli")

# Operator methods that count as public API of IntPolynomial.
_PUBLIC_DUNDERS = frozenset({"__add__", "__mul__", "__pow__"})

# The 2^V subset sweeps; their states are counted from the vertex count.
_SWEEPS = (
    "invariants.resolving_polynomial",
    "invariants.independence_polynomial",
    "invariants.vertex_cover_polynomial",
)


def _public_callables(layer: str, module):
    """(qualified name, owner, attribute, raw object) for each public
    function and method defined in the module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # span = (name index, start ns, end ns, parent span index or -1, raised)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.passes: list[tuple[int, int]] = []
        self._pass_start = 0
        self.counters: dict[str, int] = {}

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(i)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                # a tuple of ints is never tracked by the cyclic collector
                spans[i] = (idx, start, perf_counter_ns(), parent, raised)
                stack.pop()
            observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replacement = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"u6n_ncg.{layer}")
            for name, owner, attr, raw in _public_callables(layer, module):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                    replacement[id(raw)] = raw, wrapped
                if owner is not module:
                    self._patch(owner, attr, wrapped)
        # rebind module-level functions wherever the package binds them
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "u6n_ncg" and not mod_name.startswith("u6n_ncg."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapped = replacement.get(id(value), (None, None))
                if value is original:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- computed work counters ----------------------------------------

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, name: str, args, result) -> None:
        if name == "graphs.find_induced" and result is None:
            graph, pattern = args[0], args[1]
            k = int(pattern.rpartition("_")[2])
            self._count("graphs.find_induced.subsets", comb(graph.vertex_count, k))
        elif name in _SWEEPS:
            self._count("invariants.subset_sweep.states", 2 ** args[0].vertex_count)
            if name == "invariants.resolving_polynomial":
                self._count("resolving.tested", 2 ** args[0].vertex_count)
                self._count("resolving.found", sum(result[1].counts))
        elif name == "invariants.detour_matrix":
            v = args[0].vertex_count
            self._count("invariants.detour_matrix.states", 2**v * v)

    # -- passes and aggregation ----------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counters = {}

    def end_pass(self) -> dict[str, float]:
        """Per-function and per-module figures for the spans of this pass,
        plus the computed counters."""
        start = self._pass_start
        self.passes.append((start, len(self.spans)))
        spans = self.spans[start:]
        child = [0] * len(spans)
        for span in spans:
            if span[3] >= start:
                child[span[3] - start] += span[2] - span[1]
        stats: dict[str, list[int]] = {}  # name -> [calls, busy, self, errors]
        for i, (idx, t0, t1, parent, raised) in enumerate(spans):
            row = stats.setdefault(self.names[idx], [0, 0, 0, 0])
            row[0] += 1
            row[2] += t1 - t0 - child[i]
            row[3] += raised
            # busy time counts only the outermost span of a recursive name
            p = parent
            while p >= start and spans[p - start][0] != idx:
                p = spans[p - start][3]
            if p < start:
                row[1] += t1 - t0
        out: dict[str, float] = {}
        modules = dict.fromkeys(LAYERS, 0)
        for name, (calls, busy, self_ns, errors) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy / 1e9
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.errors"] = errors
            modules[name.partition(".")[0]] += self_ns
        for layer, self_ns in modules.items():
            out[f"{layer}.self_s"] = self_ns / 1e9
        counters = dict(self.counters)
        tested = counters.pop("resolving.tested", 0)
        found = counters.pop("resolving.found", 0)
        counters["invariants.resolving_polynomial.yield"] = found / tested if tested else 0.0
        out.update(counters)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "raised"],
                    "names": self.names,
                    "passes": self.passes,
                    "spans": self.spans,
                },
                fh,
            )


def median_by_key(rows: list[dict[str, float]], keys) -> dict[str, float]:
    """Median over passes of each key; a key missing from a pass reads 0."""
    return {key: statistics.median(row.get(key, 0) for row in rows) for key in keys}
