"""In-memory spans around calls into proofcalc's layers.

While `Tracer.instrumented()` is active, each public function listed in
TRACED is replaced, in every proofcalc module that holds it, by a wrapper
that records a span. Calls the benchmark makes and calls one layer makes
into another (cli -> core, sweep -> core, render -> core, ...) are both
recorded, so a span's self time is the time spent in its own layer. The
program itself is not changed; outside `instrumented()` the original
functions are back in place.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import statistics
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "scenario_io", "core", "freqtree", "render", "sweep", "oracle")

#: layer -> public functions whose calls get a span.
TRACED = {
    "cli": ("main",),
    "scenario_io": ("parse_scenario", "parse_rate", "format_sig"),
    "core": ("Scenario", "compute_posterior", "decide", "verdict_error_profile"),
    "freqtree": ("build_tree", "minimal_integral_population"),
    "render": ("render_tree_text", "render_tree_svg", "render_proportion_bars_svg"),
    "sweep": ("sweep", "write_sweep_csv", "evenly_spaced_grid"),
    "oracle": ("monte_carlo_posterior", "enumerate_posterior"),
}


def _rounding(args, kwargs) -> str:
    return kwargs.get("rounding", args[2] if len(args) > 2 else "largest-remainder")


def _samples(args, kwargs) -> int:
    return kwargs["samples"] if "samples" in kwargs else args[1]


#: Span names that carry an argument, and the size (work units) of some calls.
_NAMERS: Dict[str, Callable] = {"build_tree": lambda a, k: f"build_tree:{_rounding(a, k)}"}
_SIZERS: Dict[str, Callable] = {
    "sweep": lambda a, k: len(a[2]),
    "write_sweep_csv": lambda a, k: len(a[0].rows),
    "monte_carlo_posterior": _samples,
}

# Span record fields.
LAYER, NAME, START, END, PARENT, REQUEST, SIZE, ERROR = range(8)


class Tracer:
    """Spans as lists [layer, name, start_ns, end_ns, parent, request, size, error]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request: Optional[str] = None
        self._stack: List[int] = []

    def _open(self, layer: str, name: str, size) -> list:
        record = [layer, name, 0, 0, self._stack[-1] if self._stack else -1, self.request, size, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, layer: str, name: str, size=None):
        """A span around a block of the benchmark's own code, such as a process spawn."""
        record = self._open(layer, name, size)
        record[START] = perf_counter_ns()
        try:
            yield record
        finally:
            record[END] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        namer, sizer = _NAMERS.get(name), _SIZERS.get(name)

        def traced(*args, **kwargs):
            record = self._open(layer, namer(args, kwargs) if namer else name, sizer(args, kwargs) if sizer else None)
            record[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = perf_counter_ns()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def instrumented(self):
        """Swap every TRACED function for a recording wrapper in all proofcalc modules."""
        modules = [importlib.import_module(f"proofcalc.{name}") for name in LAYERS]
        modules.append(importlib.import_module("proofcalc"))
        patched = []
        for layer, names in TRACED.items():
            home = importlib.import_module(f"proofcalc.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, name, original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        patched.append((module, name, original))
                        setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original in patched:
                setattr(module, name, original)

    def write(self, path) -> None:
        fields = ("layer", "name", "start_ns", "end_ns", "parent", "request", "size", "error")
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            for record in self.spans:
                stream.write(json.dumps(dict(zip(fields, record))) + "\n")

    # --- aggregation -------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: call count and self time in ms (duration minus child spans)."""
        children = [0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                children[record[PARENT]] += record[END] - record[START]
        out = {layer: {"calls": 0, "self_ms": 0.0} for layer in LAYERS}
        for record, child in zip(self.spans, children):
            entry = out[record[LAYER]]
            entry["calls"] += 1
            entry["self_ms"] += (record[END] - record[START] - child) / 1e6
        return out

    def durations_us(self, name: str, per_unit: bool = False, size=None) -> List[float]:
        """Durations of the spans called `name` in µs, optionally divided by their size."""
        out = []
        for record in self.spans:
            if record[NAME] != name or (size is not None and record[SIZE] != size):
                continue
            us = (record[END] - record[START]) / 1e3
            out.append(us / record[SIZE] if per_unit else us)
        return out

    def median_us(self, name: str, per_unit: bool = False, size=None) -> float:
        values = self.durations_us(name, per_unit, size)
        return statistics.median(values) if values else float("nan")

    def errors(self, name: str, error: str) -> int:
        return sum(1 for record in self.spans if record[NAME] == name and record[ERROR] == error)
