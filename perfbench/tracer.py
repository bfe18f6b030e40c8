"""Outside-in layer spans for msfbm, installed by patching module names.

Every public function defined in a layer module (``cli``, ``sampler``,
``seeds``, ``kernels``, ``analysis``, ``verify``) is replaced by a timing
wrapper under every name that binds it inside the ``msfbm`` package, so a
function imported by name elsewhere (``sample_ensemble`` is bound in
``cli``, ``analysis`` and ``verify``) is traced at every call site.
``process`` and ``classify`` are left alone: they do microseconds of work
per workload.

Spans stay in memory while the program runs; ``summarize`` turns them into
the per-layer metrics once it has returned.  A span's self time is its
duration minus the durations of the spans it directly encloses, so the self
times of all spans add up to the duration of the outermost one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, NamedTuple

PACKAGE = "msfbm"
LAYERS = ("cli", "sampler", "seeds", "kernels", "analysis", "verify")
ROUTES = ("exact", "fbm", "fgn")
SUITES = ("kernels", "sampler", "selfsim", "srd", "markov")


class Span(NamedTuple):
    label: str  # "<layer>.<function>"
    parent: str  # label of the enclosing span, "" for the outermost one
    start: float
    end: float
    self_s: float
    note: Any  # counter payload taken from the call, see NOTES


def _ensemble_route(args, kwargs, result):
    return result.sampler


def _factor_size(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return (len(g), result.jitter)


def _stream_size(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["size"])


_RAISED = object()

# Counters read from a call's arguments or result after the span closed.
NOTES: dict[str, Callable] = {
    "sampler.sample_ensemble": _ensemble_route,
    "sampler.psd_factor": _factor_size,
    "seeds.normal_stream": _stream_size,
}


def layer_functions() -> dict[Callable, str]:
    """Map each public function defined in a layer module to its label."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{name}"
    return found


class Tracer:
    """Installs span wrappers over the layer functions and restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Callable]] = []

    def _wrap(self, func: Callable, label: str) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        note = NOTES.get(label)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [label, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                counted = note(args, kwargs, result) if note and result is not _RAISED else None
                spans.append(Span(label, parent, start, end, end - start - frame[1], counted))

        return traced

    def install(self) -> int:
        """Patch every binding of every layer function; returns the binding count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {f: self._wrap(f, label)
                    for f, label in layer_functions().items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))
        return len(self._patches)

    def restore(self) -> None:
        """Put every patched binding back to the original function."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span in spans:
        calls[span.label] = calls.get(span.label, 0) + 1
        total[span.label] = total.get(span.label, 0.0) + (span.end - span.start)
        own[span.label] = own.get(span.label, 0.0) + span.self_s

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    out: dict[str, float] = {
        "cli.main.self_s": own.get("cli.main", 0.0),
        "sampler.sample_ensemble.self_s": own.get("sampler.sample_ensemble", 0.0),
        "sampler.sample_ensemble.calls": calls.get("sampler.sample_ensemble", 0),
    }
    for route in ROUTES:
        out[f"sampler.route.{route}"] = sum(
            1 for s in spans if s.label == "sampler.sample_ensemble" and s.note == route)
    for name in ("sampler.gram_matrix", "sampler.psd_factor", "seeds.normal_stream"):
        out[f"{name}.s"] = total.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    factors = [s.note for s in spans if s.label == "sampler.psd_factor" and s.note]
    out["sampler.psd_factor.gflop_computed"] = sum(n ** 3 / 3.0 for n, _ in factors) / 1e9
    out["sampler.psd_factor.jitter_nonzero"] = sum(1 for _, jitter in factors if jitter != 0.0)
    out["seeds.normal_stream.draws"] = sum(
        s.note for s in spans if s.label == "seeds.normal_stream" and s.note is not None)
    for name in ("graph_box_dimension", "range_dimension", "level_set_box_dimension"):
        out[f"analysis.{name}.s"] = total.get(f"analysis.{name}", 0.0)
    out["analysis.level_set_box_dimension.calls"] = calls.get(
        "analysis.level_set_box_dimension", 0)
    for suite in SUITES:
        out[f"verify.run_{suite}_suite.self_s"] = own.get(f"verify.run_{suite}_suite", 0.0)
    # Kernel functions only call each other, so their self times add up to
    # the time spent inside the layer.
    out["kernels.s"] = layer_sum(own, "kernels")
    out["kernels.calls"] = layer_sum(calls, "kernels")
    for layer in LAYERS:
        if layer == "kernels":
            continue
        out[f"{layer}.self_s"] = layer_sum(own, layer)
    out["trace.accounted_s"] = sum(own.values())
    out["trace.spans"] = len(spans)
    return out
