"""Spans around the public functions of each `ctwalk` module.

`Tracer.install()` replaces every public function defined in a layer module
with a wrapper, at every name binding the package holds: the defining module,
modules that imported the function by name (`cli` and `analysis` import
`eigendecompose`), and the package `__init__`.  A function imported at call
time (`gen_family` imports `eigendecompose` from `spectral`) reads the
patched module attribute.  `uninstall()` puts the originals back.

Each call becomes a span (layer, function, parent, start, end).  A layer's
self time is the sum over its spans of the duration minus the direct child
spans.  `<layer>.calls` counts calls that enter the layer from another layer
or from the benchmark; calls within a layer are spans but not entries.

`serialize.fmt_number` is left unwrapped: it runs once per formatted number,
and a span per number would cost more than the formatting.  Its work is
counted as `serialize.numbers`, computed from the arguments of the enclosing
serializer call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from dataclasses import fields
from time import perf_counter

import numpy as np

PACKAGE = "ctwalk"
LAYERS = ("graphs", "spectral", "transport", "analysis", "serialize", "cli")
UNWRAPPED = {("serialize", "fmt_number")}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _phase_count(per_time, t_index):
    """Phase factors (exp or cos) evaluated: per_time(spectrum) * len(t)."""
    def count(args, kwargs, result):
        s = args[0] if args else kwargs["s"]
        return {"transport.phase_evals": per_time(s) * np.size(_arg(args, kwargs, t_index, "t"))}
    return count


def _float_fields(report):
    return sum(isinstance(getattr(report, f.name), float) for f in fields(report))


def _series_numbers(args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    approx = args[1] if len(args) > 1 else kwargs.get("approx")
    return {"serialize.numbers": series.times.size * (2 if approx is None else 3),
            "serialize.bytes": len(result)}


def _matrix_numbers(args, kwargs, result):
    m = _arg(args, kwargs, 0, "matrix")
    return {"serialize.numbers": m.n * m.n + (m.time is not None), "serialize.bytes": len(result)}


def _report_numbers(args, kwargs, result):
    return {"serialize.numbers": _float_fields(_arg(args, kwargs, 0, "report")),
            "serialize.bytes": len(result)}


# Work counts, computed from each call's arguments or result.
COUNTERS = {
    ("spectral", "eigendecompose"): lambda a, k, r: {"spectral.n3": r.n ** 3},
    ("transport", "classical_prob"): _phase_count(lambda s: s.n, 3),
    ("transport", "quantum_amplitude"): _phase_count(lambda s: s.n, 3),
    ("transport", "avg_return_quantum"): _phase_count(lambda s: s.n, 1),
    ("transport", "avg_return_classical"): _phase_count(lambda s: len(s.classes), 1),
    ("transport", "alpha_bar_sq"): _phase_count(lambda s: len(s.classes), 1),
    ("transport", "approx_alpha_bar_sq"): _phase_count(lambda s: len(s.classes) - 1, 2),
    ("transport", "propagator"): lambda a, k, r: {"transport.phase_evals": a[0].n},
    ("serialize", "series_to_csv"): _series_numbers,
    ("serialize", "series_to_json"): _series_numbers,
    ("serialize", "matrix_to_csv"): _matrix_numbers,
    ("serialize", "matrix_to_json"): _matrix_numbers,
    ("serialize", "report_to_json"): _report_numbers,
    ("serialize", "report_to_text"): _report_numbers,
}


class Tracer:
    """Collects spans and work counts while installed."""

    def __init__(self):
        self.spans = []   # [layer, function, parent index or None, start, end]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def reset(self):
        self.spans, self.counts = [], Counter()

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [layer, name, parent, perf_counter(), None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = perf_counter()
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or (layer, name) in UNWRAPPED):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        holders = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in holders:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)][1])

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    def layer_totals(self):
        """Per layer: self time (s) and entries from outside the layer."""
        child_time = [0.0] * len(self.spans)
        for layer, name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for i, (layer, name, parent, start, end) in enumerate(self.spans):
            self_s[layer] += end - start - child_time[i]
            if parent is None or self.spans[parent][0] != layer:
                calls[layer] += 1
        return self_s, calls
