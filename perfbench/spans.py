"""Span tracing of qrobust from outside the program.

``Tracer.install`` replaces every public function of the traced modules (and
``DensityMatrix.__init__``, the validation step) with a wrapper that records
one span per call.  Because the modules import names from each other
(``from .robustness import robustness``), every qrobust module namespace that
holds a wrapped function gets the wrapper.  Spans are aggregated as they
close: a call count and a self time per name, where self time is the span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("numerics", "states", "wootters", "robustness", "oracle", "coset", "verify", "cli")
ALL_MODULES = ("__init__",) + TRACED_MODULES

_BISECT = "oracle.bisect_relative_robustness"
_PPT = "states.ppt_min_eig"
_SEARCH = "oracle.minimize_absolute_robustness"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.ppt_in_bisection = 0
        self.evaluations = 0
        self._stack = []          # per open span: [start, time covered by children]
        self._bisect_depth = 0
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = [perf_counter(), 0.0]
            tracer._stack.append(span)
            if name == _BISECT:
                tracer._bisect_depth += 1
            elif name == _PPT and tracer._bisect_depth:
                tracer.ppt_in_bisection += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - span[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - span[1]
                if name == _BISECT:
                    tracer._bisect_depth -= 1
            if name == _SEARCH:
                tracer.evaluations += result.evaluations
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module("qrobust" if m == "__init__" else f"qrobust.{m}")
                   for m in ALL_MODULES}
        replacements = {}
        for short in TRACED_MODULES:
            module = modules[short]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    replacements[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
                elif inspect.isclass(value) and attr == "DensityMatrix":
                    init = value.__init__
                    value.__init__ = self._wrap(f"{short}.{attr}", init)
                    self._undo.append((value, "__init__", init))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
