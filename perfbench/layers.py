"""Per-layer tracing of qgsurf from outside the package.

Each public function listed in ``LAYERS`` is wrapped at every ``qgsurf``
module namespace that binds it, so calls through ``from .x import f``
aliases are seen as well as calls through the defining module.  A wrapped
call records one span (key, start, end, parent) in memory; self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

LAYERS = {
    "kernel": ("scan_chains",),
    "ratlin": ("solve_unique", "rank", "determinant"),
    "wahl": ("discrepancies", "k2_contribution", "recognize_class_T", "hj_value",
             "generate_class_T", "chain_from_fraction"),
    "smoothing": ("validate_plan", "build_report", "ampleness_certificate",
                  "contract_invariants", "pi1_criterion"),
    "blowup": ("apply_blowups", "blow_up"),
    "config": ("parse", "parse_unvalidated", "validate", "independence_certificate",
               "snc_certificate"),
    "fibration": ("euler_sum_check", "two_section_incidence_check", "i9_forces_i1_lint"),
    "corpus": ("verify_example",),
    "cli": ("run",),
}

KEYS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
PACKAGE = "qgsurf"


class Tracer:
    """Wraps the listed functions while installed; spans accumulate across installs."""

    def __init__(self):
        self.spans: list[list] = []      # [key, start, end, parent index or -1]
        self.calls: Counter = Counter()  # live call counts, per key
        self.kernel_chains = 0           # chains reported by kernel.scan_chains
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers = {}              # id(original) -> (original, wrapper)
        for key in KEYS:
            layer, fn = key.split(".")
            func = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), fn, None)
            if func is None:
                self.missing.append(key)
            else:
                self._wrappers[id(func)] = (func, self._wrap(key, func))
        self._modules = [module for name, module in sys.modules.items()
                         if module is not None and name.split(".")[0] == PACKAGE]

    def install(self) -> None:
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, key: str, func):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            calls[key] += 1
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if key == "kernel.scan_chains":
                self.kernel_chains += result[0]
            return result

        return traced

    def summary(self) -> tuple[Counter, Counter]:
        """(inclusive seconds per key, self seconds per layer) over all spans."""
        inclusive, self_s = Counter(), Counter()
        child = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (key, start, end, _) in enumerate(self.spans):
            inclusive[key] += end - start
            self_s[key.split(".")[0]] += end - start - child[i]
        return inclusive, self_s
