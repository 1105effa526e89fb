"""In-memory spans around he3cap's public functions, for the traced run.

Each traced function is wrapped at every module attribute of the he3cap
package that names it (``experiment.closed_form`` and
``cross_sections.closed_form`` are separate bindings of one function, and
both get the same wrapper).  Wrappers are installed only for the duration of
a traced op, so untraced ops run the program untouched.

A span records its name, start, end, parent span and op id.  Spans are kept
in flat arrays and written out once, when the run ends.  A function's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from importlib import import_module

import numpy as np
from he3cap.angular import _cg_twice

# (module, function) of every public function the traced run measures.
TARGETS = (
    ("cli", "main"),
    ("cross_sections", "closed_form"),
    ("cross_sections", "oracle"),
    ("cross_sections", "compare_with_oracle"),
    ("cross_sections", "j2_corner_extrema"),
    ("cross_sections", "channel_fractions"),
    ("exactnum", "sqrt_product"),
    ("angular", "cg"),
    ("experiment", "discriminability_sweep"),
    ("experiment", "simulate_counts"),
    ("experiment", "design_matrix"),
    ("experiment", "fit_strengths"),
    ("experiment", "read_settings_csv"),
    ("experiment", "read_counts_csv"),
    ("experiment", "write_counts_csv"),
)

# Spans whose argument tuples are collected, for the distinct-argument ratio.
DISTINCT_ARGS = "cross_sections.closed_form"

OP_SPAN = "bench.op"


class Tracer:
    """Wraps the TARGETS functions and accumulates spans over traced ops."""

    def __init__(self) -> None:
        self.names = [OP_SPAN] + [f"{module}.{function}" for module, function in TARGETS]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.ops = 0
        self.distinct_args = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack: list[list] = []
        self._seen_args: set = set()
        self._op_id = -1
        self._cache_before = None
        self._bindings = self._find_bindings()

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "he3cap" or name.startswith("he3cap."))
        ]
        bindings = []
        for index, (module_name, function_name) in enumerate(TARGETS, start=1):
            original = getattr(import_module(f"he3cap.{module_name}"), function_name)
            wrapper = self._wrap(original, index, self.names[index] == DISTINCT_ARGS)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, attribute, original, wrapper))
        return bindings

    def _wrap(self, function, index: int, track_args: bool):
        perf_counter = time.perf_counter
        stack = self._stack
        seen_args = self._seen_args
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            start = perf_counter()
            if track_args:
                seen_args.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
            span = len(span_start)
            span_name.append(index)
            span_start.append(start)
            span_end.append(start)
            span_parent.append(stack[-1][1] if stack else -1)
            span_op.append(self._op_id)
            frame = [0.0, span]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                span_end[span] = end
                calls[index] += 1
                self_s[index] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def begin_op(self, op_id: int) -> None:
        """Install the wrappers and open the root span of one traced op."""
        self._op_id = op_id
        self._cache_before = _cg_twice.cache_info()
        for module, attribute, _, wrapper in self._bindings:
            setattr(module, attribute, wrapper)
        start = time.perf_counter()
        span = len(self.span_start)
        self.span_name.append(0)
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(-1)
        self.span_op.append(op_id)
        self._stack.append([0.0, span])

    def end_op(self) -> None:
        """Close the root span, remove the wrappers and fold in per-op counts."""
        end = time.perf_counter()
        _, span = self._stack.pop()
        self.span_end[span] = end
        for module, attribute, original, _ in self._bindings:
            setattr(module, attribute, original)
        after = _cg_twice.cache_info()
        self.cache_hits += after.hits - self._cache_before.hits
        self.cache_misses += after.misses - self._cache_before.misses
        self.distinct_args += len(self._seen_args)
        self._seen_args.clear()
        self.ops += 1

    def metrics(self) -> dict[str, float]:
        """Per-op calls and self time of every traced function, plus ratios."""
        ops = max(self.ops, 1)
        result = {}
        for index, name in enumerate(self.names[1:], start=1):
            result[f"{name}.calls"] = self.calls[index] / ops
            result[f"{name}.self_s"] = self.self_s[index] / ops
        closed_form_calls = self.calls[self.names.index(DISTINCT_ARGS)]
        result[f"{DISTINCT_ARGS}.distinct_ratio"] = (
            self.distinct_args / closed_form_calls if closed_form_calls else 0.0
        )
        lookups = self.cache_hits + self.cache_misses
        result["angular.cg_cache.hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        return result

    def write(self, path) -> int:
        """Write every span to an .npz file; returns the number of spans."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
            parent=np.array(self.span_parent, dtype=np.int32),
            op=np.array(self.span_op, dtype=np.int32),
        )
        return len(self.span_start)
