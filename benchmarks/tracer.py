"""Spans around the calls into dgla's public functions, recorded from outside.

The package binds names with ``from .algebra import bracket``-style
imports, so a name is rebound in every module that holds it. Spans
(name, start, end, parent index, task index) stay in memory until
``write``; the caller sets ``task`` before each task.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import workloads

# (span name, home module, attribute); methods are patched on the class.
FUNCTIONS = (
    ("algebra.bracket", "dgla.algebra", "bracket"),
    ("algebra.is_primitive", "dgla.algebra", "is_primitive"),
    ("algebra.apply_morphism", "dgla.algebra", "apply_morphism"),
    ("algebra.encode", "dgla.algebra", "encode"),
    ("algebra.decode", "dgla.algebra", "decode"),
    ("calculus.bch", "dgla.calculus", "bch"),
    ("calculus.exp_assoc", "dgla.calculus", "exp_assoc"),
    ("calculus.log_assoc", "dgla.calculus", "log_assoc"),
    ("calculus.apply_operator_series", "dgla.calculus", "apply_operator_series"),
    ("calculus.flow", "dgla.calculus", "flow"),
    ("calculus.extend_differential", "dgla.calculus", "extend_differential"),
    ("calculus.edge_differential", "dgla.calculus", "edge_differential"),
    ("models.compute_symmetric_data", "dgla.models", "compute_symmetric_data"),
    ("models.build_named_model", "dgla.models", "build_named_model"),
    ("models.verify_model", "dgla.models", "verify_model"),
    ("models.check_equivariance", "dgla.models", "check_equivariance"),
    ("models.encode_model", "dgla.models", "encode_model"),
    ("models.decode_model", "dgla.models", "decode_model"),
    ("cli.main", "dgla.cli", "main"),
)
METHODS = (
    ("algebra.mul", "__mul__"),
    ("algebra.add", "__add__"),
)
# Reported per call site as calls and self time; the rest as inclusive totals.
SELF_TIMED = tuple(name for name, _ in METHODS) + tuple(
    name for name, _, _ in FUNCTIONS if name.startswith(("algebra.", "calculus."))
)
TOTALED = tuple(name for name, _, _ in FUNCTIONS if name.startswith(("models.", "cli.")))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self.task = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
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
                spans[index] = (name, start, end, parent, self.task)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name in every dgla module; restore on exit."""
        undo = []
        modules = {m.__name__: m for m in workloads.DGLA_MODULES}
        for name, home, attr in FUNCTIONS:
            original = getattr(modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in workloads.DGLA_MODULES:
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        element = workloads.dgla.AlgebraElement
        for name, attr in METHODS:
            original = element.__dict__[attr]
            undo.append((element, attr, original))
            setattr(element, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, self time, and total time of outermost calls."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SELF_TIMED + TOTALED}
        for index, (name, start, end, parent, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
