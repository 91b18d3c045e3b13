"""Span recorder for the traced benchmark run.

The tracer measures each layer from outside: while recording, it rebinds
public names in the module that calls them (for example
``experiments.bayes_adam`` or ``solvers.project``) to wrappers that time every
call.  Nothing in the package changes; leaving ``recording`` restores the
original bindings, so untraced repeats run the package untouched.

Coarse calls (a solver run, one Adam fit, one trace point) each leave a span
with name, start, end, parent, workload and repeat.  Calls made once per
iteration (projections, gradients, minibatch steps) are only counted and
timed, which keeps memory bounded.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Totals:
    """Calls, failures, time and work units of one traced name in one phase."""

    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0
    child_s: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.errors += other.errors
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.units += other.units
        for name, seconds in other.child_s.items():
            self.child_s[name] += seconds


@dataclass(frozen=True)
class Target:
    """A public name to rebind: ``module.attr`` is recorded under ``label``.

    ``span`` selects a span per call rather than counts only; ``units`` maps
    a call's result to the work it did (solver iterations).
    """

    module: object
    attr: str
    label: str
    span: bool = True
    units: object = None


class Tracer:
    def __init__(self, workload: str, targets: list[Target]):
        self.workload = workload
        self.targets = targets
        self.spans: list[dict] = []
        # phase -> label -> Totals; a phase is "setup", a repeat index or "after"
        self.totals: dict = defaultdict(lambda: defaultdict(Totals))
        self._origin = time.perf_counter()
        self._stack: list[list] = []  # frames: [label, span id or None, child seconds by label]
        self._phase = None

    @contextmanager
    def recording(self, phase):
        """Rebind every target for the duration, under one root span for ``phase``."""
        originals = []
        for target in self.targets:
            original = getattr(target.module, target.attr)
            originals.append((target.module, target.attr, original))
            setattr(target.module, target.attr, self._wrap(original, target))
        self._phase = phase
        root = self._open(f"{self.workload}.{phase}", span=True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(root, start, time.perf_counter(), span=True, error=False, units=0)
            self._phase = None
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _open(self, label: str, span: bool) -> list:
        span_id = len(self.spans) if span else None
        if span:
            self.spans.append(None)  # reserve the id; filled on close
        frame = [label, span_id, defaultdict(float)]
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end, span, error, units) -> None:
        self._stack.pop()
        label, span_id, children = frame
        elapsed = end - start
        totals = self.totals[self._phase][label]
        totals.calls += 1
        totals.errors += int(error)
        totals.total_s += elapsed
        totals.self_s += elapsed - sum(children.values())
        totals.units += units
        for name, seconds in children.items():
            totals.child_s[name] += seconds
        if self._stack:
            self._stack[-1][2][label] += elapsed
        if span:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans[span_id] = {
                "id": span_id,
                "name": label,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent,
                "workload": self.workload,
                "repeat": self._phase,
            }

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(target.label, target.span)
            start = time.perf_counter()
            error = True
            units = 0
            try:
                result = fn(*args, **kwargs)
                error = False
                if target.units is not None:
                    units = target.units(result)
                return result
            finally:
                tracer._close(frame, start, time.perf_counter(), target.span, error, units)

        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": self.spans}) + "\n")
