"""Span tracing of wearsim's layers from outside the library.

A ``Tracer`` wraps functions and methods in place for the duration of a
``with tracer.installed(wearsim):`` block and restores them afterwards.
Every wrapped call is timed on one stack, so each call knows how much of
its duration its wrapped callees took; the remainder is its self time.

Calls of the names in ``aggregate`` (the hot leaves: hundreds of
thousands per run) only add to per-name totals. Every other call is also
kept as a ``Span`` with its parent, in memory, for the caller to inspect
or write out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (layer name, module, attribute path). The attribute is the one the
# caller looks up at call time: a name bound by ``from x import f`` is
# patched in the importing module, a method on its class.
TARGETS = (
    ("cli.simulate", "cli", "cmd_simulate"),
    ("cli.analyze", "cli", "cmd_analyze"),
    ("cli.compare", "cli", "cmd_compare"),
    ("cli.protocol_bench", "cli", "cmd_protocol_bench"),
    ("scenario.load", "cli", "load_scenario"),
    ("runner.run_scenario", "cli", "run_scenario"),
    ("runner.execute", "cli", "execute"),
    ("runner.execute", "runner", "execute"),
    ("radio.build_field", "runner", "build_field"),
    ("radio.busy", "radio", "InterferenceField.busy"),
    ("radio.arbitrate", "radio", "arbitrate"),
    ("radio.sched_at", "radio", "EventScheduler.at"),
    ("protocol.master_run", "runner", "master_run"),
    ("protocol.ble_run", "runner", "ble_baseline_run"),
    ("protocol.session_metrics", "runner", "session_metrics"),
    ("motion.reading", "motion", "SyntheticBody.reading"),
    ("motion.truth", "motion", "SyntheticBody.truth_joint_angle"),
    ("pipeline.write_recording", "runner", "write_recording"),
    ("pipeline.read_recording", "cli", "read_recording"),
    ("pipeline.joint_angle_series", "cli", "joint_angle_series"),
    ("pipeline.mae", "cli", "mae"),
    ("pipeline.pearson", "cli", "pearson"),
    ("pipeline.rate_series", "cli", "rate_series"),
    ("pipeline.rate_series", "protocol", "rate_series"),
    ("skeleton.animate_frame", "pipeline", "animate_frame"),
)

HOT = frozenset({"radio.busy", "radio.arbitrate", "radio.sched_at",
                 "motion.reading", "motion.truth", "skeleton.animate_frame"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Total:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 aggregate: frozenset[str] = HOT) -> None:
        self.clock = clock
        self.aggregate = aggregate
        self.spans: list[Span] = []
        self.totals: dict[str, Total] = {}
        # Each open call: [start, wrapped callees' time, span index or the
        # index of the nearest enclosing kept span].
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[object], None] | None = None) -> Callable:
        """``fn`` timed as ``name``. ``observe`` sees each return value; its
        time counts as part of the call."""
        clock, stack, spans = self.clock, self._stack, self.spans
        total = self.totals.setdefault(name, Total())
        keep = name not in self.aggregate

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            index = parent
            if keep:
                index = len(spans)
                spans.append(Span(name, 0.0, 0.0, parent))
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
            finally:
                end = clock()
                stack.pop()
                start, inner = frame[0], frame[1]
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total.calls += 1
                total.total_s += duration
                total.self_s += duration - inner
                if keep:
                    span = spans[index]
                    span.start, span.end, span.self_s = start, end, duration - inner
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package, observers: dict[str, Callable] | None = None):
        """Patch every target in ``package`` (the imported wearsim)."""
        observers = observers or {}
        saved = []
        wrappers: dict[tuple[str, int], Callable] = {}
        try:
            for name, module, path in TARGETS:
                owner = getattr(package, module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                key = (name, id(original))
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, original, observers.get(name))
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total(self, name: str) -> Total:
        return self.totals.get(name, Total())


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] = out.get(s.name, 0.0) + s.duration - covered
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in call order; ``parent`` is a line index."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "self_s": s.self_s}) + "\n")
