"""Spans and counters around calls into the program, recorded from outside it.

``Tracer.install`` replaces the program's public functions and methods with
wrappers at every module-level name they are bound to (``engine`` imports
``make_policy`` from ``planners``, for instance), and ``uninstall`` puts the
originals back. Spans live in memory: name, planner kind, start, end and the
index of the enclosing span. The program itself is not changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

from parksearch import engine, fleet, geo, graph, planners, scenario


@dataclass(frozen=True)
class Span:
    name: str
    kind: str | None
    start: float
    end: float
    parent: int  # index into the same span list, -1 at top level

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note_replan(tracer: "Tracer", args, result) -> None:
    if result.recomputed:
        tracer.counts["planners.replans"] += 1


def _note_flips(tracer: "Tracer", args, result) -> None:
    tracer.counts["availability.flips"] += len(result)


def _note_dbscan(tracer: "Tracer", args, result) -> None:
    n = len(args[0])
    tracer.counts["scenario.dbscan_points"] += n
    tracer.counts["scenario.dbscan_bytes"] = max(tracer.counts["scenario.dbscan_bytes"], n * n * 8)


# (owner, attribute, span name, note); a note reads the call's arguments and
# result into counters.
_SPANS = [
    (graph, "load_graph", "graph.load", None),
    (graph, "all_pairs_travel_times", "graph.apsp", None),
    (planners.PlannerContext, "__init__", "planners.context", None),
    (planners, "make_policy", "planners.make_policy", None),
    (planners.RandomPolicy, "decide", "planners.decide", None),
    (planners.HeuristicPolicy, "decide", "planners.decide", None),
    (planners.ReplanningPolicy, "decide", "planners.decide", _note_replan),
    (planners.HindsightPolicy, "decide", "planners.decide", None),
    (fleet, "adapt_probabilities", "fleet.adapt", None),
    (engine, "synthesize_occupations", "availability.synthesize", None),
    (engine, "run_simulation", "engine.run", None),
    (engine, "load_trace", "engine.load_trace", None),
    (engine, "replay_trace", "engine.replay", _note_flips),
    (engine, "write_results", "engine.write_results", None),
    (scenario, "generate_data_driven", "scenario.generate_data_driven", None),
    (scenario, "dbscan", "scenario.dbscan", _note_dbscan),
]
# Called too often to time without distorting the caller.
_COUNTED = [
    (geo, "great_circle_m", "geo.scalar_calls"),
    (fleet.ReservationTable, "place", "fleet.reservations_placed"),
]


class Tracer:
    def __init__(self) -> None:
        self.kind: str | None = None  # planner kind of the simulation in progress
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> tuple[list[Span], Counter]:
        """Return and clear what was recorded since the last call."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _span_wrapper(self, fn, name: str, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, self.kind, start, end, parent)
            if note is not None:
                note(self, args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        original = getattr(owner, attr)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("parksearch") and getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in _SPANS:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, note))
        for owner, attr, name in _COUNTED:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that are not inside their parent's interval."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) is not inside its parent {s.parent} ({p.name})")
    return errors
