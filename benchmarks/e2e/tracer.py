"""Outside-in tracer: times calls into each layer's public functions.

The tracer never edits the program. :meth:`Tracer.install` replaces a
fixed list of public functions and methods with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so a traced pass runs
exactly the code an untraced one does, plus the wrappers.

Two kinds of wrapper:

* **spans** sit on coarse boundaries (a job, ``run_jobs``, spec builds,
  ``Session.run``, QoE, cache get/put, replay, cohort execute). Each
  call keeps a record in memory: name, start, end, parent span and job
  id.
* **counters** sit on calls made hundreds of times per session (player
  decisions and hooks, estimator samples, network lookups, event-log
  emits, spec keys). They keep a call count and time only, charged both
  to a global total and to the innermost open span.

Every wrapped call pushes a frame on one shared stack, so a caller's
self time is its duration minus the time of the wrapped calls inside
it. Only calls made inside a job's root span are recorded; the
harness's own checks between jobs pass straight through. A wrapper
that is re-entered by its own group (a subclass hook
calling ``super()``, ``observe_download`` calling ``add_sample_kbps``)
passes the inner call straight through, so nothing is counted twice.

``BasePlayer.consider_abort`` is never wrapped: ``Session`` compares
the player's ``consider_abort`` with the base one to decide whether the
fast-forward path is allowed, and a wrapper would change that answer.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Span:
    """One timed call on a coarse layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "job", "child", "counters", "note")

    def __init__(self, name: str, start: float, parent: Optional[int], job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        #: Time covered by wrapped calls inside this span.
        self.child = 0.0
        #: counter name -> [calls, self seconds] charged to this span.
        self.counters: Dict[str, List[float]] = {}
        #: Value extracted from the call's arguments and result.
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _all_subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _session_note(args, result) -> tuple:
    return (len(result.downloads), result.bits_served, result.bits_wasted)


def _cohort_note(args, result) -> tuple:
    edges = result.edges.values()
    agg = result.aggregate
    return (
        result.n_sessions,
        sum(e["cache_hits"] + e["cache_misses"] for e in edges),
        sum(e["cache_hits"] for e in edges),
        round(agg["failovers"]["mean"] * agg["sessions"]),
        sum(e["useful_bits"] + e["wasted_bits"] for e in edges),
        sum(e["wasted_bits"] for e in edges),
    )


class Tracer:
    """Span and counter store plus the patch list that feeds it."""

    def __init__(self):
        self.spans: List[Span] = []
        #: counter name -> [calls, inclusive seconds, self seconds]
        self.counters: Dict[str, List[float]] = {}
        self.job = None
        self._stack: List[list] = []  # frames: [start, child seconds]
        self._open: List[int] = []  # indices of open spans
        self._patches: List[tuple] = []
        #: Re-entry flags, one per span or counter name.
        self._busy: Dict[str, list] = {}

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, note: Optional[Callable] = None):
        stack, open_spans, spans = self._stack, self._open, self.spans
        busy = self._busy.setdefault(name, [False])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if busy[0] or not open_spans:
                return fn(*args, **kwargs)
            busy[0] = True
            frame = [_clock(), 0.0]
            span = Span(name, frame[0], open_spans[-1], self.job)
            spans.append(span)
            open_spans.append(len(spans) - 1)
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                open_spans.pop()
                busy[0] = False
                span.end = end
                span.child = frame[1]
                if note is not None and result is not None:
                    span.note = note(args, result)
                # The caller is charged the call, not the note.
                if stack:
                    stack[-1][1] += _clock() - frame[0]

        return wrapped

    def _counter(self, name: str, fn: Callable):
        stack, open_spans, spans = self._stack, self._open, self.spans
        busy = self._busy.setdefault(name, [False])
        totals = self.counters.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if busy[0] or not open_spans:
                return fn(*args, **kwargs)
            busy[0] = True
            frame = [_clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                busy[0] = False
                elapsed = end - frame[0]
                own = elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += own
                charged = spans[open_spans[-1]].counters
                entry = charged.get(name)
                if entry is None:
                    charged[name] = [1, own]
                else:
                    entry[0] += 1
                    entry[1] += own

        return wrapped

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, name, classes, methods, note=None, counter=False):
        for cls in classes:
            for method in methods:
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                wrapper = (
                    self._counter(name, original)
                    if counter
                    else self._span(name, original, note)
                )
                self._set(cls, method, wrapper)

    def _wrap_function(self, name, original, modules, note=None):
        wrapper = self._span(name, original, note)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self, extra_modules=()) -> None:
        """Wrap every traced boundary; ``extra_modules`` are harness
        modules whose imported names must be patched as well."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.experiments import base as experiments_base
        from repro.manifest import packager
        from repro.media import content as media_content
        from repro.net.link import SeparatePaths, SharedBottleneck
        from repro.players import estimators
        from repro.players.base import BasePlayer
        from repro.qoe import metrics as qoe_metrics
        from repro.replay import replayer
        from repro.replay.recorder import EventRecorder
        from repro.runner import engine
        from repro.runner.cache import ResultCache
        from repro.runner.jobs import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
        from repro.sim.session import Session
        from repro.topology.jobs import CohortJob

        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "repro" or key.startswith("repro."))
        ]
        modules.extend(extra_modules)

        span = self._wrap_methods
        span("build", [SimulationJob], ["build"])
        span("content", [ContentSpec], ["build"])
        span("trace", [TraceSpec], ["build"])
        span("player", [PlayerSpec], ["build"])
        span("session", [Session], ["run"], note=_session_note)
        span("cache.get", [ResultCache], ["get"], note=lambda args, result: True)
        span("cache.put", [ResultCache], ["put"])
        span("cohort", [CohortJob], ["execute"], note=_cohort_note)
        fn = self._wrap_function
        fn("experiment", experiments_base.run_experiment, modules)
        fn(
            "run_jobs",
            engine.run_jobs,
            modules,
            note=lambda args, result: sum(o.wall_time_s for o in result),
        )
        fn("content", media_content.drama_show, modules)
        fn("content", media_content.synthetic_content, modules)
        fn("package", packager.package_hls, modules)
        fn("package", packager.package_dash, modules)
        fn("qoe", qoe_metrics.compute_qoe, modules)
        fn(
            "replay",
            replayer.replay_session,
            modules,
            note=lambda args, result: len(result.events),
        )

        players = [BasePlayer, *_all_subclasses(BasePlayer)]
        count = functools.partial(self._wrap_methods, counter=True)
        count("players.choose_next", players, ["choose_next"])
        count(
            "players.hook",
            players,
            ["on_session_start", "on_chunk_start", "on_chunk_complete", "on_failure"],
        )
        meters = [
            estimators.ShakaEstimator,
            estimators.ExoBandwidthMeter,
            estimators.HarmonicMeanEstimator,
            estimators.SharedThroughputEstimator,
        ]
        count("estimators.sample", meters, ["observe_download", "add_sample_kbps"])
        count("estimators.read", meters, ["get_estimate_kbps"])
        count(
            "net.lookup",
            [SharedBottleneck, SeparatePaths],
            ["media_step", "next_change_after"],
        )
        count("replay.emit", [EventRecorder], ["emit"])
        count("runner.key", [SimulationJob, CohortJob], ["key"])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- harness hooks ------------------------------------------------------

    def job_span(self, job_id):
        """Open the root span of one job; returns its closer."""
        self.job = job_id
        start = _clock()
        span = Span("job", start, None, job_id)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        frame = [start, 0.0]
        self._stack.append(frame)

        def close() -> None:
            span.end = _clock()
            self._stack.pop()
            self._open.pop()
            span.child = frame[1]
            self.job = None

        return close

    # -- read-out -----------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds; per counter:
        calls, inclusive and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.self_time
        for name, (calls, inclusive, own) in self.counters.items():
            out[name] = {"calls": calls, "total_s": inclusive, "self_s": own}
        return out

    def notes(self, name: str, first: int = 0, last: Optional[int] = None) -> list:
        """Notes of the ``name`` spans among ``spans[first:last]``."""
        return [
            s.note
            for s in self.spans[first:last]
            if s.name == name and s.note is not None
        ]

    def span_dump(self, first: int = 0) -> List[dict]:
        """Spans from index ``first`` on as JSON-ready records: times in
        ms from the first of them, parents as indices into the list."""
        spans = self.spans[first:]
        if not spans:
            return []
        origin = spans[0].start
        return [
            {
                "name": s.name,
                "start_ms": round((s.start - origin) * 1e3, 4),
                "end_ms": round((s.end - origin) * 1e3, 4),
                "self_ms": round(s.self_time * 1e3, 4),
                "parent": None if s.parent is None else s.parent - first,
                "job": s.job,
                "counters": {
                    k: [int(v[0]), round(v[1] * 1e3, 4)] for k, v in s.counters.items()
                },
            }
            for s in spans
        ]
