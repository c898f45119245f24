"""Multi-session cohort kernel: N players on shared edge infrastructure.

The single-session kernel (:mod:`repro.sim.session`) owns its link: a
session's downloads see the trace's bandwidth and nothing else. A
cohort cannot be simulated by running that kernel N times, because the
defining physics is *coupling* — every flow's rate depends on how many
neighbors currently share its edge, so one session completing a chunk
re-times every other session's in-flight transfer.

This kernel models each edge as a processor-sharing fluid link: all
backlogged flows on edge *e* receive ``capacity/n`` (max-min fair with
unconstrained last-mile links), tracked in O(log n) per event through
a per-edge *virtual service* clock ``V`` — the cumulative bits any one
flow has received. A flow of ``size`` bits joining at ``V0`` completes
when ``V`` reaches ``V0 + size``, so flow joins/leaves and capacity
changes (fault windows) only re-time the earliest completion; no
per-flow state is rewritten.

The scheduler holds only timers that can still fire, in three places,
all ordered by ``(time, seq)`` from one monotonic counter:

* a global heap of session and fault events, each carrying its bound
  handler;
* one FIFO of request watchdogs per medium: a deadline is dispatch time
  plus that medium's fixed timeout, and dispatch times never decrease,
  so each FIFO is sorted by construction and watchdogs whose request
  already finished are dropped from its head without a dispatch;
* one pending-completion slot per edge, overwritten whenever the
  edge's flows or capacity change, so a superseded completion is never
  scheduled at all.

Each step dispatches the earliest of the heap top, the live FIFO heads
and the edge slots; :meth:`CohortKernel.work` reports the exact counts.

Sessions run a compact recommended-style policy (harmonic-mean
estimate, safety factor, curated-combination selection, balanced A/V
fetching, buffer-target pacing) and the full failure machinery:
per-request watchdog timeouts from the real
:class:`~repro.net.resilience.RetryPolicy`, backoff retries against a
finite budget, and edge failover through
:class:`~repro.net.resilience.EndpointHealth` under a
:class:`~repro.net.resilience.FailoverPolicy`. Every session ends with
a verdict — completed, or degraded with a ``termination_reason`` —
never an exception; correlated faults produce stalls, failovers and
degradations, not aborts.

Determinism: event ordering is ``(time, monotonic push counter)``;
endpoint assignment and brownout 5xx draws are sha256 hashes of the
cohort seed and event coordinates; there is no wall clock and no
shared RNG. Identical specs produce byte-identical
:class:`CohortResult` fingerprints in any process.

Memory: per-session state is a fixed-size struct and per-session
output is one :class:`CohortSessionSummary`; cohort QoE is folded
session-by-session into a streaming
:class:`~repro.qoe.aggregate.CohortAggregate`, so aggregation memory
is O(1) per session (``keep_summaries=False`` drops even the
summaries for very large cohorts).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..media.tracks import MediaType
from ..net.resilience import EndpointHealth, FailureKind
from ..players.estimators import HarmonicMeanEstimator
from ..topology.cache import EdgeCache
from ..topology.faults import (
    ORIGIN_DOMAIN,
    FaultDomainKind,
    FaultWindow,
)
from ..topology.spec import TopologySpec

#: Relative slack when comparing virtual-service targets (fp rounding
#: in the completion-time arithmetic).
_V_EPS = 1e-6

#: Runaway guard: no legitimate cohort dispatches more events than this
#: per session chunk (requests, retries, waits, fault edges, watchdogs).
#: Dead watchdogs dropped without a dispatch do not count.
_EVENTS_PER_CHUNK_CAP = 400


# The compact recommended-style policy every cohort session runs.
#: Fraction of the throughput estimate a combination may spend.
SAFETY_FACTOR = 0.85
#: Up-switch only with at least this much of both buffers (s).
UP_BUFFER_S = 10.0
#: Down-switch only below this much of both buffers (s).
DOWN_BUFFER_S = 15.0
#: Pacing: above this buffer level (s), idle until it drains.
BUFFER_TARGET_S = 20.0
#: Harmonic-mean estimator window (chunk samples).
ESTIMATOR_WINDOW = 5


@dataclass(frozen=True)
class CohortSessionSummary:
    """Fixed-size per-session verdict (the O(1) unit of aggregation)."""

    session_id: int
    primary_edge: str
    final_edge: str
    arrival_s: float
    end_s: float
    completed: bool
    termination_reason: Optional[str]
    startup_delay_s: float
    stall_s: float
    n_stalls: int
    video_switches: int
    audio_switches: int
    failovers: int
    retries: int
    chunks_downloaded: int
    bits_useful: float
    bits_wasted: float
    mean_av_imbalance_s: float


@dataclass
class CohortResult:
    """Everything one cohort run produced, in picklable plain data."""

    n_sessions: int
    content_duration_s: float
    completed_sessions: int
    degraded_sessions: int
    verdict_counts: Dict[str, int]
    #: Streaming cohort QoE (:meth:`~repro.qoe.aggregate.CohortAggregate.summary`).
    aggregate: Dict[str, object]
    #: Per-edge byte ledger and cache counters.
    edges: Dict[str, Dict[str, float]]
    #: The fault windows that governed the run (as plain dicts).
    fault_windows: Tuple[Dict[str, object], ...]
    #: Sparse fault-domain event log: window edges, failovers,
    #: degradations — the CI artifact, bounded by faults + sessions.
    fault_events: Tuple[Dict[str, object], ...]
    #: Per-session summaries (empty when ``keep_summaries=False``).
    summaries: Tuple[CohortSessionSummary, ...] = ()

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of every field.

        Floats serialize at full ``repr`` precision, so two runs agree
        on the fingerprint only if they agree bit-for-bit — the
        identity the serial/parallel/resumed grid tests pin.
        """
        payload = {
            "n_sessions": self.n_sessions,
            "content_duration_s": self.content_duration_s,
            "completed_sessions": self.completed_sessions,
            "degraded_sessions": self.degraded_sessions,
            "verdict_counts": self.verdict_counts,
            "aggregate": self.aggregate,
            "edges": self.edges,
            "fault_windows": self.fault_windows,
            "fault_events": self.fault_events,
            "summaries": [vars(s) for s in self.summaries],
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Edge:
    """Live processor-sharing state of one edge."""

    __slots__ = (
        "spec",
        "cache",
        "base_bps",
        "rate_bps",
        "v",
        "last_t",
        "flows",
        "heap",
        "due",
        "served_bits",
        "settled_bits",
        "busy_s",
        "useful_bits",
        "wasted_bits",
    )

    def __init__(self, spec, cache: EdgeCache):
        self.spec = spec
        self.cache = cache
        self.base_bps = spec.capacity_kbps * 1000.0
        self.rate_bps = self.base_bps
        self.v = 0.0  # cumulative per-flow service, bits
        self.last_t = 0.0
        self.flows: Dict[int, "_Flow"] = {}
        self.heap: List[Tuple[float, int]] = []  # (v_target, flow id)
        #: (time, seq) of the one pending completion, if any.
        self.due: Optional[Tuple[float, int]] = None
        self.served_bits = 0.0  # ∫ capacity dt while busy (edge's ledger)
        self.settled_bits = 0.0  # Σ per-flow settlements (sessions' ledger)
        self.busy_s = 0.0
        self.useful_bits = 0.0
        self.wasted_bits = 0.0

    def settle(self, t: float) -> None:
        """Advance the fluid state to ``t`` (call before any change)."""
        dt = t - self.last_t
        if dt > 0 and self.flows and self.rate_bps > 0:
            self.v += self.rate_bps * dt / len(self.flows)
            self.served_bits += self.rate_bps * dt
            self.busy_s += dt
        self.last_t = max(self.last_t, t)

    def next_completion(self) -> Optional[float]:
        """Absolute time of the earliest completion, if any."""
        while self.heap:
            v_target, flow_id = self.heap[0]
            if flow_id not in self.flows:
                heapq.heappop(self.heap)  # stale: flow already removed
                continue
            if self.rate_bps <= 0:
                return None
            remaining = max(0.0, v_target - self.v)
            dt = remaining * len(self.flows) / self.rate_bps
            return self.last_t + dt
        return None


class _Flow:
    """One in-transfer request's share of an edge."""

    __slots__ = ("session_id", "v_start", "v_target", "size_bits")

    def __init__(self, session_id: int, v_start: float, size_bits: float):
        self.session_id = session_id
        self.v_start = v_start
        self.v_target = v_start + size_bits
        self.size_bits = size_bits


class _Request:
    """The one request a session has in flight."""

    __slots__ = (
        "seq", "medium", "index", "track", "edge", "size", "hit",
        "dispatched", "flow",
    )

    def __init__(self, seq, medium, index, track, edge, size, hit, dispatched):
        self.seq = seq
        self.medium: MediaType = medium
        self.index: int = index
        self.track: str = track
        self.edge: _Edge = edge
        self.size: float = size
        self.hit: bool = hit
        self.dispatched: float = dispatched
        self.flow: Optional[int] = None  # edge flow id once transferring


class _Session:
    """One cohort member's compact state machine."""

    __slots__ = (
        "sid",
        "arrival_s",
        "health",
        "clock",
        "vbuf",
        "abuf",
        "playing",
        "stalled",
        "played_s",
        "startup_delay_s",
        "stall_s",
        "n_stalls",
        "imbalance_integral",
        "v_done",
        "a_done",
        "last_v_track",
        "last_a_track",
        "video_switches",
        "audio_switches",
        "combo_index",
        "estimator",
        "retries_spent",
        "retries",
        "failovers_at_end",
        "chunks_downloaded",
        "bits_useful",
        "bits_wasted",
        "req_seq",
        "inflight",
        "attempt",
        "done",
        "completed",
        "termination_reason",
        "end_s",
        "emergency",
    )

    def __init__(self, sid: int, arrival_s: float, health: EndpointHealth):
        self.sid = sid
        self.arrival_s = arrival_s
        self.health = health
        self.clock = arrival_s
        self.vbuf = 0.0
        self.abuf = 0.0
        self.playing = False
        self.stalled = False
        self.played_s = 0.0
        self.startup_delay_s = 0.0
        self.stall_s = 0.0
        self.n_stalls = 0
        self.imbalance_integral = 0.0
        self.v_done = 0
        self.a_done = 0
        self.last_v_track: Optional[str] = None
        self.last_a_track: Optional[str] = None
        self.video_switches = 0
        self.audio_switches = 0
        self.combo_index = 0
        self.estimator = HarmonicMeanEstimator(ESTIMATOR_WINDOW)
        self.retries_spent = 0
        self.retries = 0
        self.failovers_at_end = 0
        self.chunks_downloaded = 0
        self.bits_useful = 0.0
        self.bits_wasted = 0.0
        self.req_seq = 0  # invalidates stale wake/retry events
        self.inflight: Optional[_Request] = None
        self.attempt = 0  # attempts spent on the current chunk
        self.done = False
        self.completed = False
        self.termination_reason: Optional[str] = None
        self.end_s = arrival_s
        self.emergency = False


class CohortKernel:
    """Drive ``job.n_sessions`` coupled sessions over ``job.topology``.

    ``job`` is the :class:`~repro.topology.jobs.CohortJob` being run;
    ``content``, ``combinations`` and ``windows`` are what it built
    from its spec.
    """

    def __init__(
        self,
        job,
        content,
        combinations,
        windows: Tuple[FaultWindow, ...] = (),
    ):
        self.content = content
        self.combos = list(combinations)
        if not self.combos:
            raise SimulationError("cohort needs a non-empty combination set")
        self.job = job
        self.topology: TopologySpec = job.topology
        self.windows = tuple(windows)
        self.chunk_s = content.chunk_duration_s
        self.n_chunks = content.n_chunks
        self.duration_s = content.duration_s
        # Read on every selection, so resolved once.
        self._combo_kbps = [combo.avg_kbps for combo in self.combos]
        self._emergency_at = job.retry_policy.emergency_threshold()
        # Chunk sizes resolved once: (track_id, index) -> bits.
        self._sizes: Dict[Tuple[str, int], float] = {}
        for combo in self.combos:
            for track in (combo.video, combo.audio):
                if (track.track_id, 0) in self._sizes:
                    continue
                for index in range(self.n_chunks):
                    self._sizes[(track.track_id, index)] = content.chunk(
                        track.track_id, index
                    ).size_bits

    # -- deterministic draws ------------------------------------------------

    def _uniform(self, tag: str, *coords) -> float:
        digest = hashlib.sha256(
            ("cohort|%d|%s|%s" % (
                self.job.seed, tag, "|".join(str(c) for c in coords)
            )).encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # -- the run ------------------------------------------------------------

    def run(self) -> CohortResult:
        from ..qoe.aggregate import CohortAggregate

        cfg = self.job
        self.edges: Dict[str, _Edge] = {
            e.edge_id: _Edge(e, EdgeCache(e.cache_chunks))
            for e in self.topology.edges
        }
        self.sessions: List[_Session] = []
        for sid in range(cfg.n_sessions):
            order = self.topology.endpoint_order(cfg.seed, sid)
            health = EndpointHealth(order, cfg.failover)
            arrival = cfg.arrival_burst_s * sid / cfg.n_sessions
            self.sessions.append(_Session(sid, arrival, health))

        #: (t, seq, bound handler, payload): session and fault events.
        self._heap: List[tuple] = []
        self._push_seq = 0
        #: Per medium, (timeout, FIFO of (deadline, seq, session, request)).
        policy = cfg.retry_policy
        self._video_watch = (policy.timeout_for(MediaType.VIDEO), deque())
        self._audio_watch = (policy.timeout_for(MediaType.AUDIO), deque())
        self._dropped_deadlines = 0
        self._alive = cfg.n_sessions
        self._events: List[Dict[str, object]] = []
        self._brownouts = [
            w for w in self.windows
            if w.kind is FaultDomainKind.ORIGIN_BROWNOUT
        ]
        self._aggregate = CohortAggregate()
        self._summaries: List[CohortSessionSummary] = []

        for session in self.sessions:
            self._push(session.arrival_s, self._on_arrive, (session,))
        for window in self.windows:
            self._push(window.start_s, self._on_fault_start, (window,))
            self._push(window.end_s, self._on_fault_end, (window,))

        self._loop(cfg.n_sessions * self.n_chunks * _EVENTS_PER_CHUNK_CAP)

        # Ceiling: anything still alive ends degraded-but-verdicted.
        for session in self.sessions:
            if not session.done:
                self._terminate(
                    session, min(cfg.max_sim_time_s, session.clock),
                    "sim_time_ceiling",
                )
        return self._result()

    def _loop(self, budget: int) -> None:
        """Dispatch the earliest live timer until none is left, every
        session is done, or the next one lies past the time ceiling."""
        heap = self._heap
        queues = (self._video_watch[1], self._audio_watch[1])
        edges = tuple(self.edges.values())
        dispatched: Counter = Counter()  # bound handler -> events
        on_deadline = self._on_deadline
        on_edge_complete = self._on_edge_complete
        max_t = self.job.max_sim_time_s
        processed = 0
        try:
            while self._alive > 0:
                best = heap[0] if heap else None
                source = None  # None: the heap; else a watchdog FIFO or an edge
                for queue in queues:
                    # A watchdog is dead once its request is no longer the
                    # session's in-flight one (a done session has none).
                    while queue and queue[0][2].inflight is not queue[0][3]:
                        queue.popleft()
                        self._dropped_deadlines += 1
                    if queue and (best is None or queue[0] < best):
                        best = queue[0]
                        source = queue
                for edge in edges:
                    due = edge.due
                    if due is not None and (best is None or due < best):
                        best = due
                        source = edge
                if best is None or best[0] > max_t:
                    return
                processed += 1
                if processed > budget:
                    raise SimulationError(
                        f"cohort event budget exhausted after {processed} "
                        "dispatched events (kernel scheduling bug: the run "
                        "is not converging)"
                    )
                t = best[0]
                if source is None:
                    heapq.heappop(heap)
                    handler = best[2]
                    dispatched[handler] += 1
                    handler(t, *best[3])
                elif source.__class__ is _Edge:
                    source.due = None
                    dispatched[on_edge_complete] += 1
                    on_edge_complete(t, source)
                else:
                    source.popleft()
                    dispatched[on_deadline] += 1
                    on_deadline(t, best[2], best[3])
        finally:
            self._by_kind = {
                handler.__name__[len("_on_"):]: n
                for handler, n in dispatched.items()
            }
            # Undispatched timers hold bound handlers: dropping them lets
            # refcounting free the kernel instead of the cycle collector.
            heap.clear()

    def work(self) -> Dict[str, object]:
        """Exact scheduler work of the last :meth:`run`.

        ``events`` counts dispatched timers, ``by_kind`` splits them by
        handler, ``dropped_deadlines`` counts watchdogs whose request
        finished first (discarded without a dispatch) and ``requests``
        counts chunk requests sent to edges.
        """
        return {
            "events": sum(self._by_kind.values()),
            "by_kind": dict(sorted(self._by_kind.items())),
            "dropped_deadlines": self._dropped_deadlines,
            "requests": sum(
                edge.cache.hits + edge.cache.misses
                for edge in self.edges.values()
            ),
        }

    # -- event plumbing -----------------------------------------------------

    def _push(self, t: float, handler, payload: tuple) -> None:
        self._push_seq += 1
        heapq.heappush(self._heap, (t, self._push_seq, handler, payload))

    def _log(self, t: float, kind: str, **fields) -> None:
        event = {"t": round(t, 6), "k": kind}
        event.update(fields)
        self._events.append(event)

    # -- fault windows ------------------------------------------------------

    def _on_fault_start(self, t: float, window: FaultWindow) -> None:
        self._log(
            t, "fault_open", fault=window.kind.value, domain=window.domain
        )
        if window.kind is FaultDomainKind.EDGE_OUTAGE:
            edge = self.edges.get(window.domain)
            if edge is None:
                return
            edge.settle(t)
            edge.rate_bps = 0.0
            edge.due = None  # outage: no completion until the window ends
        elif window.kind is FaultDomainKind.EVICTION_STORM:
            edge = self.edges.get(window.domain)
            if edge is not None:
                dropped = edge.cache.flush()
                self._log(t, "cache_flush", domain=window.domain, dropped=dropped)
        # Brownouts are consulted at dispatch time; no state to mutate.

    def _on_fault_end(self, t: float, window: FaultWindow) -> None:
        self._log(
            t, "fault_close", fault=window.kind.value, domain=window.domain
        )
        if window.kind is FaultDomainKind.EDGE_OUTAGE:
            edge = self.edges.get(window.domain)
            if edge is None:
                return
            edge.settle(t)
            # Another outage window may still cover this edge.
            if not self._edge_in_outage(window.domain, t):
                edge.rate_bps = edge.base_bps
            self._schedule_completion(edge)

    def _edge_in_outage(self, edge_id: str, t: float) -> bool:
        return any(
            w.kind is FaultDomainKind.EDGE_OUTAGE
            and w.domain == edge_id
            and w.active(t)
            for w in self.windows
        )

    def _brownout_at(self, t: float) -> Optional[FaultWindow]:
        for window in self._brownouts:
            if window.active(t):
                return window
        return None

    # -- session lifecycle --------------------------------------------------

    def _on_arrive(self, t: float, session: _Session) -> None:
        self._decide(session, t)

    def _on_wake(self, t: float, session: _Session, seq: int) -> None:
        if session.done or session.req_seq != seq or session.inflight:
            return  # stale wake: state moved on
        self._decide(session, t)

    def _advance(self, session: _Session, t: float) -> None:
        """Closed-form playback/stall accounting up to ``t``."""
        dt = t - session.clock
        if dt <= 0:
            return
        session.imbalance_integral += abs(session.vbuf - session.abuf) * dt
        if session.playing:
            minbuf = min(session.vbuf, session.abuf)
            drain = min(dt, minbuf)
            session.vbuf = max(0.0, session.vbuf - drain)
            session.abuf = max(0.0, session.abuf - drain)
            session.played_s += drain
            if dt > drain + 1e-12:
                if not session.stalled:
                    session.stalled = True
                    session.n_stalls += 1
                session.stall_s += dt - drain
        session.clock = t

    def _decide(self, session: _Session, t: float) -> None:
        """Pick the next request (or a pacing wait) for ``session``."""
        if session.done or session.inflight is not None:
            return
        self._advance(session, t)
        v_left = session.v_done < self.n_chunks
        a_left = session.a_done < self.n_chunks
        if not v_left and not a_left:
            self._complete_session(session, t)
            return
        # Buffer-target pacing: above target, idle until it drains.
        minbuf = min(
            session.vbuf if v_left else float("inf"),
            session.abuf if a_left else float("inf"),
        )
        if session.playing and minbuf >= BUFFER_TARGET_S:
            wake_in = minbuf - max(BUFFER_TARGET_S - self.chunk_s, 0.0)
            session.req_seq += 1
            self._push(t + wake_in, self._on_wake, (session, session.req_seq))
            return
        # Balanced A/V: feed the lagging medium (video wins ties, so the
        # very first fetch is video, then audio, as the buffers leapfrog).
        if not a_left or (v_left and session.vbuf <= session.abuf):
            medium = MediaType.VIDEO
            index = session.v_done
        else:
            medium = MediaType.AUDIO
            index = session.a_done
        combo = self.combos[self._select(session)]
        track = combo.video if medium is MediaType.VIDEO else combo.audio
        self._dispatch(session, t, medium, index, track.track_id)

    def _select(self, session: _Session) -> int:
        remaining = self.job.retry_policy.retry_budget - session.retries_spent
        if remaining <= self._emergency_at:
            # Budget nearly gone: lowest rung, stop gambling bytes.
            session.emergency = True
            session.combo_index = 0
            return 0
        estimate = session.estimator.get_estimate_kbps()
        if estimate is None:
            session.combo_index = 0
            return 0
        budget = estimate * SAFETY_FACTOR
        ideal = 0
        for i, kbps in enumerate(self._combo_kbps):
            if kbps <= budget:
                ideal = i
        current = session.combo_index
        minbuf = min(session.vbuf, session.abuf)
        if ideal > current:
            if minbuf >= UP_BUFFER_S:
                current = ideal
        elif ideal < current:
            if minbuf < DOWN_BUFFER_S:
                current = ideal
        session.combo_index = current
        return current

    # -- request lifecycle --------------------------------------------------

    def _dispatch(
        self, session: _Session, t: float, medium: MediaType,
        index: int, track_id: str,
    ) -> None:
        session.attempt += 1
        session.req_seq += 1
        edge_id = session.health.current(t)
        if session.health.failovers > session.failovers_at_end:
            hop = session.health.hops[-1]
            self._log(
                t, "failover", session=session.sid,
                frm=hop[1], to=hop[2],
            )
            session.failovers_at_end = session.health.failovers
        edge = self.edges[edge_id]
        address = (track_id, index)
        hit = edge.cache.lookup(address)
        latency = edge.spec.rtt_s
        failure_kind: Optional[FailureKind] = None
        if not hit:
            origin = self.topology.origin
            brownout = self._brownout_at(t)
            penalty = origin.miss_penalty_s
            if brownout is not None:
                penalty *= brownout.latency_factor
                u = self._uniform(
                    "5xx", session.sid, medium.value, index, session.attempt
                )
                if u < brownout.error_probability:
                    failure_kind = FailureKind.HTTP_5XX
            latency += origin.rtt_s + penalty
        request = _Request(
            session.req_seq, medium, index, track_id, edge,
            self._sizes[address], hit, t,
        )
        session.inflight = request
        # The watchdog takes the seq it would have had as a heap entry.
        timeout, queue = (
            self._video_watch if medium is MediaType.VIDEO
            else self._audio_watch
        )
        deadline = t + timeout
        if queue and deadline < queue[-1][0]:
            raise SimulationError(
                f"watchdog deadline {deadline} precedes its queue's tail "
                f"{queue[-1][0]}: dispatch time went backwards"
            )
        self._push_seq += 1
        queue.append((deadline, self._push_seq, session, request))
        if failure_kind is not None:
            self._push(
                t + latency, self._on_reqfail, (session, request, failure_kind)
            )
        else:
            self._push(t + latency, self._on_flow_start, (session, request))

    def _on_flow_start(
        self, t: float, session: _Session, request: _Request
    ) -> None:
        if session.inflight is not request:
            return  # the watchdog fired first, or the session ended
        edge = request.edge
        edge.settle(t)
        flow = _Flow(session.sid, edge.v, request.size)
        flow_id = request.seq * self.job.n_sessions + session.sid  # unique
        edge.flows[flow_id] = flow
        heapq.heappush(edge.heap, (flow.v_target, flow_id))
        request.flow = flow_id
        self._schedule_completion(edge)

    def _schedule_completion(self, edge: _Edge) -> None:
        """Overwrite the edge's pending completion with its current one."""
        when = edge.next_completion()
        if when is None:
            edge.due = None
        else:
            self._push_seq += 1
            edge.due = (when, self._push_seq)

    def _on_edge_complete(self, t: float, edge: _Edge) -> None:
        edge.settle(t)
        slack = _V_EPS * max(1.0, edge.v)
        finished: List[int] = []
        while edge.heap:
            v_target, flow_id = edge.heap[0]
            if flow_id not in edge.flows:
                heapq.heappop(edge.heap)
                continue
            if v_target > edge.v + slack:
                break
            heapq.heappop(edge.heap)
            finished.append(flow_id)
        for flow_id in finished:
            flow = edge.flows.pop(flow_id)
            # Settle what the uplink *physically* served this flow — the
            # virtual-clock difference, capped at the flow size. A flow
            # completed within the fp slack is credited marginally less
            # than its nominal size (the "last packet" rounding), which
            # keeps Σ settlements == ∫ capacity dt exact at any scale
            # instead of accumulating an early-credit bias.
            delivered = max(
                0.0, min(edge.v, flow.v_target) - flow.v_start
            )
            edge.settled_bits += delivered
            edge.useful_bits += delivered
            self._complete_request(
                self.sessions[flow.session_id], t, delivered
            )
        self._schedule_completion(edge)

    def _complete_request(
        self, session: _Session, t: float, delivered: float
    ) -> None:
        request = session.inflight
        if session.done or request is None:
            return
        session.inflight = None
        session.attempt = 0
        edge_id = request.edge.spec.edge_id
        if not request.hit:
            request.edge.cache.admit((request.track, request.index))
        session.health.record_success(edge_id)
        elapsed = t - request.dispatched
        if elapsed > 0:
            session.estimator.add_sample_kbps(request.size / elapsed / 1000.0)
        session.bits_useful += delivered
        session.chunks_downloaded += 1
        self._advance(session, t)
        if request.medium is MediaType.VIDEO:
            if (
                session.last_v_track is not None
                and session.last_v_track != request.track
            ):
                session.video_switches += 1
            session.last_v_track = request.track
            session.v_done += 1
            session.vbuf += self.chunk_s
        else:
            if (
                session.last_a_track is not None
                and session.last_a_track != request.track
            ):
                session.audio_switches += 1
            session.last_a_track = request.track
            session.a_done += 1
            session.abuf += self.chunk_s
        if not session.playing and session.vbuf > 0 and session.abuf > 0:
            session.playing = True
            session.startup_delay_s = t - session.arrival_s
        if session.stalled and session.vbuf > 0 and session.abuf > 0:
            session.stalled = False  # the starved medium refilled
        self._decide(session, t)

    def _on_reqfail(
        self, t: float, session: _Session, request: _Request,
        kind: FailureKind,
    ) -> None:
        """Header-level failure (brownout 5xx): no payload bytes."""
        if session.inflight is not request:
            return  # the watchdog fired first, or the session ended
        self._fail_request(session, t, kind, wasted_bits=0.0)

    def _on_deadline(
        self, t: float, session: _Session, request: _Request
    ) -> None:
        """Watchdog expiry: the request hung or trickled too slowly.

        Only live watchdogs get here: the run loop drops the rest.
        """
        wasted = 0.0
        kind = FailureKind.TIMEOUT
        if request.flow is not None:
            edge = request.edge
            edge.settle(t)
            flow = edge.flows.pop(request.flow, None)
            if flow is not None:
                wasted = max(0.0, min(edge.v - flow.v_start, flow.size_bits))
                edge.settled_bits += wasted
                edge.wasted_bits += wasted
                self._schedule_completion(edge)
            if wasted > 0:
                kind = FailureKind.SLOW_TRANSFER
                # The trickle is a real bandwidth observation: feed it
                # to the estimator so the ABR steps down instead of
                # re-requesting the same doomed rung until the attempt
                # cap fires.
                elapsed = t - request.dispatched
                if elapsed > 0:
                    session.estimator.add_sample_kbps(wasted / elapsed / 1000.0)
        self._fail_request(session, t, kind, wasted_bits=wasted)

    def _fail_request(
        self, session: _Session, t: float, kind: FailureKind,
        wasted_bits: float,
    ) -> None:
        policy = self.job.retry_policy
        request = session.inflight
        session.inflight = None
        session.bits_wasted += wasted_bits
        session.health.record_failure(request.edge.spec.edge_id, t)
        self._advance(session, t)
        if session.attempt >= policy.max_attempts:
            self._terminate(session, t, "attempts_exhausted")
            return
        if session.retries_spent >= policy.retry_budget:
            self._terminate(session, t, "retry_budget_exhausted")
            return
        session.retries_spent += 1
        session.retries += 1
        delay = policy.delay_s(session.attempt + 1, request.medium, request.index)
        # Redispatch the same chunk after backoff (possibly on a
        # failed-over edge, possibly at a lower rung).
        session.req_seq += 1
        self._push(
            t + delay, self._on_retry,
            (session, session.req_seq, request.medium, request.index),
        )

    def _on_retry(
        self, t: float, session: _Session, seq: int, medium: MediaType,
        index: int,
    ) -> None:
        if session.done or session.req_seq != seq or session.inflight:
            return
        self._advance(session, t)
        # Re-select: the failure may have fed the estimator or engaged
        # the emergency rung, so the retry fetches the *current* choice.
        combo = self.combos[self._select(session)]
        track = combo.video if medium is MediaType.VIDEO else combo.audio
        self._dispatch(session, t, medium, index, track.track_id)

    # -- verdicts -----------------------------------------------------------

    def _complete_session(self, session: _Session, t: float) -> None:
        self._advance(session, t)
        remaining = max(session.vbuf, session.abuf)
        # Play out the tail: both buffers hold the same remaining
        # content once every chunk of both media is down.
        session.imbalance_integral += (
            abs(session.vbuf - session.abuf) * remaining
        )
        session.played_s += remaining
        session.vbuf = 0.0
        session.abuf = 0.0
        session.completed = True
        session.done = True
        session.end_s = t + remaining
        self._alive -= 1
        self._finish(session)

    def _terminate(self, session: _Session, t: float, reason: str) -> None:
        if session.done:
            return
        self._advance(session, t)
        session.done = True
        session.completed = False
        session.termination_reason = reason
        session.end_s = t
        session.inflight = None
        self._alive -= 1
        self._log(t, "degraded", session=session.sid, reason=reason)
        self._finish(session)

    def _finish(self, session: _Session) -> None:
        """Fold the finished session into the streaming aggregate."""
        lifetime = max(session.end_s - session.arrival_s, 1e-12)
        summary = CohortSessionSummary(
            session_id=session.sid,
            primary_edge=session.health.endpoints[0],
            final_edge=session.health.active,
            arrival_s=session.arrival_s,
            end_s=session.end_s,
            completed=session.completed,
            termination_reason=session.termination_reason,
            startup_delay_s=session.startup_delay_s,
            stall_s=session.stall_s,
            n_stalls=session.n_stalls,
            video_switches=session.video_switches,
            audio_switches=session.audio_switches,
            failovers=session.health.failovers,
            retries=session.retries,
            chunks_downloaded=session.chunks_downloaded,
            bits_useful=session.bits_useful,
            bits_wasted=session.bits_wasted,
            mean_av_imbalance_s=session.imbalance_integral / lifetime,
        )
        self._aggregate.add_session(summary)
        if self.job.keep_summaries:
            self._summaries.append(summary)

    # -- result -------------------------------------------------------------

    def _result(self) -> CohortResult:
        verdicts: Dict[str, int] = {}
        completed = 0
        for session in self.sessions:
            if session.completed:
                completed += 1
                verdicts["completed"] = verdicts.get("completed", 0) + 1
            else:
                reason = session.termination_reason or "no_verdict"
                verdicts[reason] = verdicts.get(reason, 0) + 1
        edges: Dict[str, Dict[str, float]] = {}
        for edge_id, edge in sorted(self.edges.items()):
            edges[edge_id] = {
                "capacity_kbps": edge.spec.capacity_kbps,
                "served_bits": edge.served_bits,
                "settled_bits": edge.settled_bits,
                "useful_bits": edge.useful_bits,
                "wasted_bits": edge.wasted_bits,
                "busy_s": edge.busy_s,
                "stranded_bits": max(
                    0.0,
                    edge.served_bits - edge.settled_bits,
                ),
                "cache_hits": edge.cache.hits,
                "cache_misses": edge.cache.misses,
                "cache_evictions": edge.cache.evictions,
            }
        windows = tuple(
            {
                "kind": w.kind.value,
                "domain": w.domain,
                "start_s": w.start_s,
                "end_s": w.end_s,
            }
            for w in self.windows
        )
        return CohortResult(
            n_sessions=self.job.n_sessions,
            content_duration_s=self.duration_s,
            completed_sessions=completed,
            degraded_sessions=self.job.n_sessions - completed,
            verdict_counts=verdicts,
            aggregate=self._aggregate.summary(),
            edges=edges,
            fault_windows=windows,
            fault_events=tuple(self._events),
            summaries=tuple(self._summaries),
        )
