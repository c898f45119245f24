"""The event-driven streaming session.

One :class:`Session` plays one title through one player model over one
network model, producing a :class:`~repro.sim.records.SessionResult`.

The simulation is exact, not time-stepped: bandwidth traces are
piecewise-constant and at most one download per medium is active, so
between events every download progresses at a constant rate and the
next event time (trace change, request dead-time expiry, download
completion, injected failure point, request-timeout expiry,
buffer-frontier hit, scheduled player wake-up, backoff-retry dispatch)
can be computed in closed form.

The main loop is the hot path of every experiment, sweep and chaos run,
so it is written for throughput: per-medium state lives in two
``__slots__`` lane objects instead of ``MediaType``-keyed dicts, rates
come from one :meth:`~repro.net.link.NetworkModel.media_step` query
per event, and runs of *quiet* events (trace boundaries
and dead-time expiries with no decision, completion, failure, wake-up
or playback transition in between) are collapsed by a fast-forward
inner loop that skips the scheduling/bookkeeping machinery. Every fast
path is required to be observably equivalent to the plain loop — same
event stream, same floats; see ``docs/architecture.md`` ("kernel fast
paths") and the recorded-log oracle in ``tests/fixtures/eventlogs/``.

Every result-bearing event goes through one
:class:`~repro.sim.records.ResultFold` method, the fold the replayer
feeds from a log; unobserved, the kernel appends the two hottest kinds
(progress segments, buffer samples) straight to the fold's lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import PlayerError, SimulationError
from ..media.content import Content
from ..media.tracks import MediaType
from ..net.link import NetworkModel
from ..net.resilience import (
    DEFAULT_REQUEST_TIMEOUT_S,
    FailureKind,
    RetryPolicy,
)
from .constants import EPS
from .decisions import Download, Wait
from .playback import PlaybackState, PlaybackTracker
from .records import ProgressSegment, ResultFold, SessionResult

from ..net.failures import FailureModel  # noqa: F401  (config type)

_VIDEO = MediaType.VIDEO
_AUDIO = MediaType.AUDIO
_EPS = EPS  # shared kernel tolerance; see repro.sim.constants
_INF = math.inf


class SessionObserver:
    """Receiver of the session's typed event stream.

    Attach one via ``SessionConfig(observer=...)`` and the session
    calls :meth:`emit` at every observable moment — downloads starting,
    bytes flowing, player decisions, stalls, buffer samples, failures —
    and :meth:`close` once the run ends. The canonical implementation
    is :class:`repro.replay.EventRecorder`, which streams the events to
    a crash-safe JSON-lines log; the schema of each ``(kind, payload)``
    pair is documented in ``docs/event_log.md``.

    Observers must not mutate the session: they see copies of scalars,
    and determinism requires recording to be a pure tap. Emission sites
    are guarded so a session without an observer pays one attribute
    check and nothing else.
    """

    def emit(self, kind: str, payload: Dict[str, object]) -> None:
        """Receive one event. ``payload`` is owned by the observer."""

    def close(self) -> None:
        """The session ended; release any resources."""


@dataclass(slots=True)
class ActiveDownload:
    """A download in flight."""

    medium: MediaType
    track_id: str
    chunk_index: int
    size_bits: float
    started_at: float
    dead_until: float  # request RTT: no bits before this time
    bits_done: float = 0.0
    #: The fold's progress-segment list for this download.
    segments: List[ProgressSegment] = field(default_factory=list)
    #: Injected failure point: the request dies once this many bits have
    #: arrived. ``None`` = no byte-triggered failure.
    fail_at_bits: Optional[float] = None
    #: Taxonomy label of the injected failure (``None`` = none injected,
    #: or the legacy anonymous verdict, treated as a connection reset).
    fail_kind: Optional[FailureKind] = None
    #: Wall time at which a deadline-kind failure surfaces: the request
    #: timeout (TIMEOUT / SLOW_TRANSFER) or response time (HTTP errors).
    fail_at_time: Optional[float] = None
    #: A hung request: no payload bytes ever flow, the connection holds
    #: no link share, and only ``fail_at_time`` can end it.
    stalled: bool = False
    #: Partial bytes of this request survive for HTTP range-resume.
    resumable: bool = False
    #: Bytes inherited from earlier failed attempts via range-resume;
    #: ``bits_done`` starts here, so only fresh bytes cross the wire.
    resumed_bits: float = 0.0
    #: 1-based try number of this chunk request (retries increment it).
    attempt: int = 1

    @property
    def remaining_bits(self) -> float:
        return self.size_bits - self.bits_done

    @property
    def finished(self) -> bool:
        # The tolerance must absorb absolute-time float cancellation:
        # crediting rate*(horizon - now) at large `now` loses ~1e-8 bits,
        # which on a tiny chunk is far more than size*1e-12. A millibit
        # is physically meaningless at any rate, so snap there.
        return self.remaining_bits <= max(self.size_bits * 1e-9, 1e-3)

    @property
    def failed(self) -> bool:
        return (
            self.fail_at_bits is not None
            and self.bits_done >= self.fail_at_bits - 1e-3
        )

    def failed_by(self, now: float) -> bool:
        """Has this request failed as of ``now``?

        Byte-triggered deaths fire on ``bits_done``; deadline kinds fire
        when the clock reaches ``fail_at_time`` — unless the transfer
        finished first (completion beats a watchdog kill on ties).
        """
        if self.failed:
            return True
        if self.fail_at_time is not None and now >= self.fail_at_time - _EPS:
            return not self.finished
        return False

    @property
    def next_target_bits(self) -> float:
        """Bits outstanding until the next terminal event (fail or done)."""
        if self.fail_at_bits is not None and self.fail_at_bits < self.size_bits:
            return max(0.0, self.fail_at_bits - self.bits_done)
        return self.remaining_bits


class _MediumLane:
    """Per-medium hot state: one slot, one wake-up, one completion count.

    The kernel historically kept these in ``MediaType``-keyed dicts,
    which put two enum hashes on every hot-path access; the lane object
    turns each into one attribute load.
    """

    __slots__ = ("medium", "completed", "active", "wake_at")

    def __init__(self, medium: MediaType):
        self.medium = medium
        #: Chunks fully downloaded (the buffered frontier is
        #: ``completed * chunk_duration_s``, always recomputed by
        #: multiplication so it cannot drift from accumulation error).
        self.completed = 0
        self.active: Optional[ActiveDownload] = None
        #: Next time the idle slot should re-ask the player (0.0 = now;
        #: ``inf`` = re-poll on every event).
        self.wake_at = 0.0


@dataclass
class SessionConfig:
    """Session-level playback policy knobs.

    Defaults approximate common player settings: begin playback after
    one chunk of both media is buffered; resume after a stall likewise.

    ``live_offset_s`` switches the session into *live* mode: chunk *i*
    of every track becomes requestable only at wall time
    ``i * chunk_duration + live_offset_s`` (the encoder/packager
    pipeline delay). The client therefore cannot prefetch beyond the
    live edge — buffers stay inherently shallow, which is exactly the
    regime where unbalanced audio/video downloading hurts most. ``None``
    (default) is VOD: everything is available immediately.
    """

    startup_threshold_s: Optional[float] = None  # default: one chunk
    resume_threshold_s: Optional[float] = None  # default: one chunk
    max_sim_time_s: Optional[float] = None  # default: 20x duration + 120
    max_events: int = 2_000_000
    live_offset_s: Optional[float] = None
    #: Transient-failure injection (see :mod:`repro.net.failures`).
    failure_model: Optional["FailureModel"] = None
    #: Retry/backoff/timeout behaviour for failed requests (see
    #: :mod:`repro.net.resilience`). ``None`` preserves the legacy
    #: semantics: the slot frees immediately, the player is re-asked
    #: with no delay, partial bytes are discarded, and a chunk failing
    #: ``MAX_FAILURES_PER_CHUNK`` times raises ``SimulationError``.
    retry_policy: Optional[RetryPolicy] = None
    #: Event-stream tap (see :class:`SessionObserver`); ``None`` (the
    #: default) records nothing and costs nothing.
    observer: Optional[SessionObserver] = None

    def __post_init__(self) -> None:
        if self.live_offset_s is not None and self.live_offset_s < 0:
            raise SimulationError(
                f"live_offset_s must be non-negative, got {self.live_offset_s}"
            )


class SessionContext:
    """The player's window into the session state.

    Players must base decisions only on what a real client can see:
    buffer levels, past download observations (delivered via
    ``on_chunk_complete``) and manifest data they were built with. The
    context deliberately does not expose future bandwidth or the true
    sizes of not-yet-fetched chunks.
    """

    def __init__(self, session: "Session"):
        self._session = session
        # Plain attributes, not properties: players read these on every
        # decision and both are immutable for the session's lifetime.
        self.chunk_duration_s = session.content.chunk_duration_s
        self.n_chunks = session.content.n_chunks
        # Direct references into the kernel state: the accessors below
        # sit on the player decision hot path, and each saved attribute
        # hop is measurable at tens of thousands of calls per session.
        self._playback = session.playback
        self._video = session._video
        self._audio = session._audio
        self._chunk_s = session._chunk_s
        self._fold = session._fold

    @property
    def now(self) -> float:
        return self._session.now

    @property
    def playback_state(self) -> PlaybackState:
        return self._playback.state

    @property
    def play_position_s(self) -> float:
        return self._playback.position_s

    def buffer_level_s(self, medium: MediaType) -> float:
        lane = self._video if medium is MediaType.VIDEO else self._audio
        level = lane.completed * self._chunk_s - self._playback.position_s
        return level if level > 0.0 else 0.0

    def completed_chunks(self, medium: MediaType) -> int:
        lane = self._video if medium is MediaType.VIDEO else self._audio
        return lane.completed

    def next_chunk_index(self, medium: MediaType) -> int:
        """Index of the chunk the medium would fetch next."""
        lane = self._video if medium is MediaType.VIDEO else self._audio
        return lane.completed + (1 if lane.active else 0)

    def in_flight(self, medium: MediaType) -> Optional[ActiveDownload]:
        return (self._video if medium is MediaType.VIDEO else self._audio).active

    @property
    def is_live(self) -> bool:
        return self._session.config.live_offset_s is not None

    def chunk_available_at(self, index: int) -> float:
        """Wall time at which chunk ``index`` becomes requestable."""
        return self._session.chunk_available_at(index)

    def live_edge_index(self) -> int:
        """Highest chunk index already published (n_chunks-1 for VOD)."""
        last = self._session.content.n_chunks - 1
        if not self.is_live:
            return last
        for index in range(last, -1, -1):
            if self.chunk_available_at(index) <= self.now + _EPS:
                return index
        return -1

    @property
    def retry_policy(self) -> Optional[RetryPolicy]:
        return self._session.config.retry_policy

    def retry_budget_remaining(self) -> Optional[int]:
        """Retries left in the session budget (``None`` = no policy).

        Cooperating players compare this against the policy's
        ``emergency_threshold()`` to decide when to stop gambling bytes
        on high rungs and fall back to the cheapest allowed combination.
        """
        policy = self._session.config.retry_policy
        if policy is None:
            return None
        return max(0, policy.retry_budget - self._session.retries_spent)

    def log_estimate(self, kbps: float) -> None:
        """Record a bandwidth-estimate reading for the result timeline."""
        self._fold.estimate(self._session.now, kbps)


class Session:
    """Simulate one streaming session to completion."""

    def __init__(
        self,
        content: Content,
        player: "BasePlayer",
        network: NetworkModel,
        config: Optional[SessionConfig] = None,
    ):
        self.content = content
        self.player = player
        self.network = network
        self.config = config or SessionConfig()

        chunk = content.chunk_duration_s
        startup = self.config.startup_threshold_s or chunk
        resume = self.config.resume_threshold_s or chunk
        #: Event-stream tap; cached off the config because the guard
        #: sits on the hot path of every loop iteration.
        self._observer = self.config.observer
        self._fold = ResultFold(
            content.duration_s,
            chunk,
            content.n_chunks,
            None if self._observer is None else self._observer.emit,
        )
        self.result = self._fold.result
        self.playback = PlaybackTracker(
            content_duration_s=content.duration_s,
            startup_threshold_s=startup,
            resume_threshold_s=resume,
            fold=self._fold,
        )
        self.now = 0.0
        self._chunk_s = chunk
        self._n_chunks = content.n_chunks
        self._video = _MediumLane(MediaType.VIDEO)
        self._audio = _MediumLane(MediaType.AUDIO)
        self._lanes = (self._video, self._audio)
        self._abort_counts: Dict[tuple, int] = {}
        #: Per-track medium memo: ``_start_download`` validates each
        #: chosen track id once instead of on every request.
        self._track_media: Dict[str, MediaType] = {}
        #: Retries spent against the policy's per-session budget.
        self.retries_spent = 0
        #: Range-resume stash per medium: (track_id, chunk_index, bits)
        #: surviving from the last resumable failure. Consumed (or
        #: discarded, if the player re-targets) by the next request.
        self._resume_stash: Dict[MediaType, Tuple[str, int, float]] = {}
        #: Degraded-termination reason; set ends the run loop cleanly.
        self._terminated: Optional[str] = None
        #: The player's window; ``None`` once :meth:`run` returns, since
        #: its back-reference to this session is a cycle that would
        #: leave every finished session to the cycle collector.
        self.ctx: Optional[SessionContext] = SessionContext(self)
        # Last emitted sample, for deduping coincident zero-dt events
        # that would otherwise sample twice at the identical instant.
        # The first sample is taken at t=0, with nothing buffered.
        self._ls_t = 0.0
        self._ls_v = 0.0
        self._ls_a = 0.0
        #: Does the player override ``consider_abort``? If not, the
        #: abort scan is provably a no-op and the loop skips it.
        from ..players.base import BasePlayer  # local: avoids import cycle

        self._player_may_abort = (
            getattr(type(player), "consider_abort", None)
            is not BasePlayer.consider_abort
        )

    # -- event stream ------------------------------------------------------

    def _meta_payload(self) -> Dict[str, object]:
        """The ``session_meta`` header: everything replay/QoE needs."""

        def tracks_of(ladder) -> List[Dict[str, object]]:
            out: List[Dict[str, object]] = []
            for track in ladder:
                entry: Dict[str, object] = {
                    "id": track.track_id,
                    "avg_kbps": track.avg_kbps,
                    "peak_kbps": track.peak_kbps,
                    "declared_kbps": track.declared_kbps,
                }
                if track.height is not None:
                    entry["height"] = track.height
                if track.channels is not None:
                    entry["channels"] = track.channels
                if track.sampling_khz is not None:
                    entry["sampling_khz"] = track.sampling_khz
                out.append(entry)
            return out

        return {
            "content": {
                "name": self.content.name,
                "duration_s": self.content.duration_s,
                "chunk_duration_s": self.content.chunk_duration_s,
                "n_chunks": self.content.n_chunks,
                "video": tracks_of(self.content.video),
                "audio": tracks_of(self.content.audio),
            },
            "player": getattr(self.player, "name", type(self.player).__name__),
            "rtt_s": self.network.rtt_s,
            "config": {
                "startup_threshold_s": self.playback.startup_threshold_s,
                "resume_threshold_s": self.playback.resume_threshold_s,
                "live_offset_s": self.config.live_offset_s,
            },
        }

    # -- state helpers ----------------------------------------------------

    def chunk_available_at(self, index: int) -> float:
        """Wall time at which chunk ``index`` becomes requestable."""
        if self.config.live_offset_s is None:
            return 0.0
        return index * self.content.chunk_duration_s + self.config.live_offset_s

    # -- scheduling --------------------------------------------------------

    def _fill_slots(self) -> None:
        n_chunks = self._n_chunks
        deadline = self.now + _EPS
        vod = self.config.live_offset_s is None
        choose_next = self.player.choose_next
        ctx = self.ctx
        for lane in self._lanes:
            if lane.active is not None or lane.completed >= n_chunks:
                continue
            wake = lane.wake_at
            # A finite wake time is a timed wait; an infinite one means
            # "re-poll on every event", so it never blocks this pass.
            if wake != _INF and wake > deadline:
                continue
            # Live mode: the next chunk may not exist yet; sleep until
            # the packager publishes it. This is session policy, not a
            # player decision — a real client simply sees the segment
            # missing from the refreshed manifest.
            if not vod:
                available_at = self.chunk_available_at(lane.completed)
                if available_at > deadline:
                    lane.wake_at = available_at
                    continue
            medium = lane.medium
            decision = choose_next(medium, ctx)
            if isinstance(decision, Download):
                if self._observer is not None:
                    self._observer.emit(
                        "decision",
                        {
                            "t": self.now,
                            "medium": medium.value,
                            "action": "download",
                            "track_id": decision.track_id,
                        },
                    )
                self._start_download(lane, decision.track_id)
            elif isinstance(decision, Wait):
                if decision.until <= deadline and math.isfinite(decision.until):
                    raise PlayerError(
                        f"player waited until the past/present "
                        f"({decision.until} <= {self.now})"
                    )
                if self._observer is not None:
                    self._observer.emit(
                        "decision",
                        {
                            "t": self.now,
                            "medium": medium.value,
                            "action": "wait",
                            "until": decision.until,
                        },
                    )
                lane.wake_at = decision.until
            else:
                raise PlayerError(
                    f"choose_next must return Download or Wait, got {decision!r}"
                )

    def _start_download(self, lane: _MediumLane, track_id: str) -> None:
        medium = lane.medium
        # Track identity/medium never changes mid-session; validate each
        # track id once and remember its medium.
        media_type = self._track_media.get(track_id)
        if media_type is None:
            media_type = self.content.track(track_id).media_type
            self._track_media[track_id] = media_type
        if media_type is not medium:
            raise PlayerError(
                f"player chose {track_id!r} ({media_type}) for {medium}"
            )
        index = lane.completed
        chunk = self.content.chunk(track_id, index)
        now = self.now
        # Consume the range-resume stash: bytes survive only into a
        # request for the *same* resource. A player that re-targets
        # (downshifts) after the failure implicitly wastes them.
        resumed = 0.0
        if self._resume_stash:
            stash = self._resume_stash.pop(medium, None)
            if stash is not None and stash[0] == track_id and stash[1] == index:
                resumed = min(stash[2], chunk.size_bits)
        fail_at_bits: Optional[float] = None
        fail_at_time: Optional[float] = None
        fail_kind: Optional[FailureKind] = None
        stalled = False
        resumable = False
        if self.config.failure_model is not None:
            policy = self.config.retry_policy
            timeout = (
                policy.timeout_for(medium)
                if policy is not None
                else DEFAULT_REQUEST_TIMEOUT_S
            )
            verdict = self.config.failure_model.next_request()
            if verdict is not None:
                fail_kind = verdict.kind or FailureKind.CONNECTION_RESET
                resumable = verdict.resumable
                if fail_kind is FailureKind.TIMEOUT:
                    # Hung connection: no bytes, watchdog fires.
                    stalled = True
                    fail_at_time = now + timeout
                elif fail_kind in (FailureKind.HTTP_5XX, FailureKind.HTTP_404):
                    # Error response arrives at response time; no payload.
                    stalled = True
                    fail_at_time = now + self.network.rtt_s
                elif fail_kind is FailureKind.SLOW_TRANSFER:
                    # Bytes flow; the watchdog kills whatever is unfinished.
                    fail_at_time = now + timeout
                else:  # CONNECTION_RESET, incl. the legacy anonymous death
                    fail_at_bits = resumed + verdict.fraction * (
                        chunk.size_bits - resumed
                    )
        attempt = (
            self._abort_counts.get(("fail", medium, index), 0) + 1
            if self._abort_counts
            else 1
        )
        segments = self._fold.download_start(
            now, medium, track_id, index, chunk.size_bits, attempt, resumed
        )
        # Positional, in field order (hot path: one per chunk request).
        lane.active = ActiveDownload(
            medium,
            track_id,
            index,
            chunk.size_bits,
            now,
            now + self.network.rtt_s,
            resumed,
            segments,
            fail_at_bits,
            fail_kind,
            fail_at_time,
            stalled,
            resumable,
            resumed,
            attempt,
        )
        lane.wake_at = 0.0
        self.player.on_chunk_start(medium, track_id, index, self.ctx)

    #: More consecutive failures than this on one chunk indicates a
    #: pathological failure model rather than transient weather.
    MAX_FAILURES_PER_CHUNK = 32

    def _terminate(self, reason: str) -> None:
        """End the session gracefully (degraded), keeping the result."""
        if self._terminated is None:
            self._terminated = reason

    def _process_failures(self) -> None:
        policy = self.config.retry_policy
        for lane in self._lanes:
            download = lane.active
            if download is None or not download.failed_by(self.now):
                continue
            medium = lane.medium
            lane.active = None
            lane.wake_at = 0.0
            index = download.chunk_index
            key = ("fail", medium, index)
            self._abort_counts[key] = self._abort_counts.get(key, 0) + 1
            if (
                policy is None
                and self._abort_counts[key] > self.MAX_FAILURES_PER_CHUNK
            ):
                raise SimulationError(
                    f"{medium} chunk {index} failed "
                    f"{self.MAX_FAILURES_PER_CHUNK}+ times; failure model "
                    "leaves the session unable to progress"
                )
            kind = download.fail_kind or FailureKind.CONNECTION_RESET
            attempt = download.attempt
            # Fresh wire bytes of this attempt only; inherited resume
            # bytes belong to the earlier attempts' records.
            fresh_bits = max(0.0, download.bits_done - download.resumed_bits)
            stash = (
                policy is not None
                and download.resumable
                and download.bits_done > _EPS
            )
            retry_at: Optional[float] = None
            if policy is not None:
                if attempt >= policy.max_attempts:
                    stash = False
                    if self.ctx.is_live and policy.live_skip:
                        # Preserve liveness: give the chunk up and move
                        # on — the real player plays through the gap.
                        lane.completed += 1
                        self._fold.skip(
                            self.now, medium, download.track_id, index, attempt
                        )
                    else:
                        self._terminate("attempts_exhausted")
                elif self.retries_spent >= policy.retry_budget:
                    stash = False
                    self._terminate("retry_budget_exhausted")
                else:
                    self.retries_spent += 1
                    retry_at = self.now + policy.delay_s(
                        attempt + 1, medium, index
                    )
                    lane.wake_at = retry_at
            if stash:
                self._resume_stash[medium] = (
                    download.track_id,
                    index,
                    download.bits_done,
                )
            record = self._fold.failure(
                self.now,
                medium,
                download.track_id,
                index,
                fresh_bits,
                kind.value,
                attempt,
                stash,
                retry_at,
            )
            if self._observer is not None and retry_at is not None:
                self._observer.emit(
                    "retry",
                    {
                        "t": self.now,
                        "medium": medium.value,
                        "chunk_index": index,
                        "attempt": attempt + 1,
                        "at": retry_at,
                    },
                )
            self.player.on_failure(medium, record, self.ctx)

    def _complete(self, lane: _MediumLane, download: ActiveDownload) -> None:
        """Book one finished download (caller checked ``finished``)."""
        medium = lane.medium
        lane.active = None
        lane.completed += 1
        record = self._fold.download_complete(
            self.now,
            medium,
            download.track_id,
            download.chunk_index,
            download.size_bits,
            download.started_at,
            download.resumed_bits,
        )
        self.player.on_chunk_complete(record, self.ctx)

    #: Re-requesting the same chunk more than this many times after
    #: aborting it indicates a player abort-loop bug.
    MAX_ABORTS_PER_CHUNK = 8

    def _check_aborts(self) -> None:
        for lane in self._lanes:
            download = lane.active
            if download is None or download.finished:
                continue
            medium = lane.medium
            if not self.player.consider_abort(medium, download, self.ctx):
                continue
            key = (medium, download.chunk_index)
            self._abort_counts[key] = self._abort_counts.get(key, 0) + 1
            if self._abort_counts[key] > self.MAX_ABORTS_PER_CHUNK:
                raise PlayerError(
                    f"player aborted {medium} chunk {download.chunk_index} "
                    f"more than {self.MAX_ABORTS_PER_CHUNK} times"
                )
            lane.active = None
            lane.wake_at = 0.0
            self._fold.download_abort(
                self.now,
                medium,
                download.track_id,
                download.chunk_index,
                download.bits_done,
                download.size_bits,
            )

    # -- main loop ----------------------------------------------------------

    #: Identical zero-length event repetitions tolerated before the
    #: stuck-clock guard declares the schedule wedged. Coincident events
    #: legitimately produce short zero-dt runs *with* state changes;
    #: only a run with bit-identical kernel state is hopeless.
    MAX_STUCK_EVENTS = 64

    def run(self) -> SessionResult:
        config = self.config
        content = self.content
        playback = self.playback
        network = self.network
        player = self.player
        observer = self._observer
        fold = self._fold
        video = self._video
        audio = self._audio
        chunk_s = self._chunk_s
        n_chunks = content.n_chunks
        max_time = config.max_sim_time_s or (content.duration_s * 20.0 + 120.0)
        failures_possible = config.failure_model is not None
        may_abort = self._player_may_abort
        events_left = config.max_events
        update_state = playback.update_state
        ended_state = PlaybackState.ENDED
        playing_state = PlaybackState.PLAYING
        # Unobserved, the hottest kinds skip the fold's methods and
        # append straight to the result's columns (no payload to build).
        bt_t = fold.result.buffer_t
        bt_v = fold.result.buffer_v
        bt_a = fold.result.buffer_a
        # The loop tail runs update_state with arguments that cannot
        # change before the next iteration's head; this flag elides the
        # duplicate head call (update_state is idempotent on identical
        # arguments, so eliding it is exact).
        state_fresh = False
        # Stuck-clock guard state: fingerprint of the kernel state at
        # the last zero-dt event and the length of the identical run.
        stuck_fp: Optional[tuple] = None
        stuck_streak = 0

        if observer is not None:
            # The header must precede every other event: estimates can
            # flow as early as on_session_start.
            self._observer.emit("session_meta", self._meta_payload())
        try:
            player.on_session_start(self.ctx)
            fold.buffer_sample(0.0, 0.0, 0.0)
            while True:
                if events_left == 0:
                    raise SimulationError(
                        f"event cap ({config.max_events}) exceeded "
                        f"at t={self.now}"
                    )
                fv = video.completed * chunk_s
                fa = audio.completed * chunk_s
                frontier = fv if fv <= fa else fa
                all_downloaded = (
                    video.completed >= n_chunks and audio.completed >= n_chunks
                )
                if not state_fresh:
                    update_state(self.now, frontier, all_downloaded)
                state = playback.state
                if state is ended_state:
                    break
                now = self.now
                if (
                    video.active is None
                    and video.completed < n_chunks
                    and (video.wake_at == _INF or video.wake_at <= now + _EPS)
                ) or (
                    audio.active is None
                    and audio.completed < n_chunks
                    and (audio.wake_at == _INF or audio.wake_at <= now + _EPS)
                ):
                    self._fill_slots()
                    state = playback.state  # unchanged; re-read for clarity
                # Fast-forward is admissible only while every lane is
                # *engaged* — downloading, finished, or in a timed wait.
                # An idle lane with an infinite wake means "re-ask the
                # player at every event", which fast-forward would skip.
                ff_ok = not may_abort and (
                    video.active is not None
                    or video.completed >= n_chunks
                    or video.wake_at != _INF
                ) and (
                    audio.active is not None
                    or audio.completed >= n_chunks
                    or audio.wake_at != _INF
                )
                playing = state is playing_state
                # Event micro-loop: the first pass is the ordinary
                # event step; further passes collapse runs of *quiet*
                # events (trace boundaries, dead-time expiries) that
                # need none of the scheduling machinery above. Each
                # pass consumes one unit of the event budget and emits
                # exactly the stream the plain loop would.
                while True:
                    events_left -= 1
                    vdl = video.active
                    adl = audio.active
                    v_live = (
                        vdl is not None
                        and not vdl.stalled
                        and now >= vdl.dead_until - _EPS
                    )
                    a_live = (
                        adl is not None
                        and not adl.stalled
                        and now >= adl.dead_until - _EPS
                    )
                    # Quiet bound: rate-change instants (trace boundary,
                    # dead-time expiry) — nothing terminal happens there.
                    if v_live or a_live:
                        v_rate, a_rate, quiet = network.media_step(
                            v_live, a_live, now
                        )
                    else:
                        v_rate = a_rate = 0.0
                        quiet = network.next_change_after(now)
                    # Loud bound: every event that needs the full outer
                    # machinery (completion, failure, wake-up, frontier).
                    loud = _INF
                    if vdl is None:
                        w = video.wake_at
                        if w > now + _EPS and w < loud:
                            loud = w
                    else:
                        ft = vdl.fail_at_time
                        if ft is not None and ft < loud:
                            loud = ft
                        if not vdl.stalled:
                            if now < vdl.dead_until - _EPS:
                                if vdl.dead_until < quiet:
                                    quiet = vdl.dead_until
                            elif v_rate > 0:
                                c = now + vdl.next_target_bits / (v_rate * 1000.0)
                                if c < loud:
                                    loud = c
                    if adl is None:
                        w = audio.wake_at
                        if w > now + _EPS and w < loud:
                            loud = w
                    else:
                        ft = adl.fail_at_time
                        if ft is not None and ft < loud:
                            loud = ft
                        if not adl.stalled:
                            if now < adl.dead_until - _EPS:
                                if adl.dead_until < quiet:
                                    quiet = adl.dead_until
                            elif a_rate > 0:
                                c = now + adl.next_target_bits / (a_rate * 1000.0)
                                if c < loud:
                                    loud = c
                    if playing:
                        gap = frontier - playback.position_s
                        c = now + (gap if gap > 0.0 else 0.0)
                        if c < loud:
                            loud = c
                    is_quiet = quiet < loud
                    horizon = quiet if is_quiet else loud
                    if not horizon < _INF:
                        raise SimulationError(
                            "deadlock: no future event (all media waiting "
                            f"forever while playback is {playback.state})"
                        )
                    if horizon < now:
                        horizon = now
                    if horizon > max_time:
                        self.now = now
                        return self._finish()
                    # Progress guard: simultaneous events legitimately
                    # yield zero-length steps, but a run of them with
                    # *no kernel state change at all* means the event
                    # schedule is wedged (e.g. a network model whose
                    # next_change_after is not strictly in the future).
                    if horizon <= now + _EPS:
                        fp = (
                            now,
                            video.completed,
                            audio.completed,
                            None
                            if vdl is None
                            else (vdl.chunk_index, vdl.attempt, vdl.bits_done),
                            None
                            if adl is None
                            else (adl.chunk_index, adl.attempt, adl.bits_done),
                            video.wake_at,
                            audio.wake_at,
                            playback.state,
                            playback.position_s,
                            self.retries_spent,
                        )
                        if fp == stuck_fp:
                            stuck_streak += 1
                            if stuck_streak >= self.MAX_STUCK_EVENTS:
                                raise SimulationError(
                                    f"simulation clock stuck at t={now}: "
                                    f"{stuck_streak} consecutive zero-length "
                                    "events with identical kernel state "
                                    f"(playback={playback.state.value} "
                                    f"pos={playback.position_s}, video: "
                                    f"completed={video.completed} "
                                    f"active={vdl is not None} "
                                    f"wake={video.wake_at}, audio: "
                                    f"completed={audio.completed} "
                                    f"active={adl is not None} "
                                    f"wake={audio.wake_at})"
                                )
                        else:
                            stuck_fp = fp
                            stuck_streak = 1
                    else:
                        stuck_fp = None
                        stuck_streak = 0
                    # Advance every live transfer at its constant rate.
                    dt = horizon - now
                    if dt < -1e-6:
                        raise SimulationError(
                            f"time went backwards: {now} -> {horizon}"
                        )
                    if dt > 0.0:
                        if v_live and v_rate > 0:
                            bits = v_rate * 1000.0 * dt
                            rem = vdl.size_bits - vdl.bits_done
                            if rem < bits:
                                bits = rem
                            vdl.bits_done += bits
                            if observer is None:
                                vdl.segments.append(
                                    ProgressSegment(now, horizon, bits)
                                )
                            else:
                                fold.download_progress(
                                    now, horizon, _VIDEO, bits
                                )
                        if a_live and a_rate > 0:
                            bits = a_rate * 1000.0 * dt
                            rem = adl.size_bits - adl.bits_done
                            if rem < bits:
                                bits = rem
                            adl.bits_done += bits
                            if observer is None:
                                adl.segments.append(
                                    ProgressSegment(now, horizon, bits)
                                )
                            else:
                                fold.download_progress(
                                    now, horizon, _AUDIO, bits
                                )
                        if playing:
                            new_position = playback.position_s + dt
                            if new_position > frontier + 1e-6:
                                raise SimulationError(
                                    "playback overshot buffered frontier: "
                                    f"{new_position} > {frontier}"
                                )
                            playback.position_s = (
                                new_position
                                if new_position <= frontier
                                else frontier
                            )
                    now = horizon
                    self.now = horizon
                    if not (is_quiet and ff_ok):
                        break
                    # A quiet step can still land inside the epsilon
                    # window of a loud deadline: a wake-up now due, a
                    # transfer within completion tolerance, a failure
                    # watchdog within _EPS, or a playback transition
                    # (stall at the frontier, end of content). The
                    # plain loop would act on those *this instant*, so
                    # fall back to the outer machinery — it re-derives
                    # the same state and applies the action exactly as
                    # the plain loop does.
                    if vdl is not None:
                        if vdl.finished or vdl.failed_by(now):
                            break
                    elif (
                        video.completed < n_chunks
                        and video.wake_at <= now + _EPS
                    ):
                        break
                    if adl is not None:
                        if adl.finished or adl.failed_by(now):
                            break
                    elif (
                        audio.completed < n_chunks
                        and audio.wake_at <= now + _EPS
                    ):
                        break
                    if playing:
                        position = playback.position_s
                        if position >= content.duration_s - _EPS or (
                            position >= frontier - _EPS and not all_downloaded
                        ):
                            break
                    # Quiet event: no completion, failure, wake-up or
                    # transition is possible here, so the outer pass
                    # (fill_slots/update_state/failure scan) is a
                    # provable no-op. Sample (inline — this is the
                    # hottest line of trace-dense sessions) and take
                    # the next event directly.
                    pos = playback.position_s
                    video_s = video.completed * chunk_s - pos
                    if not video_s > 0.0:
                        video_s = 0.0
                    audio_s = audio.completed * chunk_s - pos
                    if not audio_s > 0.0:
                        audio_s = 0.0
                    if not (
                        now == self._ls_t
                        and video_s == self._ls_v
                        and audio_s == self._ls_a
                    ):
                        self._ls_t = now
                        self._ls_v = video_s
                        self._ls_a = audio_s
                        if observer is None:
                            bt_t.append(now)
                            bt_v.append(video_s)
                            bt_a.append(audio_s)
                        else:
                            fold.buffer_sample(now, video_s, audio_s)
                    if events_left == 0:
                        raise SimulationError(
                            f"event cap ({config.max_events}) exceeded "
                            f"at t={self.now}"
                        )
                # Loud event: run the full bookkeeping.
                if failures_possible:
                    self._process_failures()
                vdl = video.active
                if vdl is not None:
                    rem = vdl.size_bits - vdl.bits_done
                    tol = vdl.size_bits * 1e-9
                    if rem <= (tol if tol > 1e-3 else 1e-3) and not vdl.failed:
                        self._complete(video, vdl)
                adl = audio.active
                if adl is not None:
                    rem = adl.size_bits - adl.bits_done
                    tol = adl.size_bits * 1e-9
                    if rem <= (tol if tol > 1e-3 else 1e-3) and not adl.failed:
                        self._complete(audio, adl)
                if may_abort:
                    self._check_aborts()
                fv = video.completed * chunk_s
                fa = audio.completed * chunk_s
                frontier = fv if fv <= fa else fa
                all_downloaded = (
                    video.completed >= n_chunks and audio.completed >= n_chunks
                )
                update_state(self.now, frontier, all_downloaded)
                state_fresh = True
                # Sample the buffers. Coincident zero-dt events would
                # sample the identical instant twice; keep one. Only
                # *fully identical* consecutive samples are dropped,
                # which leaves the max and the time-weighted mean
                # imbalance bit-for-bit unchanged (the dropped interval
                # has zero width and equal values).
                now = self.now
                pos = playback.position_s
                video_s = video.completed * chunk_s - pos
                if not video_s > 0.0:
                    video_s = 0.0
                audio_s = audio.completed * chunk_s - pos
                if not audio_s > 0.0:
                    audio_s = 0.0
                if (
                    now != self._ls_t
                    or video_s != self._ls_v
                    or audio_s != self._ls_a
                ):
                    self._ls_t = now
                    self._ls_v = video_s
                    self._ls_a = audio_s
                    if observer is None:
                        bt_t.append(now)
                        bt_v.append(video_s)
                        bt_a.append(audio_s)
                    else:
                        fold.buffer_sample(now, video_s, audio_s)
                if self._terminated is not None:
                    break  # graceful degraded end: keep the result intact
            return self._finish()
        finally:
            self.ctx = None

    def _finish(self) -> SessionResult:
        """Fold the session's end after the event loop stops."""
        self.playback.close(self.now)  # may fold a final stall_end
        self._fold.verdict(
            self.now,
            self.playback.state is PlaybackState.ENDED,
            self.result.startup_delay_s,
            self._terminated,
        )
        self.player.on_session_end(self.ctx)
        if self._observer is not None:
            self._observer.close()
        return self.result


def simulate(
    content: Content,
    player: "BasePlayer",
    network: NetworkModel,
    config: Optional[SessionConfig] = None,
) -> SessionResult:
    """Convenience wrapper: build a session and run it to completion."""
    return Session(content, player, network, config).run()
