"""Result records produced by a simulated streaming session."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..media.tracks import MediaType

_AUDIO = MediaType.AUDIO
_VIDEO = MediaType.VIDEO


def _reduce_by_fields(record):
    """Pickle a record as its class and its field values, in order.

    Loading calls the class with those values, so a record costs one
    tuple in the pickle and one constructor call to load. The
    dataclass-made ``__getstate__`` goes through ``fields()`` and a
    Python loop per record, which dominated pickling a session's
    ~1,500 records. Entries pickled that way still load: the frozen
    classes keep their ``__setstate__``.
    """
    cls = type(record)
    return cls, cls._field_values(record)


def _pickled_by_fields(cls):
    """Class decorator: pickle instances through :func:`_reduce_by_fields`."""
    cls._field_values = attrgetter(*(field.name for field in fields(cls)))
    cls.__reduce__ = _reduce_by_fields
    return cls


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class ProgressSegment:
    """Bits received by one download over one constant-rate interval."""

    start_s: float
    end_s: float
    bits: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class DownloadRecord:
    """One completed chunk download.

    ``resumed_bits`` is the portion of ``size_bits`` inherited from
    failed attempts via HTTP range-resume (bytes that crossed the wire
    during an earlier attempt and were not re-fetched); the progress
    ``segments`` cover only the final attempt's ``size_bits -
    resumed_bits`` fresh bytes.
    """

    medium: MediaType
    track_id: str
    chunk_index: int
    size_bits: float
    started_at: float
    completed_at: float
    segments: Tuple[ProgressSegment, ...] = ()
    resumed_bits: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.completed_at - self.started_at

    @property
    def throughput_kbps(self) -> float:
        """Observed throughput over the whole request (incl. dead time)."""
        if self.duration_s <= 0:
            return math.inf
        return self.size_bits / self.duration_s / 1000.0


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class AbortRecord:
    """An in-flight download the player abandoned."""

    medium: MediaType
    track_id: str
    chunk_index: int
    aborted_at: float
    bits_done: float
    size_bits: float

    @property
    def wasted_fraction(self) -> float:
        """Fraction of the chunk that was fetched and thrown away."""
        return self.bits_done / self.size_bits if self.size_bits else 0.0


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class FailureRecord:
    """One failed request attempt.

    ``bits_done`` counts only the bytes *this attempt* pulled over the
    wire (a resumed attempt's inherited bytes belong to the earlier
    attempt's record), so summing failure records never double-counts
    transferred data. ``kind`` is the taxonomy label (a
    :class:`~repro.net.resilience.FailureKind` value;
    ``"connection_reset"`` for the legacy anonymous death),
    ``attempt`` numbers the tries of this chunk request (1 = first),
    ``resumable`` marks partial bytes stashed for HTTP range-resume,
    and ``retry_at`` is the backoff-scheduled dispatch time of the next
    attempt (``None`` when no retry follows — legacy immediate re-ask,
    terminal failure, or budget exhaustion).
    """

    medium: MediaType
    track_id: str
    chunk_index: int
    failed_at: float
    bits_done: float
    kind: str = "connection_reset"
    attempt: int = 1
    resumable: bool = False
    retry_at: Optional[float] = None


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class SkipRecord:
    """A live chunk skipped to preserve liveness after attempts ran out."""

    medium: MediaType
    track_id: str
    chunk_index: int
    skipped_at: float
    attempts: int


@_pickled_by_fields
@dataclass(slots=True)
class StallEvent:
    """One rebuffering interval (shaded regions of the paper's Fig. 3)."""

    start_s: float
    end_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class BufferSample:
    """Buffer levels (seconds of content) at one instant."""

    t: float
    video_level_s: float
    audio_level_s: float


@_pickled_by_fields
@dataclass(frozen=True, slots=True)
class EstimateSample:
    """A bandwidth-estimate reading logged by the player."""

    t: float
    kbps: float


class SessionResult:
    """Everything observed during one simulated session.

    The accessors mirror what the paper plots: selected tracks over time
    (Figs. 2/3a/4/5a), buffer levels over time (Figs. 3b/5b), bandwidth
    estimates (Fig. 4), stalls and rebuffering totals.

    The buffer timeline, a sample per kernel event, is kept as three
    float columns: :attr:`buffer_t` (time), :attr:`buffer_v` and
    :attr:`buffer_a` (video and audio levels, seconds of content).
    :attr:`buffer_timeline` builds :class:`BufferSample` records from
    them on demand.
    """

    def __init__(
        self,
        content_duration_s: float,
        chunk_duration_s: float,
        n_chunks: int,
    ):
        self.content_duration_s = content_duration_s
        self.chunk_duration_s = chunk_duration_s
        self.n_chunks = n_chunks
        self.downloads: List[DownloadRecord] = []
        self.aborts: List[AbortRecord] = []
        self.failures: List[FailureRecord] = []
        self.skips: List[SkipRecord] = []
        self.stalls: List[StallEvent] = []
        self.buffer_t: List[float] = []
        self.buffer_v: List[float] = []
        self.buffer_a: List[float] = []
        self.estimate_timeline: List[EstimateSample] = []
        self.startup_delay_s: Optional[float] = None
        self.ended_at_s: Optional[float] = None
        self.completed = False
        #: Why the session ended early under degradation (retry budget
        #: exhausted, attempts exhausted); ``None`` for a normal end.
        self.termination_reason: Optional[str] = None

    def __setstate__(self, state: Dict[str, object]) -> None:
        # A result pickled before the buffer columns holds a list of
        # BufferSample records in their place; fields keep their order.
        for name, value in state.items():
            if name == "buffer_timeline":
                self.buffer_t = [sample.t for sample in value]
                self.buffer_v = [sample.video_level_s for sample in value]
                self.buffer_a = [sample.audio_level_s for sample in value]
            else:
                setattr(self, name, value)

    @property
    def buffer_timeline(self) -> List[BufferSample]:
        """The buffer columns as :class:`BufferSample` records, built per call."""
        return list(map(BufferSample, self.buffer_t, self.buffer_v, self.buffer_a))

    @property
    def wasted_bits(self) -> float:
        """Bytes fetched for chunks that were later abandoned."""
        return sum(a.bits_done for a in self.aborts)

    # -- failure/retry/resume accounting ---------------------------------

    @property
    def n_retries(self) -> int:
        """Failed attempts that scheduled a backoff retry."""
        return sum(1 for f in self.failures if f.retry_at is not None)

    @property
    def bits_played(self) -> float:
        """Bits that entered the buffer (completed chunk downloads)."""
        return sum(d.size_bits for d in self.downloads)

    @property
    def bits_resumed(self) -> float:
        """Failure bytes salvaged by range-resume into completed chunks."""
        return sum(d.resumed_bits for d in self.downloads)

    @property
    def bits_wasted(self) -> float:
        """Bytes transferred but never played.

        Failed-attempt bytes that no later download resumed, plus
        player-abandoned partials.
        """
        failure_bits = sum(f.bits_done for f in self.failures)
        abort_bits = sum(a.bits_done for a in self.aborts)
        return failure_bits - self.bits_resumed + abort_bits

    @property
    def bits_served(self) -> float:
        """Gross per-request accounting: every request's received bits.

        Resumed bytes appear both in the failure record that fetched
        them and in the download that consumed them, which is exactly
        what makes the ledger close: ``bits_served == bits_played +
        bits_wasted + bits_resumed``.
        """
        failure_bits = sum(f.bits_done for f in self.failures)
        abort_bits = sum(a.bits_done for a in self.aborts)
        return self.bits_played + failure_bits + abort_bits

    def byte_accounting(self) -> Dict[str, float]:
        """The reconciliation ledger; ``reconciles`` is the invariant."""
        served = self.bits_served
        played = self.bits_played
        wasted = self.bits_wasted
        resumed = self.bits_resumed
        return {
            "bits_served": served,
            "bits_played": played,
            "bits_wasted": wasted,
            "bits_resumed": resumed,
            "reconciles": math.isclose(
                served, played + wasted + resumed, rel_tol=1e-9, abs_tol=1e-3
            ),
        }

    def failures_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for failure in self.failures:
            kind = getattr(failure.kind, "value", failure.kind)
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def retry_schedule(self) -> List[Tuple]:
        """The full failure/retry timeline, for determinism comparisons.

        Two sessions with identical seeds and configs must produce
        identical schedules, element for element.
        """
        return [
            (
                f.medium.value,
                f.chunk_index,
                f.attempt,
                getattr(f.kind, "value", f.kind),
                round(f.failed_at, 9),
                None if f.retry_at is None else round(f.retry_at, 9),
            )
            for f in self.failures
        ]

    # -- stalls ----------------------------------------------------------

    @property
    def n_stalls(self) -> int:
        return len(self.stalls)

    @property
    def total_rebuffer_s(self) -> float:
        return sum(s.duration_s for s in self.stalls)

    # -- selections ------------------------------------------------------

    def downloads_of(self, medium: MediaType) -> List[DownloadRecord]:
        return [d for d in self.downloads if d.medium is medium]

    def track_for(self, medium: MediaType, chunk_index: int) -> Optional[str]:
        for record in self.downloads:
            if record.medium is medium and record.chunk_index == chunk_index:
                return record.track_id
        return None

    def selected_combinations(self) -> List[Tuple[int, Optional[str], Optional[str]]]:
        """Per chunk position: (index, video track, audio track).

        Each track is :meth:`track_for`'s: the first download of that
        medium and position, found in one pass over the downloads.
        """
        first: Dict[Tuple[MediaType, int], str] = {}
        for record in self.downloads:
            first.setdefault((record.medium, record.chunk_index), record.track_id)
        return [
            (index, first.get((_VIDEO, index)), first.get((_AUDIO, index)))
            for index in range(self.n_chunks)
        ]

    def combination_names(self) -> List[str]:
        """Paper-style combination names per downloaded position."""
        names = []
        for _, video_id, audio_id in self.selected_combinations():
            if video_id is not None and audio_id is not None:
                names.append(f"{video_id}+{audio_id}")
        return names

    def distinct_combinations(self) -> List[str]:
        """Distinct combinations in order of first use."""
        seen: List[str] = []
        for name in self.combination_names():
            if name not in seen:
                seen.append(name)
        return seen

    def track_usage(self, medium: MediaType) -> Dict[str, int]:
        """How many chunks used each track."""
        usage: Dict[str, int] = {}
        for record in self.downloads_of(medium):
            usage[record.track_id] = usage.get(record.track_id, 0) + 1
        return usage

    def switch_count(self, medium: MediaType) -> int:
        """Number of track changes between consecutive positions."""
        records = sorted(self.downloads_of(medium), key=lambda r: r.chunk_index)
        switches = 0
        for previous, current in zip(records, records[1:]):
            if previous.track_id != current.track_id:
                switches += 1
        return switches

    # -- buffers ---------------------------------------------------------

    def _imbalances_s(self) -> List[float]:
        """|video - audio| buffer level per sample (Fig. 5(b))."""
        return [abs(v - a) for v, a in zip(self.buffer_v, self.buffer_a)]

    def max_buffer_imbalance_s(self) -> float:
        if not self.buffer_t:
            return 0.0
        return max(self._imbalances_s())

    def mean_buffer_imbalance_s(self) -> float:
        """Time-weighted mean |audio - video| buffer difference."""
        times = self.buffer_t
        if len(times) < 2:
            return 0.0
        imbalances = self._imbalances_s()
        total = 0.0
        span = times[-1] - times[0]
        if span <= 0:
            return imbalances[-1]
        for imbalance, t0, t1 in zip(imbalances, times, times[1:]):
            total += imbalance * (t1 - t0)
        return total / span

    # -- summary ---------------------------------------------------------

    def time_weighted_bitrate_kbps(self, medium: MediaType) -> float:
        """Mean encoded bitrate of the *selected* tracks, per chunk."""
        records = self.downloads_of(medium)
        if not records:
            return 0.0
        return sum(r.size_bits for r in records) / (
            len(records) * self.chunk_duration_s * 1000.0
        )

    def to_dict(self, include_timelines: bool = True) -> Dict[str, object]:
        """JSON-serializable dump of the whole session.

        Enables external analysis (pandas, notebooks) without importing
        the library: every download, stall, abort, failure, buffer
        sample and estimate reading, plus the summary.
        """
        data: Dict[str, object] = {
            "content_duration_s": self.content_duration_s,
            "chunk_duration_s": self.chunk_duration_s,
            "n_chunks": self.n_chunks,
            "summary": self.summary(),
            "downloads": [
                {
                    "medium": record.medium.value,
                    "track_id": record.track_id,
                    "chunk_index": record.chunk_index,
                    "size_bits": record.size_bits,
                    "started_at": record.started_at,
                    "completed_at": record.completed_at,
                    "throughput_kbps": record.throughput_kbps,
                }
                for record in self.downloads
            ],
            "stalls": [
                {"start_s": stall.start_s, "end_s": stall.end_s}
                for stall in self.stalls
            ],
            "aborts": [
                {
                    "medium": abort.medium.value,
                    "track_id": abort.track_id,
                    "chunk_index": abort.chunk_index,
                    "aborted_at": abort.aborted_at,
                    "bits_done": abort.bits_done,
                }
                for abort in self.aborts
            ],
            "failures": [
                {
                    "medium": failure.medium.value,
                    "track_id": failure.track_id,
                    "chunk_index": failure.chunk_index,
                    "failed_at": failure.failed_at,
                    "bits_done": failure.bits_done,
                    "kind": getattr(failure.kind, "value", failure.kind),
                    "attempt": failure.attempt,
                    "resumable": failure.resumable,
                    "retry_at": failure.retry_at,
                }
                for failure in self.failures
            ],
            "skips": [
                {
                    "medium": skip.medium.value,
                    "track_id": skip.track_id,
                    "chunk_index": skip.chunk_index,
                    "skipped_at": skip.skipped_at,
                    "attempts": skip.attempts,
                }
                for skip in self.skips
            ],
            "byte_accounting": self.byte_accounting(),
            "termination_reason": self.termination_reason,
        }
        if include_timelines:
            data["buffer_timeline"] = [
                {"t": t, "video_level_s": video_s, "audio_level_s": audio_s}
                for t, video_s, audio_s in zip(
                    self.buffer_t, self.buffer_v, self.buffer_a
                )
            ]
            data["estimate_timeline"] = [
                {"t": sample.t, "kbps": sample.kbps}
                for sample in self.estimate_timeline
            ]
        return data

    def summary(self) -> Dict[str, object]:
        return {
            "completed": self.completed,
            "startup_delay_s": self.startup_delay_s,
            "n_stalls": self.n_stalls,
            "total_rebuffer_s": round(self.total_rebuffer_s, 3),
            "video_switches": self.switch_count(MediaType.VIDEO),
            "audio_switches": self.switch_count(MediaType.AUDIO),
            "video_kbps": round(self.time_weighted_bitrate_kbps(MediaType.VIDEO), 1),
            "audio_kbps": round(self.time_weighted_bitrate_kbps(MediaType.AUDIO), 1),
            "combinations": self.distinct_combinations(),
            "max_buffer_imbalance_s": round(self.max_buffer_imbalance_s(), 2),
            "failures": len(self.failures),
            "retries": self.n_retries,
            "skipped_chunks": len(self.skips),
            "resumed_mbit": round(self.bits_resumed / 1e6, 3),
            "wasted_mbit": round(self.bits_wasted / 1e6, 3),
            "termination_reason": self.termination_reason,
        }


class ResultFold:
    """The one builder of a :class:`SessionResult`: a fold over events.

    Each result-bearing event kind has one method here, called by the
    live kernel when it raises the event and by the replayer when it
    decodes it from a log, so a replayed result equals the live one by
    construction. A method's parameters are its event's payload keys;
    it builds the record and, with ``emit`` set (an observer's
    ``emit``), hands the observer the payload.

    Unobserved, the kernel appends the two hottest kinds itself: a
    :class:`ProgressSegment` to the list :meth:`download_start`
    returned, and a buffer sample straight to the result's
    :attr:`~SessionResult.buffer_t`, :attr:`~SessionResult.buffer_v`
    and :attr:`~SessionResult.buffer_a` columns. The fold never copies
    or converts what it gathered: the result is complete as each event
    is folded, so a session cut short (or a torn log) leaves a valid
    partial result.
    """

    __slots__ = ("result", "_emit", "_open")

    def __init__(
        self,
        content_duration_s: float,
        chunk_duration_s: float,
        n_chunks: int,
        emit: Optional[Callable[[str, Dict[str, object]], None]] = None,
    ):
        self.result = SessionResult(content_duration_s, chunk_duration_s, n_chunks)
        self._emit = emit
        #: Progress segments of the open video and audio download, by
        #: ``medium is MediaType.AUDIO`` (hashing the enum costs more).
        self._open: List[Optional[List[ProgressSegment]]] = [None, None]

    def download_start(
        self,
        t: float,
        medium: MediaType,
        track_id: str,
        chunk_index: int,
        size_bits: float,
        attempt: int = 1,
        resumed_bits: float = 0.0,
    ) -> List[ProgressSegment]:
        """Open a download; returns the list its progress segments go to."""
        segments: List[ProgressSegment] = []
        self._open[medium is _AUDIO] = segments
        if self._emit is not None:
            self._emit(
                "download_start",
                {
                    "t": t,
                    "medium": medium.value,
                    "track_id": track_id,
                    "chunk_index": chunk_index,
                    "size_bits": size_bits,
                    "attempt": attempt,
                    "resumed_bits": resumed_bits,
                },
            )
        return segments

    def download_progress(
        self, t0: float, t1: float, medium: MediaType, bits: float
    ) -> None:
        segments = self._open[medium is _AUDIO]
        if segments is not None:
            segments.append(ProgressSegment(t0, t1, bits))
        if self._emit is not None:
            self._emit(
                "download_progress",
                {"t0": t0, "t1": t1, "medium": medium.value, "bits": bits},
            )

    def download_complete(
        self,
        t: float,
        medium: MediaType,
        track_id: str,
        chunk_index: int,
        size_bits: float,
        started_at: float,
        resumed_bits: float = 0.0,
    ) -> DownloadRecord:
        slot = medium is _AUDIO
        segments = self._open[slot]
        self._open[slot] = None
        # Positional, in field order (one per finished chunk).
        record = DownloadRecord(
            medium,
            track_id,
            chunk_index,
            size_bits,
            started_at,
            t,
            tuple(segments) if segments else (),
            resumed_bits,
        )
        self.result.downloads.append(record)
        if self._emit is not None:
            self._emit(
                "download_complete",
                {
                    "t": t,
                    "medium": medium.value,
                    "track_id": track_id,
                    "chunk_index": chunk_index,
                    "size_bits": size_bits,
                    "started_at": started_at,
                    "resumed_bits": resumed_bits,
                },
            )
        return record

    def download_abort(
        self,
        t: float,
        medium: MediaType,
        track_id: str,
        chunk_index: int,
        bits_done: float,
        size_bits: float,
    ) -> None:
        self._open[medium is _AUDIO] = None
        self.result.aborts.append(
            AbortRecord(medium, track_id, chunk_index, t, bits_done, size_bits)
        )
        if self._emit is not None:
            self._emit(
                "download_abort",
                {
                    "t": t,
                    "medium": medium.value,
                    "track_id": track_id,
                    "chunk_index": chunk_index,
                    "bits_done": bits_done,
                    "size_bits": size_bits,
                },
            )

    def failure(
        self,
        t: float,
        medium: MediaType,
        track_id: str,
        chunk_index: int,
        bits_done: float,
        kind: str,
        attempt: int = 1,
        resumable: bool = False,
        retry_at: Optional[float] = None,
    ) -> FailureRecord:
        self._open[medium is _AUDIO] = None
        record = FailureRecord(
            medium,
            track_id,
            chunk_index,
            t,
            bits_done,
            kind,
            attempt,
            resumable,
            retry_at,
        )
        self.result.failures.append(record)
        if self._emit is not None:
            self._emit(
                "failure",
                {
                    "t": t,
                    "medium": medium.value,
                    "track_id": track_id,
                    "chunk_index": chunk_index,
                    "bits_done": bits_done,
                    "kind": kind,
                    "attempt": attempt,
                    "resumable": resumable,
                    "retry_at": retry_at,
                },
            )
        return record

    def skip(
        self,
        t: float,
        medium: MediaType,
        track_id: str,
        chunk_index: int,
        attempts: int,
    ) -> None:
        self.result.skips.append(
            SkipRecord(medium, track_id, chunk_index, t, attempts)
        )
        if self._emit is not None:
            self._emit(
                "skip",
                {
                    "t": t,
                    "medium": medium.value,
                    "track_id": track_id,
                    "chunk_index": chunk_index,
                    "attempts": attempts,
                },
            )

    def stall_begin(self, t: float) -> None:
        self.result.stalls.append(StallEvent(t))
        if self._emit is not None:
            self._emit("stall_begin", {"t": t})

    def stall_end(self, t: float) -> None:
        """Close the open stall; ``ValueError`` if none is open."""
        stalls = self.result.stalls
        if not stalls or stalls[-1].end_s is not None:
            raise ValueError("stall_end without an open stall")
        stall = stalls[-1]
        stall.end_s = t
        if self._emit is not None:
            self._emit("stall_end", {"t": t, "duration_s": stall.duration_s})

    def playback_start(self, t: float) -> None:
        self.result.startup_delay_s = t
        if self._emit is not None:
            self._emit("playback_start", {"t": t})

    def buffer_sample(self, t: float, video_s: float, audio_s: float) -> None:
        result = self.result
        result.buffer_t.append(t)
        result.buffer_v.append(video_s)
        result.buffer_a.append(audio_s)
        if self._emit is not None:
            self._emit(
                "buffer_sample", {"t": t, "video_s": video_s, "audio_s": audio_s}
            )

    def estimate(self, t: float, kbps: float) -> None:
        self.result.estimate_timeline.append(EstimateSample(t, kbps))
        if self._emit is not None:
            self._emit("estimate", {"t": t, "kbps": kbps})

    def verdict(
        self,
        t: float,
        completed: bool,
        startup_delay_s: Optional[float] = None,
        termination_reason: Optional[str] = None,
    ) -> None:
        """The session's end: stamp the final scalars."""
        result = self.result
        result.ended_at_s = t
        result.completed = completed
        result.startup_delay_s = startup_delay_s
        result.termination_reason = termination_reason
        if self._emit is not None:
            self._emit(
                "verdict",
                {
                    "t": t,
                    "completed": completed,
                    "startup_delay_s": startup_delay_s,
                    "termination_reason": termination_reason,
                    "n_stalls": len(result.stalls),
                },
            )
