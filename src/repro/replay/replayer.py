"""Reconstruct a session — result, metrics, QoE — from its event log.

:func:`replay_session` turns a recorded log back into a full
:class:`~repro.sim.records.SessionResult` *without re-simulating*:
it decodes each event's fields and hands them to the same
:class:`~repro.sim.records.ResultFold` method the live kernel called
when it raised the event. Because floats round-trip through the log
exactly, every record the result holds — and the whole :mod:`repro.qoe`
score derived from it — is byte-identical to the live run's.

The ``session_meta`` header carries the content ladders (exact
bitrates), so :meth:`ReplayedSession.qoe` can re-score a log with any
:class:`~repro.qoe.metrics.QoEWeights` — post-hoc QoE re-scoring over
a shared corpus of logs, no simulator required.

A torn log (recorder killed mid-write) replays cleanly up to the tear:
``damage`` reports the classification from :mod:`repro.framing`, the
reconstructed prefix is still valid, and ``has_verdict`` tells you
whether the session's end made it to disk.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..framing import CORRUPT, scan_line_file
from ..media.tracks import Ladder, MediaType, audio_track, make_ladder, video_track
from ..sim.records import ResultFold, SessionResult
from .events import (
    EventKind,
    ReplayError,
    check_schema,
    decode_events,
    decode_float,
)

_REQUIRED = inspect.Parameter.empty


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else decode_float(value)


def _as_logged(value: Any) -> Any:
    return value


#: How to decode a logged field, by the annotation of the fold
#: parameter it feeds (a string: ``repro.sim.records`` postpones
#: annotations).
_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "float": decode_float,
    "int": int,
    "bool": bool,
    "str": _as_logged,
    # A dict lookup costs a fraction of ``MediaType(value)``, and most
    # logged events carry a medium.
    "MediaType": {medium.value: medium for medium in MediaType}.__getitem__,
    "Optional[float]": _optional_float,
    "Optional[str]": _as_logged,
}


def _fold_call(kind: str):
    """The fold method of ``kind`` and ``(key, decoder, default)`` for
    each of its arguments."""
    method = getattr(ResultFold, kind)
    parameters = list(inspect.signature(method).parameters.values())[1:]
    return method, tuple(
        (p.name, _DECODERS[p.annotation], p.default) for p in parameters
    )


#: Each result-bearing kind's :class:`ResultFold` method and fields. A
#: method's parameter names are its event's payload keys, and a default
#: stands in for a field that older logs omit. Kinds without a fold
#: method (``session_meta``, ``decision``, ``retry``) carry no result
#: state, and unknown kinds are skipped by design: newer writers may add
#: kinds without bumping the schema (see the compat policy).
_FOLDED: Dict[str, Tuple[Callable[..., Any], tuple]] = {
    kind.value: _fold_call(kind.value)
    for kind in EventKind
    if inspect.isfunction(getattr(ResultFold, kind.value, None))
}


@dataclass(frozen=True)
class ReplayContent:
    """Just enough content metadata to re-derive QoE from a log.

    Mirrors the :class:`~repro.media.content.Content` surface the QoE
    layer consumes (``video``/``audio`` ladders, ``ladder()``, chunk
    geometry); it deliberately has no chunk-size table — sizes live in
    the download events themselves.
    """

    name: str
    video: Ladder
    audio: Ladder
    duration_s: float
    chunk_duration_s: float
    n_chunks: int

    def ladder(self, media_type: MediaType) -> Ladder:
        return self.video if media_type is MediaType.VIDEO else self.audio


def _ladder_from_meta(medium: MediaType, entries: List[Dict[str, Any]]) -> Ladder:
    tracks = []
    for entry in entries:
        if medium is MediaType.VIDEO:
            tracks.append(
                video_track(
                    entry["id"],
                    decode_float(entry["avg_kbps"]),
                    decode_float(entry["peak_kbps"]),
                    decode_float(entry["declared_kbps"]),
                    height=entry.get("height"),
                )
            )
        else:
            tracks.append(
                audio_track(
                    entry["id"],
                    decode_float(entry["avg_kbps"]),
                    decode_float(entry["peak_kbps"]),
                    decode_float(entry["declared_kbps"]),
                    channels=int(entry.get("channels", 2)),
                    sampling_khz=decode_float(entry.get("sampling_khz", 44.0)),
                )
            )
    return make_ladder(medium, tracks)


def scan_events(path: str, strict: bool = False) -> "EventScan":
    """Decode every intact event of a log, classifying any damage.

    ``strict=True`` raises :class:`ReplayError` on *corrupt* logs
    (truncation is always tolerated — a torn tail is the crash-safety
    contract working, not a failure). Every :class:`ReplayError` it
    raises starts with ``path``.
    """
    scan = scan_line_file(path)
    if strict and scan.damage == CORRUPT:
        raise ReplayError(
            f"{path}: corrupt at line {scan.damage_line}: {scan.damage_detail}"
        )
    try:
        events = decode_events(scan.payloads)
    except ReplayError as exc:
        raise ReplayError(f"{path}: {exc}") from None
    return EventScan(
        events=events,
        damage=scan.damage,
        damage_line=scan.damage_line,
        damage_detail=scan.damage_detail,
    )


@dataclass
class EventScan:
    """Decoded events of one log plus the framing damage report."""

    events: List[Dict[str, Any]]
    damage: Optional[str] = None
    damage_line: Optional[int] = None
    damage_detail: Optional[str] = None


@dataclass
class ReplayedSession:
    """Everything reconstructed from one event log."""

    path: str
    meta: Dict[str, Any]
    events: List[Dict[str, Any]]
    result: SessionResult
    content: ReplayContent
    #: ``None`` for a clean log, else ``"truncated"``/``"corrupt"``.
    damage: Optional[str] = None
    damage_line: Optional[int] = None
    damage_detail: Optional[str] = None
    #: Did the session's final verdict event survive to disk?
    has_verdict: bool = False

    @property
    def intact(self) -> bool:
        return self.damage is None

    @property
    def job_spec(self) -> Optional[Dict[str, Any]]:
        """The runner job spec embedded by ``--record``, if any."""
        spec = self.meta.get("job")
        return spec if isinstance(spec, dict) else None

    def qoe(self, weights=None):
        """Re-derive the QoE report from the replayed result."""
        from ..qoe.metrics import DEFAULT_WEIGHTS, compute_qoe

        return compute_qoe(
            self.result, self.content, weights or DEFAULT_WEIGHTS
        )


def replay_session(path: str, strict: bool = False) -> ReplayedSession:
    """Rebuild a :class:`ReplayedSession` from a recorded event log.

    Every :class:`ReplayError` it raises starts with ``path``, once.
    """
    scan = scan_events(path, strict=strict)
    try:
        return _replay_scan(path, scan)
    except ReplayError as exc:
        raise ReplayError(f"{path}: {exc}") from None


def _replay_scan(path: str, scan: EventScan) -> ReplayedSession:
    if not scan.events:
        raise ReplayError(
            "no replayable events"
            + (f" ({scan.damage}: {scan.damage_detail})" if scan.damage else "")
        )
    meta = scan.events[0]
    check_schema(meta)
    content_meta = meta.get("content")
    if not isinstance(content_meta, dict):
        raise ReplayError("session_meta carries no content description")
    content = ReplayContent(
        name=content_meta.get("name", "replayed"),
        video=_ladder_from_meta(MediaType.VIDEO, content_meta["video"]),
        audio=_ladder_from_meta(MediaType.AUDIO, content_meta["audio"]),
        duration_s=decode_float(content_meta["duration_s"]),
        chunk_duration_s=decode_float(content_meta["chunk_duration_s"]),
        n_chunks=int(content_meta["n_chunks"]),
    )
    fold = ResultFold(content.duration_s, content.chunk_duration_s, content.n_chunks)
    replayed = ReplayedSession(
        path=path,
        meta=meta,
        events=scan.events,
        result=fold.result,
        content=content,
        damage=scan.damage,
        damage_line=scan.damage_line,
        damage_detail=scan.damage_detail,
    )

    last_t = 0.0
    for event in scan.events[1:]:
        kind = event["k"]
        if "t" in event:
            last_t = decode_float(event["t"])
        folded = _FOLDED.get(kind)
        if folded is None:
            continue
        method, fields = folded
        try:
            try:
                args = [decode(event[key]) for key, decode, _ in fields]
            except KeyError:
                # An older log omits a defaulted field; a missing
                # required field raises again below.
                args = [
                    decode(event[key] if key in event or default is _REQUIRED else default)
                    for key, decode, default in fields
                ]
            method(fold, *args)
        except (KeyError, TypeError, ValueError) as exc:
            # A missing or malformed field, or a stall_end with no open
            # stall: the CRC held, so the writer or an editor is at fault.
            raise ReplayError(
                f"cannot fold {kind} at seq {event.get('seq')}: {exc!s}"
            ) from None
    # Only the verdict stamps the end time.
    replayed.has_verdict = fold.result.ended_at_s is not None
    if not replayed.has_verdict:
        # Torn before the end: the prefix is still a valid partial
        # result. Close the clock at the last event seen.
        fold.result.ended_at_s = last_t
    return replayed
