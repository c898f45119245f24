"""The event-log schema: kinds, versioning, canonical JSON encoding.

One event is one JSON object with at minimum ``k`` (the kind, a value
of :class:`EventKind`) and ``seq`` (the recorder's 0-based sequence
number). Every log starts with a ``session_meta`` event carrying the
schema version, the content description (ladders with exact bitrates,
chunk geometry) and the session configuration — everything a replayer
needs to re-derive QoE without the original objects.

**Versioning policy** (see ``docs/event_log.md``): ``schema`` in the
header is bumped whenever an existing field changes meaning or type,
or a field a replayer depends on is removed. *Adding* event kinds or
optional fields is backward compatible and does not bump the version;
readers must ignore kinds and fields they do not know. A reader
refuses logs with ``schema`` greater than :data:`EVENT_SCHEMA_VERSION`.

Schema 2 adds the *optional* topology fields of
:data:`TOPOLOGY_META_FIELDS` to the ``session_meta`` header (which
edge served the session, its failover hops) for logs recorded from
cohort/topology runs. Writers stamp the lowest version their header
actually needs (:func:`schema_for_meta`): a log with no topology
fields is still written as schema 1, byte-identical to what a schema-1
writer produced — which is what keeps the pinned oracle logs stable —
while a schema-1 reader correctly refuses the topology logs it cannot
interpret.

Floats are encoded with :func:`repr` precision (Python's ``json``
default), which round-trips every IEEE-754 double exactly — the
property that makes replayed metrics *byte*-identical, not merely
close. Non-finite floats (a player waiting forever is ``inf``) are
encoded as the strings ``"inf"``/``"-inf"``/``"nan"`` so the payload
stays strict JSON.

The schema itself — the :class:`EventKind` members, the version
constants, the topology meta fields — is pinned by
``tests/test_replay.py`` (``TestSchema``).
"""

from __future__ import annotations

import enum
import json
import math
from typing import Any, Dict, List, Tuple

from ..errors import ReproError

#: Highest schema version this reader understands.
EVENT_SCHEMA_VERSION = 2

#: The version a header with no version-gated fields is written as.
EVENT_SCHEMA_BASE_VERSION = 1

#: Optional ``session_meta`` fields introduced by schema 2: the
#: topology context of a cohort-recorded log.
TOPOLOGY_META_FIELDS = ("edge_id", "edges", "failover_hops")


def schema_for_meta(meta: Dict[str, Any]) -> int:
    """The lowest schema version whose fields ``meta`` uses.

    Writers call this so a header without topology fields keeps the
    exact bytes a schema-1 writer produced (pinned oracles stay
    byte-identical), while topology-bearing headers are stamped 2.
    """
    if any(field in meta for field in TOPOLOGY_META_FIELDS):
        return 2
    return EVENT_SCHEMA_BASE_VERSION


class ReplayError(ReproError):
    """An event log cannot be decoded, replayed or diffed."""


class EventKind(str, enum.Enum):
    """Every event kind the session emits, in rough lifecycle order."""

    SESSION_META = "session_meta"
    DECISION = "decision"
    DOWNLOAD_START = "download_start"
    DOWNLOAD_PROGRESS = "download_progress"
    DOWNLOAD_COMPLETE = "download_complete"
    DOWNLOAD_ABORT = "download_abort"
    FAILURE = "failure"
    RETRY = "retry"
    SKIP = "skip"
    STALL_BEGIN = "stall_begin"
    STALL_END = "stall_end"
    PLAYBACK_START = "playback_start"
    BUFFER_SAMPLE = "buffer_sample"
    ESTIMATE = "estimate"
    VERDICT = "verdict"


#: The payload fields of each kind the session kernel and
#: :class:`~repro.sim.records.ResultFold` emit, space-separated in the
#: order they put them in the payload; ``decision`` has one field set
#: per action. ``session_meta``, whose fields nest, has none. The
#: recorder compiles one line writer per field set.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "decision": ("t medium action track_id", "t medium action until"),
    "download_start": (
        "t medium track_id chunk_index size_bits attempt resumed_bits",
    ),
    "download_progress": ("t0 t1 medium bits",),
    "download_complete": (
        "t medium track_id chunk_index size_bits started_at resumed_bits",
    ),
    "download_abort": ("t medium track_id chunk_index bits_done size_bits",),
    "failure": (
        "t medium track_id chunk_index bits_done kind attempt resumable retry_at",
    ),
    "retry": ("t medium chunk_index attempt at",),
    "skip": ("t medium track_id chunk_index attempts",),
    "stall_begin": ("t",),
    "stall_end": ("t duration_s",),
    "playback_start": ("t",),
    "buffer_sample": ("t video_s audio_s",),
    "estimate": ("t kbps",),
    "verdict": ("t completed startup_delay_s termination_reason n_stalls",),
}


def _sanitize(value: Any) -> Any:
    """Make a payload strict-JSON safe without losing float precision."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


#: The canonical encoder, built once: sorted keys, compact separators,
#: strict JSON (non-finite floats raise instead of leaking ``NaN``).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def encode_event(event: Dict[str, Any]) -> bytes:
    """Canonical UTF-8 JSON bytes for one event (sorted keys, compact).

    Most events are plain JSON already and are encoded as they are. The
    encoder raises ``ValueError`` on a non-finite float and ``TypeError``
    on a plain :class:`~enum.Enum`; only then is the payload run through
    :func:`_sanitize` first. Both paths give the same bytes: on a payload
    the encoder accepts, :func:`_sanitize` changes nothing the encoding
    shows (tuples and lists encode alike, a ``str`` enum encodes as its
    value).
    """
    try:
        text = _ENCODER.encode(event)
    except (ValueError, TypeError):
        text = _ENCODER.encode(_sanitize(event))
    return text.encode("utf-8")


def decode_event(payload: bytes) -> Dict[str, Any]:
    """Parse one event payload; raises :class:`ReplayError` on garbage.

    The CRC frame already guards against bit damage, so a JSON error
    here means a writer bug or a hand-edited log — worth a loud error
    naming the payload rather than a silent skip.
    """
    try:
        event = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ReplayError(
            f"CRC-valid event line holds invalid JSON: {payload[:80]!r}"
        ) from exc
    if not isinstance(event, dict) or "k" not in event:
        raise ReplayError(
            f"event line is not an object with a 'k' kind: {payload[:80]!r}"
        )
    return event


def decode_events(payloads: List[bytes]) -> List[Dict[str, Any]]:
    """Parse many event payloads at once; same result as
    :func:`decode_event` on each.

    The payloads are joined into one JSON array and parsed in a single
    call. If that fails, yields a different number of events than
    payloads, or yields an event that is not an object with ``k``, every
    payload is decoded on its own instead, so a bad payload raises the
    same :class:`ReplayError` it always did and a payload holding two
    objects is never split into two events.
    """
    try:
        events = json.loads((b"[" + b",".join(payloads) + b"]").decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        events = None
    if (
        events is None
        or len(events) != len(payloads)
        or not all(isinstance(event, dict) and "k" in event for event in events)
    ):
        return [decode_event(payload) for payload in payloads]
    return events


def decode_float(value: Any) -> float:
    """Undo the non-finite string encoding of :func:`_sanitize`."""
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        if value == "nan":
            return math.nan
        raise ReplayError(f"not a float encoding: {value!r}")
    return float(value)


def check_schema(meta: Dict[str, Any]) -> int:
    """Validate a ``session_meta`` header; returns its schema version."""
    if meta.get("k") != EventKind.SESSION_META.value:
        raise ReplayError(
            "event log does not start with a session_meta header "
            f"(first event kind: {meta.get('k')!r})"
        )
    schema = meta.get("schema")
    if not isinstance(schema, int):
        raise ReplayError("session_meta header carries no integer schema")
    if schema > EVENT_SCHEMA_VERSION:
        raise ReplayError(
            f"event log schema {schema} is newer than this reader "
            f"(supports <= {EVENT_SCHEMA_VERSION}); upgrade to replay it"
        )
    return schema
