"""Session event-log record/replay.

Sessions normally flatten their dynamics into a
:class:`~repro.sim.records.SessionResult` and a handful of summary
metrics. This package makes the dynamics durable: a typed,
schema-versioned JSON-lines **event log** of everything the session
did (downloads starting, bytes flowing, decisions, stalls, buffer
samples, failures and retries), written with crash-safe CRC framing so
a killed run's log still replays up to the tear.

Three consumers:

* :class:`EventRecorder` — a :class:`~repro.sim.session.SessionObserver`
  that streams a live session's events to disk
  (``SessionConfig(observer=EventRecorder(path))``).
* :func:`replay_session` — reconstructs the full
  :class:`~repro.sim.records.SessionResult` (and enough content
  metadata to re-derive every :mod:`repro.qoe` metric byte-identically)
  from a log *without re-simulating*.
* :func:`diff_event_logs` — aligns two logs event-by-event with float
  tolerances and reports the first divergence: the regression guard
  every engine/estimator change must pass
  (``repro-abr diff-events A.jsonl B.jsonl``).

See ``docs/event_log.md`` for the schema and the compat policy.
"""

from .events import (
    EVENT_SCHEMA_BASE_VERSION,
    EVENT_SCHEMA_VERSION,
    TOPOLOGY_META_FIELDS,
    EventKind,
    ReplayError,
    decode_event,
    encode_event,
    schema_for_meta,
)
from .diff import (
    DiffReport,
    Divergence,
    diff_event_logs,
    diff_event_streams,
)
from .recorder import EventRecorder, is_complete_log, record_path
from .replayer import ReplayContent, ReplayedSession, replay_session, scan_events

__all__ = [
    "EVENT_SCHEMA_BASE_VERSION",
    "EVENT_SCHEMA_VERSION",
    "TOPOLOGY_META_FIELDS",
    "DiffReport",
    "Divergence",
    "EventKind",
    "EventRecorder",
    "ReplayContent",
    "ReplayError",
    "ReplayedSession",
    "decode_event",
    "diff_event_logs",
    "diff_event_streams",
    "encode_event",
    "is_complete_log",
    "record_path",
    "replay_session",
    "scan_events",
    "schema_for_meta",
]
