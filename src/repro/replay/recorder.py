"""The event recorder: a session observer that streams framed JSON lines.

``EventRecorder`` implements the :class:`~repro.sim.session.SessionObserver`
protocol: the session hands it ``(kind, payload)`` pairs and it writes
one CRC-framed JSON line per event (see :mod:`repro.framing`), each
with a single ``write`` call so a crash tears at most the final line.

The file is truncated when the recorder opens it — one log is one
session attempt — and then written append-only, the idiom proven by
the chaos event log. Runner workers key their logs by job hash via
:func:`record_path`, so a grid's recording directory is content
addressed the same way as its result cache.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from ..framing import frame_line
from .events import EventKind, encode_event, schema_for_meta

_SESSION_META = EventKind.SESSION_META.value


def record_path(record_dir: str, key: str) -> str:
    """The event-log path for one job key inside a recording directory."""
    return os.path.join(record_dir, f"{key}.events.jsonl")


class EventRecorder:
    """Write a session's event stream to one JSON-lines file.

    :param path: the log file; created (parent directories too) and
        truncated on construction.
    :param extra_meta: merged into the ``session_meta`` header — the
        runner puts the job spec here (``job``/``key``/``label``) so a
        log is replayable *and* re-runnable.
    """

    def __init__(self, path: str, extra_meta: Optional[Dict[str, Any]] = None):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self._extra_meta = dict(extra_meta) if extra_meta else {}
        self._seq = 0
        self.events_written = 0
        self.bytes_written = 0
        # Truncate-then-append: this recorder owns the file (one log =
        # one attempt), but each line is still a single O_APPEND write
        # so the only possible damage is a torn final line.
        self._fd: Optional[int] = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644
        )

    # -- SessionObserver protocol -----------------------------------------

    def emit(self, kind: str, payload: Dict[str, Any]) -> None:
        if self._fd is None:
            raise ValueError(f"recorder for {self.path} is closed")
        event: Dict[str, Any] = {"k": kind, "seq": self._seq}
        if kind == _SESSION_META:
            # Stamp the lowest version the header's fields need, so
            # topology-free logs stay byte-identical to schema-1 logs.
            event["schema"] = schema_for_meta({**self._extra_meta, **payload})
            event.update(self._extra_meta)
        event.update(payload)
        line = frame_line(encode_event(event))
        os.write(self._fd, line)
        self._seq += 1
        self.events_written += 1
        self.bytes_written += len(line)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- lifecycle sugar ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._fd is None

    def __enter__(self) -> "EventRecorder":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except OSError:
            pass
