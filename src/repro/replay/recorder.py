"""The event recorder: a session observer that streams framed JSON lines.

``EventRecorder`` implements the :class:`~repro.sim.session.SessionObserver`
protocol: the session hands it ``(kind, payload)`` pairs and it writes
one CRC-framed JSON line per event (see :mod:`repro.framing`), each
with a single ``write`` call so a crash tears at most the final line.

The file is truncated when the recorder opens it — one log is one
session attempt — and then written append-only, the idiom proven by
the chaos event log. Runner workers key their logs by job hash via
:func:`record_path`, so a grid's recording directory is content
addressed the same way as its result cache, and keep a complete log
(:func:`is_complete_log`) instead of recording the same run again.
"""

from __future__ import annotations

import os
import zlib
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, Optional, Tuple

from ..framing import LINE_FORMAT, frame_line, scan_line_file
from .events import (
    EVENT_FIELDS,
    EventKind,
    ReplayError,
    decode_event,
    encode_event,
    schema_for_meta,
)

_SESSION_META = EventKind.SESSION_META.value
_VERDICT = EventKind.VERDICT.value

_NON_FINITE = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}


def _float_json(value: float) -> str:
    # ``json`` writes a finite float as ``float.__repr__`` gives it.
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: The JSON text of a value, by its exact type, as :func:`encode_event`
#: writes it. Any other type (an enum, a subclass, a container) is not
#: here, and its event goes through :func:`encode_event`.
_SCALAR_JSON: Dict[type, Callable[[Any], str]] = {
    float: _float_json,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}

LineWriter = Callable[[int, Dict[str, Any]], Optional[bytes]]


def _literal(text: str) -> str:
    return text.replace("{", "{{").replace("}", "}}")


def _line_writer(kind: str, fields: Tuple[str, ...]) -> LineWriter:
    """The framed line of a ``kind`` event whose payload holds exactly
    ``fields``, in that order, as ``(seq, payload) -> bytes``.

    The keys are sorted into a template once, so writing an event is
    one scalar rendering per value and one ``format``. The writer
    returns ``None`` for a value of a type :data:`_SCALAR_JSON` does
    not render; ``frame_line(encode_event(event))`` writes that event.
    """
    slots = {"k": _literal(encode_basestring_ascii(kind)), "seq": "{0}"}
    for position, field in enumerate(fields, 1):
        slots[field] = "{%d}" % position
    template = "{{%s}}" % ",".join(
        _literal(encode_basestring_ascii(key)) + ":" + slots[key]
        for key in sorted(slots)
    )
    render = template.format
    scalar_json = _SCALAR_JSON
    crc32 = zlib.crc32

    def write(seq: int, payload: Dict[str, Any]) -> Optional[bytes]:
        try:
            text = render(
                seq,
                *[scalar_json[type(v)](v) for v in map(payload.__getitem__, fields)],
            )
        except KeyError:
            return None
        data = text.encode()
        return LINE_FORMAT % (len(data), crc32(data), data)

    return write


#: One writer per ``(kind, *fields)`` of :data:`EVENT_FIELDS`, compiled
#: at import; :meth:`EventRecorder.emit` looks up each event's own.
_LINE_WRITERS: Dict[Tuple[str, ...], LineWriter] = {
    (kind, *names.split()): _line_writer(kind, tuple(names.split()))
    for kind, field_sets in EVENT_FIELDS.items()
    for names in field_sets
}


def record_path(record_dir: str, key: str) -> str:
    """The event-log path for one job key inside a recording directory."""
    return os.path.join(record_dir, f"{key}.events.jsonl")


def is_complete_log(path: str, key: str) -> bool:
    """Does ``path`` hold a whole recording of job ``key``?

    Whole means every line passes its CRC frame, the header names
    ``key``, and the last event is the ``verdict``. Recording is
    deterministic, so recording the job again would write the same
    events; a missing, torn, corrupt or foreign log is not whole.
    Payloads are not folded: a hand-edited line with a recomputed CRC
    passes here and still fails ``replay``.
    """
    try:
        scan = scan_line_file(path)
    except OSError:
        return False
    if not scan.intact or not scan.payloads:
        return False
    try:
        header = decode_event(scan.payloads[0])
        last = decode_event(scan.payloads[-1])
    except ReplayError:
        return False
    return header.get("key") == key and last["k"] == _VERDICT


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
        fd = self._fd
        if fd is None:
            raise ValueError(f"recorder for {self.path} is closed")
        write = _LINE_WRITERS.get((kind, *payload))
        line = None if write is None else write(self._seq, payload)
        if line is None:
            line = frame_line(encode_event(self._event(kind, payload)))
        os.write(fd, line)
        self._seq += 1
        self.events_written += 1
        self.bytes_written += len(line)

    def _event(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The whole event ``emit`` writes for ``payload``: ``k``,
        ``seq``, the payload and, in the header, the schema and
        ``extra_meta``."""
        event: Dict[str, Any] = {"k": kind, "seq": self._seq}
        if kind == _SESSION_META:
            # Stamp the lowest version the header's fields need, so
            # topology-free logs stay byte-identical to schema-1 logs.
            event["schema"] = schema_for_meta({**self._extra_meta, **payload})
            event.update(self._extra_meta)
        event.update(payload)
        return event

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
