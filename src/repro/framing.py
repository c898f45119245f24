"""Crash-safe on-disk framing shared by the cache, chaos and replay logs.

Two framings live here, both built on the same CRC32+length idea: a
reader must be able to tell *truncation* (a writer died mid-write, or
the disk filled — the well-formed prefix is still trustworthy) apart
from *corruption* (bit rot, a hostile or confused writer — nothing
after the damage can be trusted).

**Entry framing** wraps one binary payload (a whole file):
``magic | 8-byte big-endian length | 4-byte CRC32 | payload``. The
:class:`~repro.runner.cache.ResultCache` frames every cache entry this
way so a worker killed mid-write is classified and evicted correctly.

**Line framing** wraps one UTF-8 JSON document per line for append-only
event logs (:mod:`repro.replay`)::

    REV1 <length:08x> <crc32:08x> <json>\\n

Each line is a self-contained frame written with a single ``write``
call, so a crashed recorder tears at most the final line; everything
before the tear replays. The payload after the third space is plain
JSON — ``awk '{print $4}'`` or a line split recovers it without this
module.

:func:`append_line` is the O_APPEND single-write append idiom proven by
the chaos event log: concurrent writers (worker processes and their
parent) interleave whole lines, never fragments.

The magics and header ``struct`` formats in this module are pinned by
``tests/test_framing.py``. On-disk framing constants are forever — a
new format gets a *new* magic, and readers keep accepting the old one.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

# -- entry framing (one binary payload per file) ----------------------------

#: Magic of a framed cache entry. Kept byte-identical to the value the
#: cache has always written so existing caches stay readable.
ENTRY_MAGIC = b"RPRC1"
_ENTRY_HEADER = struct.Struct(">QI")
ENTRY_HEADER_SIZE = len(ENTRY_MAGIC) + _ENTRY_HEADER.size

#: Damage classifications returned by the unframe helpers.
OK = "ok"
TRUNCATED = "truncated"
CORRUPT = "corrupt"


def frame_payload(payload: bytes) -> bytes:
    """Wrap a binary payload in the entry framing."""
    return (
        ENTRY_MAGIC
        + _ENTRY_HEADER.pack(len(payload), zlib.crc32(payload))
        + payload
    )


def unframe_payload(data: bytes) -> Tuple[Optional[bytes], str]:
    """``(payload, OK)`` for a well-formed entry, else ``(None, kind)``.

    A file that is a strict prefix of a well-formed entry (cut-off
    magic, short header, or payload shorter than the declared length)
    is ``TRUNCATED``; anything else — wrong magic, surplus bytes, CRC
    mismatch — is ``CORRUPT``.
    """
    if len(data) < ENTRY_HEADER_SIZE:
        prefix_of_magic = ENTRY_MAGIC.startswith(data[: len(ENTRY_MAGIC)])
        return None, (TRUNCATED if prefix_of_magic else CORRUPT)
    if not data.startswith(ENTRY_MAGIC):
        return None, CORRUPT
    length, crc = _ENTRY_HEADER.unpack_from(data, len(ENTRY_MAGIC))
    payload = data[ENTRY_HEADER_SIZE:]
    if len(payload) < length:
        return None, TRUNCATED
    if len(payload) > length or zlib.crc32(payload) != crc:
        return None, CORRUPT
    return payload, OK


# -- line framing (one JSON document per line) ------------------------------

#: Magic of one framed event-log line (replay log schema rides on the
#: JSON payload's own ``schema`` field; this only versions the frame).
LINE_MAGIC = b"REV1"
#: ``REV1 xxxxxxxx yyyyyyyy `` — magic, length hex, CRC hex, 3 spaces.
_LINE_PREFIX_LEN = len(LINE_MAGIC) + 1 + 8 + 1 + 8 + 1
#: The canonical header of a payload: ``_LINE_HEADER % (length, crc)``.
_LINE_HEADER = LINE_MAGIC + b" %08x %08x "
#: A whole framed line: ``LINE_FORMAT % (length, crc, payload)``. Only
#: for payloads known to hold no newline; :func:`frame_line` checks.
LINE_FORMAT = _LINE_HEADER + b"%s\n"


def frame_line(payload: bytes) -> bytes:
    """One framed log line (terminator included) for a JSON payload."""
    if b"\n" in payload:
        raise ValueError("framed line payload must not contain newlines")
    return LINE_FORMAT % (len(payload), zlib.crc32(payload), payload)


@dataclass
class LineScan:
    """The well-formed prefix of a framed line log, plus its damage.

    ``payloads`` holds the JSON payload bytes of every intact line in
    order. ``damage`` is ``None`` for a clean log, else ``TRUNCATED``
    (the final line is a torn prefix — everything scanned is good) or
    ``CORRUPT`` (a line fails its CRC or frame; the scan stops there
    and nothing after ``damage_line`` was read). Lines are 1-based.
    """

    payloads: List[bytes]
    damage: Optional[str] = None
    damage_line: Optional[int] = None
    damage_detail: Optional[str] = None

    @property
    def intact(self) -> bool:
        return self.damage is None


def _classify_line(line: bytes) -> Tuple[Optional[bytes], str, str]:
    """``(payload, kind, detail)`` for one line without its newline."""
    prefix = line[:_LINE_PREFIX_LEN]
    well_formed_prefix = (
        len(prefix) == _LINE_PREFIX_LEN
        and prefix.startswith(LINE_MAGIC + b" ")
        and prefix[len(LINE_MAGIC) + 9 : len(LINE_MAGIC) + 10] == b" "
        and prefix.endswith(b" ")
    )
    if not well_formed_prefix:
        # A short prefix of a valid header reads as truncation; junk as
        # corruption. Build the longest header this line could be a
        # prefix of and compare.
        if len(line) < _LINE_PREFIX_LEN:
            template = (
                LINE_MAGIC + b" " + b"00000000" + b" " + b"00000000" + b" "
            )
            plausible = all(
                a == b or (a in b"0123456789abcdef" and b in b"0123456789abcdef")
                for a, b in zip(line, template)
            )
            if plausible:
                return None, TRUNCATED, "line ends inside the frame header"
        return None, CORRUPT, "malformed frame header"
    try:
        length = int(line[len(LINE_MAGIC) + 1 : len(LINE_MAGIC) + 9], 16)
        crc = int(line[len(LINE_MAGIC) + 10 : len(LINE_MAGIC) + 18], 16)
    except ValueError:
        return None, CORRUPT, "non-hex length/CRC in frame header"
    payload = line[_LINE_PREFIX_LEN:]
    if len(payload) < length:
        return None, TRUNCATED, (
            f"payload holds {len(payload)} of {length} declared bytes"
        )
    if len(payload) > length:
        return None, CORRUPT, (
            f"payload holds {len(payload)} bytes, {length} declared"
        )
    if zlib.crc32(payload) != crc:
        return None, CORRUPT, "payload CRC mismatch"
    return payload, OK, ""


def scan_lines(data: bytes) -> LineScan:
    """Scan a framed line log, stopping cleanly at the first damage.

    A torn *final* line (no terminating newline, or a newline-less
    prefix of a frame) is ``TRUNCATED``; a damaged line followed by
    more data — or any mid-log CRC/frame failure — is ``CORRUPT``.
    """
    scan = LineScan(payloads=[])
    if not data:
        return scan
    lines = data.split(b"\n")
    unterminated = lines[-1] != b""
    complete = lines[:-1]  # the final element is b"" or a torn tail
    payloads = scan.payloads
    for number, line in enumerate(complete, 1):
        payload = line[_LINE_PREFIX_LEN:]
        # Fast path: the header frame_line would write for this payload.
        # Anything else (damage, or upper-case hex) is classified below.
        if line[:_LINE_PREFIX_LEN] != _LINE_HEADER % (
            len(payload),
            zlib.crc32(payload),
        ):
            payload, kind, detail = _classify_line(line)
            if kind is not OK:
                # Damage on a newline-terminated line: the writer
                # finished the line, so a short payload is not a tear.
                scan.damage = CORRUPT
                scan.damage_line = number
                scan.damage_detail = detail or "damaged line"
                return scan
        payloads.append(payload)
    if unterminated:
        payload, kind, detail = _classify_line(lines[-1])
        if kind is OK:
            # Complete frame, missing only the terminator: the tear hit
            # between payload and newline. The payload is whole.
            scan.payloads.append(payload)
            scan.damage = TRUNCATED
            scan.damage_detail = "final line missing its terminator"
        else:
            scan.damage = kind
            scan.damage_detail = detail
        scan.damage_line = len(complete) + 1
    return scan


def scan_line_file(path: str) -> LineScan:
    """:func:`scan_lines` over a file's bytes."""
    with open(path, "rb") as f:
        return scan_lines(f.read())


# -- append-only writing ----------------------------------------------------


def append_line(path: str, line: bytes, best_effort: bool = False) -> None:
    """Append one pre-framed line with a single O_APPEND write.

    One ``write`` call per line is what makes concurrent writers safe
    (POSIX appends are atomic per call) and bounds crash damage to a
    torn final line. ``best_effort`` swallows OS errors — the chaos
    log's contract, where a lost line must never fail the run.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
    except OSError:
        if not best_effort:
            raise
