"""Crash-safe framing: entry frames, line frames, damage taxonomy."""

import os

import pytest

from repro.framing import (
    CORRUPT,
    ENTRY_HEADER_SIZE,
    ENTRY_MAGIC,
    LINE_MAGIC,
    OK,
    TRUNCATED,
    append_line,
    frame_line,
    frame_payload,
    scan_line_file,
    scan_lines,
    unframe_payload,
    _ENTRY_HEADER,
)


class TestEntryFraming:
    def test_round_trip(self):
        payload = b"hello framing" * 100
        data = frame_payload(payload)
        recovered, kind = unframe_payload(data)
        assert kind == OK
        assert recovered == payload

    def test_empty_payload(self):
        recovered, kind = unframe_payload(frame_payload(b""))
        assert kind == OK
        assert recovered == b""

    def test_truncated_prefix_is_truncated(self):
        data = frame_payload(b"x" * 64)
        for cut in (1, len(ENTRY_MAGIC), ENTRY_HEADER_SIZE, len(data) - 1):
            recovered, kind = unframe_payload(data[:cut])
            assert recovered is None
            assert kind == TRUNCATED, f"cut at {cut}"

    def test_wrong_magic_is_corrupt(self):
        data = b"WRONG" + frame_payload(b"x" * 64)[len(ENTRY_MAGIC) :]
        assert unframe_payload(data) == (None, CORRUPT)

    def test_flipped_payload_bit_is_corrupt(self):
        data = bytearray(frame_payload(b"y" * 64))
        data[-1] ^= 0x01
        assert unframe_payload(bytes(data)) == (None, CORRUPT)

    def test_surplus_bytes_are_corrupt(self):
        data = frame_payload(b"z" * 16) + b"extra"
        assert unframe_payload(data) == (None, CORRUPT)

    def test_magic_unchanged(self):
        # Existing on-disk caches and event logs must stay readable.
        assert ENTRY_MAGIC == b"RPRC1"
        assert LINE_MAGIC == b"REV1"
        assert _ENTRY_HEADER.format == ">QI"


class TestLineFraming:
    def test_round_trip(self):
        lines = [frame_line(b'{"k":"a"}'), frame_line(b'{"k":"b","x":1}')]
        scan = scan_lines(b"".join(lines))
        assert scan.intact
        assert scan.payloads == [b'{"k":"a"}', b'{"k":"b","x":1}']

    def test_empty_log(self):
        scan = scan_lines(b"")
        assert scan.intact
        assert scan.payloads == []

    def test_newline_in_payload_rejected(self):
        with pytest.raises(ValueError):
            frame_line(b"two\nlines")

    def test_torn_final_line_is_truncated(self):
        data = frame_line(b'{"k":"a"}') + frame_line(b'{"k":"bbbb"}')
        for cut in range(1, len(frame_line(b'{"k":"bbbb"}'))):
            scan = scan_lines(data[: len(frame_line(b'{"k":"a"}')) + cut])
            assert scan.payloads[0] == b'{"k":"a"}'
            assert scan.damage == TRUNCATED, f"cut at {cut}"
            assert scan.damage_line == 2

    def test_torn_line_missing_only_newline_keeps_payload(self):
        data = frame_line(b'{"k":"a"}')[:-1]  # complete frame, no terminator
        scan = scan_lines(data)
        assert scan.payloads == [b'{"k":"a"}']
        assert scan.damage == TRUNCATED

    def test_mid_log_damage_is_corrupt_and_stops_scan(self):
        good = frame_line(b'{"k":"a"}')
        bad = bytearray(frame_line(b'{"k":"b"}'))
        bad[-3] ^= 0x40  # flip a payload bit, line stays terminated
        scan = scan_lines(good + bytes(bad) + frame_line(b'{"k":"c"}'))
        assert scan.damage == CORRUPT
        assert scan.damage_line == 2
        assert scan.payloads == [b'{"k":"a"}']  # nothing after the damage

    def test_garbage_line_is_corrupt(self):
        scan = scan_lines(frame_line(b'{"k":"a"}') + b"not a frame\n")
        assert scan.damage == CORRUPT
        assert scan.damage_line == 2

    def test_upper_case_hex_header_is_still_intact(self):
        # frame_line writes lower-case hex; a header that differs from
        # it only in case passes the full classifier, not the fast path.
        line = frame_line(b'{"k":"a","xyz":1}')  # crc 7f205dae
        upper = line[:23].upper() + line[23:]
        assert upper != line
        scan = scan_lines(upper)
        assert scan.intact
        assert scan.payloads == [b'{"k":"a","xyz":1}']

    def test_short_header_tear_is_truncated(self):
        scan = scan_lines(frame_line(b'{"k":"a"}') + b"REV1 00")
        assert scan.damage == TRUNCATED
        assert scan.payloads == [b'{"k":"a"}']


class TestAppendLine:
    def test_appends_whole_lines(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_line(path, frame_line(b'{"k":"a"}'))
        append_line(path, frame_line(b'{"k":"b"}'))
        scan = scan_line_file(path)
        assert scan.intact
        assert [p for p in scan.payloads] == [b'{"k":"a"}', b'{"k":"b"}']

    def test_best_effort_swallows_os_errors(self, tmp_path):
        missing_dir = str(tmp_path / "no" / "such" / "dir" / "log")
        append_line(missing_dir, frame_line(b"{}"), best_effort=True)
        with pytest.raises(OSError):
            append_line(missing_dir, frame_line(b"{}"))


class TestCacheDelegation:
    def test_cache_reexports_framing(self):
        from repro.runner import cache

        assert cache.ENTRY_MAGIC == ENTRY_MAGIC
        assert cache.HEADER_SIZE == ENTRY_HEADER_SIZE
        assert cache.frame_payload(b"x") == frame_payload(b"x")

    def test_chaos_log_event_still_plain_json(self, tmp_path):
        import json

        from repro.chaos.injector import log_event

        path = str(tmp_path / "chaos.jsonl")
        log_event(path, event="requeue", job="j#1")
        with open(path, "r", encoding="utf-8") as f:
            event = json.loads(f.readline())
        assert event["event"] == "requeue"
        assert event["pid"] == os.getpid()
