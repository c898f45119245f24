"""Kernel progress guards and buffer-sample dedup.

The event loop tolerates bursts of coincident (zero-length) events —
trace boundaries landing exactly on wake-ups, completions at segment
edges — but a run of zero-dt events with *bit-identical* kernel state
means the schedule is wedged (classically: a network model whose
``next_change_after`` is not strictly in the future) and must raise
``SimulationError`` with diagnostics instead of spinning to the event
cap. These tests pin both sides of that threshold, plus the coincident
buffer-sample dedup and its diff-side canonicalization bridge.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.media.content import drama_show
from repro.media.tracks import MediaType
from repro.net.link import NetworkModel, SeparatePaths, shared
from repro.net.traces import square_wave
from repro.players.fixed import FixedTracksPlayer
from repro.replay import (
    EventRecorder,
    canonicalize_events,
    diff_event_logs,
    scan_events,
)
from repro.sim.session import Session, SessionConfig, simulate

CONTENT = drama_show()


def _fixed_player():
    return FixedTracksPlayer(video_id="V1", audio_id="A1", buffer_target_s=30.0)


class _CoincidentBurstNetwork(NetworkModel):
    """A constant link whose ``next_change_after`` stutters.

    For the first ``burst`` queries at each distinct time it reports a
    "change" at that very instant — a zero-length event with no state
    change, exactly the malformed schedule the progress guard watches
    for — then behaves like a constant link again. A burst below the
    guard threshold must be absorbed; at or above it must raise.
    """

    def __init__(self, kbps: float, burst: int):
        self.kbps = kbps
        self.burst = burst
        self.rtt_s = 0.0
        self._calls = {}

    def media_step(self, video_active, audio_active, t):
        share = self.kbps / (video_active + audio_active)
        return (
            share if video_active else 0.0,
            share if audio_active else 0.0,
            self.next_change_after(t),
        )

    def next_change_after(self, t: float) -> float:
        n = self._calls.get(t, 0) + 1
        self._calls[t] = n
        return t if n <= self.burst else math.inf


class TestStuckClockGuard:
    def test_coincident_burst_below_threshold_completes(self):
        network = _CoincidentBurstNetwork(
            4000.0, burst=Session.MAX_STUCK_EVENTS // 2
        )
        result = simulate(CONTENT, _fixed_player(), network)
        assert result.completed

    def test_wedged_schedule_raises_with_diagnostics(self):
        network = _CoincidentBurstNetwork(4000.0, burst=10_000_000)
        with pytest.raises(SimulationError) as err:
            simulate(CONTENT, _fixed_player(), network)
        message = str(err.value)
        assert "stuck" in message
        assert "t=" in message
        assert "video" in message and "audio" in message

    def test_wedged_schedule_raises_long_before_event_cap(self):
        network = _CoincidentBurstNetwork(4000.0, burst=10_000_000)
        config = SessionConfig(max_events=500_000)
        with pytest.raises(SimulationError) as err:
            Session(CONTENT, _fixed_player(), network, config).run()
        assert "stuck" in str(err.value)  # the guard, not the event cap

    def test_coincident_trace_boundaries_complete(self):
        # Both paths share one trace object: every segment boundary is
        # a coincident event on both lanes (plus the shared cursor).
        trace = square_wave(1200.0, 2600.0, half_period_s=4.0)
        network = SeparatePaths(trace, trace, rtt_s=0.05)
        result = simulate(
            CONTENT,
            FixedTracksPlayer(
                video_id="V1", audio_id="A1",
                buffer_target_s=30.0, balanced=False,
            ),
            network,
        )
        assert result.completed


class TestBufferSampleDedup:
    def _record(self, tmp_path, network):
        path = str(tmp_path / "session.events.jsonl")
        config = SessionConfig(observer=EventRecorder(path))
        result = Session(CONTENT, _fixed_player(), network, config).run()
        assert result.completed
        return path

    def test_no_identical_consecutive_samples_in_recordings(self, tmp_path):
        # The coincident burst would historically have re-sampled the
        # identical instant once per zero-dt event.
        network = _CoincidentBurstNetwork(4000.0, burst=8)
        path = self._record(tmp_path, network)
        samples = [
            (e["t"], e["video_s"], e["audio_s"])
            for e in scan_events(path).events
            if e["k"] == "buffer_sample"
        ]
        assert samples, "session recorded no buffer samples"
        for prev, cur in zip(samples, samples[1:]):
            assert cur != prev, f"duplicate buffer sample {cur}"

    def test_timeline_matches_recorded_samples(self, tmp_path):
        network = shared(square_wave(1200.0, 2600.0, half_period_s=4.0))
        path = self._record(tmp_path, network)
        result = simulate(CONTENT, _fixed_player(), network)
        recorded = [
            (e["t"], e["video_s"], e["audio_s"])
            for e in scan_events(path).events
            if e["k"] == "buffer_sample"
        ]
        live = [
            (s.t, s.video_level_s, s.audio_level_s)
            for s in result.buffer_timeline
        ]
        assert recorded == live


class TestCanonicalDiff:
    def _events_with_duplicate(self):
        return [
            {"k": "session_meta", "seq": 0, "label": "x"},
            {"k": "buffer_sample", "seq": 1, "t": 0.0, "video_s": 0.0, "audio_s": 0.0},
            {"k": "decision", "seq": 2, "t": 0.0, "medium": "video", "action": "wait", "until": "inf"},
            # The pre-dedup kernel re-sampled the identical instant:
            {"k": "buffer_sample", "seq": 3, "t": 0.0, "video_s": 0.0, "audio_s": 0.0},
            {"k": "verdict", "seq": 4, "t": 1.0, "completed": True},
        ]

    def test_canonicalize_drops_duplicate_and_seq(self):
        canon = canonicalize_events(self._events_with_duplicate())
        kinds = [e["k"] for e in canon]
        assert kinds == ["session_meta", "buffer_sample", "decision", "verdict"]
        assert all("seq" not in e for e in canon)

    def test_canonicalize_keeps_changed_samples(self):
        events = self._events_with_duplicate()
        events[3] = {
            "k": "buffer_sample", "seq": 3,
            "t": 0.0, "video_s": 4.0, "audio_s": 0.0,
        }
        canon = canonicalize_events(events)
        assert [e["k"] for e in canon].count("buffer_sample") == 2

    def test_byte_identical_logs_have_equal_canonical_forms(self, tmp_path):
        network = shared(square_wave(1200.0, 2600.0, half_period_s=4.0))
        paths = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.events.jsonl")
            config = SessionConfig(observer=EventRecorder(path))
            Session(CONTENT, _fixed_player(), network, config).run()
            paths.append(path)
        exact = diff_event_logs(paths[0], paths[1])
        canonical = diff_event_logs(paths[0], paths[1], canonical=True)
        assert exact.identical and canonical.identical

    def test_pre_dedup_log_diffs_clean_only_in_canonical_mode(self, tmp_path):
        network = shared(square_wave(1200.0, 2600.0, half_period_s=4.0))
        path = str(tmp_path / "new.events.jsonl")
        config = SessionConfig(observer=EventRecorder(path))
        Session(CONTENT, _fixed_player(), network, config).run()
        # Forge a pre-dedup recording: duplicate one buffer sample and
        # renumber, as the old kernel would have written it.
        events = scan_events(path).events
        old_style = []
        duplicated = False
        for event in events:
            old_style.append(dict(event))
            if not duplicated and event["k"] == "buffer_sample":
                old_style.append(dict(event))
                duplicated = True
        assert duplicated
        for seq, event in enumerate(old_style):
            event["seq"] = seq
        legacy = str(tmp_path / "legacy.events.jsonl")
        recorder = EventRecorder(legacy)
        for event in old_style:
            payload = {
                k: v for k, v in event.items() if k not in ("k", "seq")
            }
            recorder.emit(event["k"], payload)
        recorder.close()
        exact = diff_event_logs(path, legacy)
        assert not exact.identical
        canonical = diff_event_logs(path, legacy, canonical=True)
        assert canonical.identical, canonical.divergence
