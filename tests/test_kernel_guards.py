"""Kernel progress guards and buffer-sample dedup.

The event loop tolerates bursts of coincident (zero-length) events —
trace boundaries landing exactly on wake-ups, completions at segment
edges — but a run of zero-dt events with *bit-identical* kernel state
means the schedule is wedged (classically: a network model whose
``next_change_after`` is not strictly in the future) and must raise
``SimulationError`` with diagnostics instead of spinning to the event
cap. A schedule that does advance, only by too little to ever finish,
runs into that cap instead. These tests pin both guards, the coincident
buffer-sample dedup, and that ``diff-events`` flags a duplicated sample.
"""

import math

import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.media.content import drama_show
from repro.media.tracks import MediaType
from repro.net.link import NetworkModel, SeparatePaths, shared
from repro.net.traces import square_wave
from repro.players.fixed import FixedTracksPlayer
from repro.replay import EventRecorder, diff_event_logs, scan_events
from repro.sim.constants import EPS
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


class _CreepingNetwork(NetworkModel):
    """A constant link whose every "rate change" lies just ahead.

    Each step is longer than the kernel tolerance, so no two events see
    the same clock and the stuck-clock guard never trips; the session
    crawls forward one tiny event at a time until the event cap stops
    it.
    """

    STEP_S = 10 * EPS

    def __init__(self, kbps: float):
        self.kbps = kbps
        self.rtt_s = 0.0

    def media_step(self, video_active, audio_active, t):
        share = self.kbps / (video_active + audio_active)
        return (
            share if video_active else 0.0,
            share if audio_active else 0.0,
            self.next_change_after(t),
        )

    def next_change_after(self, t: float) -> float:
        return t + self.STEP_S


class TestEventCap:
    def test_creeping_schedule_raises_at_the_event_cap(self):
        config = SessionConfig(max_events=2_000)
        session = Session(
            CONTENT, _fixed_player(), _CreepingNetwork(4000.0), config
        )
        with pytest.raises(SimulationError) as err:
            session.run()
        message = str(err.value)
        assert "event cap (2000) exceeded" in message
        assert "stuck" not in message  # the cap, not the stuck-clock guard
        assert session.now < 1.0  # it crawled: no chunk could finish


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


class TestDuplicateSampleDiff:
    def test_plain_diff_flags_a_duplicate_sample(self, tmp_path, capsys):
        network = shared(square_wave(1200.0, 2600.0, half_period_s=4.0))
        path = str(tmp_path / "new.events.jsonl")
        config = SessionConfig(observer=EventRecorder(path))
        Session(CONTENT, _fixed_player(), network, config).run()
        # Forge a log that repeats one buffer sample, renumbered as the
        # kernel writes seq: the kernel never emits such a pair.
        forged = []
        for event in scan_events(path).events:
            forged.append(dict(event))
            if len(forged) == 2 and event["k"] == "buffer_sample":
                forged.append(dict(event))
        assert [e["k"] for e in forged[1:3]] == ["buffer_sample"] * 2
        duplicate = str(tmp_path / "duplicate.events.jsonl")
        recorder = EventRecorder(duplicate)
        for event in forged:
            payload = {
                k: v for k, v in event.items() if k not in ("k", "seq")
            }
            recorder.emit(event["k"], payload)
        recorder.close()
        report = diff_event_logs(path, duplicate)
        assert not report.identical
        assert report.divergence.index == 2
        assert main(["diff-events", path, duplicate]) == 1
        assert "first divergence at event 2" in capsys.readouterr().out
