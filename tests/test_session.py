"""End-to-end session mechanics with a deterministic fixed player."""

import dataclasses
import gc
import math
import weakref

import pytest

from repro.errors import PlayerError, SimulationError
from repro.media.chunks import ChunkTable
from repro.media.content import Content
from repro.media.tracks import MediaType, audio_track, make_ladder, video_track
from repro.net.link import SeparatePaths, shared
from repro.net.resilience import RetryPolicy
from repro.net.traces import constant, from_pairs
from repro.players.base import BasePlayer
from repro.players.fixed import FixedTracksPlayer
from repro.runner.jobs import (
    PLAYER_NAMES,
    PRACTICE_PLAYER_NAMES,
    FailureSpec,
    PlayerSpec,
    SimulationJob,
    TraceSpec,
)
from repro.sim.decisions import Download, download_for
from repro.sim.session import Session, SessionConfig, simulate

V = MediaType.VIDEO
A = MediaType.AUDIO


def flat_content(video_kbps=100.0, audio_kbps=48.0, n_chunks=4, duration_s=5.0):
    """CBR content whose chunk sizes are exactly rate x duration."""
    video = video_track("V1", video_kbps, video_kbps)
    audio = audio_track("A1", audio_kbps, audio_kbps, audio_kbps)
    table = ChunkTable(
        duration_s,
        {
            "V1": [video_kbps * 1000 * duration_s] * n_chunks,
            "A1": [audio_kbps * 1000 * duration_s] * n_chunks,
        },
    )
    return Content(
        name="flat",
        video=make_ladder(MediaType.VIDEO, [video]),
        audio=make_ladder(MediaType.AUDIO, [audio]),
        chunk_table=table,
    )


class TestHappyPath:
    def test_completes_with_exact_timing(self):
        content = flat_content()
        player = FixedTracksPlayer("V1", "A1")
        result = simulate(content, player, shared(constant(1000.0)))
        assert result.completed
        # Balanced alternation: V0 (500 kb @ 1 Mbps = 0.5 s), A0 (240 kb
        # = 0.24 s) -> startup at 0.74 s, playback 20 s -> end at 20.74.
        assert result.startup_delay_s == pytest.approx(0.74)
        assert result.ended_at_s == pytest.approx(20.74)
        assert result.n_stalls == 0

    def test_download_order_alternates(self):
        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        order = [(r.medium, r.chunk_index) for r in result.downloads]
        assert order == [
            (V, 0), (A, 0), (V, 1), (A, 1), (V, 2), (A, 2), (V, 3), (A, 3),
        ]

    def test_all_chunks_downloaded_once(self):
        content = flat_content(n_chunks=7)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        for medium in (V, A):
            indices = [r.chunk_index for r in result.downloads_of(medium)]
            assert indices == list(range(7))

    def test_throughput_records(self):
        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        video_record = result.downloads_of(V)[0]
        assert video_record.throughput_kbps == pytest.approx(1000.0)
        assert video_record.duration_s == pytest.approx(0.5)

    def test_unbalanced_concurrent_split(self):
        content = flat_content()
        player = FixedTracksPlayer("V1", "A1", balanced=False)
        result = simulate(content, player, shared(constant(1000.0)))
        assert result.completed
        # First chunks download concurrently at 500 kbps each: the audio
        # chunk (240 kb) finishes at 0.48 s.
        audio_first = result.downloads_of(A)[0]
        assert audio_first.completed_at == pytest.approx(0.48)


class TestStalling:
    def test_underprovisioned_link_stalls(self):
        content = flat_content(n_chunks=8)
        # Consumption is 148 kbps; an 80 kbps link must rebuffer.
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(80.0)))
        assert result.completed
        assert result.n_stalls >= 1
        assert result.total_rebuffer_s > 0
        assert result.ended_at_s > content.duration_s

    def test_stall_intervals_are_disjoint_and_ordered(self):
        content = flat_content(n_chunks=8)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(80.0)))
        for stall in result.stalls:
            assert stall.end_s is not None and stall.end_s >= stall.start_s
        for first, second in zip(result.stalls, result.stalls[1:]):
            assert second.start_s >= first.end_s

    def test_playback_time_conservation(self):
        content = flat_content(n_chunks=8)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(80.0)))
        # end = startup + content duration + total rebuffering (exactly).
        assert result.ended_at_s == pytest.approx(
            result.startup_delay_s + content.duration_s + result.total_rebuffer_s
        )

    def test_fast_link_no_stalls(self):
        content = flat_content(n_chunks=8)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(10_000.0)))
        assert result.n_stalls == 0


class TestNetworkVariants:
    def test_rtt_delays_completion(self):
        content = flat_content()
        result = simulate(
            content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0), rtt_s=0.1)
        )
        video_first = result.downloads_of(V)[0]
        assert video_first.completed_at == pytest.approx(0.6)  # 0.1 rtt + 0.5

    def test_rtt_dead_time_has_no_bits(self):
        content = flat_content()
        result = simulate(
            content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0), rtt_s=0.1)
        )
        video_first = result.downloads_of(V)[0]
        assert all(s.start_s >= 0.1 - 1e-9 for s in video_first.segments)

    def test_separate_paths(self):
        content = flat_content()
        network = SeparatePaths(
            video_trace=constant(1000.0), audio_trace=constant(100.0)
        )
        result = simulate(
            content, FixedTracksPlayer("V1", "A1", balanced=False), network
        )
        assert result.completed
        video_first = result.downloads_of(V)[0]
        audio_first = result.downloads_of(A)[0]
        assert video_first.throughput_kbps == pytest.approx(1000.0)
        assert audio_first.throughput_kbps == pytest.approx(100.0)

    def test_trace_change_mid_download(self):
        content = flat_content(n_chunks=1)
        # 250 kb of the 500 kb video chunk at 1000 kbps (0.25 s of the
        # 0.5 s trace phase)... then the link drops to 100 kbps.
        trace = from_pairs([(0.25, 1000.0), (100.0, 100.0)], loop=False)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(trace))
        video_first = result.downloads_of(V)[0]
        # 250 kb at 1000 kbps + 250 kb at 100 kbps = 0.25 + 2.5 s.
        assert video_first.completed_at == pytest.approx(2.75)
        assert len(video_first.segments) == 2


class TestSharedTraceObject:
    """One trace object feeding multiple consumers must behave exactly
    like private copies: the trace is immutable and every link model
    holds its own TraceCursor, so no query order can leak state."""

    PAIRS = [(0.4, 1200.0), (0.6, 300.0), (0.5, 2000.0)]

    def _result_key(self, result):
        return [
            (r.medium, r.chunk_index, r.started_at, r.completed_at)
            for r in result.downloads
        ]

    def test_two_sessions_over_one_trace_object(self):
        # Session A leaves its cursor deep in the trace; session B must
        # start from t=0 unaffected, byte-identical to a fresh trace.
        trace = from_pairs(self.PAIRS)
        content = flat_content(n_chunks=6)

        def run(t):
            return simulate(content, FixedTracksPlayer("V1", "A1"), shared(t))

        a_shared = run(trace)
        b_shared = run(trace)
        fresh = run(from_pairs(self.PAIRS))
        assert self._result_key(a_shared) == self._result_key(fresh)
        assert self._result_key(b_shared) == self._result_key(fresh)
        assert b_shared.ended_at_s == fresh.ended_at_s

    def test_separate_paths_sharing_one_trace_between_media(self):
        # The audio and video lanes interleave queries at different
        # times *within* one session — the tightest interleaving the
        # kernel produces. Same object for both lanes must equal two
        # private copies.
        trace = from_pairs(self.PAIRS)
        content = flat_content(n_chunks=6)
        one_object = simulate(
            content,
            FixedTracksPlayer("V1", "A1", balanced=False),
            SeparatePaths(video_trace=trace, audio_trace=trace),
        )
        two_copies = simulate(
            content,
            FixedTracksPlayer("V1", "A1", balanced=False),
            SeparatePaths(
                video_trace=from_pairs(self.PAIRS),
                audio_trace=from_pairs(self.PAIRS),
            ),
        )
        assert self._result_key(one_object) == self._result_key(two_copies)
        assert one_object.ended_at_s == two_copies.ended_at_s


class TestBufferCaps:
    def test_buffer_target_paces_downloads(self):
        content = flat_content(n_chunks=20)
        player = FixedTracksPlayer("V1", "A1", buffer_target_s=10.0)
        session = Session(content, player, shared(constant(10_000.0)))
        result = session.run()
        assert result.completed
        # The buffer may overshoot by at most one chunk above the target.
        max_level = max(s.video_level_s for s in result.buffer_timeline)
        assert max_level <= 10.0 + content.chunk_duration_s + 1e-6

    def test_buffer_samples_are_consistent(self):
        content = flat_content(n_chunks=10)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(500.0)))
        for sample in result.buffer_timeline:
            assert sample.video_level_s >= -1e-9
            assert sample.audio_level_s >= -1e-9


class TestInternedDecisions:
    def test_interned_decision_is_shared_and_frozen(self):
        # Every player asking for V1 holds this one object.
        decision = download_for("V1")
        assert download_for("V1") is decision
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.track_id = "A1"


class _WrongMediumPlayer(BasePlayer):
    def choose_next(self, medium, ctx):
        return Download(track_id="A1" if medium is V else "V1")


class _GarbagePlayer(BasePlayer):
    def choose_next(self, medium, ctx):
        return "download please"


class TestErrorHandling:
    def test_wrong_medium_track_rejected(self):
        content = flat_content()
        with pytest.raises(PlayerError):
            simulate(content, _WrongMediumPlayer(), shared(constant(1000.0)))

    def test_garbage_decision_rejected(self):
        content = flat_content()
        with pytest.raises(PlayerError):
            simulate(content, _GarbagePlayer(), shared(constant(1000.0)))

    def test_event_cap(self):
        content = flat_content(n_chunks=20)
        config = SessionConfig(max_events=3)
        with pytest.raises(SimulationError):
            simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)), config)

    def test_dead_link_deadlocks_cleanly(self):
        content = flat_content()
        with pytest.raises(SimulationError):
            simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(0.0)))

    def test_sim_time_cutoff_marks_incomplete(self):
        content = flat_content(n_chunks=8)
        config = SessionConfig(max_sim_time_s=3.0)
        result = simulate(
            content, FixedTracksPlayer("V1", "A1"), shared(constant(80.0)), config
        )
        assert not result.completed


class TestResultAccessors:
    def test_selected_combinations(self):
        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        assert result.selected_combinations() == [
            (0, "V1", "A1"),
            (1, "V1", "A1"),
            (2, "V1", "A1"),
            (3, "V1", "A1"),
        ]
        assert result.distinct_combinations() == ["V1+A1"]

    def test_selected_combinations_take_the_first_download_per_position(self):
        from repro.sim.records import DownloadRecord, SessionResult

        result = SessionResult(8.0, 2.0, 4)
        for medium, track_id, index in [
            (V, "V1", 0),
            (MediaType.AUDIO, "A1", 0),
            (V, "V2", 1),
            (V, "V3", 1),
            (MediaType.AUDIO, "A2", 2),
        ]:
            result.downloads.append(
                DownloadRecord(medium, track_id, index, 1e5, 0.0, 1.0)
            )
        expected = [
            (i, result.track_for(V, i), result.track_for(MediaType.AUDIO, i))
            for i in range(4)
        ]
        assert result.selected_combinations() == expected
        assert expected == [
            (0, "V1", "A1"),
            (1, "V2", None),
            (2, None, "A2"),
            (3, None, None),
        ]

    def test_track_usage_and_switches(self):
        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        assert result.track_usage(V) == {"V1": 4}
        assert result.switch_count(V) == 0

    def test_summary_keys(self):
        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        summary = result.summary()
        for key in (
            "completed",
            "startup_delay_s",
            "n_stalls",
            "total_rebuffer_s",
            "video_kbps",
            "audio_kbps",
            "combinations",
        ):
            assert key in summary

    def test_to_dict_is_json_serializable(self):
        import json

        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        data = json.loads(json.dumps(result.to_dict()))
        assert data["n_chunks"] == 4
        assert len(data["downloads"]) == 8
        assert data["downloads"][0]["medium"] == "video"
        assert data["summary"]["completed"] is True
        assert "buffer_timeline" in data

    def test_to_dict_without_timelines(self):
        content = flat_content()
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        data = result.to_dict(include_timelines=False)
        assert "buffer_timeline" not in data
        assert "estimate_timeline" not in data

    def test_time_weighted_bitrates(self):
        content = flat_content(video_kbps=100, audio_kbps=48)
        result = simulate(content, FixedTracksPlayer("V1", "A1"), shared(constant(1000.0)))
        assert result.time_weighted_bitrate_kbps(V) == pytest.approx(100.0)
        assert result.time_weighted_bitrate_kbps(A) == pytest.approx(48.0)


class TestLifetime:
    @pytest.mark.parametrize("failing", [False, True], ids=["clean", "failing"])
    @pytest.mark.parametrize("name", PLAYER_NAMES)
    def test_a_finished_session_is_freed_by_refcount(self, name, failing):
        # Nothing of a finished session may sit in a reference cycle, or
        # each one (its result included) waits for the cycle collector
        # and peak memory follows collector timing.
        job = SimulationJob(
            player=PlayerSpec(name),
            trace=TraceSpec.constant(900.0),
            failure=FailureSpec(0.2, seed=1, taxonomy=True) if failing else None,
            retry_policy=RetryPolicy() if failing else None,
        )
        session = Session(*job.build())
        gc.disable()
        try:
            result = session.run()
            refs = [weakref.ref(o) for o in (session, session.player, result)]
            del session, result
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", PLAYER_NAMES + PRACTICE_PLAYER_NAMES)
    def test_a_finished_session_leaves_nothing_for_the_collector(self, name):
        # Decision code may not leave cycles behind either (a recursive
        # closure is one): with the collector off, everything a session
        # allocated must already be gone when the collector runs.
        job = SimulationJob(player=PlayerSpec(name), trace=TraceSpec.constant(900.0))
        session = Session(*job.build())
        gc.collect()
        gc.disable()
        try:
            session.run()
            del session
            assert gc.collect() == 0
        finally:
            gc.enable()
