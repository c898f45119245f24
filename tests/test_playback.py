"""Playback tracker: the demuxed stall semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.playback import PlaybackState, PlaybackTracker
from repro.sim.records import ResultFold


def make_tracker(duration=300.0, startup=5.0, resume=5.0):
    return PlaybackTracker(
        content_duration_s=duration,
        startup_threshold_s=startup,
        resume_threshold_s=resume,
        fold=ResultFold(duration, 1.0, 1),
    )


class TestStartup:
    def test_initial_state(self):
        tracker = make_tracker()
        assert tracker.state is PlaybackState.STARTUP
        assert tracker.position_s == 0.0
        assert tracker.fold.result.startup_delay_s is None

    def test_does_not_start_below_threshold(self):
        tracker = make_tracker()
        tracker.update_state(now=1.0, frontier_s=4.9, all_downloaded=False)
        assert tracker.state is PlaybackState.STARTUP

    def test_starts_at_threshold(self):
        tracker = make_tracker()
        tracker.update_state(now=2.0, frontier_s=5.0, all_downloaded=False)
        assert tracker.state is PlaybackState.PLAYING
        assert tracker.fold.result.startup_delay_s == 2.0

    def test_starts_when_everything_downloaded(self):
        tracker = make_tracker(duration=3.0, startup=5.0)
        tracker.update_state(now=1.0, frontier_s=3.0, all_downloaded=True)
        assert tracker.state is PlaybackState.PLAYING

    def test_threshold_shrinks_near_content_end(self):
        tracker = make_tracker(duration=4.0, startup=5.0)
        # Only 4 s of content exist; 4 s buffered must be enough.
        tracker.update_state(now=1.0, frontier_s=4.0, all_downloaded=False)
        assert tracker.state is PlaybackState.PLAYING

    def test_no_advance_while_startup(self):
        tracker = make_tracker()
        tracker.advance(3.0, frontier_s=0.0)
        assert tracker.position_s == 0.0


class TestStalls:
    def _playing_tracker(self):
        tracker = make_tracker()
        tracker.update_state(now=0.0, frontier_s=10.0, all_downloaded=False)
        assert tracker.state is PlaybackState.PLAYING
        return tracker

    def test_stall_when_frontier_reached(self):
        tracker = self._playing_tracker()
        tracker.advance(10.0, frontier_s=10.0)
        tracker.update_state(now=10.0, frontier_s=10.0, all_downloaded=False)
        assert tracker.state is PlaybackState.STALLED
        assert len(tracker.fold.result.stalls) == 1
        assert tracker.fold.result.stalls[0].start_s == 10.0
        assert tracker.fold.result.stalls[0].end_s is None

    def test_resume_closes_stall(self):
        tracker = self._playing_tracker()
        tracker.advance(10.0, frontier_s=10.0)
        tracker.update_state(now=10.0, frontier_s=10.0, all_downloaded=False)
        tracker.update_state(now=14.0, frontier_s=16.0, all_downloaded=False)
        assert tracker.state is PlaybackState.PLAYING
        assert tracker.fold.result.stalls[0].end_s == 14.0
        assert tracker.fold.result.stalls[0].duration_s == pytest.approx(4.0)

    def test_no_resume_below_resume_threshold(self):
        tracker = self._playing_tracker()
        tracker.advance(10.0, frontier_s=10.0)
        tracker.update_state(now=10.0, frontier_s=10.0, all_downloaded=False)
        tracker.update_state(now=11.0, frontier_s=12.0, all_downloaded=False)
        assert tracker.state is PlaybackState.STALLED

    def test_end_of_content_is_not_a_stall(self):
        tracker = make_tracker(duration=10.0)
        tracker.update_state(now=0.0, frontier_s=10.0, all_downloaded=True)
        tracker.advance(10.0, frontier_s=10.0)
        tracker.update_state(now=10.0, frontier_s=10.0, all_downloaded=True)
        assert tracker.state is PlaybackState.ENDED
        assert tracker.fold.result.stalls == []

    def test_close_seals_open_stall(self):
        tracker = self._playing_tracker()
        tracker.advance(10.0, frontier_s=10.0)
        tracker.update_state(now=10.0, frontier_s=10.0, all_downloaded=False)
        tracker.close(now=12.5)
        assert tracker.fold.result.stalls[0].end_s == 12.5


class TestAdvance:
    def test_overshoot_rejected(self):
        tracker = make_tracker()
        tracker.update_state(now=0.0, frontier_s=10.0, all_downloaded=False)
        with pytest.raises(SimulationError):
            tracker.advance(11.0, frontier_s=10.0)

    def test_negative_step_rejected(self):
        tracker = make_tracker()
        with pytest.raises(SimulationError):
            tracker.advance(-0.1, frontier_s=10.0)

    def test_position_tracks_play_time(self):
        tracker = make_tracker()
        tracker.update_state(now=0.0, frontier_s=50.0, all_downloaded=False)
        tracker.advance(7.25, frontier_s=50.0)
        assert tracker.position_s == pytest.approx(7.25)


class TestValidation:
    def test_duration_positive(self):
        with pytest.raises(SimulationError):
            make_tracker(duration=0)

    def test_thresholds_positive(self):
        with pytest.raises(SimulationError):
            make_tracker(startup=0)
        with pytest.raises(SimulationError):
            make_tracker(resume=-1)
