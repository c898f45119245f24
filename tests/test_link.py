"""Network path models."""

import pytest

from repro.errors import LinkConfigError, SimulationError, TraceError
from repro.net.link import SeparatePaths, SharedBottleneck, shared
from repro.net.traces import constant, from_pairs

class TestSharedBottleneck:
    def test_single_download_gets_full_rate(self):
        link = shared(constant(1000))
        assert link.media_step(True, False, 0.0)[:2] == (1000, 0.0)
        assert link.media_step(False, True, 0.0)[:2] == (0.0, 1000)

    def test_two_downloads_split_equally(self):
        # The fair split that halves Shaka's per-stream samples (Fig. 4a).
        link = shared(constant(1000))
        assert link.media_step(True, True, 0.0)[:2] == (500, 500)

    def test_no_downloads(self):
        assert shared(constant(1000)).media_step(False, False, 0.0)[:2] == (0.0, 0.0)

    def test_rate_follows_trace(self):
        link = shared(from_pairs([(10, 100), (10, 900)]))
        assert link.media_step(True, False, 5.0)[0] == 100
        assert link.media_step(True, False, 15.0)[0] == 900

    def test_next_change_delegates(self):
        link = shared(from_pairs([(10, 100), (10, 900)]))
        assert link.next_change_after(3) == 10
        assert link.media_step(True, False, 3)[2] == 10

    def test_negative_rtt_rejected(self):
        # A bad RTT is a simulation-setup mistake, not bad trace data.
        with pytest.raises(SimulationError):
            SharedBottleneck(constant(100), rtt_s=-0.1)

    def test_negative_rtt_error_type(self):
        with pytest.raises(LinkConfigError):
            SharedBottleneck(constant(100), rtt_s=-0.1)

    def test_negative_rtt_legacy_handlers_still_catch(self):
        # Deprecation shim: this historically raised TraceError, and
        # ``except TraceError`` handlers must keep working for now.
        with pytest.raises(TraceError):
            SharedBottleneck(constant(100), rtt_s=-0.1)

    def test_rtt_stored(self):
        assert shared(constant(100), rtt_s=0.05).rtt_s == 0.05


class TestSeparatePaths:
    def test_each_medium_gets_its_own_trace(self):
        paths = SeparatePaths(video_trace=constant(2000), audio_trace=constant(300))
        assert paths.media_step(True, True, 0.0)[:2] == (2000, 300)

    def test_concurrency_does_not_cross_media(self):
        # Audio downloading never steals video-path bandwidth.
        paths = SeparatePaths(video_trace=constant(2000), audio_trace=constant(300))
        solo = paths.media_step(True, False, 0.0)
        both = paths.media_step(True, True, 0.0)
        assert solo[0] == both[0] == 2000
        assert solo[1] == 0.0

    def test_next_change_is_min_over_paths(self):
        paths = SeparatePaths(
            video_trace=from_pairs([(10, 100), (10, 200)]),
            audio_trace=from_pairs([(4, 50), (4, 80)]),
        )
        assert paths.next_change_after(0) == 4
        assert paths.media_step(True, True, 0)[2] == 4

    def test_negative_rtt_rejected(self):
        with pytest.raises(SimulationError):
            SeparatePaths(constant(1), constant(1), rtt_s=-1)

    def test_negative_rtt_legacy_handlers_still_catch(self):
        with pytest.raises(TraceError):
            SeparatePaths(constant(1), constant(1), rtt_s=-1)
