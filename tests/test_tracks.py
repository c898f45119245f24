"""Track and Ladder models."""

import pytest

from repro.errors import MediaError
from repro.media.tracks import (
    Ladder,
    MediaType,
    Track,
    audio_track,
    make_ladder,
    video_track,
)


class TestTrack:
    def test_video_track_fields(self):
        track = video_track("V3", 362, 641, 473, height=360)
        assert track.media_type is MediaType.VIDEO
        assert track.is_video and not track.is_audio
        assert track.avg_kbps == 362
        assert track.peak_kbps == 641
        assert track.declared_kbps == 473
        assert track.height == 360

    def test_audio_track_fields(self):
        track = audio_track("A2", 196, 199, 196, channels=6, sampling_khz=48.0)
        assert track.media_type is MediaType.AUDIO
        assert track.is_audio and not track.is_video
        assert track.channels == 6
        assert track.sampling_khz == 48.0

    def test_declared_defaults_to_average(self):
        # Table 1: audio declared bitrate equals the average bitrate.
        track = audio_track("A1", 128)
        assert track.declared_kbps == 128

    def test_audio_peak_defaults_slightly_above_average(self):
        track = audio_track("A1", 100)
        assert 100 < track.peak_kbps < 110

    def test_empty_id_rejected(self):
        with pytest.raises(MediaError):
            Track("", MediaType.VIDEO, 100, 150)

    def test_nonpositive_avg_rejected(self):
        with pytest.raises(MediaError):
            Track("V1", MediaType.VIDEO, 0, 100)

    def test_peak_below_avg_rejected(self):
        with pytest.raises(MediaError):
            Track("V1", MediaType.VIDEO, 200, 100)

    def test_nonpositive_declared_rejected(self):
        with pytest.raises(MediaError):
            Track("V1", MediaType.VIDEO, 100, 150, declared_kbps=-1)

    def test_describe_video(self):
        text = video_track("V1", 111, 119, height=144).describe()
        assert "V1" in text and "144p" in text

    def test_describe_audio(self):
        text = audio_track("A1", 128, channels=2, sampling_khz=44.0).describe()
        assert "2 ch" in text and "44 kHz" in text

    def test_frozen(self):
        track = video_track("V1", 111, 119)
        with pytest.raises(AttributeError):
            track.avg_kbps = 999


class TestLadder:
    def _video_ladder(self):
        return make_ladder(
            MediaType.VIDEO,
            [video_track("V2", 246, 261), video_track("V1", 111, 119)],
        )

    def test_make_ladder_sorts_by_declared(self):
        ladder = self._video_ladder()
        assert ladder.track_ids == ("V1", "V2")

    def test_len_iter_getitem(self):
        ladder = self._video_ladder()
        assert len(ladder) == 2
        assert [t.track_id for t in ladder] == ["V1", "V2"]
        assert ladder[1].track_id == "V2"

    def test_lowest_highest(self):
        ladder = self._video_ladder()
        assert ladder.lowest.track_id == "V1"
        assert ladder.highest.track_id == "V2"

    def test_index_of(self):
        ladder = self._video_ladder()
        assert ladder.index_of("V2") == 1

    def test_index_of_missing_raises(self):
        with pytest.raises(MediaError):
            self._video_ladder().index_of("V9")

    def test_by_id(self):
        assert self._video_ladder().by_id("V1").avg_kbps == 111

    def test_empty_rejected(self):
        with pytest.raises(MediaError):
            Ladder(media_type=MediaType.VIDEO, tracks=())

    def test_mixed_media_rejected(self):
        with pytest.raises(MediaError):
            Ladder(
                media_type=MediaType.VIDEO,
                tracks=(video_track("V1", 111, 119), audio_track("A1", 128)),
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MediaError):
            Ladder(
                media_type=MediaType.VIDEO,
                tracks=(video_track("V1", 111, 119), video_track("V1", 246, 261)),
            )

    def test_unsorted_rejected(self):
        with pytest.raises(MediaError):
            Ladder(
                media_type=MediaType.VIDEO,
                tracks=(video_track("V2", 246, 261), video_track("V1", 111, 119)),
            )
