"""Combination machinery (the substance of Tables 2 and 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.combinations import (
    Combination,
    CombinationSet,
    all_combinations,
    combinations_from_pairs,
    curated_combinations,
    hsub_combinations,
    proportional_pairing,
)
from repro.errors import MediaError
from repro.experiments.tables import PAPER_TABLE2, PAPER_TABLE3
from repro.media.content import synthetic_content
from repro.media.tracks import audio_track, video_track


class TestCombination:
    def test_aggregates_are_sums(self, content):
        combo = Combination(video=content.video.by_id("V3"), audio=content.audio.by_id("A2"))
        assert combo.avg_kbps == 362 + 196
        assert combo.peak_kbps == 641 + 199
        assert combo.declared_kbps == 473 + 196

    def test_name(self, content):
        combo = Combination(video=content.video.by_id("V1"), audio=content.audio.by_id("A3"))
        assert combo.name == "V1+A3"

    def test_video_role_enforced(self, content):
        with pytest.raises(MediaError):
            Combination(video=content.audio.by_id("A1"), audio=content.audio.by_id("A2"))

    def test_audio_role_enforced(self, content):
        with pytest.raises(MediaError):
            Combination(video=content.video.by_id("V1"), audio=content.video.by_id("V2"))


class TestTable2:
    def test_all_18_combinations(self, hall_combos):
        assert len(hall_combos) == 18

    def test_every_row_matches_paper(self, hall_combos):
        for name, avg, peak in hall_combos.rows():
            assert (avg, peak) == PAPER_TABLE2[name], name

    def test_ordered_by_peak(self, hall_combos):
        peaks = [c.peak_kbps for c in hall_combos]
        assert peaks == sorted(peaks)

    def test_first_and_last(self, hall_combos):
        assert hall_combos.lowest.name == "V1+A1"
        assert hall_combos.highest.name == "V6+A3"


class TestTable3:
    def test_six_combinations(self, hsub_combos):
        assert len(hsub_combos) == 6

    def test_rows_match_paper(self, hsub_combos):
        for name, avg, peak in hsub_combos.rows():
            assert (avg, peak) == PAPER_TABLE3[name], name

    def test_high_video_pairs_high_audio(self, hsub_combos):
        # The curation property the paper describes.
        assert set(hsub_combos.names) == {
            "V1+A1",
            "V2+A1",
            "V3+A2",
            "V4+A2",
            "V5+A3",
            "V6+A3",
        }


class TestCombinationSet:
    def test_contains_by_name_and_object(self, hsub_combos):
        assert "V3+A2" in hsub_combos
        assert hsub_combos.by_name("V3+A2") in hsub_combos
        assert "V3+A3" not in hsub_combos

    def test_by_name_missing(self, hsub_combos):
        with pytest.raises(MediaError):
            hsub_combos.by_name("V9+A9")

    def test_video_and_audio_tracks(self, hsub_combos):
        assert [t.track_id for t in hsub_combos.video_tracks()] == [
            "V1",
            "V2",
            "V3",
            "V4",
            "V5",
            "V6",
        ]
        assert [t.track_id for t in hsub_combos.audio_tracks()] == ["A1", "A2", "A3"]

    def test_empty_rejected(self):
        with pytest.raises(MediaError):
            CombinationSet([])

    def test_duplicates_rejected(self, content):
        combo = Combination(video=content.video.by_id("V1"), audio=content.audio.by_id("A1"))
        with pytest.raises(MediaError):
            CombinationSet([combo, combo])

    def test_rows_with_declared(self, hsub_combos):
        rows = hsub_combos.rows(include_declared=True)
        assert rows[0] == ("V1+A1", 239, 253, 239)


class TestPairing:
    def test_proportional_unbiased(self, content):
        pairs = proportional_pairing(content.video, content.audio)
        assert pairs == [
            ("V1", "A1"),
            ("V2", "A1"),
            ("V3", "A2"),
            ("V4", "A2"),
            ("V5", "A3"),
            ("V6", "A3"),
        ]

    def test_music_bias_raises_audio(self, content):
        pairs = proportional_pairing(content.video, content.audio, audio_bias=0.5)
        unbiased = proportional_pairing(content.video, content.audio)
        audio_rank = {tid: i for i, tid in enumerate(content.audio.track_ids)}
        for (_, biased_audio), (_, base_audio) in zip(pairs, unbiased):
            assert audio_rank[biased_audio] >= audio_rank[base_audio]

    def test_action_bias_lowers_audio(self, content):
        pairs = proportional_pairing(content.video, content.audio, audio_bias=-0.5)
        audio_rank = {tid: i for i, tid in enumerate(content.audio.track_ids)}
        unbiased = proportional_pairing(content.video, content.audio)
        for (_, biased_audio), (_, base_audio) in zip(pairs, unbiased):
            assert audio_rank[biased_audio] <= audio_rank[base_audio]

    def test_single_rung_ladders(self):
        small = synthetic_content("s", [100], [48], n_chunks=2)
        pairs = proportional_pairing(small.video, small.audio)
        assert pairs == [("V1", "A1")]

    def test_hsub_is_the_unbiased_proportional_pairing(self, content, hsub_combos):
        assert (
            tuple(curated_combinations(content).names) == hsub_combos.names
        )


class TestCuratedCombinations:
    def test_name_filter(self, content):
        combos = curated_combinations(content, name_filter=["V1+A1", "V3+A2"])
        assert set(combos.names) == {"V1+A1", "V3+A2"}

    def test_name_filter_excluding_everything_rejected(self, content):
        with pytest.raises(MediaError):
            curated_combinations(content, name_filter=["V9+A9"])

    def test_combinations_from_pairs_unknown_track(self, content):
        with pytest.raises(MediaError):
            combinations_from_pairs(content, [("V9", "A1")])


@st.composite
def _ladder_bitrates(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rates = draw(
        st.lists(
            st.floats(min_value=30, max_value=5000),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return sorted(rates)


class TestCombinationProperties:
    @settings(max_examples=30, deadline=None)
    @given(video=_ladder_bitrates(), audio=_ladder_bitrates())
    def test_all_combinations_size_and_order(self, video, audio):
        synthetic = synthetic_content("p", video, audio, n_chunks=2)
        combos = all_combinations(synthetic)
        assert len(combos) == len(video) * len(audio)
        peaks = [c.peak_kbps for c in combos]
        assert peaks == sorted(peaks)
