"""Packager semantics (the Bento4 stand-in)."""

import pytest

from repro.core.combinations import hsub_combinations
from repro.errors import ManifestError
from repro.manifest.hls import HlsMediaPlaylist
from repro.manifest.packager import (
    HlsPackage,
    hls_master,
    package_hls,
    write_dash_package,
)
from repro.media.content import drama_show


class TestHlsPackaging:
    def test_default_is_hall(self, hls_all):
        assert len(hls_all.master.variants) == 18

    def test_media_playlist_per_track(self, hls_all, content):
        expected = set(content.video.track_ids) | set(content.audio.track_ids)
        assert set(hls_all.media_playlists) == expected

    def test_hsub_only_packages_needed_tracks(self, hls_sub):
        # All 6 video + all 3 audio tracks appear in H_sub.
        assert set(hls_sub.media_playlists) == {
            "V1", "V2", "V3", "V4", "V5", "V6", "A1", "A2", "A3",
        }

    def test_variant_uris_encode_the_pair(self, hls_sub):
        uris = {v.uri for v in hls_sub.master.variants}
        assert "V3_A2.m3u8" in uris

    def test_variants_sorted_by_bandwidth(self, hls_all):
        bandwidths = [v.bandwidth_bps for v in hls_all.master.variants]
        assert bandwidths == sorted(bandwidths)

    def test_manifest_order_preserved_on_request(self, content):
        combos = hsub_combinations(content)
        package = package_hls(content, combinations=combos, variant_order="manifest")
        names = [v.name for v in package.master.variants]
        assert names == list(combos.names)

    def test_bad_variant_order_rejected(self, content):
        with pytest.raises(ManifestError):
            package_hls(content, variant_order="random")

    def test_audio_order_controls_rendition_listing(self, content):
        package = package_hls(content, audio_order=["A3", "A2", "A1"])
        assert [r.name for r in package.master.renditions] == ["A3", "A2", "A1"]

    def test_audio_order_must_cover_used_tracks(self, content):
        with pytest.raises(ManifestError):
            package_hls(content, audio_order=["A1"])

    def test_single_file_emits_byteranges(self, hls_all):
        playlist = hls_all.media_playlist("V1")
        assert all(s.byterange is not None for s in playlist.segments)
        # Offsets are contiguous.
        offset = 0
        for segment in playlist.segments:
            length, start = segment.byterange
            assert start == offset
            offset += length

    def test_chunk_per_file_has_no_byteranges(self, content):
        package = package_hls(content, single_file=False)
        playlist = package.media_playlist("V1")
        assert all(s.byterange is None for s in playlist.segments)
        assert len({s.uri for s in playlist.segments}) == len(playlist.segments)

    def test_missing_media_playlist_lookup(self, hls_all):
        with pytest.raises(ManifestError):
            hls_all.media_playlist("V9")

    def test_write_all_produces_documents(self, hls_sub):
        files = hls_sub.write_all()
        assert "master.m3u8" in files
        assert "V1.m3u8" in files and "A3.m3u8" in files
        assert all(text.startswith("#EXTM3U") for text in files.values())


class TestHlsMaster:
    @pytest.mark.parametrize(
        "listing, audio_order",
        [("hsub", None), ("all", None), ("hsub", ["A3", "A2", "A1"])],
        ids=["hsub", "all", "a3-first"],
    )
    def test_equals_the_package_master(self, content, listing, audio_order):
        combos = hsub_combinations(content) if listing == "hsub" else None
        package = package_hls(content, combos, audio_order)
        assert hls_master(content, combos, audio_order) == package.master

    def test_hls_players_build_no_media_playlist(self, content, monkeypatch):
        from repro.runner.jobs import PlayerSpec

        built = []
        monkeypatch.setattr(
            HlsMediaPlaylist, "__post_init__", lambda self: built.append(self)
        )
        for spec in (
            PlayerSpec("exoplayer-hls"),
            PlayerSpec("exoplayer-hls", audio_order=("A3", "A2", "A1")),
            PlayerSpec("shaka"),
            PlayerSpec("shaka", combinations="all"),
        ):
            spec.build(content)
        assert built == []
        package_hls(content)
        assert len(built) == 9  # the counter sees a full package


class TestDerivedTrackBitrates:
    def test_byterange_package_yields_bitrates(self, hls_all, content):
        derived = hls_all.derived_track_bitrates()
        for track in list(content.video) + list(content.audio):
            avg, peak = derived[track.track_id]
            assert avg == pytest.approx(track.avg_kbps, rel=0.01)
            assert peak == pytest.approx(track.peak_kbps, rel=0.01)

    def test_blind_package_raises(self, content):
        package = package_hls(content, single_file=False, include_bitrate_tag=False)
        with pytest.raises(ManifestError):
            package.derived_track_bitrates()


class TestDashPackaging:
    def test_write_dash_package(self, content):
        files = write_dash_package(content)
        assert set(files) == {"manifest.mpd"}
        assert files["manifest.mpd"].startswith("<?xml")
