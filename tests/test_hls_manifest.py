"""HLS master/media playlist model, writer and parser."""

import pytest

from repro.errors import ManifestError, ManifestParseError
from repro.manifest.dash import parse_mpd, write_mpd
from repro.manifest.hls import (
    HlsMasterPlaylist,
    HlsMediaPlaylist,
    HlsRendition,
    HlsSegment,
    HlsVariant,
    parse_attribute_list,
    parse_master_playlist,
    parse_media_playlist,
    write_master_playlist,
    write_media_playlist,
)


class TestAttributeParser:
    def test_simple(self):
        assert parse_attribute_list("BANDWIDTH=253000") == (
            {"BANDWIDTH": "253000"},
            [],
        )

    def test_quoted_value_with_comma(self):
        attrs, problems = parse_attribute_list(
            'CODECS="avc1.640028,mp4a.40.2",BANDWIDTH=100'
        )
        assert attrs["CODECS"] == "avc1.640028,mp4a.40.2"
        assert attrs["BANDWIDTH"] == "100"
        assert problems == []

    def test_multiple(self):
        attrs, problems = parse_attribute_list('TYPE=AUDIO,GROUP-ID="audio",NAME="A1"')
        assert attrs == {"TYPE": "AUDIO", "GROUP-ID": "audio", "NAME": "A1"}
        assert problems == []

    def test_unterminated_quote(self):
        _, problems = parse_attribute_list('NAME="oops')
        assert problems == ["unterminated quote in attribute list: 'NAME=\"oops'"]
        with pytest.raises(ManifestParseError):
            parse_master_playlist('#EXTM3U\n#EXT-X-STREAM-INF:NAME="oops\nv.m3u8\n')

    def test_key_without_value(self):
        attrs, problems = parse_attribute_list("KEYONLY,X=1")
        assert attrs == {"X": "1"}
        assert problems == ["attribute 'KEYONLY' has no value"]
        with pytest.raises(ManifestParseError):
            parse_master_playlist(
                "#EXTM3U\n#EXT-X-STREAM-INF:KEYONLY,BANDWIDTH=1\nv.m3u8\n"
            )

    @pytest.mark.parametrize(
        "text, attrs, problems",
        [
            ('A"B,C=1', {"C": "1"}, ["attribute 'A\"B' has no value"]),
            ("X=a=b", {"X": "a=b"}, []),
            ('X="a"b"c,d",Y=2', {"X": 'a"b"c,d', "Y": "2"}, []),
            (' K = " v " , ,L=', {"K": " v ", "L": ""}, []),
            (
                'N="a,b',
                {"N": "a,b,"},
                ["unterminated quote in attribute list: 'N=\"a,b'"],
            ),
        ],
    )
    def test_grammar_edges(self, text, attrs, problems):
        # Quotes open only inside a value; an unclosed one runs to the end.
        assert parse_attribute_list(text) == (attrs, problems)


_MASTER = "#EXTM3U\n#EXT-X-VERSION:6\n#EXT-X-STREAM-INF:BANDWIDTH=100\nv.m3u8\n"
_MEDIA = (
    "#EXTM3U\n#EXT-X-TARGETDURATION:5\n#EXT-X-BITRATE:800\n#EXTINF:5.0,\n"
    "#EXT-X-BYTERANGE:100@0\nf.mp4\n#EXT-X-ENDLIST\n"
)


def _mpd_with(old, new, manifest):
    text = write_mpd(manifest)
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_master_playlist, _MASTER.replace("VERSION:6", "VERSION:x")),
        (parse_master_playlist, _MASTER.replace("BANDWIDTH=100", "BANDWIDTH=abc")),
        (parse_media_playlist, _MEDIA.replace("EXTINF:5.0,", "EXTINF:abc,")),
        (parse_media_playlist, _MEDIA.replace("BYTERANGE:100@0", "BYTERANGE:zz@0")),
        (parse_media_playlist, _MEDIA.replace("BITRATE:800", "BITRATE:fast")),
        (parse_mpd, (' bandwidth="', ' bandwidth="x')),
        (parse_mpd, (' width="', ' width="w')),
        (parse_mpd, ('Duration="PT5M', 'Duration="PTM')),
    ],
    ids=[
        "master-version",
        "master-bandwidth",
        "media-extinf",
        "media-byterange",
        "media-bitrate",
        "mpd-bandwidth",
        "mpd-width",
        "mpd-duration",
    ],
)
def test_malformed_number_raises_parse_error(parse, text, dash_manifest):
    if isinstance(text, tuple):
        text = _mpd_with(*text, dash_manifest)
    with pytest.raises(ManifestParseError):
        parse(text)


class TestModelValidation:
    def test_variant_positive_bandwidth(self):
        with pytest.raises(ManifestError):
            HlsVariant(bandwidth_bps=0, uri="v.m3u8")

    def test_variant_needs_uri(self):
        with pytest.raises(ManifestError):
            HlsVariant(bandwidth_bps=1000, uri="")

    def test_rendition_fields(self):
        with pytest.raises(ManifestError):
            HlsRendition(group_id="", name="A1", uri="a.m3u8")

    def test_master_needs_variants(self):
        with pytest.raises(ManifestError):
            HlsMasterPlaylist(variants=())

    def test_segment_positive_duration(self):
        with pytest.raises(ManifestError):
            HlsSegment(duration_s=0, uri="x.mp4")

    def test_media_playlist_needs_segments(self):
        with pytest.raises(ManifestError):
            HlsMediaPlaylist(track_id="V1", segments=())


class TestMasterPlaylist:
    def test_bandwidth_semantics(self, hls_all, hall_combos):
        # BANDWIDTH must be the aggregate *peak* of the combination.
        by_name = {v.name: v for v in hls_all.master.variants}
        for combo in hall_combos:
            variant = by_name[combo.name]
            assert variant.bandwidth_bps == int(round(combo.peak_kbps * 1000))
            assert variant.average_bandwidth_bps == int(round(combo.avg_kbps * 1000))

    def test_hall_lists_18_variants(self, hls_all):
        assert len(hls_all.master.variants) == 18

    def test_hsub_lists_6_variants(self, hls_sub):
        assert len(hls_sub.master.variants) == 6

    def test_audio_renditions_in_ladder_order_by_default(self, hls_all):
        assert [r.name for r in hls_all.master.renditions] == ["A1", "A2", "A3"]

    def test_first_variant_bandwidth_overestimates(self, hls_sub, content):
        # ExoPlayer's HLS video pricing: V3's first variant is V3+A2.
        assert hls_sub.master.first_variant_bandwidth("V3") == 840_000
        assert 840 > content.video.by_id("V3").peak_kbps

    def test_first_variant_bandwidth_missing_video(self, hls_sub):
        with pytest.raises(ManifestError):
            hls_sub.master.first_variant_bandwidth("V9")

    def test_combination_names(self, hls_sub):
        assert set(hls_sub.master.combination_names) == {
            "V1+A1",
            "V2+A1",
            "V3+A2",
            "V4+A2",
            "V5+A3",
            "V6+A3",
        }

    def test_audio_group_ids(self, hls_all):
        assert hls_all.master.audio_group_ids == ("audio",)
        assert len(hls_all.master.audio_renditions("audio")) == 3


class TestMasterRoundTrip:
    def test_roundtrip(self, hls_all):
        text = write_master_playlist(hls_all.master)
        parsed = parse_master_playlist(text)
        assert len(parsed.variants) == len(hls_all.master.variants)
        for original, reparsed in zip(hls_all.master.variants, parsed.variants):
            assert reparsed.bandwidth_bps == original.bandwidth_bps
            assert reparsed.average_bandwidth_bps == original.average_bandwidth_bps
            assert reparsed.video_id == original.video_id
            assert reparsed.audio_id == original.audio_id
            assert reparsed.audio_group == original.audio_group
        assert [r.name for r in parsed.renditions] == [
            r.name for r in hls_all.master.renditions
        ]

    def test_written_text_structure(self, hls_sub):
        text = write_master_playlist(hls_sub.master)
        assert text.startswith("#EXTM3U")
        assert text.count("#EXT-X-STREAM-INF:") == 6
        assert text.count("#EXT-X-MEDIA:") == 3
        assert 'TYPE=AUDIO,GROUP-ID="audio"' in text

    def test_first_rendition_is_default(self, hls_sub):
        text = write_master_playlist(hls_sub.master)
        first_media_line = next(
            line for line in text.splitlines() if line.startswith("#EXT-X-MEDIA")
        )
        assert "DEFAULT=YES" in first_media_line


class TestMasterParserErrors:
    def test_missing_header(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist("#EXT-X-VERSION:6\n")

    def test_uri_without_stream_inf(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist("#EXTM3U\nvariant.m3u8\n")

    def test_stream_inf_without_uri(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=100\n")

    def test_stream_inf_without_bandwidth(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist(
                "#EXTM3U\n#EXT-X-STREAM-INF:CODECS=\"x\"\nv.m3u8\n"
            )

    def test_bad_resolution(self):
        with pytest.raises(ManifestParseError):
            parse_master_playlist(
                "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1,RESOLUTION=wide\nv.m3u8\n"
            )


class TestMediaPlaylist:
    def test_byterange_roundtrip(self, hls_all):
        playlist = hls_all.media_playlist("V1")
        text = write_media_playlist(playlist)
        parsed = parse_media_playlist(text, track_id="V1")
        assert parsed.track_id == "V1"
        assert len(parsed.segments) == len(playlist.segments)
        for original, reparsed in zip(playlist.segments, parsed.segments):
            assert reparsed.byterange == original.byterange
            assert reparsed.duration_s == pytest.approx(original.duration_s)

    def test_target_duration_is_ceiling(self, hls_all):
        playlist = hls_all.media_playlist("V1")
        assert playlist.target_duration_s == 5

    def test_total_duration(self, hls_all, content):
        playlist = hls_all.media_playlist("A1")
        assert playlist.total_duration_s == pytest.approx(content.duration_s)

    def test_endlist_written(self, hls_all):
        text = write_media_playlist(hls_all.media_playlist("A1"))
        assert text.rstrip().endswith("#EXT-X-ENDLIST")

    def test_implicit_byterange_offset(self):
        text = (
            "#EXTM3U\n#EXT-X-TARGETDURATION:5\n"
            "#EXTINF:5.0,\n#EXT-X-BYTERANGE:100@0\nf.mp4\n"
            "#EXTINF:5.0,\n#EXT-X-BYTERANGE:50\nf.mp4\n"
            "#EXT-X-ENDLIST\n"
        )
        parsed = parse_media_playlist(text, track_id="T")
        assert parsed.segments[1].byterange == (50, 100)

    def test_uri_without_extinf_rejected(self):
        with pytest.raises(ManifestParseError):
            parse_media_playlist("#EXTM3U\nchunk.mp4\n")

    def test_empty_playlist_rejected(self):
        with pytest.raises(ManifestParseError):
            parse_media_playlist("#EXTM3U\n#EXT-X-ENDLIST\n")


class TestBitrateDerivation:
    def test_from_byteranges(self, hls_all, content):
        # Section 4.1 case (i): byte ranges give per-chunk bitrates.
        playlist = hls_all.media_playlist("V3")
        rates = playlist.derived_bitrates_kbps()
        assert rates is not None
        track = content.video.by_id("V3")
        assert playlist.derived_avg_kbps() == pytest.approx(track.avg_kbps, rel=0.01)
        assert playlist.derived_peak_kbps() == pytest.approx(track.peak_kbps, rel=0.01)

    def test_from_bitrate_tags(self, content):
        # Section 4.1 case (ii): EXT-X-BITRATE in chunk-per-file mode.
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=True)
        playlist = package.media_playlist("A3")
        rates = playlist.derived_bitrates_kbps()
        assert rates is not None
        assert playlist.derived_avg_kbps() == pytest.approx(384, rel=0.01)

    def test_unavailable_without_either(self, content):
        # The gap the paper's recommendation closes: chunk-per-file with
        # no EXT-X-BITRATE leaves the client blind.
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=False)
        playlist = package.media_playlist("A3")
        assert playlist.derived_bitrates_kbps() is None
        assert playlist.derived_avg_kbps() is None
        assert playlist.derived_peak_kbps() is None

    def test_bitrate_tag_roundtrip(self, content):
        from repro.manifest.packager import package_hls

        package = package_hls(content, single_file=False, include_bitrate_tag=True)
        playlist = package.media_playlist("V2")
        parsed = parse_media_playlist(write_media_playlist(playlist), track_id="V2")
        assert parsed.derived_bitrates_kbps() is not None
