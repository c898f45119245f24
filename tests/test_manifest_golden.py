"""Golden pins for the manifest readers and the linter built on them.

Each case pins the sha256 of a rendered output, so any change to how a
playlist or MPD is read shows up here byte for byte:

* the SARIF log of the five packagings CI lints (``ci.yml`` lint job);
* the SARIF log of every malformed input of ``test_analysis_hls.py`` and
  ``test_analysis_dash.py`` (or the parse-failure message);
* the ``fix_files`` output on the same inputs and on the autofix
  fixture;
* the strict parse of each packaging's written text, which must also
  equal the packaged objects.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis import AnalysisParseFailure, analyze_files, render_sarif
from repro.analysis.autofix import fix_files
from repro.core.combinations import hsub_combinations
from repro.manifest import (
    package_dash,
    package_hls,
    parse_master_playlist,
    parse_media_playlist,
    parse_mpd,
    write_mpd,
)
from repro.media.content import drama_show
from tests.test_analysis_dash import GOOD_MPD
from tests.test_analysis_fix import BROKEN_MEDIA, broken_package
from tests.test_analysis_hls import GOOD_MASTER, GOOD_MEDIA


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _packagings():
    content = drama_show()
    curated = hsub_combinations(content)
    return {
        "hls-hsub": package_hls(content, combinations=curated),
        "hls-hall": package_hls(content),
        "dash": package_dash(content, allowed_combinations=curated),
        "dash-all": package_dash(content),
        "hls-chunk-tags": package_hls(
            content,
            combinations=curated,
            single_file=False,
            include_bitrate_tag=True,
        ),
    }


def _files(package):
    if hasattr(package, "write_all"):
        return package.write_all()
    return {"manifest.mpd": write_mpd(package)}


def _without(text, start_marker, end_marker):
    start = text.index(start_marker)
    end = text.index(end_marker) + len(end_marker)
    return text[:start] + text[end:]


_VARIANT_ORDER_MASTER = """#EXTM3U
#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID="audio",NAME="A1",URI="A1.m3u8"
#EXT-X-STREAM-INF:BANDWIDTH=900000,AVERAGE-BANDWIDTH=800000,CODECS="a,v",AUDIO="audio"
V1_A2.m3u8
#EXT-X-STREAM-INF:BANDWIDTH=300000,AVERAGE-BANDWIDTH=250000,CODECS="a,v",AUDIO="audio"
V1_A1.m3u8
#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID="audio",NAME="A2",URI="A2.m3u8"
"""

_EXTRA_RENDITION = (
    '#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID="audio",NAME="A1",URI="A1b.m3u8"\n'
)

#: The malformed inputs of the HLS and DASH rule tests, by name.
MALFORMED = {
    "hls-no-extm3u": {"m.m3u8": GOOD_MEDIA.replace("#EXTM3U\n", "")},
    "hls-version-3-byterange": {
        "V1.m3u8": GOOD_MEDIA.replace("#EXT-X-VERSION:4", "#EXT-X-VERSION:3")
    },
    "hls-float-extinf-no-version": {
        "m.m3u8": "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:3.5,\nc.mp4\n"
        "#EXT-X-ENDLIST\n"
    },
    "hls-integer-extinf": {
        "m.m3u8": "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:4,\nc.mp4\n"
        "#EXT-X-ENDLIST\n"
    },
    "hls-no-targetduration": {
        "V1.m3u8": GOOD_MEDIA.replace("#EXT-X-TARGETDURATION:4\n", "")
    },
    "hls-targetduration-exceeded": {
        "V1.m3u8": GOOD_MEDIA.replace(
            "#EXT-X-TARGETDURATION:4", "#EXT-X-TARGETDURATION:3"
        )
    },
    "hls-extinf-4.4": {
        "V1.m3u8": GOOD_MEDIA.replace("#EXTINF:4.00000,", "#EXTINF:4.40000,")
    },
    "hls-vod-no-endlist": {"V1.m3u8": GOOD_MEDIA.replace("#EXT-X-ENDLIST\n", "")},
    "hls-live-no-endlist": {
        "V1.m3u8": GOOD_MEDIA.replace("#EXT-X-PLAYLIST-TYPE:VOD\n", "").replace(
            "#EXT-X-ENDLIST\n", ""
        )
    },
    "hls-missing-segment-uri": {
        "V1.m3u8": "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:4\n"
        "#EXTINF:4.0,\n#EXT-X-ENDLIST\n"
    },
    "hls-unterminated-quote": {
        "master.m3u8": GOOD_MASTER.replace('AUDIO="audio"', 'AUDIO="audio')
    },
    "hls-no-bandwidth": {
        "master.m3u8": GOOD_MASTER.replace("BANDWIDTH=1500000,", "")
    },
    "hls-no-codecs": {
        "master.m3u8": GOOD_MASTER.replace(',CODECS="avc1.640028,mp4a.40.2"', "")
    },
    "hls-undeclared-group": {
        "master.m3u8": GOOD_MASTER.replace('GROUP-ID="audio"', 'GROUP-ID="other"')
    },
    "hls-duplicate-rendition-names": {
        "master.m3u8": GOOD_MASTER.replace(
            "#EXT-X-STREAM-INF", _EXTRA_RENDITION + "#EXT-X-STREAM-INF"
        )
    },
    "hls-audio-coverage": {
        "master.m3u8": GOOD_MASTER.replace('AUDIO="audio"', "").replace(
            "V1_A1.m3u8", "V1_A9.m3u8"
        )
    },
    "hls-variant-order": {"master.m3u8": _VARIANT_ORDER_MASTER},
    "hls-package-missing-media": {
        "master.m3u8": GOOD_MASTER,
        "A1.m3u8": GOOD_MEDIA,
    },
    "hls-package-inconsistent-bandwidth": {
        "master.m3u8": GOOD_MASTER.replace("BANDWIDTH=1500000", "BANDWIDTH=9000000"),
        "V1.m3u8": GOOD_MEDIA,
        "A1.m3u8": GOOD_MEDIA.replace("500000@0", "50000@0"),
    },
    "hls-package-consistent-bandwidth": {
        "master.m3u8": GOOD_MASTER,
        "V1.m3u8": GOOD_MEDIA.replace("500000@0", "700000@0"),
        "A1.m3u8": GOOD_MEDIA.replace("500000@0", "50000@0"),
    },
    "hls-empty": {"V1.m3u8": "   \n"},
    "hls-autofix-fixture": broken_package(),
    "hls-autofix-no-extm3u": {
        "V1.m3u8": BROKEN_MEDIA.format(track="V1").replace("#EXTM3U\n", "")
    },
    "dash-no-duration": {
        "manifest.mpd": GOOD_MPD.replace(' mediaPresentationDuration="PT60S"', "")
    },
    "dash-no-profiles": {
        "manifest.mpd": GOOD_MPD.replace(
            ' profiles="urn:mpeg:dash:profile:isoff-on-demand:2011"', ""
        )
    },
    "dash-no-content-or-mime": {
        "manifest.mpd": GOOD_MPD.replace(
            ' contentType="video" mimeType="video/mp4"', ""
        )
    },
    "dash-mime-only": {"manifest.mpd": GOOD_MPD.replace(' contentType="video"', "")},
    "dash-no-bandwidth": {"manifest.mpd": GOOD_MPD.replace(' bandwidth="500000"', "")},
    "dash-bandwidth-fast": {
        "manifest.mpd": GOOD_MPD.replace('bandwidth="500000"', 'bandwidth="fast"')
    },
    "dash-duplicate-ids": {"manifest.mpd": GOOD_MPD.replace('id="V2"', 'id="V1"')},
    "dash-template-no-number": {
        "manifest.mpd": GOOD_MPD.replace(
            "$RepresentationID$_$Number$.mp4", "seg.mp4"
        )
    },
    "dash-no-combinations": {
        "manifest.mpd": _without(
            GOOD_MPD, "  <AllowedCombinations", "</AllowedCombinations>\n"
        )
    },
    "dash-descending": {
        "manifest.mpd": GOOD_MPD.replace('bandwidth="500000"', 'bandwidth="950000"')
    },
    "dash-audio-no-bandwidth": {
        "manifest.mpd": GOOD_MPD.replace(' bandwidth="64000"', "")
    },
    "dash-malformed-xml": {"manifest.mpd": "<MPD><Period></MPD>"},
    "dash-non-mpd-root": {"manifest.mpd": "<Playlist/>"},
}


def _lint_output(files) -> str:
    try:
        return render_sarif(analyze_files(files))
    except AnalysisParseFailure as exc:
        return f"parse failure: {exc} (line {exc.line})"


def _fix_output(files) -> str:
    try:
        result = fix_files(files)
    except AnalysisParseFailure as exc:
        return f"parse failure: {exc} (line {exc.line})"
    return json.dumps(
        {"files": result.files, "n_fixed": result.n_fixed, "passes": result.passes},
        sort_keys=True,
    )


PACKAGING_SARIF = {
    "dash": "f65c72603d2f40f8010cdd17922e0be3996f9c3ebba7e3c1edf6458021a417ed",
    "dash-all": "f893ddaf1edd6e6e974d4ae6f94988a88dc186376a9c5cf6913f62496542114b",
    "hls-chunk-tags": "f65c72603d2f40f8010cdd17922e0be3996f9c3ebba7e3c1edf6458021a417ed",
    "hls-hall": "2f9061eac360996d078c805f1ef606027fe3a9d10490a418550523618e361f97",
    "hls-hsub": "f65c72603d2f40f8010cdd17922e0be3996f9c3ebba7e3c1edf6458021a417ed",
}

MALFORMED_SARIF = {
    "dash-audio-no-bandwidth": "bec1aa36e0afe162b02c2d88c8abccb0abea3bd348c461ab7cae09fc33c7dff4",
    "dash-bandwidth-fast": "cc8aca3866edfa3e683d08e8fda60829be209a056e2e3345584d44123ab5d92c",
    "dash-descending": "0fd81af7218ecf82bf5261523c856e2f90694521d4aa4aacc6ea38844ad1b28a",
    "dash-duplicate-ids": "430eb691b4812941f4c3c0433c3ac343ddbe7cc936d4d051add3403a20f6e1a8",
    "dash-malformed-xml": "0856416ce7ab54f5925948c5f3e7a7bc661c576d0e98c1142383fcf36aa70975",
    "dash-mime-only": "f65c72603d2f40f8010cdd17922e0be3996f9c3ebba7e3c1edf6458021a417ed",
    "dash-no-bandwidth": "a89340e99b2b8b27547d939da70a6c385fb74d25bcb62eb3bfbd7074f0af2767",
    "dash-no-combinations": "fe015d31f4589d7e031100fe845e1c867f556c80fcd2d8a590066a2b22376672",
    "dash-no-content-or-mime": "a087d9fb880fa4c8d6337a1609d24e6f64aedbdcc24580695b16fcb378282304",
    "dash-no-duration": "38362623bfc7c4c5409d66af9609a4e06bacd489751e9f90f0fd76f2b1235f80",
    "dash-no-profiles": "ff87cf7896b595b776f56606943fc66eaebb35958d0c0ef9620dab2a302fe0a2",
    "dash-non-mpd-root": "30b8478ab2b48234684e29ebdbc174ec0d9912b739b099a141a062df406285cf",
    "dash-template-no-number": "cd875457ce445dcb324f3888ec392ec3835015b8f651e2712b77ddd34afd5076",
    "hls-audio-coverage": "eaa64f57fddc43cd01f08407b31d7fb73b37ee5ab7435c344f97c859a0aa1628",
    "hls-autofix-fixture": "37a370b6e4a1ff0ea52e9928026ac591091a2709e4296946878f9e145122f96c",
    "hls-autofix-no-extm3u": "087378c6ed588a053191ee5b6bf43ae42f93a0be6036126c0c657406d4831294",
    "hls-duplicate-rendition-names": "78a6cc35edc891736a5de1257119bfde0c5612ceea77670edd198531a696faf6",
    "hls-empty": "6af2c6cedc503774da41b78b82cdc7c18ec4b76295f2f977f2d682b7ebe0a17d",
    "hls-extinf-4.4": "f65c72603d2f40f8010cdd17922e0be3996f9c3ebba7e3c1edf6458021a417ed",
    "hls-float-extinf-no-version": "c1dede90cb810d402336c2fa6d4ab62aa2322d64288f8a795ef690f3f0d45849",
    "hls-integer-extinf": "2c0f35d23ce2a8a51a07f5df882b839e635737d996f97eb3cf7e39c3a8eb9f50",
    "hls-live-no-endlist": "f65c72603d2f40f8010cdd17922e0be3996f9c3ebba7e3c1edf6458021a417ed",
    "hls-missing-segment-uri": "df20686f38f4f57c844b6becf00406b8011e83120a1ff88bf0edfe9e5561e682",
    "hls-no-bandwidth": "3f6de138fe6b97aed0e4e51ed231f627b479318c74234d492f6e0b8224608877",
    "hls-no-codecs": "7e307e96f5431cab888ae1845613c6b2ee83ca5bcd5236a5cddff98515c6b20b",
    "hls-no-extm3u": "639160ed60aeca5c6638edbce5424555ebee09f94937e76dd8d4a059075eaeb4",
    "hls-no-targetduration": "78563a973ad556171710bf6cf4c36a5c26a5e3d633fb4ffdd499eee4fc1cdbb2",
    "hls-package-consistent-bandwidth": "4318c626583b2751039c8731984987ecc92f34110dc9306fae185bfd45ee48f1",
    "hls-package-inconsistent-bandwidth": "cee702890ccb129c500375a03f96379aadd72134fc970f5d728b4a95a891bb5c",
    "hls-package-missing-media": "789a27add923313073c6d7502e46ff2d3128cc6b661d701d961ad83e2b469f80",
    "hls-targetduration-exceeded": "3019fc8a98c6701e7365e8692b8644fe326885b0e314cbe4a9aaa1f9ad865d2b",
    "hls-undeclared-group": "3e9b9da2bbe49cb7a5d31d55a9e553139d8a6fe3ddaddc6e6e93bb764b6e0d25",
    "hls-unterminated-quote": "d03cd7e28511c9c5b7deca8c50e96fe17598ab65c99a1bfe044701ae9ae7804c",
    "hls-variant-order": "20860cd817bc48c0ab567b1385b9b8172e9ab7430622eec55c7755c20f01e704",
    "hls-version-3-byterange": "4beab4e28ceab3f32ef1d3d9cd113ce16cac729be1e521fffb54d4fc6694f8e6",
    "hls-vod-no-endlist": "517f1f937f5b7e1bcdf655ecd7e66eb03776e35be06c1c9485066156d4e46099",
}

MALFORMED_FIX = {
    "dash-audio-no-bandwidth": "0b854d99a5367578a0a4ec526e650e34db13e58feadae9bdb0ab74b869c4a472",
    "dash-bandwidth-fast": "aceba8766c3a0540aac6f262c1829588988fa29c1f2024b56d7adfe4b1948bae",
    "dash-descending": "2b9095532a8d000f84f5c05b3f0ef5291a1a250ee12ef7e9237323c747336af0",
    "dash-duplicate-ids": "3a6c67dcaaef10bc7f28a6b7adb1bef58b37051a4e7118ca72b906ace9d1eb3c",
    "dash-malformed-xml": "0856416ce7ab54f5925948c5f3e7a7bc661c576d0e98c1142383fcf36aa70975",
    "dash-mime-only": "1362dcaaa2831f6184f7947dd51351aec50fab1b4f3185aaf73485de8036f722",
    "dash-no-bandwidth": "207ea10555b16add01b150c8ea33139231d71b5398c2b63cbe8242256ae93476",
    "dash-no-combinations": "a116e9ee65b2374878bcff4d4748c5237420b827b8f5e0930556319d057058f0",
    "dash-no-content-or-mime": "58133ac6d55a3c135d761b10f49c0135e2f8a8af777b8906229d0e1ceaaee77b",
    "dash-no-duration": "d9c3d690e3655488fdf9a7d4bc3e7498aed9bd8305c2b60470955b97453390e5",
    "dash-no-profiles": "3faf9598ce6914c039d6ea76abf622c6eb8ac15f08b682224462df1c9f611194",
    "dash-non-mpd-root": "30b8478ab2b48234684e29ebdbc174ec0d9912b739b099a141a062df406285cf",
    "dash-template-no-number": "15433360919d0320b50610c87c5fbabf07988c3f0a2cb0d8c98c29969889e478",
    "hls-audio-coverage": "e20b3b8dce3cb787629ba663b50642b3eda591c2d6a1cbb33c8c47cd3ac62744",
    "hls-autofix-fixture": "cf3bd721fcf3f5c07eeb19c149ce2dc980f4f2566d50a79a8d36e1ee8062daa3",
    "hls-autofix-no-extm3u": "544b205346c278e5a559df5fae1e152e3910b01aae4c9fb01fca8b1870427e1f",
    "hls-duplicate-rendition-names": "0506f62e36269e03735b25a4e6d07fa82098d05d02d7eb426295c51f5ab405db",
    "hls-empty": "6af2c6cedc503774da41b78b82cdc7c18ec4b76295f2f977f2d682b7ebe0a17d",
    "hls-extinf-4.4": "95b365bcf1fc660b9be6d7a5792cb57a87178b7acf90d1b1ae09be5dcc69b2f1",
    "hls-float-extinf-no-version": "cd1f3af5646400fe906c9f1049f4681f40c0e30364a4df5a2ca6a3f4086b9db3",
    "hls-integer-extinf": "8055071a662319816d25be68c38b1d19869a32480d3d7fdafd8db1e588c89f31",
    "hls-live-no-endlist": "bdba830cc76a737371087352845425535a005036f3c8d9d779837306e0b8b16a",
    "hls-missing-segment-uri": "424d78a686620146488ddd8cd2403caf06a1ccec22821e966422b9eb3e87c6a3",
    "hls-no-bandwidth": "95b8fca826de5c91afaa44fefded58ff2139919883b0b48d42310f944c5d6620",
    "hls-no-codecs": "1b6f712d403c1c065e8b2f8fd10d8192d84451392d600e236fa5e4d1c74951f5",
    "hls-no-extm3u": "677b12293c40ca75c084a5b14489422ccaae192faae22ac77c79dd5d9668d336",
    "hls-no-targetduration": "f476a6564038b024ba726bc6db867d8188895464473495c4ab58aceb79c2600f",
    "hls-package-consistent-bandwidth": "6fa646df970a208df7c08316077bf7677efe5a348908bb96f0bdea919e95d753",
    "hls-package-inconsistent-bandwidth": "59264ac914e4b6674b99e3f6fb0988eccb7f4fc4de87b6354ffac3d26f273245",
    "hls-package-missing-media": "c1a4c8922eeab7e26989489c1388a0ef95b93deb257275d2c139d67c6b5c5f25",
    "hls-targetduration-exceeded": "f476a6564038b024ba726bc6db867d8188895464473495c4ab58aceb79c2600f",
    "hls-undeclared-group": "f67f770740779965112afd91c4d4365ec26153bffc36fd02489343b9d2e76310",
    "hls-unterminated-quote": "2b481c1a7bbaeb9235fd173627b98293cdc8f93a9ae3fe718b322ded5395354f",
    "hls-variant-order": "0a1550236791a7b17f43150e4db902f2758a7b6949c64f54d41829f8046b4035",
    "hls-version-3-byterange": "f476a6564038b024ba726bc6db867d8188895464473495c4ab58aceb79c2600f",
    "hls-vod-no-endlist": "f476a6564038b024ba726bc6db867d8188895464473495c4ab58aceb79c2600f",
}

PACKAGING_PARSE = {
    "dash": "9493e3a8a4a536df89819ff86f0020a75f4efcfe6ff69b23f51bd3ecbd37e876",
    "dash-all": "c69c9c7ad6a226cf651556d7f5069bd5ff1ef22f871f80eb21cff6e315c915ef",
    "hls-chunk-tags": "34010a790c061d0b35e57dff5fa8930c9b714ccc2ccb63e02ce19243eddfc85b",
    "hls-hall": "51e3e98882851ce205cea84d7132f8b8e2cf9eb46a3a9db35779c2172dcc8bff",
    "hls-hsub": "c64d1c5d752e1474eb97161aed4ce38e1ea0863ec8b52f9b216e4d38b5ab966d",
}


@pytest.mark.parametrize("name", sorted(PACKAGING_SARIF))
def test_packaging_sarif_is_pinned(name):
    files = _files(_packagings()[name])
    assert sha(_lint_output(files)) == PACKAGING_SARIF[name]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_sarif_is_pinned(name):
    assert sha(_lint_output(MALFORMED[name])) == MALFORMED_SARIF[name]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_fix_is_pinned(name):
    assert sha(_fix_output(MALFORMED[name])) == MALFORMED_FIX[name]


def _as_written(segment):
    """A segment as its text carries it: EXT-X-BITRATE is an integer."""
    if segment.bitrate_kbps is None:
        return segment
    return dataclasses.replace(
        segment, bitrate_kbps=float(int(round(segment.bitrate_kbps)))
    )


@pytest.mark.parametrize("name", sorted(PACKAGING_PARSE))
def test_packaging_strict_parse_is_pinned(name):
    package = _packagings()[name]
    files = _files(package)
    if "manifest.mpd" in files:
        parsed = [parse_mpd(files["manifest.mpd"])]
        assert parsed == [package]
    else:
        parsed = [parse_master_playlist(files["master.m3u8"])]
        assert parsed[0] == package.master
        for track_id, playlist in package.media_playlists.items():
            reparsed = parse_media_playlist(files[f"{track_id}.m3u8"], track_id)
            expected = dataclasses.replace(
                playlist, segments=tuple(_as_written(s) for s in playlist.segments)
            )
            assert reparsed == expected
            parsed.append(reparsed)
    assert sha(repr(parsed)) == PACKAGING_PARSE[name]
