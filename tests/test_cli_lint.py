"""The reworked ``repro-abr lint`` command: paths, formats, fixes,
baselines, and the 0/1/2 exit-code contract."""

import json

import pytest

from repro.cli import main

BROKEN_MEDIA = """#EXTM3U
#EXT-X-PLAYLIST-TYPE:VOD
#EXTINF:4.50000,
#EXT-X-BYTERANGE:500000@0
V1_00000.mp4
"""

CLEAN_MEDIA = """#EXTM3U
#EXT-X-VERSION:4
#EXT-X-TARGETDURATION:4
#EXT-X-PLAYLIST-TYPE:VOD
#EXTINF:4.00000,
#EXT-X-BYTERANGE:500000@0
V1_00000.mp4
#EXT-X-ENDLIST
"""


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(CLEAN_MEDIA)
        assert main(["lint", str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        assert main(["lint", str(target)]) == 1
        assert "HLS-TARGETDURATION-PRESENT" in capsys.readouterr().out

    def test_warning_only_exits_zero(self, tmp_path):
        target = tmp_path / "V1.m3u8"
        target.write_text(CLEAN_MEDIA.replace("#EXT-X-ENDLIST\n", ""))
        assert main(["lint", str(target)]) == 0

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        target = tmp_path / "manifest.mpd"
        target.write_text("<MPD><Period></MPD>")
        assert main(["lint", str(target)]) == 2
        assert "parse failure" in capsys.readouterr().err

    def test_unreadable_path_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "missing.m3u8")]) == 2

    def test_directory_without_manifests_exits_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("import os\n")
        assert main(["lint", str(tmp_path)]) == 2
        assert "no manifest files" in capsys.readouterr().err

    def test_bad_python_exits_two(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def broken(:\n")
        assert main(["lint", str(target)]) == 2

    def test_python_source_is_not_a_manifest(self, tmp_path, capsys):
        # Valid Python that even names an HLS tag is still refused.
        target = tmp_path / "mod.py"
        target.write_text('import os\nTAG = "#EXT-X-ENDLIST"\npid = os.fork()\n')
        assert main(["lint", str(target)]) == 2
        assert "not MPD XML or m3u8" in capsys.readouterr().err


class TestFormats:
    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        assert main(["lint", "--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-abr-lint"
        assert any(
            f["rule"] == "HLS-TARGETDURATION-PRESENT" for f in payload["findings"]
        )

    def test_sarif_format(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        assert main(["lint", "--format", "sarif", str(target)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_directory_recursion_skips_python(self, tmp_path, capsys):
        (tmp_path / "V1.m3u8").write_text(CLEAN_MEDIA)
        (tmp_path / "mod.py").write_text("def broken(:\n")
        # Only manifests are collected: the unparsable module is skipped.
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out


class TestFix:
    def test_fix_rewrites_file_and_relints_clean(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        assert main(["lint", "--fix", str(target)]) == 0
        assert "clean" in capsys.readouterr().out
        fixed = target.read_text()
        assert "#EXT-X-TARGETDURATION" in fixed
        assert fixed.rstrip().endswith("#EXT-X-ENDLIST")
        # And a second run finds nothing left to do.
        assert main(["lint", str(target)]) == 0

    def test_fix_without_paths_is_usage_error(self, capsys):
        assert main(["lint", "--fix"]) == 2
        assert "--fix" in capsys.readouterr().err


class TestRuleSelection:
    def test_disable(self, tmp_path):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        code = main(
            [
                "lint",
                "--disable",
                "HLS-TARGETDURATION-PRESENT,HLS-VERSION-GATE,HLS-ENDLIST",
                str(target),
            ]
        )
        assert code == 0

    def test_select(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        assert main(["lint", "--select", "HLS-ENDLIST", str(target)]) == 0
        out = capsys.readouterr().out
        assert "HLS-ENDLIST" in out
        assert "HLS-TARGETDURATION-PRESENT" not in out


class TestBaseline:
    def test_write_then_apply_baseline(self, tmp_path, capsys):
        target = tmp_path / "V1.m3u8"
        target.write_text(BROKEN_MEDIA)
        baseline = tmp_path / "lint-baseline.json"
        assert (
            main(["lint", "--write-baseline", str(baseline), str(target)]) == 1
        )
        capsys.readouterr()
        assert main(["lint", "--baseline", str(baseline), str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path):
        target = tmp_path / "V1.m3u8"
        target.write_text(CLEAN_MEDIA)
        assert (
            main(["lint", "--baseline", str(tmp_path / "nope.json"), str(target)])
            == 2
        )


class TestGeneratedPackagingMode:
    """No paths: the legacy packaging-of-the-reference-title behavior."""

    def test_default_is_hls_text(self, capsys):
        assert main(["lint"]) == 0
        assert "HLS-CURATED" in capsys.readouterr().out

    def test_manifest_dash(self, capsys):
        assert main(["lint", "--manifest", "dash"]) == 0
        assert "DASH-COMBINATIONS" in capsys.readouterr().out

    def test_sarif_over_generated_packaging(self, capsys):
        assert main(["lint", "--format", "sarif", "--curated"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

