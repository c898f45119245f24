"""Manifest linter (Section 4.1 as machine-checkable rules).

These tests originally exercised the object-level
``repro.manifest.validate`` wrappers; that shim is retired, so they now
drive :func:`repro.analysis.analyze_files` directly on the *serialized*
manifests — the same text path the CLI lints. The selected rule subsets
mirror what each legacy entry point reported, keeping the assertions'
meaning identical across the migration.
"""

import pytest

from repro.analysis import (
    AnalyzerConfig,
    Finding,
    Severity,
    analyze_files,
    worst_severity,
)
from repro.analysis.spans import SourceSpan
from repro.core.combinations import hsub_combinations
from repro.manifest.dash import write_mpd
from repro.manifest.hls import (
    HlsMasterPlaylist,
    HlsRendition,
    HlsVariant,
    write_master_playlist,
)
from repro.manifest.packager import package_dash, package_hls

#: Rule IDs the legacy entry points reported, preserved per call shape.
MASTER_RULES = frozenset(
    {
        "HLS-CURATED",
        "HLS-AVERAGE-BANDWIDTH",
        "HLS-VARIANT-ORDER",
        "HLS-AUDIO-COVERAGE",
    }
)
PACKAGE_RULES = MASTER_RULES | {"HLS-TRACK-BITRATES", "HLS-BITRATE-TAG"}
DASH_RULES = frozenset({"DASH-COMBINATIONS", "DASH-BANDWIDTH-SANITY"})


def lint_hls_master(master):
    """Lint a master playlist in isolation (no media playlists)."""
    return analyze_files(
        {"master.m3u8": write_master_playlist(master)},
        AnalyzerConfig(selected=MASTER_RULES),
    )


def lint_hls_package(package):
    """Lint a full packaging: master + media playlists."""
    return analyze_files(
        package.write_all(), AnalyzerConfig(selected=PACKAGE_RULES)
    )


def lint_dash_manifest(manifest):
    """Lint a serialized DASH manifest."""
    return analyze_files(
        {"manifest.mpd": write_mpd(manifest)},
        AnalyzerConfig(selected=DASH_RULES),
    )


def rules(findings):
    return {f.rule for f in findings}


class TestHlsLint:
    def test_hall_flags_uncurated(self, hls_all):
        assert "HLS-CURATED" in rules(lint_hls_package(hls_all))

    def test_hsub_with_byteranges_is_clean(self, hls_sub):
        assert lint_hls_package(hls_sub) == []

    def test_chunk_files_without_tags_is_an_error(self, content):
        package = package_hls(
            content,
            combinations=hsub_combinations(content),
            single_file=False,
            include_bitrate_tag=False,
        )
        findings = lint_hls_package(package)
        assert "HLS-TRACK-BITRATES" in rules(findings)
        assert worst_severity(findings) is Severity.ERROR

    def test_chunk_files_with_tags_is_clean(self, content):
        package = package_hls(
            content,
            combinations=hsub_combinations(content),
            single_file=False,
            include_bitrate_tag=True,
        )
        assert lint_hls_package(package) == []

    def test_missing_average_bandwidth_flagged(self):
        master = HlsMasterPlaylist(
            variants=(
                HlsVariant(
                    bandwidth_bps=500_000,
                    uri="V1_A1.m3u8",
                    video_id="V1",
                    audio_id="A1",
                ),
            ),
            renditions=(HlsRendition(group_id="audio", name="A1", uri="A1.m3u8"),),
        )
        assert "HLS-AVERAGE-BANDWIDTH" in rules(lint_hls_master(master))

    def test_bad_variant_order_flagged(self):
        master = HlsMasterPlaylist(
            variants=(
                HlsVariant(
                    bandwidth_bps=900_000,
                    average_bandwidth_bps=700_000,
                    uri="V1_A3.m3u8",
                    video_id="V1",
                    audio_id="A3",
                ),
                HlsVariant(
                    bandwidth_bps=300_000,
                    average_bandwidth_bps=250_000,
                    uri="V1_A1.m3u8",
                    video_id="V1",
                    audio_id="A1",
                ),
            ),
            renditions=(
                HlsRendition(group_id="audio", name="A1", uri="A1.m3u8"),
                HlsRendition(group_id="audio", name="A3", uri="A3.m3u8"),
            ),
        )
        assert "HLS-VARIANT-ORDER" in rules(lint_hls_master(master))

    def test_unreferenced_audio_is_an_error(self):
        master = HlsMasterPlaylist(
            variants=(
                HlsVariant(
                    bandwidth_bps=500_000,
                    average_bandwidth_bps=400_000,
                    uri="V1_A9.m3u8",
                    video_id="V1",
                    audio_id="A9",
                ),
            ),
            renditions=(HlsRendition(group_id="audio", name="A1", uri="A1.m3u8"),),
        )
        findings = lint_hls_master(master)
        assert "HLS-AUDIO-COVERAGE" in rules(findings)
        assert worst_severity(findings) is Severity.ERROR

    def test_packager_default_order_passes_variant_order_rule(self, hls_all):
        assert "HLS-VARIANT-ORDER" not in rules(lint_hls_package(hls_all))


class TestDashLint:
    def test_plain_mpd_flags_missing_combinations(self, dash_manifest):
        assert "DASH-COMBINATIONS" in rules(lint_dash_manifest(dash_manifest))

    def test_extended_mpd_is_clean(self, content, hsub_combos):
        manifest = package_dash(content, allowed_combinations=hsub_combos)
        assert lint_dash_manifest(manifest) == []

    def test_unsorted_bandwidths_flagged(self, content):
        from repro.manifest.dash import (
            DashAdaptationSet,
            DashManifest,
            DashRepresentation,
        )

        manifest = DashManifest(
            duration_s=10,
            adaptation_sets=(
                DashAdaptationSet(
                    content_type="video",
                    representations=(
                        DashRepresentation(rep_id="V2", bandwidth_bps=900),
                        DashRepresentation(rep_id="V1", bandwidth_bps=100),
                    ),
                ),
            ),
            allowed_combinations=(("V1", "A1"),),
        )
        assert "DASH-BANDWIDTH-SANITY" in rules(lint_dash_manifest(manifest))


def _finding(rule, severity):
    return Finding(
        rule=rule,
        severity=severity,
        message="msg",
        span=SourceSpan(file="f", line=1, col=1),
        category="test",
    )


class TestSeverity:
    def test_worst_of_empty_is_none(self):
        assert worst_severity([]) is None

    def test_error_dominates(self):
        findings = [
            _finding("A", Severity.INFO),
            _finding("B", Severity.ERROR),
            _finding("C", Severity.WARNING),
        ]
        assert worst_severity(findings) is Severity.ERROR

    def test_finding_str(self):
        text = str(_finding("R", Severity.WARNING))
        assert "WARNING" in text and "R" in text and "msg" in text


class TestShimRetirement:
    """The deprecated object-level wrappers are gone for good, and so
    are the CLI spellings they popularized (``--manifest`` replaces
    them)."""

    def test_validate_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.manifest.validate  # noqa: F401

    def test_manifest_package_no_longer_reexports_linting(self):
        import repro.manifest as manifest

        for legacy in (
            "lint_hls_master",
            "lint_hls_package",
            "lint_dash_manifest",
            "Finding",
            "worst_severity",
        ):
            assert not hasattr(manifest, legacy)
            assert legacy not in manifest.__all__

    @pytest.mark.parametrize("alias", ["dash", "hls"])
    def test_legacy_cli_format_aliases_are_gone(self, alias, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", alias])
        assert "invalid choice" in capsys.readouterr().err
