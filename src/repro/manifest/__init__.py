"""Manifest substrate: DASH MPD and HLS playlist models, writers, parsers.

Each text format has one reader, and it lives here: the lenient,
line-keeping playlist scan (:func:`repro.manifest.hls.scan_playlist`)
and the position-keeping MPD tree (:func:`repro.manifest.dash.parse_xml`).
The strict parsers below are checks over those readers' output, and
manifest *linting* in :mod:`repro.analysis` (source spans, SARIF output,
a rule registry; ``repro-abr lint --manifest dash|hls`` lints a
generated packaging) consumes the same readers. This package never
imports :mod:`repro.analysis`.
"""

from .dash import (
    DashAdaptationSet,
    DashManifest,
    DashRepresentation,
    DashSegmentTemplate,
    build_dash_manifest,
    parse_mpd,
    write_mpd,
)
from .hls import (
    HlsMasterPlaylist,
    HlsMediaPlaylist,
    HlsRendition,
    HlsSegment,
    HlsVariant,
    parse_master_playlist,
    parse_media_playlist,
    write_master_playlist,
    write_media_playlist,
)
from .packager import (
    AUDIO_GROUP_ID,
    HlsPackage,
    hls_master,
    package_dash,
    package_hls,
    package_hls_multilanguage,
    write_dash_package,
)
__all__ = [
    "AUDIO_GROUP_ID",
    "DashAdaptationSet",
    "DashManifest",
    "DashRepresentation",
    "DashSegmentTemplate",
    "HlsMasterPlaylist",
    "HlsMediaPlaylist",
    "HlsPackage",
    "HlsRendition",
    "HlsSegment",
    "HlsVariant",
    "build_dash_manifest",
    "hls_master",
    "package_dash",
    "package_hls",
    "package_hls_multilanguage",
    "parse_master_playlist",
    "parse_media_playlist",
    "parse_mpd",
    "write_dash_package",
    "write_master_playlist",
    "write_media_playlist",
    "write_mpd",
]
