"""Manifest substrate: DASH MPD and HLS playlist models, writers, parsers.

Manifest *linting* lives in :mod:`repro.analysis` (text-level, with
source spans, SARIF output and a rule registry). The old object-level
``repro.manifest.validate`` shim is gone; its rules live on in the
analyzer under their original IDs (``repro-abr lint --manifest
dash|hls`` lints a generated packaging).
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
