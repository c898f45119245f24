"""Shared rule context: the documents of one analysis run.

Cross-manifest rules (a master playlist resolved against its media
playlists) need to see the whole file set, not just the document they
fire on. :class:`RuleContext` carries every document and scanned view
of the run plus the active configuration, and implements the URI
resolution conventions the packager uses:

* an ``EXT-X-MEDIA`` rendition's ``URI`` names its media playlist
  directly (``A1.m3u8``);
* a variant URI ``V2_A1.m3u8`` resolves to the *video* media playlist
  ``V2.m3u8`` (the packager keeps muxed-style variant names for
  readability while media playlists are per-track).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from ..manifest.hls import ScannedPlaylist
from .spans import Document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import AnalyzerConfig


@dataclass
class RuleContext:
    """Everything a rule may look at beyond its own document."""

    documents: Dict[str, Document] = field(default_factory=dict)
    playlists: Dict[str, ScannedPlaylist] = field(default_factory=dict)
    config: Optional["AnalyzerConfig"] = None

    @property
    def media_playlists(self) -> Dict[str, ScannedPlaylist]:
        """Scanned media playlists of the run, by document name."""
        return {
            name: scanned
            for name, scanned in self.playlists.items()
            if scanned.is_media
        }

    def _lookup(self, uri: str) -> Optional[ScannedPlaylist]:
        if uri in self.playlists:
            return self.playlists[uri]
        # Tolerate path prefixes: match on basename.
        base = uri.rsplit("/", 1)[-1]
        if base != uri and base in self.playlists:
            return self.playlists[base]
        return None

    def resolve_rendition(self, uri: str) -> Optional[ScannedPlaylist]:
        """The media playlist a rendition URI names, if present."""
        scanned = self._lookup(uri)
        if scanned is not None and scanned.is_media:
            return scanned
        return None

    def resolve_variant_video(self, uri: str) -> Optional[ScannedPlaylist]:
        """The video media playlist behind a variant URI.

        Tries the exact URI first, then the packager convention
        ``<video>_<audio>.m3u8 -> <video>.m3u8``.
        """
        scanned = self._lookup(uri)
        if scanned is not None and scanned.is_media:
            return scanned
        stem = uri.rsplit("/", 1)[-1]
        if stem.endswith(".m3u8"):
            stem = stem[: -len(".m3u8")]
        if "_" in stem:
            video_id = stem.split("_", 1)[0]
            if video_id:
                return self.resolve_rendition(f"{video_id}.m3u8")
        return None

    @property
    def has_media_playlists(self) -> bool:
        """True when the run includes any media playlist.

        Cross-manifest rules only fire in package mode — linting a
        master in isolation must not report every reference missing.
        """
        return any(s.is_media for s in self.playlists.values())
