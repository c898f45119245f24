"""Packager: builds DASH and HLS manifests from a :class:`Content`.

Plays the role of the Bento4 toolkit in the paper's setup (Section 3.1):
"We use the Bento4 toolkit to create two sets of manifest files,
complying respectively with DASH and HLS standards."

* :func:`package_dash` emits one MPD with two Adaptation Sets.
* :func:`hls_master` emits a master playlist whose variants are the
  given combination set (H_all, H_sub, or any curated set);
  :func:`package_hls` adds one media playlist per track it references.
  ``BANDWIDTH`` is the aggregate peak bitrate and ``AVERAGE-BANDWIDTH``
  the aggregate average, per the paper's Appendix A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.combinations import CombinationSet, all_combinations
from ..errors import ManifestError
from ..media.content import Content
from ..media.tracks import Track
from .dash import DashManifest, build_dash_manifest, write_mpd
from .hls import (
    HlsMasterPlaylist,
    HlsMediaPlaylist,
    HlsRendition,
    HlsSegment,
    HlsVariant,
    write_master_playlist,
    write_media_playlist,
)

AUDIO_GROUP_ID = "audio"


@dataclass(frozen=True)
class HlsPackage:
    """A complete HLS packaging: master playlist + per-track playlists."""

    master: HlsMasterPlaylist
    media_playlists: Dict[str, HlsMediaPlaylist] = field(default_factory=dict)

    def media_playlist(self, track_id: str) -> HlsMediaPlaylist:
        try:
            return self.media_playlists[track_id]
        except KeyError:
            raise ManifestError(f"no media playlist for track {track_id!r}") from None

    def write_all(self) -> Dict[str, str]:
        """Serialize everything: filename -> document text."""
        files = {"master.m3u8": write_master_playlist(self.master)}
        for track_id, playlist in self.media_playlists.items():
            files[f"{track_id}.m3u8"] = write_media_playlist(playlist)
        return files

    def derived_track_bitrates(self) -> Dict[str, Tuple[float, float]]:
        """Per-track (avg, peak) kbps derived from media playlists.

        Implements the Section-4.1 client-side recommendation: "the
        player should download these [second-level] files and read the
        information before making rate adaptation decisions". Raises if
        the packaging carries neither byte ranges nor bitrate tags.
        """
        out: Dict[str, Tuple[float, float]] = {}
        for track_id, playlist in self.media_playlists.items():
            avg = playlist.derived_avg_kbps()
            peak = playlist.derived_peak_kbps()
            if avg is None or peak is None:
                raise ManifestError(
                    f"media playlist for {track_id!r} carries no byte ranges "
                    "or EXT-X-BITRATE tags; per-track bitrates unavailable"
                )
            out[track_id] = (avg, peak)
        return out


def _self_lint(files: Dict[str, str]) -> None:
    """Run the static analyzer over serialized output; raise on ERROR.

    Used by the packagers' ``self_lint`` flag: a guard that the emitted
    text conforms to what :mod:`repro.analysis` enforces, catching
    writer regressions at packaging time instead of in a player.
    """
    from .. import analysis

    findings = analysis.analyze_files(files)
    errors = [f for f in findings if f.severity is analysis.Severity.ERROR]
    if errors:
        detail = "; ".join(str(f) for f in errors[:5])
        raise ManifestError(
            f"packager output fails its own lint with {len(errors)} "
            f"error(s): {detail}"
        )


def package_dash(
    content: Content,
    allowed_combinations: Optional[CombinationSet] = None,
    self_lint: bool = False,
) -> DashManifest:
    """Build a DASH MPD for the content.

    ``allowed_combinations`` embeds the Section-4.1 extension element;
    leave it ``None`` to model standard DASH (no combination restriction
    — the deficiency the paper critiques).

    ``self_lint`` serializes the manifest and runs
    :mod:`repro.analysis` over it, raising :class:`ManifestError` if
    any ERROR-severity finding comes back.
    """
    pairs = None
    if allowed_combinations is not None:
        pairs = [(c.video.track_id, c.audio.track_id) for c in allowed_combinations]
    manifest = build_dash_manifest(content, allowed_combinations=pairs)
    if self_lint:
        _self_lint({"manifest.mpd": write_mpd(manifest)})
    return manifest


def _media_playlist_for(
    content: Content,
    track: Track,
    single_file: bool,
    include_bitrate_tag: bool,
) -> HlsMediaPlaylist:
    segments: List[HlsSegment] = []
    offset = 0
    for index in range(content.n_chunks):
        chunk = content.chunk(track.track_id, index)
        length_bytes = int(round(chunk.size_bits / 8.0))
        byterange = (length_bytes, offset) if single_file else None
        if single_file:
            uri = f"{track.track_id}.mp4"
            offset += length_bytes
        else:
            uri = f"{track.track_id}_{index:05d}.mp4"
        segments.append(
            HlsSegment(
                duration_s=chunk.duration_s,
                uri=uri,
                byterange=byterange,
                bitrate_kbps=chunk.bitrate_kbps if include_bitrate_tag else None,
            )
        )
    return HlsMediaPlaylist(track_id=track.track_id, segments=tuple(segments))


def hls_master(
    content: Content,
    combinations: Optional[CombinationSet] = None,
    audio_order: Optional[Sequence[str]] = None,
    variant_order: str = "bandwidth",
) -> HlsMasterPlaylist:
    """Build the HLS master playlist for the content.

    :param combinations: the variants to list. Defaults to *all*
        combinations — the paper's H_all. Pass
        :func:`repro.core.combinations.hsub_combinations` for H_sub.
    :param audio_order: audio track ids in the order their
        ``EXT-X-MEDIA`` renditions should be listed. The paper shows the
        order is behaviourally significant: ExoPlayer locks onto the
        first rendition. Defaults to ladder order (lowest first).
    :param variant_order: ``"bandwidth"`` (ascending aggregate peak,
        Table-2 order) or ``"manifest"`` (the order of the combination
        set as given).
    """
    combos = combinations if combinations is not None else all_combinations(content)
    if audio_order is None:
        audio_ids = [t.track_id for t in combos.audio_tracks()]
        audio_ids.sort(key=content.audio.index_of)
    else:
        audio_ids = list(audio_order)
        known = {t.track_id for t in combos.audio_tracks()}
        missing = known - set(audio_ids)
        if missing:
            raise ManifestError(
                f"audio_order omits tracks used by variants: {sorted(missing)}"
            )

    renditions = tuple(
        HlsRendition(
            group_id=AUDIO_GROUP_ID,
            name=audio_id,
            uri=f"{audio_id}.m3u8",
            channels=content.audio.by_id(audio_id).channels,
            default=(i == 0),
        )
        for i, audio_id in enumerate(audio_ids)
    )

    ordered = list(combos)
    if variant_order == "bandwidth":
        ordered.sort(key=lambda c: (c.peak_kbps, c.avg_kbps))
    elif variant_order != "manifest":
        raise ManifestError(
            f"variant_order must be 'bandwidth' or 'manifest', got {variant_order!r}"
        )

    variants = tuple(
        HlsVariant(
            bandwidth_bps=int(round(c.peak_kbps * 1000)),
            average_bandwidth_bps=int(round(c.avg_kbps * 1000)),
            uri=f"{c.video.track_id}_{c.audio.track_id}.m3u8",
            resolution=(
                None
                if c.video.height is None
                else (int(round(c.video.height * 16 / 9)), c.video.height)
            ),
            codecs="avc1.640028,mp4a.40.2",
            audio_group=AUDIO_GROUP_ID,
            video_id=c.video.track_id,
            audio_id=c.audio.track_id,
        )
        for c in ordered
    )
    return HlsMasterPlaylist(variants=variants, renditions=renditions)


def package_hls(
    content: Content,
    combinations: Optional[CombinationSet] = None,
    audio_order: Optional[Sequence[str]] = None,
    variant_order: str = "bandwidth",
    single_file: bool = True,
    include_bitrate_tag: bool = False,
    self_lint: bool = False,
) -> HlsPackage:
    """Build an HLS package for the content: :func:`hls_master` (which
    documents ``combinations``, ``audio_order`` and ``variant_order``)
    plus one media playlist per track it references.

    :param single_file: package each track as a single file with
        ``EXT-X-BYTERANGE`` (case i of Section 4.1) rather than one file
        per chunk (case ii).
    :param include_bitrate_tag: emit ``EXT-X-BITRATE`` per chunk — the
        optional tag the paper recommends making mandatory. Only
        meaningful with ``single_file=False`` (with byte ranges the
        bitrate is already derivable), but allowed in both modes.
    :param self_lint: run :mod:`repro.analysis` over the serialized
        package and raise :class:`ManifestError` on any ERROR finding.
    """
    master = hls_master(content, combinations, audio_order, variant_order)
    track_ids = {v.video_id for v in master.variants} | {
        r.name for r in master.renditions
    }
    playlists = {
        track_id: _media_playlist_for(
            content,
            content.track(track_id),
            single_file=single_file,
            include_bitrate_tag=include_bitrate_tag,
        )
        for track_id in sorted(track_ids)
    }
    package = HlsPackage(master=master, media_playlists=playlists)
    if self_lint:
        _self_lint(package.write_all())
    return package


def write_dash_package(content: Content, **kwargs) -> Dict[str, str]:
    """Package DASH and serialize: filename -> document text."""
    return {"manifest.mpd": write_mpd(package_dash(content, **kwargs))}


def package_hls_multilanguage(
    catalog: "LanguageCatalog",
    combinations: Optional[CombinationSet] = None,
    single_file: bool = True,
    include_bitrate_tag: bool = False,
) -> HlsPackage:
    """Package a multi-language catalogue, Apple-authoring style.

    One ``EXT-X-MEDIA`` *group per audio quality rung* (``audio-A1``,
    ``audio-A2``, ...), each group carrying every language at that rung;
    variants pair a video track with a rung's group, so the player's
    rate adaptation moves across groups while the user's language choice
    selects the rendition *within* the group. This is the authoring
    pattern Apple's HLS spec recommends for multi-language ladders.

    :param combinations: allowed (video, audio-rung) combinations over
        the catalogue's *base* content; defaults to the curated subset
        being absent, i.e. all combinations (as with :func:`package_hls`).
    """
    from ..core.combinations import all_combinations as _all

    base = catalog.base
    combos = combinations if combinations is not None else _all(base)

    renditions = []
    for rung in base.audio:
        group_id = f"audio-{rung.track_id}"
        for lang in catalog.languages:
            renditions.append(
                HlsRendition(
                    group_id=group_id,
                    name=f"{rung.track_id}-{lang}",
                    uri=f"{rung.track_id}-{lang}.m3u8",
                    channels=rung.channels,
                    default=(lang == catalog.default_lang),
                    language=lang,
                )
            )

    ordered = sorted(combos, key=lambda c: (c.peak_kbps, c.avg_kbps))
    variants = tuple(
        HlsVariant(
            bandwidth_bps=int(round(c.peak_kbps * 1000)),
            average_bandwidth_bps=int(round(c.avg_kbps * 1000)),
            uri=f"{c.video.track_id}_{c.audio.track_id}.m3u8",
            resolution=(
                None
                if c.video.height is None
                else (int(round(c.video.height * 16 / 9)), c.video.height)
            ),
            codecs="avc1.640028,mp4a.40.2",
            audio_group=f"audio-{c.audio.track_id}",
            video_id=c.video.track_id,
            audio_id=c.audio.track_id,
        )
        for c in ordered
    )

    playlists: Dict[str, HlsMediaPlaylist] = {}
    for track in base.video:
        playlists[track.track_id] = _media_playlist_for(
            base, track, single_file=single_file, include_bitrate_tag=include_bitrate_tag
        )
    for lang in catalog.languages:
        lang_content = catalog.content_for(lang)
        for track in lang_content.audio:
            playlists[track.track_id] = _media_playlist_for(
                lang_content,
                track,
                single_file=single_file,
                include_bitrate_tag=include_bitrate_tag,
            )

    master = HlsMasterPlaylist(variants=variants, renditions=tuple(renditions))
    return HlsPackage(master=master, media_playlists=playlists)


# Imported late to avoid a cycle (media.languages has no manifest deps,
# but keeping the type import local documents the optional coupling).
from ..media.languages import LanguageCatalog  # noqa: E402
