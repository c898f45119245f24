"""HLS master/media playlist model, writer and parser.

Implements the HLS constructs the paper analyses (Section 2.3, 4.1):

* ``EXT-X-STREAM-INF`` variant streams in the master playlist, each one
  an audio+video *combination* whose ``BANDWIDTH`` attribute is "the sum
  of the peak bitrates of the audio and video tracks in the combination";
* ``EXT-X-MEDIA`` audio renditions grouped by ``GROUP-ID`` (their order
  matters: ExoPlayer locks onto the first rendition);
* second-level media playlists with ``EXTINF`` chunk durations, optional
  ``EXT-X-BYTERANGE`` (single-file packaging) and the optional
  ``EXT-X-BITRATE`` tag the paper recommends making mandatory.

Playlist text has one reader, :func:`scan_playlist`: a lenient scan that
keeps every line number and records syntax problems as data instead of
raising. The linter (:mod:`repro.analysis`) consumes the scan directly;
:func:`parse_master_playlist` and :func:`parse_media_playlist` reject
any scan issue with :class:`ManifestParseError`, then build the models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ManifestError, ManifestParseError


@dataclass(frozen=True)
class HlsRendition:
    """An ``EXT-X-MEDIA`` entry (we model TYPE=AUDIO renditions)."""

    group_id: str
    name: str
    uri: str
    channels: Optional[int] = None
    default: bool = False
    autoselect: bool = True
    language: Optional[str] = None  # BCP-47, e.g. "en"

    def __post_init__(self) -> None:
        if not self.group_id or not self.name or not self.uri:
            raise ManifestError("rendition needs group_id, name and uri")


@dataclass(frozen=True)
class HlsVariant:
    """An ``EXT-X-STREAM-INF`` entry: one audio+video combination.

    ``bandwidth_bps`` is the aggregate *peak* bandwidth of the pair;
    ``average_bandwidth_bps`` the aggregate average (both per RFC 8216).
    The variant's URI points at the *video* media playlist; the audio
    rendition group is referenced via ``AUDIO=group-id``.
    """

    bandwidth_bps: int
    uri: str
    average_bandwidth_bps: Optional[int] = None
    resolution: Optional[Tuple[int, int]] = None
    codecs: str = ""
    audio_group: Optional[str] = None
    #: Which (video_track, audio_track) pair this variant represents.
    #: Real playlists carry this only implicitly (via URI and group);
    #: we keep it explicit for analysis and round-trip it through URIs.
    video_id: Optional[str] = None
    audio_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ManifestError(
                f"variant bandwidth must be positive, got {self.bandwidth_bps}"
            )
        if not self.uri:
            raise ManifestError("variant needs a URI")

    @property
    def bandwidth_kbps(self) -> float:
        return self.bandwidth_bps / 1000.0

    @property
    def average_bandwidth_kbps(self) -> Optional[float]:
        if self.average_bandwidth_bps is None:
            return None
        return self.average_bandwidth_bps / 1000.0

    @property
    def name(self) -> Optional[str]:
        """Paper-style combination name when track ids are known."""
        if self.video_id and self.audio_id:
            return f"{self.video_id}+{self.audio_id}"
        return None


@dataclass(frozen=True)
class HlsMasterPlaylist:
    """A top-level master playlist: variants + audio renditions."""

    variants: Tuple[HlsVariant, ...]
    renditions: Tuple[HlsRendition, ...] = ()
    version: int = 6

    def __post_init__(self) -> None:
        if not self.variants:
            raise ManifestError("master playlist needs at least one variant")

    def audio_renditions(self, group_id: str) -> Tuple[HlsRendition, ...]:
        """Renditions of one group, in playlist order (order matters!)."""
        return tuple(r for r in self.renditions if r.group_id == group_id)

    @property
    def audio_group_ids(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for r in self.renditions:
            if r.group_id not in seen:
                seen.append(r.group_id)
        return tuple(seen)

    def variants_for_video(self, video_id: str) -> Tuple[HlsVariant, ...]:
        return tuple(v for v in self.variants if v.video_id == video_id)

    def first_variant_bandwidth(self, video_id: str) -> int:
        """Aggregate bandwidth of the *first* variant containing a video.

        This is exactly the (over)estimate ExoPlayer uses as the video
        track's bitrate under HLS (Section 3.2): "it uses the aggregate
        bitrate of the first variant in the top-level manifest file that
        contains this video track as its bitrate, which is clearly an
        overestimation."
        """
        for variant in self.variants:
            if variant.video_id == video_id:
                return variant.bandwidth_bps
        raise ManifestError(f"no variant contains video track {video_id!r}")

    @property
    def combination_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variants if v.name is not None)


@dataclass(frozen=True)
class HlsSegment:
    """One ``EXTINF`` entry of a media playlist."""

    duration_s: float
    uri: str
    byterange: Optional[Tuple[int, int]] = None  # (length, offset) bytes
    bitrate_kbps: Optional[float] = None  # EXT-X-BITRATE, kbps

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ManifestError(f"segment duration must be positive: {self.duration_s}")
        if not self.uri:
            raise ManifestError("segment needs a URI")


@dataclass(frozen=True)
class HlsMediaPlaylist:
    """A second-level media playlist for a single track."""

    track_id: str
    segments: Tuple[HlsSegment, ...]
    version: int = 6

    def __post_init__(self) -> None:
        if not self.segments:
            raise ManifestError("media playlist needs at least one segment")

    @property
    def target_duration_s(self) -> int:
        return int(-(-max(s.duration_s for s in self.segments) // 1))  # ceil

    @property
    def total_duration_s(self) -> float:
        return sum(s.duration_s for s in self.segments)

    def derived_bitrates_kbps(self) -> Optional[List[float]]:
        """Per-chunk bitrates derivable from this playlist, if any."""
        return derived_bitrates_kbps(self.segments)

    def derived_peak_kbps(self) -> Optional[float]:
        rates = self.derived_bitrates_kbps()
        return None if rates is None else max(rates)

    def derived_avg_kbps(self) -> Optional[float]:
        rates = self.derived_bitrates_kbps()
        if rates is None:
            return None
        total_bits = sum(
            r * 1000.0 * s.duration_s for r, s in zip(rates, self.segments)
        )
        return total_bits / self.total_duration_s / 1000.0


def derived_bitrates_kbps(segments: Sequence) -> Optional[List[float]]:
    """Per-segment bitrates (kbps) derivable from a media playlist.

    Section 4.1's recommendation: per-track bitrates are not in the
    master playlist but can be derived from the media playlist, either
    from ``EXT-X-BYTERANGE`` (case i) or ``EXT-X-BITRATE`` (case ii);
    the tag wins when a segment carries both. Returns ``None`` when any
    segment has neither — the situation the paper's best practices
    exist to eliminate. Takes :class:`HlsSegment` or
    :class:`ScannedSegment` items alike.
    """
    rates: List[float] = []
    for segment in segments:
        if segment.bitrate_kbps is not None:
            rates.append(segment.bitrate_kbps)
        elif segment.byterange is not None and segment.duration_s:
            rates.append(segment.byterange[0] * 8.0 / segment.duration_s / 1000.0)
        else:
            return None
    return rates


def _attr_string(pairs: Sequence[Tuple[str, str]]) -> str:
    return ",".join(f"{key}={value}" for key, value in pairs)


def _quote(value: str) -> str:
    return f'"{value}"'


def write_master_playlist(master: HlsMasterPlaylist) -> str:
    """Serialize a master playlist to m3u8 text."""
    lines: List[str] = ["#EXTM3U", f"#EXT-X-VERSION:{master.version}"]
    for rendition in master.renditions:
        pairs: List[Tuple[str, str]] = [
            ("TYPE", "AUDIO"),
            ("GROUP-ID", _quote(rendition.group_id)),
            ("NAME", _quote(rendition.name)),
            ("DEFAULT", "YES" if rendition.default else "NO"),
            ("AUTOSELECT", "YES" if rendition.autoselect else "NO"),
        ]
        if rendition.language is not None:
            pairs.append(("LANGUAGE", _quote(rendition.language)))
        if rendition.channels is not None:
            pairs.append(("CHANNELS", _quote(str(rendition.channels))))
        pairs.append(("URI", _quote(rendition.uri)))
        lines.append(f"#EXT-X-MEDIA:{_attr_string(pairs)}")
    for variant in master.variants:
        pairs = [("BANDWIDTH", str(variant.bandwidth_bps))]
        if variant.average_bandwidth_bps is not None:
            pairs.append(("AVERAGE-BANDWIDTH", str(variant.average_bandwidth_bps)))
        if variant.resolution is not None:
            width, height = variant.resolution
            pairs.append(("RESOLUTION", f"{width}x{height}"))
        if variant.codecs:
            pairs.append(("CODECS", _quote(variant.codecs)))
        if variant.audio_group is not None:
            pairs.append(("AUDIO", _quote(variant.audio_group)))
        lines.append(f"#EXT-X-STREAM-INF:{_attr_string(pairs)}")
        lines.append(variant.uri)
    return "\n".join(lines) + "\n"


def write_media_playlist(playlist: HlsMediaPlaylist) -> str:
    """Serialize a media playlist to m3u8 text."""
    lines = [
        "#EXTM3U",
        f"#EXT-X-VERSION:{playlist.version}",
        f"#EXT-X-TARGETDURATION:{playlist.target_duration_s}",
        "#EXT-X-MEDIA-SEQUENCE:0",
        "#EXT-X-PLAYLIST-TYPE:VOD",
    ]
    for segment in playlist.segments:
        if segment.bitrate_kbps is not None:
            lines.append(f"#EXT-X-BITRATE:{int(round(segment.bitrate_kbps))}")
        lines.append(f"#EXTINF:{segment.duration_s:.5f},")
        if segment.byterange is not None:
            length_bytes, offset = segment.byterange
            lines.append(f"#EXT-X-BYTERANGE:{length_bytes}@{offset}")
        lines.append(segment.uri)
    lines.append("#EXT-X-ENDLIST")
    return "\n".join(lines) + "\n"


def _ids_from_uri(uri: str) -> Tuple[Optional[str], Optional[str]]:
    """Recover (video_id, audio_id) from packager URI conventions.

    The packager names variant URIs ``<video>_<audio>.m3u8`` (muxed
    naming kept for readability) or ``<video>.m3u8`` plus an audio group.
    """
    stem = uri.rsplit("/", 1)[-1]
    if stem.endswith(".m3u8"):
        stem = stem[: -len(".m3u8")]
    if "_" in stem:
        video_id, audio_id = stem.split("_", 1)
        return video_id or None, audio_id or None
    return stem or None, None




# ---------------------------------------------------------------------------
# Reading: one lenient, line-keeping scan; the strict parsers check it
# ---------------------------------------------------------------------------


@dataclass
class SyntaxIssue:
    line: int
    message: str
    #: "attr" for malformed tag payloads, "uri" for missing/orphan URIs.
    code: str = "attr"


@dataclass
class ScannedRendition:
    """An ``EXT-X-MEDIA`` entry with its source line."""

    line: int
    attrs: Dict[str, str]

    @property
    def media_type(self) -> str:
        return self.attrs.get("TYPE", "")

    @property
    def group_id(self) -> str:
        return self.attrs.get("GROUP-ID", "")

    @property
    def name(self) -> str:
        return self.attrs.get("NAME", "")

    @property
    def uri(self) -> str:
        return self.attrs.get("URI", "")


@dataclass
class ScannedVariant:
    """An ``EXT-X-STREAM-INF`` + URI pair with source lines."""

    line: int  # the EXT-X-STREAM-INF line
    uri_line: int  # the following URI line
    uri: str
    attrs: Dict[str, str]

    @property
    def bandwidth_bps(self) -> Optional[int]:
        try:
            return int(self.attrs["BANDWIDTH"])
        except (KeyError, ValueError):
            return None

    @property
    def codecs(self) -> str:
        return self.attrs.get("CODECS", "")

    @property
    def audio_group(self) -> Optional[str]:
        return self.attrs.get("AUDIO")

    @property
    def video_id(self) -> Optional[str]:
        return _ids_from_uri(self.uri)[0]

    @property
    def audio_id(self) -> Optional[str]:
        return _ids_from_uri(self.uri)[1]


@dataclass
class ScannedSegment:
    """One media-playlist segment: EXTINF (+ optional companions) + URI."""

    extinf_line: int
    uri_line: int
    uri: str
    duration_s: Optional[float]
    duration_is_float: bool
    #: (length, offset); the offset is ``None`` when the tag omits it.
    byterange: Optional[Tuple[int, Optional[int]]] = None
    bitrate_kbps: Optional[float] = None


@dataclass
class ScannedPlaylist:
    """A leniently scanned playlist of either level.

    Line numbers are 1-based indexes into ``text.split("\\n")``.
    """

    #: Some line is ``#EXTM3U``.
    has_extm3u: bool = False
    #: The first non-blank line is ``#EXTM3U``.
    leading_extm3u: bool = False
    #: The playlist has an ``EXT-X-STREAM-INF`` tag.
    is_master: bool = False
    version: Optional[int] = None
    version_line: int = 0
    target_duration: Optional[int] = None
    target_duration_line: int = 0
    playlist_type: Optional[str] = None
    has_endlist: bool = False
    renditions: List[ScannedRendition] = field(default_factory=list)
    variants: List[ScannedVariant] = field(default_factory=list)
    segments: List[ScannedSegment] = field(default_factory=list)
    issues: List[SyntaxIssue] = field(default_factory=list)

    @property
    def is_media(self) -> bool:
        return not self.is_master

    def variants_for_video(self, video_id: str) -> List[ScannedVariant]:
        return [v for v in self.variants if v.video_id == video_id]


#: One attribute-list field: a key, then ``=value`` unless the key stands
#: alone. A ``"`` opens a quoted string only inside a value, where it
#: hides commas until it closes; an unclosed one runs to the end.
_FIELD_RE = re.compile(r'([^=,]*)(?:=((?:[^",]|"[^"]*")*)("[^"]*)?)?(?:,|\Z)')


def parse_attribute_list(text: str) -> Tuple[Dict[str, str], List[str]]:
    """Parse an HLS attribute list leniently.

    Returns (attrs, problems). Quoted values keep their content but drop
    the quotes; malformed pieces (a key without a value, an unterminated
    quote) are reported, not raised.
    """
    attrs: Dict[str, str] = {}
    problems: List[str] = []
    for match in _FIELD_RE.finditer(text):
        key, value, unterminated = match.groups()
        key = key.strip()
        if value is None:
            if key:
                problems.append(f"attribute {key!r} has no value")
        elif unterminated is None:
            attrs[key] = value.strip().strip('"')
        else:
            problems.append(
                f"unterminated quote in attribute list: {text.strip()!r}"
            )
            if key:
                attrs[key] = (value + unterminated + ",").strip().strip('"')
    return attrs, problems


#: Tags whose payload is an attribute list (the ones we scan).
_ATTR_TAGS = {"EXT-X-STREAM-INF", "EXT-X-MEDIA", "EXT-X-I-FRAME-STREAM-INF"}


def scan_playlist(text: str) -> ScannedPlaylist:
    """Scan playlist text into a line-indexed view. Never raises.

    Malformed attribute lists and numbers, missing URIs and orphan URIs
    become :class:`SyntaxIssue` records; unknown tags are skipped.
    """
    scanned = ScannedPlaylist()
    issues = scanned.issues
    first = True
    pending_inf: Optional[Tuple[int, Dict[str, str]]] = None
    pending_extinf: Optional[Tuple[int, Optional[float], bool]] = None
    pending_byterange: Optional[Tuple[int, Optional[int]]] = None
    pending_bitrate: Optional[float] = None

    for line_no, line in enumerate(text.split("\n"), 1):
        raw = line.strip()
        if not raw:
            continue
        if first:
            scanned.leading_extm3u = raw == "#EXTM3U"
            first = False
        if raw == "#EXTM3U":
            scanned.has_extm3u = True
            continue
        if raw[0] != "#":
            # A URI line: closes a pending STREAM-INF or EXTINF.
            if pending_inf is not None:
                inf_line, attrs = pending_inf
                scanned.variants.append(
                    ScannedVariant(inf_line, line_no, raw, attrs)
                )
                pending_inf = None
            elif pending_extinf is not None:
                extinf_line, duration, is_float = pending_extinf
                scanned.segments.append(
                    ScannedSegment(
                        extinf_line=extinf_line,
                        uri_line=line_no,
                        uri=raw,
                        duration_s=duration,
                        duration_is_float=is_float,
                        byterange=pending_byterange,
                        bitrate_kbps=pending_bitrate,
                    )
                )
                pending_extinf = None
                pending_byterange = None
                pending_bitrate = None
            else:
                issues.append(
                    SyntaxIssue(
                        line_no,
                        f"URI {raw!r} is not preceded by EXT-X-STREAM-INF or EXTINF",
                        "uri",
                    )
                )
            continue

        name, _, payload = raw[1:].partition(":")
        if name == "EXTINF":
            duration: Optional[float] = None
            duration_text = payload.split(",", 1)[0].strip()
            try:
                duration = float(duration_text)
            except ValueError:
                issues.append(
                    SyntaxIssue(line_no, f"bad EXTINF duration {payload!r}")
                )
            pending_extinf = (line_no, duration, "." in duration_text)
        elif name == "EXT-X-BYTERANGE":
            body = payload.strip()
            length_s, at, offset_s = body.partition("@")
            try:
                pending_byterange = (int(length_s), int(offset_s) if at else None)
            except ValueError:
                issues.append(SyntaxIssue(line_no, f"bad byterange {body!r}"))
        elif name == "EXT-X-BITRATE":
            try:
                pending_bitrate = float(payload)
            except ValueError:
                issues.append(SyntaxIssue(line_no, f"bad bitrate {payload!r}"))
        elif name in _ATTR_TAGS:
            attrs, problems = parse_attribute_list(payload)
            issues.extend(SyntaxIssue(line_no, problem) for problem in problems)
            if name == "EXT-X-STREAM-INF":
                scanned.is_master = True
                if pending_inf is not None:
                    issues.append(_no_uri(pending_inf[0], "EXT-X-STREAM-INF"))
                pending_inf = (line_no, attrs)
            elif name == "EXT-X-MEDIA":
                scanned.renditions.append(ScannedRendition(line_no, attrs))
        elif name == "EXT-X-VERSION":
            try:
                scanned.version = int(payload)
            except ValueError:
                issues.append(SyntaxIssue(line_no, f"bad version {payload!r}"))
            scanned.version_line = line_no
        elif name == "EXT-X-TARGETDURATION":
            try:
                scanned.target_duration = int(payload)
            except ValueError:
                issues.append(
                    SyntaxIssue(line_no, f"bad target duration {payload!r}")
                )
            scanned.target_duration_line = line_no
        elif name == "EXT-X-PLAYLIST-TYPE":
            scanned.playlist_type = payload.strip()
        elif name == "EXT-X-ENDLIST":
            scanned.has_endlist = True

    if pending_inf is not None:
        issues.append(_no_uri(pending_inf[0], "EXT-X-STREAM-INF"))
    if pending_extinf is not None:
        issues.append(_no_uri(pending_extinf[0], "EXTINF"))
    return scanned


def _no_uri(line: int, tag: str) -> SyntaxIssue:
    return SyntaxIssue(line, f"{tag} without a following URI", "uri")


def _number(kind, text: str, what: str):
    """``kind(text)``, raising :class:`ManifestParseError` if malformed."""
    try:
        return kind(text)
    except ValueError:
        raise ManifestParseError(f"bad {what} {text!r}") from None


def _strict_scan(text: str, level: str) -> ScannedPlaylist:
    """Scan, then reject what a player must not guess around."""
    scanned = scan_playlist(text)
    if not scanned.leading_extm3u:
        raise ManifestParseError(f"{level} playlist must start with #EXTM3U")
    if scanned.issues:
        issue = scanned.issues[0]
        raise ManifestParseError(f"line {issue.line}: {issue.message}")
    return scanned


def _version(scanned: ScannedPlaylist) -> int:
    return 1 if scanned.version is None else scanned.version


def _rendition(scanned: ScannedRendition) -> HlsRendition:
    attrs = scanned.attrs
    channels = attrs.get("CHANNELS")
    return HlsRendition(
        group_id=scanned.group_id,
        name=scanned.name,
        uri=scanned.uri,
        channels=None if channels is None else _number(int, channels, "CHANNELS"),
        default=attrs.get("DEFAULT") == "YES",
        autoselect=attrs.get("AUTOSELECT", "YES") == "YES",
        language=attrs.get("LANGUAGE"),
    )


def _variant(scanned: ScannedVariant) -> HlsVariant:
    attrs = scanned.attrs
    if "BANDWIDTH" not in attrs:
        raise ManifestParseError("EXT-X-STREAM-INF lacks BANDWIDTH")
    average = attrs.get("AVERAGE-BANDWIDTH")
    resolution: Optional[Tuple[int, int]] = None
    if "RESOLUTION" in attrs:
        try:
            width_s, height_s = attrs["RESOLUTION"].split("x")
            resolution = (int(width_s), int(height_s))
        except ValueError as exc:
            raise ManifestParseError(
                f"bad RESOLUTION {attrs['RESOLUTION']!r}"
            ) from exc
    video_id, audio_id = _ids_from_uri(scanned.uri)
    return HlsVariant(
        bandwidth_bps=_number(int, attrs["BANDWIDTH"], "BANDWIDTH"),
        average_bandwidth_bps=(
            None if average is None else _number(int, average, "AVERAGE-BANDWIDTH")
        ),
        uri=scanned.uri,
        resolution=resolution,
        codecs=scanned.codecs,
        audio_group=scanned.audio_group,
        video_id=video_id,
        audio_id=audio_id,
    )


def parse_master_playlist(text: str) -> HlsMasterPlaylist:
    """Parse master playlist m3u8 text (only audio renditions are modelled)."""
    scanned = _strict_scan(text, "master")
    if scanned.segments:
        raise ManifestParseError(
            f"URI {scanned.segments[0].uri!r} without EXT-X-STREAM-INF"
        )
    return HlsMasterPlaylist(
        variants=tuple(_variant(v) for v in scanned.variants),
        renditions=tuple(
            _rendition(r) for r in scanned.renditions if r.media_type == "AUDIO"
        ),
        version=_version(scanned),
    )


def parse_media_playlist(text: str, track_id: str = "") -> HlsMediaPlaylist:
    """Parse media playlist m3u8 text.

    An ``EXT-X-BYTERANGE`` without ``@offset`` starts where the previous
    segment's range ended (RFC 8216 §4.3.2.2).
    """
    scanned = _strict_scan(text, "media")
    if scanned.variants:
        raise ManifestParseError(f"URI {scanned.variants[0].uri!r} without EXTINF")
    if not scanned.segments:
        raise ManifestParseError("media playlist has no segments")
    segments: List[HlsSegment] = []
    previous_end = 0
    for scanned_segment in scanned.segments:
        byterange = scanned_segment.byterange
        if byterange is not None and byterange[1] is None:
            byterange = (byterange[0], previous_end)
        segments.append(
            HlsSegment(
                duration_s=scanned_segment.duration_s,
                uri=scanned_segment.uri,
                byterange=byterange,
                bitrate_kbps=scanned_segment.bitrate_kbps,
            )
        )
        previous_end = 0 if byterange is None else byterange[0] + byterange[1]
    track = track_id or segments[0].uri.split("_", 1)[0].rsplit("/", 1)[-1]
    return HlsMediaPlaylist(
        track_id=track, segments=tuple(segments), version=_version(scanned)
    )
