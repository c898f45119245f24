"""DASH MPD model, writer and parser.

Implements the subset of ISO/IEC 23009-1 the paper exercises: a single
Period containing one video Adaptation Set and one audio Adaptation Set,
each Representation carrying a ``bandwidth`` attribute (bits per second)
"which is close to the peak bitrate" (Section 2.3, Table 1's *Declared
Bitrate for DASH* column).

The model is also the vehicle for the paper's Section 4.1 proposal:
DASH has no standard way to restrict audio/video combinations, so we
provide an *extension* element (``repro:AllowedCombinations``) that a
server may embed; standard-compliant parsers ignore it, while the
best-practices player honours it. This mirrors the paper's suggestion
that "the DASH specification can be expanded to support this feature."

MPD text has one reader, :func:`parse_xml`: expat into a small element
tree (:class:`XmlElement`) that keeps the line and column of every
element. The linter (:mod:`repro.analysis`) walks that tree directly;
:func:`parse_mpd` walks it into the models. :func:`write_mpd` serializes
with ElementTree.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ManifestError, ManifestParseError
from ..media.content import Content
from ..media.tracks import MediaType

MPD_NS = "urn:mpeg:dash:schema:mpd:2011"
REPRO_NS = "urn:repro:dash:extensions:2019"


@dataclass(frozen=True)
class DashRepresentation:
    """One Representation: a single audio or video track."""

    rep_id: str
    bandwidth_bps: int
    codecs: str = ""
    width: Optional[int] = None
    height: Optional[int] = None
    audio_channels: Optional[int] = None
    audio_sampling_rate_hz: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.rep_id:
            raise ManifestError("Representation id must be non-empty")
        if self.bandwidth_bps <= 0:
            raise ManifestError(
                f"Representation {self.rep_id}: bandwidth must be positive, "
                f"got {self.bandwidth_bps}"
            )

    @property
    def bandwidth_kbps(self) -> float:
        return self.bandwidth_bps / 1000.0


@dataclass(frozen=True)
class DashSegmentTemplate:
    """A ``SegmentTemplate`` element (number-based addressing).

    The common live/VOD packaging: segment URLs are generated from a
    template with ``$RepresentationID$`` and ``$Number$`` substitutions,
    and every segment has a fixed duration in ``timescale`` units.
    """

    media: str = "$RepresentationID$_$Number$.m4s"
    initialization: str = "$RepresentationID$_init.mp4"
    duration: int = 5000  # in timescale units
    timescale: int = 1000
    start_number: int = 1

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.timescale <= 0:
            raise ManifestError("SegmentTemplate duration/timescale must be positive")
        if self.start_number < 0:
            raise ManifestError("SegmentTemplate startNumber must be non-negative")
        if "$Number$" not in self.media:
            raise ManifestError("media template must contain $Number$")

    @property
    def segment_duration_s(self) -> float:
        return self.duration / self.timescale

    def media_url(self, rep_id: str, index: int) -> str:
        """URL of chunk ``index`` (0-based) for a representation."""
        if index < 0:
            raise ManifestError(f"chunk index must be non-negative, got {index}")
        return self.media.replace("$RepresentationID$", rep_id).replace(
            "$Number$", str(self.start_number + index)
        )

    def init_url(self, rep_id: str) -> str:
        return self.initialization.replace("$RepresentationID$", rep_id)


@dataclass(frozen=True)
class DashAdaptationSet:
    """One Adaptation Set: "a set of interchangeable encoded versions"."""

    content_type: str  # "video" or "audio"
    representations: Tuple[DashRepresentation, ...]
    mime_type: str = ""
    lang: Optional[str] = None
    segment_template: Optional[DashSegmentTemplate] = None

    def __post_init__(self) -> None:
        if self.content_type not in ("video", "audio"):
            raise ManifestError(
                f"content_type must be 'video' or 'audio', got {self.content_type!r}"
            )
        if not self.representations:
            raise ManifestError(
                f"{self.content_type} AdaptationSet needs at least one Representation"
            )
        ids = [r.rep_id for r in self.representations]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate Representation ids: {ids}")

    @property
    def media_type(self) -> MediaType:
        return MediaType.VIDEO if self.content_type == "video" else MediaType.AUDIO


@dataclass(frozen=True)
class DashManifest:
    """A single-period MPD with demuxed audio and video Adaptation Sets."""

    duration_s: float
    adaptation_sets: Tuple[DashAdaptationSet, ...]
    min_buffer_time_s: float = 2.0
    #: Optional Section-4.1 extension: explicit allowed (video_id, audio_id)
    #: combinations. ``None`` means the manifest does not restrict pairs
    #: (the standard-DASH situation the paper critiques).
    allowed_combinations: Optional[Tuple[Tuple[str, str], ...]] = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ManifestError(f"duration must be positive, got {self.duration_s}")
        types = [a.content_type for a in self.adaptation_sets]
        if len(set(types)) != len(types):
            raise ManifestError(f"duplicate AdaptationSet content types: {types}")

    def adaptation_set(self, content_type: str) -> DashAdaptationSet:
        for aset in self.adaptation_sets:
            if aset.content_type == content_type:
                return aset
        raise ManifestError(f"no {content_type!r} AdaptationSet in MPD")

    @property
    def video(self) -> DashAdaptationSet:
        return self.adaptation_set("video")

    @property
    def audio(self) -> DashAdaptationSet:
        return self.adaptation_set("audio")


def build_dash_manifest(
    content: Content,
    allowed_combinations: Optional[Sequence[Tuple[str, str]]] = None,
) -> DashManifest:
    """Build an MPD for a title, declaring Table-1-style bitrates.

    The per-track ``bandwidth`` is the track's *declared* bitrate (the
    value Table 1 lists in its "Declared Bitrate for DASH" column).
    """
    video_reps = tuple(
        DashRepresentation(
            rep_id=t.track_id,
            bandwidth_bps=int(round(t.declared_kbps * 1000)),
            codecs="avc1.640028",
            height=t.height,
            width=None if t.height is None else int(round(t.height * 16 / 9)),
        )
        for t in content.video
    )
    audio_reps = tuple(
        DashRepresentation(
            rep_id=t.track_id,
            bandwidth_bps=int(round(t.declared_kbps * 1000)),
            codecs="mp4a.40.2",
            audio_channels=t.channels,
            audio_sampling_rate_hz=(
                None if t.sampling_khz is None else int(round(t.sampling_khz * 1000))
            ),
        )
        for t in content.audio
    )
    template = DashSegmentTemplate(
        duration=int(round(content.chunk_duration_s * 1000)), timescale=1000
    )
    return DashManifest(
        duration_s=content.duration_s,
        adaptation_sets=(
            DashAdaptationSet(
                content_type="video",
                representations=video_reps,
                mime_type="video/mp4",
                segment_template=template,
            ),
            DashAdaptationSet(
                content_type="audio",
                representations=audio_reps,
                mime_type="audio/mp4",
                segment_template=template,
            ),
        ),
        allowed_combinations=(
            None if allowed_combinations is None else tuple(allowed_combinations)
        ),
    )


def _format_duration(seconds: float) -> str:
    """ISO 8601 duration, e.g. 300.0 -> ``PT5M0.000S``."""
    if seconds < 0:
        raise ManifestError(f"duration must be non-negative, got {seconds}")
    hours = int(seconds // 3600)
    minutes = int((seconds % 3600) // 60)
    secs = seconds - hours * 3600 - minutes * 60
    out = "PT"
    if hours:
        out += f"{hours}H"
    if minutes or hours:
        out += f"{minutes}M"
    out += f"{secs:.3f}S"
    return out


_UNIT_SECONDS = {"H": 3600, "M": 60, "S": 1}


def _parse_duration(text: str) -> float:
    """Parse the ISO 8601 durations :func:`_format_duration` emits."""
    if not text.startswith("PT"):
        raise ManifestParseError(f"unsupported duration format: {text!r}")
    remainder = text[2:]
    seconds = 0.0
    number = ""
    for char in remainder:
        if char.isdigit() or char == ".":
            number += char
        elif char in _UNIT_SECONDS:
            try:
                seconds += float(number) * _UNIT_SECONDS[char]
            except ValueError:
                raise ManifestParseError(
                    f"bad number {number!r} in duration {text!r}"
                ) from None
            number = ""
        else:
            raise ManifestParseError(f"bad duration component {char!r} in {text!r}")
    if number:
        raise ManifestParseError(f"trailing number in duration {text!r}")
    return seconds


def write_mpd(manifest: DashManifest) -> str:
    """Serialize to MPD XML text."""
    ET.register_namespace("", MPD_NS)
    ET.register_namespace("repro", REPRO_NS)
    root = ET.Element(
        f"{{{MPD_NS}}}MPD",
        attrib={
            "type": "static",
            "mediaPresentationDuration": _format_duration(manifest.duration_s),
            "minBufferTime": _format_duration(manifest.min_buffer_time_s),
            "profiles": "urn:mpeg:dash:profile:isoff-on-demand:2011",
        },
    )
    if manifest.allowed_combinations is not None:
        combos_el = ET.SubElement(root, f"{{{REPRO_NS}}}AllowedCombinations")
        for video_id, audio_id in manifest.allowed_combinations:
            ET.SubElement(
                combos_el,
                f"{{{REPRO_NS}}}Combination",
                attrib={"video": video_id, "audio": audio_id},
            )
    period = ET.SubElement(root, f"{{{MPD_NS}}}Period", attrib={"id": "0"})
    for aset in manifest.adaptation_sets:
        aset_attrib = {"contentType": aset.content_type}
        if aset.mime_type:
            aset_attrib["mimeType"] = aset.mime_type
        if aset.lang:
            aset_attrib["lang"] = aset.lang
        aset_el = ET.SubElement(
            period, f"{{{MPD_NS}}}AdaptationSet", attrib=aset_attrib
        )
        if aset.segment_template is not None:
            template = aset.segment_template
            ET.SubElement(
                aset_el,
                f"{{{MPD_NS}}}SegmentTemplate",
                attrib={
                    "media": template.media,
                    "initialization": template.initialization,
                    "duration": str(template.duration),
                    "timescale": str(template.timescale),
                    "startNumber": str(template.start_number),
                },
            )
        for rep in aset.representations:
            rep_attrib = {"id": rep.rep_id, "bandwidth": str(rep.bandwidth_bps)}
            if rep.codecs:
                rep_attrib["codecs"] = rep.codecs
            if rep.width is not None:
                rep_attrib["width"] = str(rep.width)
            if rep.height is not None:
                rep_attrib["height"] = str(rep.height)
            if rep.audio_sampling_rate_hz is not None:
                rep_attrib["audioSamplingRate"] = str(rep.audio_sampling_rate_hz)
            rep_el = ET.SubElement(
                aset_el, f"{{{MPD_NS}}}Representation", attrib=rep_attrib
            )
            if rep.audio_channels is not None:
                ET.SubElement(
                    rep_el,
                    f"{{{MPD_NS}}}AudioChannelConfiguration",
                    attrib={
                        "schemeIdUri": (
                            "urn:mpeg:dash:23003:3:audio_channel_configuration:2011"
                        ),
                        "value": str(rep.audio_channels),
                    },
                )
    return '<?xml version="1.0" encoding="utf-8"?>\n' + ET.tostring(
        root, encoding="unicode"
    )


class XmlParseFailure(ManifestParseError):
    """MPD text is not well-formed XML (1-based line/col as attributes)."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(message)
        self.line = line
        self.col = col


@dataclass
class XmlElement:
    """One element with source position, attributes and children.

    Tags and attribute names are ElementTree-style: ``{uri}local`` when
    namespaced. :meth:`find`, :meth:`findall` and :meth:`iter` match a
    ``{uri}local`` name exactly and a bare name by local name only.
    """

    tag: str  # "{namespace}local" or bare local name
    line: int  # 1-based
    col: int  # 1-based
    attrib: Dict[str, str] = field(default_factory=dict)
    children: List["XmlElement"] = field(default_factory=list)

    @property
    def local(self) -> str:
        """Tag name without its namespace."""
        return self.tag.rsplit("}", 1)[-1]

    def _is(self, name: str) -> bool:
        return self.tag == name if name.startswith("{") else self.local == name

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrib.get(key, default)

    def find(self, name: str) -> Optional["XmlElement"]:
        for child in self.children:
            if child._is(name):
                return child
        return None

    def findall(self, name: str) -> List["XmlElement"]:
        return [c for c in self.children if c._is(name)]

    def iter(self, name: Optional[str] = None) -> Iterator["XmlElement"]:
        if name is None or self._is(name):
            yield self
        for child in self.children:
            yield from child.iter(name)


_NS_SEPARATOR = "\x1f"  # illegal in XML names; safe namespace delimiter


def parse_xml(text: str) -> XmlElement:
    """Parse XML text into a position-annotated element tree."""
    parser = xml.parsers.expat.ParserCreate(namespace_separator=_NS_SEPARATOR)
    root: List[XmlElement] = []
    stack: List[XmlElement] = []
    tags: Dict[str, str] = {}

    def to_tag(name: str) -> str:
        tag = tags.get(name)
        if tag is None:
            uri, sep, local = name.partition(_NS_SEPARATOR)
            tag = tags[name] = f"{{{uri}}}{local}" if sep else name
        return tag

    def start(name: str, attrs: Dict[str, str]) -> None:
        if _NS_SEPARATOR in "".join(attrs):
            attrs = {to_tag(k): v for k, v in attrs.items()}
        element = XmlElement(
            to_tag(name),
            parser.CurrentLineNumber,
            parser.CurrentColumnNumber + 1,
            attrs,
        )
        (stack[-1].children if stack else root).append(element)
        stack.append(element)

    def end(_name: str) -> None:
        stack.pop()

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlParseFailure(
            f"invalid XML: {exc}", line=exc.lineno or 0, col=exc.offset or 0
        ) from exc
    if not root:
        raise XmlParseFailure("document has no root element")
    return root[0]


def _int(element: XmlElement, key: str) -> Optional[int]:
    """An integer attribute; ``None`` when absent or empty."""
    raw = element.get(key)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ManifestParseError(
            f"{element.local} @{key}={raw!r} is not an integer"
        ) from None


def parse_mpd(text: str) -> DashManifest:
    """Parse MPD XML text back into a :class:`DashManifest`."""
    root = parse_xml(text)
    if root.tag != f"{{{MPD_NS}}}MPD":
        raise ManifestParseError(f"root element is {root.tag}, expected MPD")
    duration_attr = root.get("mediaPresentationDuration")
    if duration_attr is None:
        raise ManifestParseError("MPD lacks mediaPresentationDuration")
    duration_s = _parse_duration(duration_attr)
    min_buffer = root.get("minBufferTime")
    min_buffer_s = _parse_duration(min_buffer) if min_buffer else 2.0

    allowed: Optional[Tuple[Tuple[str, str], ...]] = None
    combos_el = root.find(f"{{{REPRO_NS}}}AllowedCombinations")
    if combos_el is not None:
        pairs: List[Tuple[str, str]] = []
        for combo_el in combos_el.findall(f"{{{REPRO_NS}}}Combination"):
            video_id, audio_id = combo_el.get("video"), combo_el.get("audio")
            if not video_id or not audio_id:
                raise ManifestParseError("Combination element missing video/audio id")
            pairs.append((video_id, audio_id))
        allowed = tuple(pairs)

    period = root.find(f"{{{MPD_NS}}}Period")
    if period is None:
        raise ManifestParseError("MPD has no Period")
    asets: List[DashAdaptationSet] = []
    for aset_el in period.findall(f"{{{MPD_NS}}}AdaptationSet"):
        content_type = aset_el.get("contentType")
        mime = aset_el.get("mimeType", "")
        if content_type is None:
            # Infer from mimeType like real parsers do.
            if mime.startswith("video"):
                content_type = "video"
            elif mime.startswith("audio"):
                content_type = "audio"
            else:
                raise ManifestParseError(
                    "AdaptationSet lacks contentType and mimeType is "
                    f"{mime!r}; cannot infer medium"
                )
        template: Optional[DashSegmentTemplate] = None
        template_el = aset_el.find(f"{{{MPD_NS}}}SegmentTemplate")
        if template_el is not None:
            try:
                template = DashSegmentTemplate(
                    media=template_el.get("media", "$RepresentationID$_$Number$.m4s"),
                    initialization=template_el.get(
                        "initialization", "$RepresentationID$_init.mp4"
                    ),
                    duration=int(template_el.get("duration", "5000")),
                    timescale=int(template_el.get("timescale", "1000")),
                    start_number=int(template_el.get("startNumber", "1")),
                )
            except (ValueError, ManifestError) as exc:
                raise ManifestParseError(f"bad SegmentTemplate: {exc}") from exc
        reps: List[DashRepresentation] = []
        for rep_el in aset_el.findall(f"{{{MPD_NS}}}Representation"):
            rep_id = rep_el.get("id")
            bandwidth = _int(rep_el, "bandwidth")
            if rep_id is None or bandwidth is None:
                raise ManifestParseError("Representation lacks id or bandwidth")
            chan_el = rep_el.find(f"{{{MPD_NS}}}AudioChannelConfiguration")
            reps.append(
                DashRepresentation(
                    rep_id=rep_id,
                    bandwidth_bps=bandwidth,
                    codecs=rep_el.get("codecs", ""),
                    width=_int(rep_el, "width"),
                    height=_int(rep_el, "height"),
                    audio_channels=None if chan_el is None else _int(chan_el, "value"),
                    audio_sampling_rate_hz=_int(rep_el, "audioSamplingRate"),
                )
            )
        asets.append(
            DashAdaptationSet(
                content_type=content_type,
                representations=tuple(reps),
                mime_type=mime,
                lang=aset_el.get("lang"),
                segment_template=template,
            )
        )
    return DashManifest(
        duration_s=duration_s,
        adaptation_sets=tuple(asets),
        min_buffer_time_s=min_buffer_s,
        allowed_combinations=allowed,
    )
