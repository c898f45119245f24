"""DASH MPD rules: ISO/IEC 23009-1 sanity + the paper's Section 4.1.

These operate on the position-annotated XML tree from
:func:`repro.manifest.dash.parse_xml` (the reader ``parse_mpd`` walks
too), so findings point at the element
that violates the rule. The two object-level DASH rules of
``repro.manifest.validate`` (``DASH-COMBINATIONS``,
``DASH-BANDWIDTH-SANITY``) are ported with identical semantics.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..manifest.dash import REPRO_NS, XmlElement
from .context import RuleContext
from .findings import Finding, Severity
from .registry import Category, Kind, rule
from .spans import Document, SourceSpan


def _span(doc: Document, element: XmlElement) -> SourceSpan:
    return SourceSpan(file=doc.name, line=element.line, col=element.col)


def _line_text(doc: Document, element: XmlElement) -> str:
    try:
        return doc.line_text(element.line)
    except IndexError:  # single-line XML dumps
        return ""


def _content_type(aset: XmlElement) -> str:
    """contentType, inferred from mimeType like real parsers do."""
    declared = aset.get("contentType")
    if declared:
        return declared
    mime = aset.get("mimeType", "") or ""
    if mime.startswith("video"):
        return "video"
    if mime.startswith("audio"):
        return "audio"
    return ""


def _representations(root: XmlElement) -> List[Tuple[XmlElement, XmlElement]]:
    """(adaptation_set, representation) pairs across all Periods."""
    out: List[Tuple[XmlElement, XmlElement]] = []
    for period in root.findall("Period"):
        for aset in period.findall("AdaptationSet"):
            for rep in aset.findall("Representation"):
                out.append((aset, rep))
    return out


@rule(
    "DASH-DURATION",
    Severity.ERROR,
    Category.DASHIF,
    Kind.DASH,
    summary="static MPDs must declare mediaPresentationDuration",
    reference="ISO/IEC 23009-1 §5.3.1.2",
)
def check_duration(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    mpd_type = root.get("type", "static")
    if mpd_type == "static" and not root.get("mediaPresentationDuration"):
        yield check_duration.rule.finding(
            "static MPD lacks mediaPresentationDuration; players cannot "
            "size the seek range or detect end of stream",
            _span(doc, root),
            line_text=_line_text(doc, root),
        )


@rule(
    "DASH-PROFILES",
    Severity.WARNING,
    Category.DASHIF,
    Kind.DASH,
    summary="the MPD should declare the profiles it conforms to",
    reference="ISO/IEC 23009-1 §5.3.1.2, §8",
)
def check_profiles(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    if not root.get("profiles"):
        yield check_profiles.rule.finding(
            "MPD lacks @profiles; interoperability checkers cannot pick "
            "a conformance target",
            _span(doc, root),
            line_text=_line_text(doc, root),
        )


@rule(
    "DASH-MIME-TYPE",
    Severity.WARNING,
    Category.DASHIF,
    Kind.DASH,
    summary="AdaptationSets need contentType or mimeType",
    reference="ISO/IEC 23009-1 §5.3.3.2",
)
def check_mime_type(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    for period in root.findall("Period"):
        for aset in period.findall("AdaptationSet"):
            if not _content_type(aset):
                yield check_mime_type.rule.finding(
                    "AdaptationSet declares neither contentType nor a "
                    "medium-identifying mimeType; players cannot tell "
                    "audio from video without probing",
                    _span(doc, aset),
                    line_text=_line_text(doc, aset),
                )


@rule(
    "DASH-REP-BANDWIDTH",
    Severity.ERROR,
    Category.DASHIF,
    Kind.DASH,
    summary="every Representation needs a positive integer @bandwidth",
    reference="ISO/IEC 23009-1 §5.3.5.2",
)
def check_rep_bandwidth(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    for _aset, rep in _representations(root):
        raw = rep.get("bandwidth")
        rep_id = rep.get("id", "?")
        if raw is None:
            yield check_rep_bandwidth.rule.finding(
                f"Representation {rep_id!r} lacks @bandwidth; rate "
                "adaptation has nothing to rank",
                _span(doc, rep),
                line_text=_line_text(doc, rep),
            )
            continue
        try:
            value = int(raw)
        except ValueError:
            value = -1
        if value <= 0:
            yield check_rep_bandwidth.rule.finding(
                f"Representation {rep_id!r} declares bandwidth={raw!r}; "
                "it must be a positive integer in bits per second",
                _span(doc, rep),
                line_text=_line_text(doc, rep),
            )


@rule(
    "DASH-REP-ID-UNIQUE",
    Severity.ERROR,
    Category.DASHIF,
    Kind.DASH,
    summary="Representation ids must be unique within a Period",
    reference="ISO/IEC 23009-1 §5.3.5.2",
)
def check_rep_id_unique(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    for period in root.findall("Period"):
        seen = {}
        for aset in period.findall("AdaptationSet"):
            for rep in aset.findall("Representation"):
                rep_id = rep.get("id")
                if rep_id is None:
                    continue
                if rep_id in seen:
                    yield check_rep_id_unique.rule.finding(
                        f"duplicate Representation id {rep_id!r} (first "
                        f"declared on line {seen[rep_id]})",
                        _span(doc, rep),
                        line_text=_line_text(doc, rep),
                    )
                else:
                    seen[rep_id] = rep.line


@rule(
    "DASH-SEGMENT-TEMPLATE",
    Severity.ERROR,
    Category.DASHIF,
    Kind.DASH,
    summary="SegmentTemplate needs $Number$/$Time$ media and sane timing",
    reference="ISO/IEC 23009-1 §5.3.9.4",
)
def check_segment_template(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    for template in root.iter("SegmentTemplate"):
        media = template.get("media", "") or ""
        if "$Number$" not in media and "$Time$" not in media:
            yield check_segment_template.rule.finding(
                f"SegmentTemplate media={media!r} contains neither $Number$ "
                "nor $Time$; every segment would share one URL",
                _span(doc, template),
                line_text=_line_text(doc, template),
            )
        for attr in ("duration", "timescale"):
            raw = template.get(attr)
            if raw is None:
                continue
            try:
                value = int(raw)
            except ValueError:
                value = -1
            if value <= 0:
                yield check_segment_template.rule.finding(
                    f"SegmentTemplate @{attr}={raw!r} must be a positive "
                    "integer",
                    _span(doc, template),
                    line_text=_line_text(doc, template),
                )


@rule(
    "DASH-COMBINATIONS",
    Severity.WARNING,
    Category.PAPER,
    Kind.DASH,
    summary="carry an allowed audio/video combination restriction",
    reference="paper Section 4.1 (server-side practice 1 for DASH)",
)
def check_combinations(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    if root.find(f"{{{REPRO_NS}}}AllowedCombinations") is None:
        yield check_combinations.rule.finding(
            "no allowed-combinations restriction: players must invent "
            "their own pairing policy (ExoPlayer) or allow everything "
            "(Shaka); embed the combination list (Section 4.1 suggests "
            "expanding the DASH spec; this library's extension element "
            "or an out-of-band channel works today)",
            _span(doc, root),
            line_text=_line_text(doc, root),
        )


@rule(
    "DASH-BANDWIDTH-SANITY",
    Severity.WARNING,
    Category.PAPER,
    Kind.DASH,
    summary="list Representations in ascending bandwidth order",
    reference="paper Sections 2.3, 4.1",
)
def check_bandwidth_sanity(doc: Document, root: XmlElement, ctx: RuleContext) -> Iterator[Finding]:
    for period in root.findall("Period"):
        for aset in period.findall("AdaptationSet"):
            bandwidths: List[int] = []
            for rep in aset.findall("Representation"):
                raw = rep.get("bandwidth")
                try:
                    bandwidths.append(int(raw))  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    continue
            if bandwidths != sorted(bandwidths):
                content_type = _content_type(aset) or "?"
                yield check_bandwidth_sanity.rule.finding(
                    f"{content_type} representations are not listed "
                    "in ascending bandwidth order",
                    _span(doc, aset),
                    line_text=_line_text(doc, aset),
                )
