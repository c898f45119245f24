"""HLS playlist rules: RFC 8216 conformance + the paper's Section 4.1.

Each rule is a generator over a document, its
:class:`~repro.manifest.hls.ScannedPlaylist` (the scan the strict
parsers share) and the run-wide
:class:`~repro.analysis.context.RuleContext`, and yields findings
anchored to the offending line. The eight rules of the
original object-level linter (``repro.manifest.validate``) are ported
here with their IDs and semantics intact; the rest are new text-level
conformance checks.

Rule kinds:

* ``hls-any`` — apply to both playlist levels (syntax, version gates);
* ``hls-master`` / ``hls-media`` — level-specific checks;
* ``hls-package`` — cross-manifest checks that resolve a master
  against the media playlists present in the same run.
"""

from __future__ import annotations

from typing import Iterator

from ..manifest.hls import ScannedPlaylist, derived_bitrates_kbps
from .context import RuleContext
from .findings import Finding, Severity
from .registry import Category, Kind, rule
from .spans import Document

# ---------------------------------------------------------------------------
# Syntax / structural conformance (both levels)
# ---------------------------------------------------------------------------


@rule(
    "HLS-EXTM3U",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_ANY,
    summary="playlists must begin with the #EXTM3U tag",
    reference="RFC 8216 §4.3.1.1",
    fixable=True,
)
def check_extm3u(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if not scanned.has_extm3u:
        yield check_extm3u.rule.finding(
            "playlist does not begin with #EXTM3U",
            doc.span_of_line(1),
            line_text=doc.line_text(1),
        )


@rule(
    "HLS-ATTR-SYNTAX",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_ANY,
    summary="tag payloads must be well-formed attribute lists / values",
    reference="RFC 8216 §4.2",
)
def check_attr_syntax(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    for issue in scanned.issues:
        if issue.code != "attr":
            continue
        yield check_attr_syntax.rule.finding(
            issue.message,
            doc.span_of_line(issue.line),
            line_text=doc.line_text(issue.line),
        )


@rule(
    "HLS-URI-PRESENT",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_ANY,
    summary="EXT-X-STREAM-INF/EXTINF must be followed by a URI line",
    reference="RFC 8216 §4.3.2.1, §4.3.4.2",
)
def check_uri_present(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    for issue in scanned.issues:
        if issue.code != "uri":
            continue
        yield check_uri_present.rule.finding(
            issue.message,
            doc.span_of_line(issue.line),
            line_text=doc.line_text(issue.line),
        )


def required_version(scanned: ScannedPlaylist) -> int:
    """The minimum EXT-X-VERSION the playlist's features demand."""
    required = 1
    if any(s.duration_is_float for s in scanned.segments):
        required = max(required, 3)
    if any(s.byterange is not None for s in scanned.segments):
        required = max(required, 4)
    return required


@rule(
    "HLS-VERSION-GATE",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_ANY,
    summary="EXT-X-VERSION must cover the features the playlist uses",
    reference="RFC 8216 §7",
    fixable=True,
)
def check_version_gate(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    required = required_version(scanned)
    declared = scanned.version if scanned.version is not None else 1
    if declared >= required:
        return
    reasons = []
    if any(s.duration_is_float for s in scanned.segments):
        reasons.append("floating-point EXTINF needs version >= 3")
    if any(s.byterange is not None for s in scanned.segments):
        reasons.append("EXT-X-BYTERANGE needs version >= 4")
    line = scanned.version_line or 1
    yield check_version_gate.rule.finding(
        f"declared version {declared} but {'; '.join(reasons)}",
        doc.span_of_line(line),
        line_text=doc.line_text(line),
    )


# ---------------------------------------------------------------------------
# Master-playlist conformance
# ---------------------------------------------------------------------------


@rule(
    "HLS-BANDWIDTH-PRESENT",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_MASTER,
    summary="every EXT-X-STREAM-INF must declare an integer BANDWIDTH",
    reference="RFC 8216 §4.3.4.2",
)
def check_bandwidth_present(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    for variant in scanned.variants:
        if variant.bandwidth_bps is None or variant.bandwidth_bps <= 0:
            raw = variant.attrs.get("BANDWIDTH")
            detail = "lacks BANDWIDTH" if raw is None else f"has BANDWIDTH={raw!r}"
            yield check_bandwidth_present.rule.finding(
                f"variant {variant.uri!r} {detail}; players cannot rank it",
                doc.span_of_line(variant.line),
                line_text=doc.line_text(variant.line),
            )


@rule(
    "HLS-CODECS-PRESENT",
    Severity.WARNING,
    Category.RFC8216,
    Kind.HLS_MASTER,
    summary="every EXT-X-STREAM-INF should declare CODECS",
    reference="RFC 8216 §4.3.4.2",
)
def check_codecs_present(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    for variant in scanned.variants:
        if not variant.codecs:
            yield check_codecs_present.rule.finding(
                f"variant {variant.uri!r} lacks CODECS; players must probe "
                "the media to know whether they can play it",
                doc.span_of_line(variant.line),
                line_text=doc.line_text(variant.line),
            )


@rule(
    "HLS-GROUP-INTEGRITY",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_MASTER,
    summary="AUDIO group references must name an existing EXT-X-MEDIA group",
    reference="RFC 8216 §4.3.4.2",
)
def check_group_integrity(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    audio_groups = {
        r.group_id for r in scanned.renditions if r.media_type == "AUDIO"
    }
    for variant in scanned.variants:
        group = variant.audio_group
        if group is not None and group not in audio_groups:
            yield check_group_integrity.rule.finding(
                f"variant {variant.uri!r} references AUDIO group {group!r} "
                "but no EXT-X-MEDIA rendition declares that GROUP-ID",
                doc.find_in_line(variant.line, f'AUDIO="{group}"'),
                line_text=doc.line_text(variant.line),
            )


@rule(
    "HLS-RENDITION-NAMES",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_MASTER,
    summary="renditions in one group must carry distinct NAME attributes",
    reference="RFC 8216 §4.3.4.1.1",
)
def check_rendition_names(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    seen = {}
    for rendition in scanned.renditions:
        key = (rendition.media_type, rendition.group_id, rendition.name)
        if key in seen:
            yield check_rendition_names.rule.finding(
                f"duplicate NAME {rendition.name!r} in group "
                f"{rendition.group_id!r} (first declared on line {seen[key]})",
                doc.span_of_line(rendition.line),
                line_text=doc.line_text(rendition.line),
            )
        else:
            seen[key] = rendition.line


# ---------------------------------------------------------------------------
# Paper best practices (Section 4.1) — ports of the original 8 rules
# ---------------------------------------------------------------------------


@rule(
    "HLS-CURATED",
    Severity.WARNING,
    Category.PAPER,
    Kind.HLS_MASTER,
    summary="list a curated subset of combinations, not the cross product",
    reference="paper Section 4.1 (server-side practice 1)",
)
def check_curated(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    video_ids = {v.video_id for v in scanned.variants if v.video_id}
    audio_ids = {v.audio_id for v in scanned.variants if v.audio_id}
    if (
        video_ids
        and audio_ids
        and len(scanned.variants) >= len(video_ids) * len(audio_ids)
    ):
        line = scanned.variants[0].line
        yield check_curated.rule.finding(
            f"master lists all {len(scanned.variants)} combinations of "
            f"{len(video_ids)} video x {len(audio_ids)} audio tracks; "
            "curate the desirable subset instead (Section 4.1)",
            doc.span_of_line(line),
            line_text=doc.line_text(line),
        )


@rule(
    "HLS-AVERAGE-BANDWIDTH",
    Severity.INFO,
    Category.PAPER,
    Kind.HLS_MASTER,
    summary="variants should declare AVERAGE-BANDWIDTH next to peak BANDWIDTH",
    reference="paper Section 4.1; RFC 8216 §4.3.4.2",
    fixable=True,
)
def check_average_bandwidth(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    for variant in scanned.variants:
        if "AVERAGE-BANDWIDTH" not in variant.attrs:
            yield check_average_bandwidth.rule.finding(
                f"variant {variant.uri!r} lacks AVERAGE-BANDWIDTH "
                "(peak-only budgeting over-constrains VBR ladders)",
                doc.span_of_line(variant.line),
                line_text=doc.line_text(variant.line),
            )


@rule(
    "HLS-VARIANT-ORDER",
    Severity.WARNING,
    Category.PAPER,
    Kind.HLS_MASTER,
    summary="list each video's cheapest variant first (bitrate-estimate cap)",
    reference="paper Sections 3.2, 4.1",
    fixable=True,
)
def check_variant_order(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    video_ids = sorted({v.video_id for v in scanned.variants if v.video_id})
    for video_id in video_ids:
        variants = scanned.variants_for_video(video_id)
        rated = [v for v in variants if v.bandwidth_bps is not None]
        if not rated:
            continue
        first = variants[0]
        if first.bandwidth_bps is None:
            continue
        cheapest = min(v.bandwidth_bps for v in rated)
        if first.bandwidth_bps > cheapest:
            yield check_variant_order.rule.finding(
                f"the first variant containing {video_id} is not its "
                "cheapest; players that price the track by its first "
                "variant will overestimate it more than necessary",
                doc.span_of_line(first.line),
                line_text=doc.line_text(first.line),
            )


@rule(
    "HLS-AUDIO-COVERAGE",
    Severity.ERROR,
    Category.PAPER,
    Kind.HLS_MASTER,
    summary="every audio track a variant references needs a rendition",
    reference="paper Section 4.1; RFC 8216 §4.3.4.2",
)
def check_audio_coverage(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    rendition_names = {r.name for r in scanned.renditions}
    group_ids = {r.group_id for r in scanned.renditions}
    for variant in scanned.variants:
        group_covered = (
            variant.audio_group is not None and variant.audio_group in group_ids
        )
        name_covered = variant.audio_id in rendition_names
        if variant.audio_id and not (group_covered or name_covered):
            yield check_audio_coverage.rule.finding(
                f"variant {variant.uri!r} references audio "
                f"{variant.audio_id!r} with no EXT-X-MEDIA rendition",
                doc.span_of_line(variant.line),
                line_text=doc.line_text(variant.line),
            )


# ---------------------------------------------------------------------------
# Media-playlist conformance
# ---------------------------------------------------------------------------


@rule(
    "HLS-TARGETDURATION-PRESENT",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_MEDIA,
    summary="media playlists must declare EXT-X-TARGETDURATION",
    reference="RFC 8216 §4.3.3.1",
    fixable=True,
)
def check_targetduration_present(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if scanned.target_duration is None and scanned.segments:
        yield check_targetduration_present.rule.finding(
            "media playlist lacks EXT-X-TARGETDURATION",
            doc.span_of_line(1),
            line_text=doc.line_text(1),
        )


@rule(
    "HLS-TARGETDURATION",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_MEDIA,
    summary="no segment may exceed EXT-X-TARGETDURATION after rounding",
    reference="RFC 8216 §4.3.3.1",
    fixable=True,
)
def check_targetduration(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if scanned.target_duration is None:
        return
    for segment in scanned.segments:
        if segment.duration_s is None:
            continue
        # RFC 8216: EXTINF duration, rounded to the nearest integer,
        # MUST be <= the target duration.
        if round(segment.duration_s) > scanned.target_duration:
            yield check_targetduration.rule.finding(
                f"segment {segment.uri!r} lasts {segment.duration_s:g}s but "
                f"EXT-X-TARGETDURATION is {scanned.target_duration}; players "
                "size their live/step timers from the target duration",
                doc.span_of_line(segment.extinf_line),
                line_text=doc.line_text(segment.extinf_line),
            )


@rule(
    "HLS-ENDLIST",
    Severity.WARNING,
    Category.RFC8216,
    Kind.HLS_MEDIA,
    summary="VOD playlists should terminate with EXT-X-ENDLIST",
    reference="RFC 8216 §4.3.3.4, §6.2.1",
    fixable=True,
)
def check_endlist(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if scanned.playlist_type == "VOD" and not scanned.has_endlist:
        last = doc.n_lines
        yield check_endlist.rule.finding(
            "playlist is typed VOD but carries no EXT-X-ENDLIST; players "
            "will keep polling it for new segments",
            doc.span_of_line(max(last, 1)),
            line_text=doc.line_text(max(last, 1)) if last else "",
        )


@rule(
    "HLS-TRACK-BITRATES",
    Severity.ERROR,
    Category.PAPER,
    Kind.HLS_MEDIA,
    summary="per-track bitrates must be derivable from the media playlist",
    reference="paper Section 4.1 (server-side practice 2)",
)
def check_track_bitrates(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if not scanned.segments:
        return
    if derived_bitrates_kbps(scanned.segments) is None:
        blind = next(
            s
            for s in scanned.segments
            if s.bitrate_kbps is None and s.byterange is None
        )
        yield check_track_bitrates.rule.finding(
            "per-track bitrates are not derivable: segment "
            f"{blind.uri!r} carries neither EXT-X-BYTERANGE nor "
            "EXT-X-BITRATE, so players cannot budget each medium "
            "(Section 4.1)",
            doc.span_of_line(blind.extinf_line),
            line_text=doc.line_text(blind.extinf_line),
        )


@rule(
    "HLS-BITRATE-TAG",
    Severity.INFO,
    Category.PAPER,
    Kind.HLS_MEDIA,
    summary="emit EXT-X-BITRATE on every segment (make the tag mandatory)",
    reference="paper Section 4.1 (server-side practice 3)",
    fixable=True,
)
def check_bitrate_tag(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if not scanned.segments:
        return
    if derived_bitrates_kbps(scanned.segments) is None:
        return  # HLS-TRACK-BITRATES already covers the blind case
    has_byteranges = all(s.byterange is not None for s in scanned.segments)
    has_tags = all(s.bitrate_kbps is not None for s in scanned.segments)
    if not has_byteranges and not has_tags:
        partial = next(s for s in scanned.segments if s.bitrate_kbps is None)
        yield check_bitrate_tag.rule.finding(
            "bitrates derive only partially (mixed byte ranges and tags); "
            "emit EXT-X-BITRATE on every segment",
            doc.span_of_line(partial.extinf_line),
            line_text=doc.line_text(partial.extinf_line),
        )


# ---------------------------------------------------------------------------
# Cross-manifest (package) rules
# ---------------------------------------------------------------------------


@rule(
    "HLS-MEDIA-PLAYLIST-MISSING",
    Severity.ERROR,
    Category.RFC8216,
    Kind.HLS_PACKAGE,
    summary="URIs in the master must resolve to media playlists in the package",
    reference="RFC 8216 §4.3.4.1, §4.3.4.2",
)
def check_media_playlist_missing(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if not ctx.has_media_playlists:
        return
    for rendition in scanned.renditions:
        if rendition.media_type != "AUDIO" or not rendition.uri:
            continue
        if ctx.resolve_rendition(rendition.uri) is None:
            yield check_media_playlist_missing.rule.finding(
                f"rendition {rendition.name!r} points at {rendition.uri!r} "
                "but no such media playlist is in the package",
                doc.find_in_line(rendition.line, rendition.uri),
                line_text=doc.line_text(rendition.line),
            )
    for variant in scanned.variants:
        if not variant.uri:
            continue
        if ctx.resolve_variant_video(variant.uri) is None:
            line = variant.uri_line or variant.line
            yield check_media_playlist_missing.rule.finding(
                f"variant URI {variant.uri!r} resolves to no media playlist "
                "in the package (neither directly nor via the "
                "<video>.m3u8 convention)",
                doc.span_of_line(line),
                line_text=doc.line_text(line),
            )


@rule(
    "HLS-BANDWIDTH-CONSISTENT",
    Severity.WARNING,
    Category.PAPER,
    Kind.HLS_PACKAGE,
    summary="declared BANDWIDTH should match the derived aggregate peak",
    reference="paper Section 2.3, Appendix A",
    fixable=True,
)
def check_bandwidth_consistent(
    doc: Document, scanned: ScannedPlaylist, ctx: RuleContext
) -> Iterator[Finding]:
    if not ctx.has_media_playlists:
        return
    for variant in scanned.variants:
        declared = variant.bandwidth_bps
        if declared is None:
            continue
        derived = derived_variant_peak_bps(variant, ctx)
        if derived is None:
            continue
        if abs(declared - derived) > 0.25 * derived:
            yield check_bandwidth_consistent.rule.finding(
                f"variant {variant.uri!r} declares BANDWIDTH={declared} but "
                f"its tracks' derived aggregate peak is ~{derived}; players "
                "budget combinations from the declared value",
                doc.find_in_line(variant.line, f"BANDWIDTH={declared}"),
                line_text=doc.line_text(variant.line),
            )


def derived_variant_peak_bps(variant, ctx: RuleContext):
    """Aggregate (video + audio) peak bps derived from media playlists."""
    video = ctx.resolve_variant_video(variant.uri)
    if video is None:
        return None
    rates = derived_bitrates_kbps(video.segments)
    if not rates:
        return None
    total_kbps = max(rates)
    audio_id = variant.audio_id
    if audio_id is not None:
        # Only judge the aggregate when the audio side is resolvable too
        # (per-rung multi-language groups keep audio in per-language
        # playlists this convention cannot reach).
        audio = ctx.resolve_rendition(f"{audio_id}.m3u8")
        if audio is None:
            return None
        audio_rates = derived_bitrates_kbps(audio.segments)
        if not audio_rates:
            return None
        total_kbps += max(audio_rates)
    return int(round(total_kbps * 1000))


def derived_variant_average_bps(variant, ctx: RuleContext):
    """Aggregate (video + audio) average bps derived from media playlists."""

    def avg_kbps(scanned: ScannedPlaylist):
        rates = derived_bitrates_kbps(scanned.segments)
        if not rates:
            return None
        durations = [s.duration_s or 0.0 for s in scanned.segments]
        total_s = sum(durations)
        if total_s <= 0:
            return None
        bits = sum(r * 1000.0 * d for r, d in zip(rates, durations))
        return bits / total_s / 1000.0

    video = ctx.resolve_variant_video(variant.uri)
    if video is None:
        return None
    total = avg_kbps(video)
    if total is None:
        return None
    audio_id = variant.audio_id
    if audio_id is not None:
        audio = ctx.resolve_rendition(f"{audio_id}.m3u8")
        if audio is None:
            return None
        audio_avg = avg_kbps(audio)
        if audio_avg is None:
            return None
        total += audio_avg
    return int(round(total * 1000))
