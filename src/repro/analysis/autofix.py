"""Autofix: minimal text edits that repair fixable findings.

The contract is **idempotence**: running :func:`fix_files` on its own
output is a no-op, and the fixed text re-lints clean for every rule a
fixer handled. Fixes are *minimal* — they insert or rewrite the
smallest span that satisfies the rule and never reflow untouched lines.

Mechanics: each fixer maps one finding to a list of character-offset
:class:`TextEdit`\\ s. Edits are applied per file, non-overlapping,
right-to-left; edits that would overlap are deferred to the next pass,
and the engine re-lints between passes so fixers always see a fresh
scan. The loop converges because every fixer strictly reduces its
rule's finding count and no fixer introduces text another fixer
rewrites differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..manifest.hls import ScannedPlaylist
from .context import RuleContext
from .engine import AnalyzedDocument, AnalyzerConfig, prepare, run_rules
from .findings import Finding, sort_findings
from .hls_rules import (
    derived_variant_average_bps,
    required_version,
)
from .spans import Document

#: One pass per fixable rule plus slack: each pass repairs at least one
#: whole rule per file, so this bounds every convergent input.
MAX_PASSES = 12


@dataclass(frozen=True)
class TextEdit:
    """Replace ``text[start:end]`` with ``replacement`` (start==end inserts)."""

    start: int
    end: int
    replacement: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad edit range [{self.start}, {self.end})")


def apply_edits(text: str, edits: List[TextEdit]) -> Tuple[str, int]:
    """Apply non-overlapping edits; returns (new_text, n_applied).

    Edits are applied right-to-left; an edit overlapping an already
    accepted one is skipped (the caller re-lints and retries).
    """
    applied = 0
    accepted_start: Optional[int] = None
    for edit in sorted(edits, key=lambda e: (e.start, e.end), reverse=True):
        if accepted_start is not None and edit.end > accepted_start:
            continue  # overlap: defer to the next pass
        text = text[: edit.start] + edit.replacement + text[edit.end :]
        accepted_start = edit.start
        applied += 1
    return text, applied


def _replace_line(doc: Document, line: int, new_text: str) -> TextEdit:
    start = doc.offset_of(line, 1)
    return TextEdit(start, start + len(doc.line_text(line)), new_text)


def _insert_line_before(doc: Document, line: int, new_line: str) -> TextEdit:
    start = doc.offset_of(line, 1)
    return TextEdit(start, start, new_line + "\n")


def _append_line(doc: Document, new_line: str) -> TextEdit:
    text = doc.text
    if text.endswith("\n") or not text:
        return TextEdit(len(text), len(text), new_line + "\n")
    return TextEdit(len(text), len(text), "\n" + new_line + "\n")


def _header_insert_line(doc: Document) -> int:
    """The 1-based line *before* which header tags should be inserted."""
    # After #EXTM3U (line 1 by convention) and EXT-X-VERSION when present.
    anchor = 1
    for line_no in range(1, doc.n_lines + 1):
        text = doc.line_text(line_no).strip()
        if text == "#EXTM3U" or text.startswith("#EXT-X-VERSION:"):
            anchor = line_no
            continue
        if text:
            break
    return anchor + 1


def _variant_at(scanned: ScannedPlaylist, line: int):
    for variant in scanned.variants:
        if variant.line == line:
            return variant
    return None


def _required_target_duration(scanned: ScannedPlaylist) -> int:
    durations = [s.duration_s for s in scanned.segments if s.duration_s]
    if not durations:
        return 1
    # RFC 8216: target duration must be >= every EXTINF duration rounded
    # to the nearest integer.
    return max(int(round(d)) for d in durations)


def _find_peak_bandwidth_attr(line_text: str) -> Optional[Tuple[int, int]]:
    """(start, end) column span of the peak BANDWIDTH value in a line.

    Skips ``AVERAGE-BANDWIDTH`` occurrences.
    """
    idx = 0
    while True:
        idx = line_text.find("BANDWIDTH=", idx)
        if idx < 0:
            return None
        if line_text[:idx].endswith("AVERAGE-"):
            idx += len("BANDWIDTH=")
            continue
        value_start = idx + len("BANDWIDTH=")
        value_end = value_start
        while value_end < len(line_text) and line_text[value_end].isdigit():
            value_end += 1
        return value_start, value_end


# ---------------------------------------------------------------------------
# Fixers: finding -> edits
# ---------------------------------------------------------------------------

Fixer = Callable[[Finding, AnalyzedDocument, RuleContext], List[TextEdit]]


def fix_extm3u(finding, analyzed, ctx) -> List[TextEdit]:
    return [TextEdit(0, 0, "#EXTM3U\n")]


def fix_version_gate(finding, analyzed, ctx) -> List[TextEdit]:
    scanned = analyzed.playlist
    required = required_version(scanned)
    new_line = f"#EXT-X-VERSION:{required}"
    if scanned.version_line:
        return [_replace_line(analyzed.doc, scanned.version_line, new_line)]
    anchor = 2 if scanned.has_extm3u else 1
    if anchor > analyzed.doc.n_lines:
        return [_append_line(analyzed.doc, new_line)]
    return [_insert_line_before(analyzed.doc, anchor, new_line)]


def fix_targetduration_present(finding, analyzed, ctx) -> List[TextEdit]:
    scanned = analyzed.playlist
    target = _required_target_duration(scanned)
    new_line = f"#EXT-X-TARGETDURATION:{target}"
    anchor = _header_insert_line(analyzed.doc)
    if anchor > analyzed.doc.n_lines:
        return [_append_line(analyzed.doc, new_line)]
    return [_insert_line_before(analyzed.doc, anchor, new_line)]


def fix_targetduration(finding, analyzed, ctx) -> List[TextEdit]:
    scanned = analyzed.playlist
    if not scanned.target_duration_line:
        return []
    target = _required_target_duration(scanned)
    return [
        _replace_line(
            analyzed.doc,
            scanned.target_duration_line,
            f"#EXT-X-TARGETDURATION:{target}",
        )
    ]


def fix_endlist(finding, analyzed, ctx) -> List[TextEdit]:
    return [_append_line(analyzed.doc, "#EXT-X-ENDLIST")]


def fix_average_bandwidth(finding, analyzed, ctx) -> List[TextEdit]:
    scanned = analyzed.playlist
    variant = _variant_at(scanned, finding.line)
    if variant is None or variant.bandwidth_bps is None:
        return []
    value = derived_variant_average_bps(variant, ctx)
    if value is None:
        # Without media playlists the best conservative average is the
        # declared peak itself (never *under*-budgets).
        value = variant.bandwidth_bps
    line_text = analyzed.doc.line_text(variant.line)
    attr_span = _find_peak_bandwidth_attr(line_text)
    if attr_span is None:
        return []
    _, value_end = attr_span
    offset = analyzed.doc.offset_of(variant.line, 1) + value_end
    return [TextEdit(offset, offset, f",AVERAGE-BANDWIDTH={value}")]


def fix_bandwidth_consistent(finding, analyzed, ctx) -> List[TextEdit]:
    from .hls_rules import derived_variant_peak_bps

    scanned = analyzed.playlist
    variant = _variant_at(scanned, finding.line)
    if variant is None:
        return []
    derived = derived_variant_peak_bps(variant, ctx)
    if derived is None:
        return []
    line_text = analyzed.doc.line_text(variant.line)
    attr_span = _find_peak_bandwidth_attr(line_text)
    if attr_span is None:
        return []
    value_start, value_end = attr_span
    line_offset = analyzed.doc.offset_of(variant.line, 1)
    return [
        TextEdit(line_offset + value_start, line_offset + value_end, str(derived))
    ]


def fix_variant_order(finding, analyzed, ctx) -> List[TextEdit]:
    """Reorder variant blocks ascending by aggregate BANDWIDTH.

    Runs once per document (the engine dedupes per-video findings): the
    global ascending order satisfies the rule for every video track,
    because the first variant containing a video is then its cheapest.
    """
    scanned = analyzed.playlist
    doc = analyzed.doc
    blocks = []
    for index, variant in enumerate(scanned.variants):
        if not variant.uri_line:
            return []  # malformed master; let HLS-URI-PRESENT report it
        start = doc.offset_of(variant.line, 1)
        end = doc.offset_of(variant.uri_line, 1) + len(
            doc.line_text(variant.uri_line)
        )
        blocks.append((start, end, doc.text[start:end], variant, index))
    slots = sorted(blocks, key=lambda b: b[0])
    ordered = sorted(
        blocks,
        key=lambda b: (
            b[3].bandwidth_bps is None,
            b[3].bandwidth_bps or 0,
            b[4],
        ),
    )
    edits = []
    for (start, end, old_text, _v, _i), (_s, _e, new_text, _nv, _ni) in zip(
        slots, ordered
    ):
        if old_text != new_text:
            edits.append(TextEdit(start, end, new_text))
    return edits


def fix_bitrate_tag(finding, analyzed, ctx) -> List[TextEdit]:
    """Insert derived ``EXT-X-BITRATE`` tags on untagged segments."""
    scanned = analyzed.playlist
    edits = []
    for segment in scanned.segments:
        if segment.bitrate_kbps is not None:
            continue
        if segment.byterange is None or not segment.duration_s:
            continue
        rate_kbps = segment.byterange[0] * 8.0 / segment.duration_s / 1000.0
        edits.append(
            _insert_line_before(
                analyzed.doc,
                segment.extinf_line,
                f"#EXT-X-BITRATE:{int(round(rate_kbps))}",
            )
        )
    return edits


FIXERS: Dict[str, Fixer] = {
    "HLS-EXTM3U": fix_extm3u,
    "HLS-VERSION-GATE": fix_version_gate,
    "HLS-TARGETDURATION-PRESENT": fix_targetduration_present,
    "HLS-TARGETDURATION": fix_targetduration,
    "HLS-ENDLIST": fix_endlist,
    "HLS-AVERAGE-BANDWIDTH": fix_average_bandwidth,
    "HLS-BANDWIDTH-CONSISTENT": fix_bandwidth_consistent,
    "HLS-VARIANT-ORDER": fix_variant_order,
    "HLS-BITRATE-TAG": fix_bitrate_tag,
}

#: Per-file application order. One rule's edits are applied per file per
#: pass: two fixers computing insert anchors from the same pre-fix text
#: would interleave (e.g. EXT-X-VERSION landing above #EXTM3U), so each
#: pass applies only the highest-priority rule with findings and the
#: multi-pass loop picks up the rest against fresh text.
_FIX_ORDER = [
    "HLS-EXTM3U",
    "HLS-VERSION-GATE",
    "HLS-TARGETDURATION-PRESENT",
    "HLS-TARGETDURATION",
    "HLS-ENDLIST",
    "HLS-VARIANT-ORDER",
    "HLS-BITRATE-TAG",
    "HLS-AVERAGE-BANDWIDTH",
    "HLS-BANDWIDTH-CONSISTENT",
]
_FIX_PRIORITY = {rule_id: i for i, rule_id in enumerate(_FIX_ORDER)}

#: Rules whose fixer repairs the whole document from one finding.
_ONCE_PER_DOC = {
    "HLS-VARIANT-ORDER",
    "HLS-BITRATE-TAG",
    "HLS-EXTM3U",
    "HLS-VERSION-GATE",
    "HLS-TARGETDURATION-PRESENT",
    "HLS-TARGETDURATION",
    "HLS-ENDLIST",
}


@dataclass
class FixResult:
    """Outcome of :func:`fix_files`."""

    files: Dict[str, str]
    #: Findings a fixer produced edits for, across all passes.
    fixed: List[Finding] = field(default_factory=list)
    passes: int = 0

    @property
    def n_fixed(self) -> int:
        return len(self.fixed)


def fix_files(
    files: Mapping[str, str], config: Optional[AnalyzerConfig] = None
) -> FixResult:
    """Fix every fixable finding; idempotent (fix(fix(x)) == fix(x))."""
    current: Dict[str, str] = dict(files)
    result = FixResult(files=current)
    for _pass in range(MAX_PASSES):
        prepared, ctx = prepare(current, config)
        findings = sort_findings(run_rules(prepared, ctx))
        if config is not None and config.baseline is not None:
            findings = config.baseline.filter(findings)
        by_name = {a.name: a for a in prepared}
        # Per file, fix only the highest-priority rule this pass; its
        # edits all come from one fixer over one consistent text view.
        active_rule: Dict[str, str] = {}
        for finding in findings:
            if finding.rule not in FIXERS or finding.file not in by_name:
                continue
            best = active_rule.get(finding.file)
            if best is None or (
                _FIX_PRIORITY[finding.rule] < _FIX_PRIORITY[best]
            ):
                active_rule[finding.file] = finding.rule
        edits_by_file: Dict[str, List[TextEdit]] = {}
        handled = set()
        fixed_now: List[Finding] = []
        for finding in findings:
            if active_rule.get(finding.file) != finding.rule:
                continue
            key = (finding.rule, finding.file)
            if finding.rule in _ONCE_PER_DOC and key in handled:
                continue
            handled.add(key)
            analyzed = by_name[finding.file]
            edits = FIXERS[finding.rule](finding, analyzed, ctx)
            if edits:
                edits_by_file.setdefault(finding.file, []).extend(edits)
                fixed_now.append(finding)
        if not edits_by_file:
            break
        changed = False
        for name, edits in edits_by_file.items():
            new_text, applied = apply_edits(current[name], edits)
            if applied and new_text != current[name]:
                current[name] = new_text
                changed = True
        result.passes += 1
        if not changed:
            break
        result.fixed.extend(fixed_now)
    result.files = current
    return result
