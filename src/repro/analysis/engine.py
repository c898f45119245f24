"""Analysis engine: classify documents, run rules, filter findings.

The engine is the only piece that knows how to go from raw bytes to
rule invocations. It

1. classifies each input document (MPD XML, m3u8 master, m3u8 media)
   from its name and content,
2. parses it with the matching position-preserving reader — the MPD
   tree and playlist scan of :mod:`repro.manifest`, which the strict
   parsers share — a document
   that cannot be parsed *at all* raises :class:`AnalysisParseFailure`,
   which the CLI maps to exit code 2, distinct from rule findings,
3. runs every registered rule of the matching kind, and
4. applies the run configuration: per-rule enable/disable and the
   suppression baseline.

``analyze_files`` is the package-level entry point: hand it a mapping
of ``{filename: text}`` (e.g. ``HlsPackage.write_all()``) and get back
a deterministically ordered list of findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..manifest.dash import XmlElement, XmlParseFailure, parse_xml
from ..manifest.hls import ScannedPlaylist, scan_playlist
from .context import RuleContext
from .findings import Baseline, Finding, sort_findings
from .registry import REGISTRY, Kind
from .spans import Document


class AnalysisParseFailure(Exception):
    """A document could not be parsed at all (CLI exit code 2)."""

    def __init__(self, file: str, message: str, line: int = 0) -> None:
        super().__init__(f"{file}: {message}")
        self.file = file
        self.message = message
        self.line = line


@dataclass(frozen=True)
class AnalyzerConfig:
    """Per-run configuration: rule selection and suppression."""

    #: Rule IDs to skip.
    disabled: frozenset = frozenset()
    #: When set, *only* these rule IDs run.
    selected: Optional[frozenset] = None
    #: Known findings to suppress (see :class:`Baseline`).
    baseline: Optional[Baseline] = None

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disabled:
            return False
        if self.selected is not None and rule_id not in self.selected:
            return False
        return True


DEFAULT_CONFIG = AnalyzerConfig()


@dataclass
class AnalyzedDocument:
    """One classified + parsed input document."""

    name: str
    kind: str  # Kind.DASH / HLS_MASTER / HLS_MEDIA
    doc: Document
    playlist: Optional[ScannedPlaylist] = None
    xml_root: Optional[XmlElement] = None


def classify_name(name: str, text: str) -> str:
    """Coarse document classification from filename and content.

    A name without a manifest suffix is sniffed by its first non-blank
    text: markup is an MPD, an ``#EXT`` tag a playlist (one missing its
    ``#EXTM3U`` header included). Anything else, Python source among
    it, is not a manifest.
    """
    lowered = name.lower()
    if lowered.endswith((".mpd", ".xml")):
        return Kind.DASH
    if lowered.endswith((".m3u8", ".m3u")):
        return "hls"
    stripped = text.lstrip()
    if stripped.startswith("<"):
        return Kind.DASH
    if stripped.startswith("#EXT"):
        return "hls"
    raise AnalysisParseFailure(
        name, "cannot classify document: not MPD XML or m3u8"
    )


def prepare(
    files: Mapping[str, str],
    config: Optional[AnalyzerConfig] = None,
) -> Tuple[List[AnalyzedDocument], RuleContext]:
    """Parse every document and build the shared rule context."""
    prepared: List[AnalyzedDocument] = []
    ctx = RuleContext(config=config or DEFAULT_CONFIG)
    for name, text in files.items():
        doc = Document(name=name, text=text)
        kind = classify_name(name, text)
        if kind == Kind.DASH:
            try:
                root = parse_xml(text)
            except XmlParseFailure as exc:
                raise AnalysisParseFailure(
                    name, str(exc), line=exc.line
                ) from exc
            if root.local != "MPD":
                raise AnalysisParseFailure(
                    name, f"root element is {root.local!r}, expected MPD"
                )
            prepared.append(
                AnalyzedDocument(name=name, kind=kind, doc=doc, xml_root=root)
            )
        else:  # hls
            if not text.strip():
                raise AnalysisParseFailure(name, "empty playlist document")
            scanned = scan_playlist(text)
            playlist_kind = (
                Kind.HLS_MASTER if scanned.is_master else Kind.HLS_MEDIA
            )
            prepared.append(
                AnalyzedDocument(
                    name=name, kind=playlist_kind, doc=doc, playlist=scanned
                )
            )
            ctx.playlists[name] = scanned
        ctx.documents[name] = doc
    return prepared, ctx


def _rule_kinds_for(kind: str) -> List[str]:
    if kind == Kind.HLS_MASTER:
        return [Kind.HLS_ANY, Kind.HLS_MASTER, Kind.HLS_PACKAGE]
    if kind == Kind.HLS_MEDIA:
        return [Kind.HLS_ANY, Kind.HLS_MEDIA]
    return [kind]


def run_rules(
    prepared: List[AnalyzedDocument], ctx: RuleContext
) -> List[Finding]:
    """Run all enabled rules over prepared documents (unsorted)."""
    config = ctx.config or DEFAULT_CONFIG
    findings: List[Finding] = []
    for analyzed in prepared:
        for rule_kind in _rule_kinds_for(analyzed.kind):
            for entry in REGISTRY.for_kind(rule_kind):
                if not config.rule_enabled(entry.rule_id):
                    continue
                tree = (
                    analyzed.xml_root
                    if analyzed.kind == Kind.DASH
                    else analyzed.playlist
                )
                findings.extend(entry.check(analyzed.doc, tree, ctx))
    return findings


def analyze_files(
    files: Mapping[str, str],
    config: Optional[AnalyzerConfig] = None,
) -> List[Finding]:
    """Analyze a set of documents; the package-level entry point."""
    config = config or DEFAULT_CONFIG
    prepared, ctx = prepare(files, config)
    findings = run_rules(prepared, ctx)
    if config.baseline is not None:
        findings = config.baseline.filter(findings)
    return sort_findings(findings)


def analyze_text(
    name: str, text: str, config: Optional[AnalyzerConfig] = None
) -> List[Finding]:
    """Analyze a single document."""
    return analyze_files({name: text}, config)
