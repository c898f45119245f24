"""Static analysis for streaming manifests.

``repro.analysis`` lints raw manifest *text* — MPD XML and m3u8
playlists — with file/line/column source spans: RFC 8216 and DASH-IF
conformance plus the paper's Section 4.1 best practices (curated
combination sets, per-track bandwidth). It reads manifests through the
span-keeping readers of :mod:`repro.manifest` (``hls.scan_playlist``,
``dash.parse_xml``) that the strict parsers share. The simulator's
own determinism and process independence are held by runtime oracles
in the test suite, not by a source lint (``docs/static_analysis.md``).

Entry points:

* :func:`analyze_files` / :func:`analyze_text` — lint documents, get
  back sorted :class:`Finding` objects.
* :func:`fix_files` — apply the autofix layer (idempotent; fixed
  output re-lints clean for every handled rule).
* :mod:`repro.analysis.emitters` — text / JSON / SARIF 2.1.0 output.
* ``REGISTRY`` — every known rule with its ID, severity, category and
  RFC/paper reference (documented in ``docs/static_analysis.md``).
"""

from __future__ import annotations

from .autofix import FixResult, fix_files
from .emitters import render_json, render_sarif, render_text
from .engine import (
    AnalysisParseFailure,
    AnalyzerConfig,
    analyze_files,
    analyze_text,
)
from .findings import Baseline, Finding, Severity, sort_findings, worst_severity
from .registry import REGISTRY, Category, Kind, Rule

# Importing the rule modules populates REGISTRY (autofix pulls in
# hls_rules; dash_rules is imported here).
from . import dash_rules as _dash_rules  # noqa: F401
from . import hls_rules as _hls_rules  # noqa: F401

__all__ = [
    "AnalysisParseFailure",
    "AnalyzerConfig",
    "Baseline",
    "Category",
    "Finding",
    "FixResult",
    "Kind",
    "REGISTRY",
    "Rule",
    "Severity",
    "analyze_files",
    "analyze_text",
    "fix_files",
    "render_json",
    "render_sarif",
    "render_text",
    "sort_findings",
    "worst_severity",
]
