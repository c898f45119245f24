"""Static analysis for streaming manifests and the simulator's source.

``repro.analysis`` lints raw manifest *text* — MPD XML and m3u8
playlists — with file/line/column source spans: RFC 8216 and DASH-IF
conformance plus the paper's Section 4.1 best practices (curated
combination sets, per-track bandwidth). It reads manifests through the
span-keeping readers of :mod:`repro.manifest` (``hls.scan_playlist``,
``dash.parse_xml``) that the strict parsers share. For the simulator's
own Python source it runs the set-order lint (``DET-SET-ORDER``,
:mod:`repro.analysis.pylint_determinism`) and the fork-safety lint
(``POOL-*``, :mod:`repro.analysis.code_pool`), one file at a time,
with one inline suppression grammar (``# lint: allow[RULE-ID]``, see
:mod:`repro.analysis.code_engine`). These cover hazards the result
oracles can miss; unseeded randomness, wall-clock reads and
unpicklable pool jobs change the pinned event logs, report pins or
the ``spawn`` pool test, so they have no rule.

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
# hls_rules, engine pulls in code_engine; code_pool, dash_rules and
# pylint_determinism are imported here).
from . import code_pool as _code_pool  # noqa: F401
from . import dash_rules as _dash_rules  # noqa: F401
from . import hls_rules as _hls_rules  # noqa: F401
from . import pylint_determinism as _pylint_determinism  # noqa: F401

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
