"""Rule registry: stable IDs, severities, categories, references.

Every check the analyzer can perform is a registered :class:`Rule` with

* a stable ID (``HLS-TARGETDURATION``, ``DASH-REP-BANDWIDTH``, ...)
  that CI configs and baselines can rely on across releases,
* a default :class:`~repro.analysis.findings.Severity`,
* a category tying it to what it enforces — RFC 8216 conformance,
  DASH-IF conformance, or a paper best practice (Section 4.1),
* a ``reference`` naming the RFC clause or paper section, and
* the document *kind* it applies to, so the engine only runs HLS rules
  on playlists and DASH rules on MPDs.

Rules register themselves via the :func:`rule` decorator; a check
receives the :class:`~repro.analysis.spans.Document`, the reader's
view of it (a scanned playlist or an MPD element tree) and a
:class:`RuleContext`, and yields findings. Severity/enablement can be
overridden per run through :class:`repro.analysis.engine.AnalyzerConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from .findings import Finding, Severity


class Category:
    """Rule categories (string constants, not an enum, so configs can
    extend them without touching this module)."""

    RFC8216 = "rfc8216-conformance"
    DASHIF = "dashif-conformance"
    PAPER = "paper-best-practice"


class Kind:
    """Document kinds a rule can apply to."""

    HLS_ANY = "hls-any"  # both playlist levels
    HLS_MASTER = "hls-master"
    HLS_MEDIA = "hls-media"
    HLS_PACKAGE = "hls-package"  # master resolved against media playlists
    DASH = "dash"


@dataclass(frozen=True)
class Rule:
    """Metadata + check function for one rule."""

    rule_id: str
    severity: Severity
    category: str
    kind: str
    summary: str
    reference: str
    fixable: bool
    check: Callable[..., Iterator[Finding]]

    def finding(self, message: str, span, line_text: str = "") -> Finding:
        """Build a finding carrying this rule's metadata."""
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            span=span,
            category=self.category,
            line_text=line_text,
            fixable=self.fixable,
        )


class RuleRegistry:
    """All known rules, in registration order (stable output order)."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> None:
        if rule.rule_id in self._rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule

    def get(self, rule_id: str) -> Rule:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(f"unknown rule {rule_id!r}") from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def ids(self) -> List[str]:
        return list(self._rules)

    def for_kind(self, kind: str) -> List[Rule]:
        return [r for r in self._rules.values() if r.kind == kind]


#: The process-wide registry. Importing :mod:`repro.analysis` populates
#: it with the built-in HLS/DASH rules.
REGISTRY = RuleRegistry()


def rule(
    rule_id: str,
    severity: Severity,
    category: str,
    kind: str,
    summary: str,
    reference: str,
    fixable: bool = False,
    registry: Optional[RuleRegistry] = None,
):
    """Decorator registering a check function as a rule.

    The decorated function keeps its original signature; the engine
    looks it up through the registry and calls it with the parsed
    document view and a context object.
    """

    def decorate(check: Callable[..., Iterator[Finding]]):
        entry = Rule(
            rule_id=rule_id,
            severity=severity,
            category=category,
            kind=kind,
            summary=summary,
            reference=reference,
            fixable=fixable,
            check=check,
        )
        (registry or REGISTRY).register(entry)
        check.rule = entry  # type: ignore[attr-defined]
        return check

    return decorate
