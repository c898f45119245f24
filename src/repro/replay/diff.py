"""Engine-divergence diffing: align two event logs, find the first split.

Two runs of the same job on the same engine must produce identical
logs. After an engine or estimator change, the *first* divergent event
is the bug's coordinate: everything before it is provably unchanged,
and the event itself names the moment the behaviours parted — a
decision that picked a different rung, an estimate that read
differently, a download that finished a microsecond early. Aggregate
rows can hide such a change for an entire grid; the event diff cannot.

Floats compare with configurable ``rtol``/``atol`` (default exact,
because recorded floats round-trip exactly and determinism is the
contract); a kernel rewrite that legitimately reorders float math can
pass ``--rtol`` to accept ulp-level drift while still catching real
behaviour changes.

``repro-abr diff-events A.jsonl B.jsonl`` is the CLI;
:func:`diff_event_logs` the library entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import decode_float
from .replayer import scan_events

#: Meta fields that legitimately differ between two recordings of the
#: same session (provenance, not behaviour).
DEFAULT_IGNORE_FIELDS = frozenset({"label", "recorded_by"})


@dataclass(frozen=True)
class Divergence:
    """The first point where two event streams disagree."""

    index: int  # 0-based event position (== seq for intact logs)
    field: Optional[str]  # dotted path inside the event, None for kind/length
    reason: str
    a: Optional[Dict[str, Any]]  # the event in log A (None: A ended)
    b: Optional[Dict[str, Any]]

    def describe(self) -> str:
        where = f"event {self.index}"
        if self.field:
            where += f", field {self.field!r}"
        return f"first divergence at {where}: {self.reason}"


@dataclass
class DiffReport:
    """Outcome of one log-pair diff."""

    divergence: Optional[Divergence]
    events_compared: int
    damage_a: Optional[str] = None
    damage_b: Optional[str] = None
    #: The few events preceding the divergence, for context display.
    context: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return self.divergence is None


def _is_float_string(value: Any) -> bool:
    return value in ("inf", "-inf", "nan")


def _compare_values(
    a: Any, b: Any, path: str, rtol: float, atol: float
) -> Optional[Tuple[str, str]]:
    """``(field_path, reason)`` of the first mismatch, else ``None``."""
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if (a_num or _is_float_string(a)) and (b_num or _is_float_string(b)):
        x, y = decode_float(a), decode_float(b)
        if math.isnan(x) and math.isnan(y):
            return None
        if x == y:
            return None
        if math.isfinite(x) and math.isfinite(y):
            if abs(x - y) <= atol + rtol * max(abs(x), abs(y)):
                return None
            return path, f"{x!r} != {y!r} (|Δ|={abs(x - y):.3g})"
        return path, f"{a!r} != {b!r}"
    if type(a) is not type(b):
        return path, f"type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a:
                return sub, "field only in B"
            if key not in b:
                return sub, "field only in A"
            hit = _compare_values(a[key], b[key], sub, rtol, atol)
            if hit is not None:
                return hit
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return path, f"list length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            hit = _compare_values(x, y, f"{path}[{i}]", rtol, atol)
            if hit is not None:
                return hit
        return None
    if a != b:
        return path, f"{a!r} != {b!r}"
    return None


def diff_event_streams(
    events_a: Sequence[Dict[str, Any]],
    events_b: Sequence[Dict[str, Any]],
    rtol: float = 0.0,
    atol: float = 0.0,
    ignore_fields: frozenset = DEFAULT_IGNORE_FIELDS,
    context: int = 3,
) -> DiffReport:
    """Align two event sequences and report the first divergence."""

    def strip(event: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in event.items() if k not in ignore_fields}

    report = DiffReport(divergence=None, events_compared=0)
    for index in range(max(len(events_a), len(events_b))):
        a = events_a[index] if index < len(events_a) else None
        b = events_b[index] if index < len(events_b) else None
        if a is None or b is None:
            ended, goes_on = ("A", "B") if a is None else ("B", "A")
            survivor = b if a is None else a
            report.divergence = Divergence(
                index=index,
                field=None,
                reason=(
                    f"log {ended} ends after {index} events while {goes_on} "
                    f"continues with {survivor.get('k')!r}"
                ),
                a=a,
                b=b,
            )
            break
        if a.get("k") != b.get("k"):
            report.divergence = Divergence(
                index=index,
                field="k",
                reason=f"event kind {a.get('k')!r} != {b.get('k')!r}",
                a=a,
                b=b,
            )
            break
        hit = _compare_values(strip(a), strip(b), "", rtol, atol)
        if hit is not None:
            field_path, reason = hit
            report.divergence = Divergence(
                index=index, field=field_path, reason=reason, a=a, b=b
            )
            break
        report.events_compared += 1
    if report.divergence is not None and context > 0:
        start = max(0, report.divergence.index - context)
        report.context = [dict(e) for e in events_a[start : report.divergence.index]]
    return report


def diff_event_logs(
    path_a: str,
    path_b: str,
    rtol: float = 0.0,
    atol: float = 0.0,
    ignore_fields: frozenset = DEFAULT_IGNORE_FIELDS,
    context: int = 3,
) -> DiffReport:
    """Diff two recorded logs; torn logs compare over their prefixes.

    Damage is reported alongside the divergence so a tear is never
    mistaken for agreement: a truncated log that matches the other
    log's prefix yields a length divergence at the tear.
    """
    scan_a = scan_events(path_a)
    scan_b = scan_events(path_b)
    report = diff_event_streams(
        scan_a.events,
        scan_b.events,
        rtol=rtol,
        atol=atol,
        ignore_fields=ignore_fields,
        context=context,
    )
    report.damage_a = scan_a.damage
    report.damage_b = scan_b.damage
    return report
