"""Experiment framework: uniform reports for every table/figure.

Each experiment module exposes ``run_*`` functions returning an
:class:`ExperimentReport` — the paper artifact id, the parameters used,
the regenerated rows/series, the paper's qualitative claim, and a list
of shape-level checks with pass/fail status. "Shape-level" is the
reproduction contract (DESIGN.md §5): the same winners, the same
failure modes, crossovers in the same places — not millisecond-equal
stall totals measured on the authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runner import GridRunner


@dataclass
class Check:
    """One shape-level assertion with its outcome."""

    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.description}{suffix}"


@dataclass
class ExperimentReport:
    """The regenerated artifact plus its fidelity checks."""

    experiment_id: str  # e.g. "fig2a", "table2"
    title: str
    params: Dict[str, object] = field(default_factory=dict)
    paper_claim: str = ""
    #: Tabular output: header + rows (Tables 1-3, summary tables).
    header: Tuple[str, ...] = ()
    rows: List[Tuple] = field(default_factory=list)
    #: Time-series output: name -> [(t, value), ...] (the figures).
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: Categorical timelines: name -> [(t, label), ...] (track choices).
    timelines: Dict[str, List[Tuple[float, str]]] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff the report has at least one check and all pass.

        A report with zero checks must not read as reproduced — a
        vacuous ``all()`` over an empty list once let experiments that
        forgot to register assertions print ``=> REPRODUCED``.
        """
        return bool(self.checks) and all(check.passed for check in self.checks)

    @property
    def status(self) -> str:
        """Three-state verdict: REPRODUCED / MISMATCH / NO CHECKS."""
        if not self.checks:
            return "NO CHECKS"
        return "REPRODUCED" if self.passed else "MISMATCH"

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(description=description, passed=bool(passed), detail=detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- rendering ---------------------------------------------------------

    def render_table(self) -> str:
        if not self.rows:
            return "(no rows)"
        header = [str(h) for h in self.header]
        body = [[str(cell) for cell in row] for row in self.rows]
        # Size by the widest shape present anywhere: a header wider than
        # the first row must not drop columns, and ragged rows are
        # padded with blanks instead of raising.
        n_columns = max(len(header), max(len(row) for row in body))
        header += [""] * (n_columns - len(header))
        body = [row + [""] * (n_columns - len(row)) for row in body]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body))
            for i in range(n_columns)
        ]
        lines = []
        if self.header:
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
            lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def render(self) -> str:
        """Full human-readable report."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.params:
            lines.append(
                "params: "
                + ", ".join(f"{key}={value}" for key, value in sorted(self.params.items()))
            )
        if self.paper_claim:
            lines.append(f"paper: {self.paper_claim}")
        if self.rows:
            lines.append(self.render_table())
        for name, points in self.timelines.items():
            compact = _compact_timeline(points)
            lines.append(f"{name}: {compact}")
        for note in self.notes:
            lines.append(f"note: {note}")
        for check in self.checks:
            lines.append(str(check))
        lines.append(f"=> {self.status}")
        return "\n".join(lines)


def run_grid(report: ExperimentReport, jobs: Sequence) -> List:
    """Run an experiment's jobs on a fresh :class:`~repro.runner.GridRunner`.

    Records the runner's provenance in ``report.params`` and returns the
    results in job order. ``ContentSpec.build()`` gives the same built
    titles the sessions ran on.
    """
    runner = GridRunner()
    results = runner.results(jobs)
    report.params["runner"] = runner.params()
    return results


def _compact_timeline(points: Sequence[Tuple[float, str]]) -> str:
    """Collapse a label timeline into 'label@t0..' transitions.

    The final run's known end time (the last sample's timestamp) is
    appended when it extends past the last transition, so the rendering
    never implies the last track choice lasted zero seconds.
    """
    if not points:
        return "(empty)"
    out = []
    previous = None
    last_transition_t = points[0][0]
    for t, label in points:
        if label != previous:
            out.append(f"{label}@{t:.0f}s")
            previous = label
            last_transition_t = t
    rendered = " -> ".join(out)
    final_t = points[-1][0]
    if final_t > last_transition_t:
        rendered += f" (held to {final_t:.0f}s)"
    return rendered


#: Registry of experiment name -> zero-arg runner, populated by the
#: experiment modules at import time via :func:`register`.
_REGISTRY: Dict[str, Callable[[], ExperimentReport]] = {}


def register(name: str):
    """Decorator registering a zero-arg experiment runner."""

    def decorate(fn: Callable[[], ExperimentReport]):
        # Import-time registration runs identically in every process
        # before any pool exists.
        _REGISTRY[name] = fn
        return fn

    return decorate


def experiment_names() -> List[str]:
    return sorted(_REGISTRY)


def run_experiment(name: str) -> ExperimentReport:
    from ..errors import ExperimentError

    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {name!r}; known: {experiment_names()}"
        ) from None
    return runner()
