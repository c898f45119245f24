"""Session-invariant checker run over chaos-surviving results.

Surviving chaos is necessary but not sufficient: a grid that *returns*
rows after workers were killed and requeued could still be returning
damaged rows. These checks assert the physical laws every simulated
session must obey regardless of how many times its worker died:

* the byte ledger closes — ``served == played + wasted + resumed``
  (PR 1's accounting identity);
* buffer levels are never negative;
* every session terminates with a verdict: it stamps an end time and
  is either completed, degraded with an explicit ``termination_reason``,
  or cut off by the simulation-time ceiling (which always lies well
  past the content duration);
* stalls and download records are well-formed and inside the session.

:func:`check_session` inspects one result; :func:`check_cohort` does
the same for a multi-session :class:`~repro.sim.cohort.CohortResult`
(per-edge byte conservation, fair-share bounds, every-session-has-a-
verdict, no silent starvation); :func:`check_outcomes` sweeps a grid's
outcomes, dispatching per result type and tagging each violation with
the offending job. The engine runs the sweep automatically after any
chaos run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.records import SessionResult

#: Float-noise tolerance for "never negative" buffer levels.
_NEG_EPS = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One broken law, with enough detail to debug it."""

    invariant: str
    detail: str
    job: Optional[str] = None

    def __str__(self) -> str:
        prefix = f"[{self.job}] " if self.job else ""
        return f"{prefix}{self.invariant}: {self.detail}"


def check_session(result: SessionResult) -> List[InvariantViolation]:
    """Every violated invariant for one session (empty = healthy)."""
    violations: List[InvariantViolation] = []

    ledger = result.byte_accounting()
    if not ledger["reconciles"]:
        violations.append(
            InvariantViolation(
                "byte-accounting",
                "served != played + wasted + resumed: "
                f"{ledger['bits_served']:.0f} != {ledger['bits_played']:.0f} "
                f"+ {ledger['bits_wasted']:.0f} + {ledger['bits_resumed']:.0f}",
            )
        )

    for sample in result.buffer_timeline:
        if sample.video_level_s < -_NEG_EPS or sample.audio_level_s < -_NEG_EPS:
            violations.append(
                InvariantViolation(
                    "non-negative-buffers",
                    f"t={sample.t:.3f}: video={sample.video_level_s:.6f}s "
                    f"audio={sample.audio_level_s:.6f}s",
                )
            )
            break  # one witness is enough; don't flood the report

    if result.ended_at_s is None:
        violations.append(
            InvariantViolation("terminates", "session has no end timestamp")
        )
    elif not (
        result.completed
        or result.termination_reason is not None
        or result.ended_at_s >= result.content_duration_s
    ):
        # The only legitimate incomplete-without-reason exit is the
        # max-sim-time ceiling, which always lies past the content
        # duration; anything else ended without a verdict.
        violations.append(
            InvariantViolation(
                "terminates",
                f"incomplete at t={result.ended_at_s:.3f} with no "
                "termination reason",
            )
        )

    end = result.ended_at_s if result.ended_at_s is not None else float("inf")
    for stall in result.stalls:
        if stall.end_s is None:
            violations.append(
                InvariantViolation(
                    "stalls-well-formed",
                    f"open stall starting at t={stall.start_s:.3f}",
                )
            )
        elif stall.end_s < stall.start_s or stall.end_s > end + _NEG_EPS:
            violations.append(
                InvariantViolation(
                    "stalls-well-formed",
                    f"stall [{stall.start_s:.3f}, {stall.end_s:.3f}] outside "
                    f"[start, {end:.3f}]",
                )
            )

    for record in result.downloads:
        if record.completed_at < record.started_at:
            violations.append(
                InvariantViolation(
                    "downloads-well-formed",
                    f"chunk {record.chunk_index} ({record.medium.value}) "
                    f"completed at {record.completed_at:.3f} before its "
                    f"start {record.started_at:.3f}",
                )
            )
        if not 0 <= record.chunk_index < result.n_chunks:
            violations.append(
                InvariantViolation(
                    "downloads-well-formed",
                    f"chunk index {record.chunk_index} outside "
                    f"[0, {result.n_chunks})",
                )
            )

    return violations


#: Relative slack for the cohort edge ledger: the fluid kernel credits
#: a completing flow its exact size while the edge integrates
#: ``rate * dt``, so the two sides agree only to fp accumulation error.
_LEDGER_RTOL = 1e-6
#: Absolute ledger slack (bits) for nearly-idle edges.
_LEDGER_ATOL = 1e4


def check_cohort(result) -> List[InvariantViolation]:
    """Cohort-level laws for one :class:`~repro.sim.cohort.CohortResult`.

    * **edge-byte-ledger** — per edge, the capacity integral over busy
      time equals the sum of per-flow settlements (useful + wasted
      bits); and settlements never exceed what the uplink could have
      carried (``capacity * busy_s``). A processor-sharing bookkeeping
      bug (lost flow, double-credited completion, missed settle)
      breaks one of the two.
    * **fair-share-bounds** — no edge serves more than its capacity
      times its busy time; wasted + useful add up to settled.
    * **every-session-verdicted** — the summaries (when kept) and the
      verdict counts agree with ``n_sessions``, and no verdict is the
      ``no_verdict`` sentinel: every session either completed or
      carries an explicit degradation reason. "Zero aborted sessions"
      is this line.
    * **no-silent-starvation** — a session that neither completed nor
      downloaded a single chunk must carry a termination reason (it
      must have died of exhausted attempts/budget/ceiling, not fallen
      out of the event loop).
    """
    violations: List[InvariantViolation] = []

    for edge_id, ledger in result.edges.items():
        served = ledger["served_bits"]
        settled = ledger["settled_bits"]
        useful = ledger["useful_bits"]
        wasted = ledger["wasted_bits"]
        capacity_bits = ledger["capacity_kbps"] * 1000.0 * ledger["busy_s"]
        slack = _LEDGER_RTOL * max(served, settled, 1.0) + _LEDGER_ATOL
        if abs(served - settled) > slack:
            violations.append(
                InvariantViolation(
                    "edge-byte-ledger",
                    f"{edge_id}: served {served:.0f} != settled {settled:.0f} "
                    f"(useful {useful:.0f} + wasted {wasted:.0f})",
                )
            )
        if abs((useful + wasted) - settled) > slack:
            violations.append(
                InvariantViolation(
                    "edge-byte-ledger",
                    f"{edge_id}: useful {useful:.0f} + wasted {wasted:.0f} "
                    f"!= settled {settled:.0f}",
                )
            )
        if settled > capacity_bits + slack:
            violations.append(
                InvariantViolation(
                    "fair-share-bounds",
                    f"{edge_id}: settled {settled:.0f} bits exceed capacity "
                    f"* busy time = {capacity_bits:.0f}",
                )
            )

    counted = sum(result.verdict_counts.values())
    if counted != result.n_sessions:
        violations.append(
            InvariantViolation(
                "every-session-verdicted",
                f"verdict counts cover {counted} of {result.n_sessions} sessions",
            )
        )
    if result.verdict_counts.get("no_verdict"):
        violations.append(
            InvariantViolation(
                "every-session-verdicted",
                f"{result.verdict_counts['no_verdict']} session(s) ended "
                "without completing and without a termination reason",
            )
        )
    if result.completed_sessions + result.degraded_sessions != result.n_sessions:
        violations.append(
            InvariantViolation(
                "every-session-verdicted",
                f"completed {result.completed_sessions} + degraded "
                f"{result.degraded_sessions} != {result.n_sessions}",
            )
        )

    for summary in result.summaries:
        if not summary.completed and summary.termination_reason is None:
            violations.append(
                InvariantViolation(
                    "every-session-verdicted",
                    f"session {summary.session_id} is incomplete with no reason",
                )
            )
        if (
            not summary.completed
            and summary.chunks_downloaded == 0
            and summary.termination_reason is None
        ):
            violations.append(
                InvariantViolation(
                    "no-silent-starvation",
                    f"session {summary.session_id} starved with no verdict",
                )
            )
        if summary.stall_s < -_NEG_EPS or summary.startup_delay_s < -_NEG_EPS:
            violations.append(
                InvariantViolation(
                    "non-negative-buffers",
                    f"session {summary.session_id}: stall {summary.stall_s:.6f}s "
                    f"startup {summary.startup_delay_s:.6f}s",
                )
            )

    return violations


def check_outcomes(outcomes: Sequence) -> List[InvariantViolation]:
    """Sweep a grid's outcomes; failed jobs (no result) are skipped —
    they are already surfaced through ``JobOutcome.error``."""
    violations: List[InvariantViolation] = []
    for outcome in outcomes:
        result = getattr(outcome, "result", None)
        if result is None:
            continue
        if isinstance(result, SessionResult):
            found = check_session(result)
        elif hasattr(result, "verdict_counts"):
            found = check_cohort(result)
        else:  # unknown result types have no laws to check
            continue
        if found:
            label = outcome.job.key()[:12]
            violations.extend(
                InvariantViolation(v.invariant, v.detail, job=label)
                for v in found
            )
    return violations
