"""X8 — resilience to transient request failures.

Production CDNs reset connections; a demuxed client retries *two*
request streams' worth of them. This experiment injects seeded
failures (10% of requests die mid-transfer) on a moderately provisioned
link and compares the players: total retry waste, stall damage, and
whether adaptation conformance survives the retries.

The best-practices player additionally demonstrates the retry-lower
reaction: a failed position re-fetches one allowed rung lower (when the
pair is not already locked by the companion medium), converting
failures into mild quality dips instead of repeated stalls.

X8b (``resilience-sweep``) drives the full :mod:`repro.net.resilience`
subsystem: failure *mixes* (reset-heavy, HTTP-error-heavy) crossed with
retry *policies* (backoff shape, attempt caps, budgets), range-resume
on versus off, byte-accounting reconciliation on every session, and a
determinism check that identical seeds replay identical retry
schedules.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.combinations import hsub_combinations
from ..media.tracks import MediaType
from ..net.resilience import FailureKind, RetryPolicy
from ..qoe.metrics import compute_qoe
from ..runner import (
    ContentSpec,
    FailureSpec,
    GridRunner,
    PlayerSpec,
    SimulationJob,
    TraceSpec,
)
from .base import ExperimentReport, register, run_grid

LINK_KBPS = 900.0
FAILURE_P = 0.10
N_SEEDS = 4

PLAYER_SPECS: Dict[str, PlayerSpec] = {
    "exoplayer-dash": PlayerSpec("exoplayer-dash"),
    "shaka": PlayerSpec("shaka", combinations="all"),
    "dashjs": PlayerSpec("dashjs"),
    "recommended": PlayerSpec("recommended", combinations="hsub"),
}

_RECOMMENDED = PLAYER_SPECS["recommended"]


@register("resilience")
def run_resilience() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="resilience",
        title=f"10% transient request failures at {LINK_KBPS:.0f} kbps",
        params={"failure_p": FAILURE_P, "bandwidth_kbps": LINK_KBPS, "seeds": N_SEEDS},
        paper_claim=(
            "failure handling is part of demuxed A/V hygiene: retries must "
            "not break pairing conformance, and reacting to failures beats "
            "blind re-requests"
        ),
        header=(
            "Player",
            "Failures",
            "Wasted Mb",
            "Stalls",
            "Rebuffer s",
            "Video kbps",
            "QoE",
        ),
    )
    grid = [(name, seed) for name in PLAYER_SPECS for seed in range(N_SEEDS)]
    jobs = [
        SimulationJob(
            player=PLAYER_SPECS[name],
            trace=TraceSpec.constant(LINK_KBPS),
            failure=FailureSpec(FAILURE_P, seed=seed),
            seed=seed,
        )
        for name, seed in grid
    ]
    results = run_grid(report, jobs)
    content = ContentSpec().build()
    hsub = hsub_combinations(content)

    totals: Dict[str, Dict[str, float]] = {}
    conformance_ok = True
    for (name, seed), result in zip(grid, results):
        acc = totals.setdefault(
            name,
            {"failures": 0, "waste": 0.0, "stalls": 0, "rebuf": 0.0, "video": 0.0, "qoe": 0.0},
        )
        acc["failures"] += len(result.failures)
        acc["waste"] += sum(f.bits_done for f in result.failures) / 1e6
        acc["stalls"] += result.n_stalls
        acc["rebuf"] += result.total_rebuffer_s
        acc["video"] += result.time_weighted_bitrate_kbps(MediaType.VIDEO)
        acc["qoe"] += compute_qoe(result, content).score
        if name == "recommended" and not (
            set(result.combination_names()) <= set(hsub.names)
        ):
            conformance_ok = False
    for name, acc in totals.items():
        report.rows.append(
            (
                name,
                acc["failures"],
                round(acc["waste"], 1),
                acc["stalls"],
                round(acc["rebuf"], 1),
                round(acc["video"] / N_SEEDS),
                round(acc["qoe"] / N_SEEDS, 1),
            )
        )

    report.check(
        "every player completes all sessions under 10% failures",
        True,  # reaching this line means no SimulationError was raised
    )
    report.check(
        "recommended retains pairing conformance across all retries",
        conformance_ok,
    )
    report.check(
        "recommended has the least rebuffering under failures",
        totals["recommended"]["rebuf"]
        <= min(acc["rebuf"] for acc in totals.values()) + 1e-9,
        detail=str({n: round(acc["rebuf"], 1) for n, acc in totals.items()}),
    )
    report.check(
        "failures occurred and wasted measurable bytes (the injection works)",
        all(acc["failures"] > 0 and acc["waste"] > 0 for acc in totals.values()),
    )
    return report


# -- X8b: failure-mix x retry-policy sweep --------------------------------

SWEEP_SEEDS = 3

#: Failure mixes to sweep. ``None`` = the model's default mix.
SWEEP_MIXES: Dict[str, Optional[Dict[FailureKind, float]]] = {
    "default": None,
    "reset-heavy": {
        FailureKind.CONNECTION_RESET: 0.7,
        FailureKind.SLOW_TRANSFER: 0.2,
        FailureKind.HTTP_5XX: 0.1,
    },
    "http-heavy": {
        FailureKind.HTTP_5XX: 0.5,
        FailureKind.HTTP_404: 0.3,
        FailureKind.TIMEOUT: 0.2,
    },
}

#: Retry policies to sweep, from default through patient to trigger-happy.
SWEEP_POLICIES: Dict[str, RetryPolicy] = {
    "default": RetryPolicy(),
    "patient": RetryPolicy(
        max_attempts=6, base_delay_s=1.0, max_delay_s=16.0, retry_budget=128
    ),
    "eager": RetryPolicy(
        max_attempts=2, base_delay_s=0.1, max_delay_s=2.0, retry_budget=32
    ),
}


def _cell_jobs(
    mix: Optional[Dict[FailureKind, float]],
    policy: RetryPolicy,
    resume_probability: float,
) -> list:
    """The seed-replicate jobs of one (mix, policy, resume) cell."""
    return [
        SimulationJob(
            player=_RECOMMENDED,
            trace=TraceSpec.constant(LINK_KBPS),
            failure=FailureSpec.with_mix(
                FAILURE_P, seed, mix, resume_probability=resume_probability
            ),
            retry_policy=policy,
            seed=seed,
        )
        for seed in range(SWEEP_SEEDS)
    ]


def _fold_cell(results) -> Tuple[Dict[str, float], list, bool]:
    """Fold one (mix, policy, resume) cell's seed replicates."""
    acc = {
        "failures": 0,
        "retries": 0,
        "resumed": 0.0,
        "waste": 0.0,
        "stalls": 0,
        "rebuf": 0.0,
        "video": 0.0,
    }
    schedules = []
    reconciles = True
    for result in results:
        acc["failures"] += len(result.failures)
        acc["retries"] += result.n_retries
        acc["resumed"] += result.bits_resumed / 1e6
        acc["waste"] += result.bits_wasted / 1e6
        acc["stalls"] += result.n_stalls
        acc["rebuf"] += result.total_rebuffer_s
        acc["video"] += result.time_weighted_bitrate_kbps(MediaType.VIDEO)
        schedules.append(result.retry_schedule())
        reconciles = reconciles and result.byte_accounting()["reconciles"]
    return acc, schedules, reconciles


@register("resilience-sweep")
def run_resilience_sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="resilience-sweep",
        title=(
            f"failure-mix x retry-policy sweep at {FAILURE_P:.0%} failures, "
            f"{LINK_KBPS:.0f} kbps (best-practices player)"
        ),
        params={
            "failure_p": FAILURE_P,
            "bandwidth_kbps": LINK_KBPS,
            "seeds": SWEEP_SEEDS,
            "mixes": list(SWEEP_MIXES),
            "policies": list(SWEEP_POLICIES),
        },
        paper_claim=(
            "graceful failure handling is a best practice in its own right: "
            "range-resume cuts wasted bytes without extra stalls, budgeted "
            "backoff keeps sessions alive, and the whole pipeline stays "
            "deterministic under seeded replay"
        ),
        header=(
            "Mix",
            "Policy",
            "Resume",
            "Failures",
            "Retries",
            "Resumed Mb",
            "Wasted Mb",
            "Rebuffer s",
            "Video kbps",
        ),
    )
    grid = [
        (mix_name, policy_name, resume_probability)
        for mix_name in SWEEP_MIXES
        for policy_name in SWEEP_POLICIES
        for resume_probability in (
            (0.6, 0.0) if (mix_name, policy_name) == ("default", "default") else (0.6,)
        )
    ]
    jobs = [
        job
        for mix_name, policy_name, resume_probability in grid
        for job in _cell_jobs(
            SWEEP_MIXES[mix_name], SWEEP_POLICIES[policy_name], resume_probability
        )
    ]
    # Graceful degradation: certain failure + tiny budget still yields a
    # clean, reconciled result with a termination reason — no exception.
    jobs.append(
        SimulationJob(
            player=_RECOMMENDED,
            trace=TraceSpec.constant(LINK_KBPS),
            failure=FailureSpec(1.0, seed=0, taxonomy=True),
            retry_policy=RetryPolicy(retry_budget=8),
        )
    )
    runner = GridRunner()
    *results, degraded = runner.results(jobs)

    cells: Dict[Tuple[str, str, float], Tuple[Dict[str, float], list]] = {}
    all_reconcile = True
    for index, (mix_name, policy_name, resume_probability) in enumerate(grid):
        acc, schedules, reconciles = _fold_cell(
            results[index * SWEEP_SEEDS : (index + 1) * SWEEP_SEEDS]
        )
        all_reconcile = all_reconcile and reconciles
        cells[(mix_name, policy_name, resume_probability)] = acc, schedules
        report.rows.append(
            (
                mix_name,
                policy_name,
                f"{resume_probability:.0%}",
                acc["failures"],
                acc["retries"],
                round(acc["resumed"], 1),
                round(acc["waste"], 1),
                round(acc["rebuf"], 1),
                round(acc["video"] / SWEEP_SEEDS),
            )
        )

    with_resume = cells[("default", "default", 0.6)][0]
    without_resume = cells[("default", "default", 0.0)][0]
    report.check(
        "range-resume wastes fewer megabits than discard-everything",
        with_resume["waste"] < without_resume["waste"],
        detail=(
            f"resume {with_resume['waste']:.1f} Mb vs "
            f"discard {without_resume['waste']:.1f} Mb"
        ),
    )
    report.check(
        "range-resume stalls no more than discard-everything",
        with_resume["rebuf"] <= without_resume["rebuf"] + 1e-9,
        detail=(
            f"resume {with_resume['rebuf']:.2f} s vs "
            f"discard {without_resume['rebuf']:.2f} s"
        ),
    )
    report.check(
        "byte accounting reconciles exactly in every session "
        "(served = played + wasted + resumed)",
        all_reconcile,
    )

    # Determinism: the reset-heavy/default cell, run again, must be
    # schedule-identical. The re-run bypasses the result cache so a
    # fresh simulation (not the grid's stored copy) is what must match.
    schedules_a = cells[("reset-heavy", "default", 0.6)][1]
    _, schedules_b, _ = _fold_cell(
        runner.results(
            _cell_jobs(SWEEP_MIXES["reset-heavy"], SWEEP_POLICIES["default"], 0.6),
            use_cache=False,
        )
    )
    report.check(
        "identical seeds reproduce identical failure/retry schedules",
        schedules_a == schedules_b and any(schedules_a),
    )

    report.check(
        "certain failure with a finite budget terminates gracefully",
        (not degraded.completed)
        and degraded.termination_reason is not None
        and degraded.byte_accounting()["reconciles"],
        detail=f"termination_reason={degraded.termination_reason}",
    )
    report.params["runner"] = runner.params()
    return report
