"""X2 — the Section-4 best practices, quantified.

The paper proposes the practices but leaves implementation to future
work; here the :class:`~repro.core.player.RecommendedPlayer` (which
implements all four) is run head-to-head against each measured player
on that player's own failure scenario, plus ablations that switch the
practices off one at a time:

* vs **ExoPlayer HLS** on the Fig. 3 trace — audio adaptation removes
  the fixed-A3 stall storm;
* vs **Shaka** on the Fig. 4(a) link — a pooled A/V estimator is not
  fooled by concurrent downloads, unlocking the bandwidth Shaka leaves
  unused;
* vs **dash.js** on the Fig. 5 link — joint adaptation over allowed
  combinations eliminates undesirable pairs and balances the buffers;
* ablations: balanced vs free-running prefetch, shared vs per-medium
  meter, curated subset vs all combinations.
"""

from __future__ import annotations

from typing import Tuple

from ..core.combinations import hsub_combinations
from ..media.tracks import MediaType
from ..qoe.metrics import compute_qoe
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid
from .traces import fig3_spec

_HEADER = (
    "Scenario",
    "Player",
    "Video kbps",
    "Audio kbps",
    "Stalls",
    "Rebuffer s",
    "Switches",
    "Imbalance s",
    "Undesirable",
    "QoE",
)

RECOMMENDED = PlayerSpec("recommended")


def _row(scenario, name, content, result) -> Tuple:
    qoe = compute_qoe(result, content)
    return (
        scenario,
        name,
        round(result.time_weighted_bitrate_kbps(MediaType.VIDEO)),
        round(result.time_weighted_bitrate_kbps(MediaType.AUDIO)),
        result.n_stalls,
        round(result.total_rebuffer_s, 1),
        qoe.video_switches + qoe.audio_switches,
        round(result.max_buffer_imbalance_s(), 1),
        qoe.undesirable_chunks,
        round(qoe.score, 1),
    )


@register("best_practices")
def run_best_practices() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="best_practices",
        title="Best-practices player vs the three measured players",
        paper_claim=(
            "adopting audio adaptation, allowed-combination selection, joint "
            "adaptation and balanced prefetching avoids the observed issues"
        ),
        header=_HEADER,
    )
    # Each measured player on its own failure scenario, then the
    # recommended player on the same link.
    scenarios = (
        (
            "fig3",
            "exoplayer-hls",
            PlayerSpec("exoplayer-hls", audio_order=("A3", "A2", "A1")),
            fig3_spec(),
        ),
        (
            "fig4a",
            "shaka",
            PlayerSpec("shaka", combinations="all"),
            TraceSpec.constant(1000.0),
        ),
        ("fig5", "dashjs", PlayerSpec("dashjs"), TraceSpec.constant(700.0)),
    )
    jobs = []
    for _, _, player, trace in scenarios:
        jobs.append(SimulationJob(player=player, trace=trace))
        jobs.append(SimulationJob(player=RECOMMENDED, trace=trace))
    results = run_grid(report, jobs)
    content = ContentSpec().build()
    hsub = hsub_combinations(content)
    for (scenario, name, _, _), measured, recommended in zip(
        scenarios, results[::2], results[1::2]
    ):
        report.rows.append(_row(scenario, name, content, measured))
        report.rows.append(_row(scenario, "recommended", content, recommended))
    exo_result, rec_result, shaka_result, rec2_result, dashjs_result, rec3_result = (
        results
    )

    # -- scenario 1: the ExoPlayer-HLS stall storm (Fig. 3 trace) ---------
    report.check(
        "audio adaptation eliminates (or nearly eliminates) the rebuffering",
        rec_result.total_rebuffer_s <= exo_result.total_rebuffer_s * 0.25,
        detail=(
            f"{rec_result.total_rebuffer_s:.1f} s vs {exo_result.total_rebuffer_s:.1f} s"
        ),
    )
    report.check(
        "recommended selects only allowed combinations",
        set(rec_result.combination_names()) <= set(hsub.names),
        detail=str(rec_result.distinct_combinations()),
    )

    # -- scenario 2: the Shaka dead estimator (Fig. 4a link) --------------
    rec2_estimates = [e.kbps for e in rec2_result.estimate_timeline]
    report.check(
        "pooled estimator sees the real ~1000 kbps link (Shaka saw 500)",
        rec2_estimates and max(rec2_estimates) > 900.0,
        detail=f"max estimate {max(rec2_estimates):.0f} kbps",
    )
    report.check(
        "recommended converts the recovered bandwidth into video quality",
        rec2_result.time_weighted_bitrate_kbps(MediaType.VIDEO)
        > shaka_result.time_weighted_bitrate_kbps(MediaType.VIDEO) * 1.2,
        detail=(
            f"{rec2_result.time_weighted_bitrate_kbps(MediaType.VIDEO):.0f} vs "
            f"{shaka_result.time_weighted_bitrate_kbps(MediaType.VIDEO):.0f} kbps"
        ),
    )

    # -- scenario 3: the dash.js imbalance/undesirable combos (Fig. 5) ----
    rec3_qoe = compute_qoe(rec3_result, content)
    dashjs_qoe = compute_qoe(dashjs_result, content)
    report.check(
        "joint adaptation over allowed combinations yields zero "
        "undesirable pairs (dash.js produced some)",
        rec3_qoe.undesirable_chunks == 0 and dashjs_qoe.undesirable_chunks > 0,
        detail=f"{rec3_qoe.undesirable_chunks} vs {dashjs_qoe.undesirable_chunks}",
    )
    report.check(
        "balanced prefetching keeps buffers within ~one chunk "
        "(dash.js drifted by tens of seconds)",
        rec3_result.max_buffer_imbalance_s() <= content.chunk_duration_s + 1e-6
        and dashjs_result.max_buffer_imbalance_s() >= 10.0,
        detail=(
            f"{rec3_result.max_buffer_imbalance_s():.1f} s vs "
            f"{dashjs_result.max_buffer_imbalance_s():.1f} s"
        ),
    )
    report.check(
        "switch damping cuts track changes",
        (rec3_qoe.video_switches + rec3_qoe.audio_switches)
        < (dashjs_qoe.video_switches + dashjs_qoe.audio_switches),
        detail=(
            f"{rec3_qoe.video_switches + rec3_qoe.audio_switches} vs "
            f"{dashjs_qoe.video_switches + dashjs_qoe.audio_switches}"
        ),
    )
    return report


@register("ablations")
def run_ablations() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="ablations",
        title="Ablating the best practices one at a time",
        paper_claim=(
            "each practice carries weight: unbalancing prefetch re-creates "
            "buffer skew; splitting the meter re-creates underestimation; "
            "opening selection to all combinations re-admits undesirable pairs"
        ),
        header=_HEADER,
    )
    variants = {
        "full": RECOMMENDED,
        "no-balance": PlayerSpec("recommended", balanced=False),
        "split-meter": PlayerSpec("recommended", shared_meter=False),
        "all-combos": PlayerSpec("recommended", combinations="all"),
    }
    link = TraceSpec.constant(700.0)
    jobs = [SimulationJob(player=player, trace=link) for player in variants.values()]
    grid = run_grid(report, jobs)
    content = ContentSpec().build()
    results = dict(zip(variants, grid))
    for name, result in results.items():
        report.rows.append(_row("700 kbps", name, content, result))

    full = results["full"]
    report.check(
        "full practice set keeps buffers balanced to one chunk",
        full.max_buffer_imbalance_s() <= content.chunk_duration_s + 1e-6,
        detail=f"{full.max_buffer_imbalance_s():.1f} s",
    )
    report.check(
        "removing balancing increases the worst-case buffer imbalance",
        results["no-balance"].max_buffer_imbalance_s()
        > full.max_buffer_imbalance_s() + 1.0,
        detail=(
            f"{results['no-balance'].max_buffer_imbalance_s():.1f} s vs "
            f"{full.max_buffer_imbalance_s():.1f} s"
        ),
    )
    full_video = full.time_weighted_bitrate_kbps(MediaType.VIDEO)
    split_video = results["split-meter"].time_weighted_bitrate_kbps(MediaType.VIDEO)
    report.check(
        "splitting the meter never helps (per-medium estimates see shares)",
        split_video <= full_video + 1e-6,
        detail=f"{split_video:.0f} vs {full_video:.0f} kbps",
    )
    qoe_all = compute_qoe(results["all-combos"], content)
    report.check(
        "selection restricted to H_sub never uses an undesirable pair",
        compute_qoe(full, content).undesirable_chunks == 0,
        detail=f"all-combos variant used {qoe_all.undesirable_chunks}",
    )
    return report
