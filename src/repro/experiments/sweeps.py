"""X3 — bandwidth sweep: where each player's failure mode bites.

Not a single paper figure, but the natural generalization of Section 3:
sweep a fixed link from 300 kbps to 5 Mbps and run every player at each
point. The sweep localizes each documented failure to its operating
region:

* Shaka's dead estimator hurts exactly while the link sits below the
  16 KB-filter threshold (~2 Mbps with concurrent A/V) — above it the
  estimator wakes up;
* ExoPlayer-HLS's fixed first audio wastes quality at every rate and
  stalls below the pinned rendition's appetite;
* dash.js's undesirable pairs concentrate in the mid-band where audio
  and video budgets overlap;
* the best-practices player tracks the link monotonically.

The 35-cell grid runs on :mod:`repro.runner`: each (rate, player) cell
is one :class:`~repro.runner.jobs.SimulationJob`, fanned out over the
configured worker pool and replayed from the result cache when
available. Results are consumed in grid order, so the report is
byte-identical whether the grid ran serially, in parallel, or from
cache.
"""

from __future__ import annotations

from typing import Dict, List

from ..media.tracks import MediaType
from ..qoe.metrics import compute_qoe
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid

SWEEP_KBPS = (300, 500, 700, 1000, 1500, 2500, 4000)

#: The experiment-layer player builds: ExoPlayer-HLS streams the
#: curated H_sub master with A3 listed first (the pinned-audio
#: pathology); Shaka adapts over the full H_all listing.
PLAYER_SPECS: Dict[str, PlayerSpec] = {
    "exoplayer-dash": PlayerSpec("exoplayer-dash"),
    "exoplayer-hls": PlayerSpec(
        "exoplayer-hls", combinations="hsub", audio_order=("A3", "A2", "A1")
    ),
    "shaka": PlayerSpec("shaka", combinations="all"),
    "dashjs": PlayerSpec("dashjs"),
    "recommended": PlayerSpec("recommended", combinations="hsub"),
}


@register("sweep")
def run_sweep() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="sweep",
        title="Fixed-bandwidth sweep across all players",
        params={"links_kbps": SWEEP_KBPS},
        paper_claim=(
            "each Section-3 failure mode has an operating region; the "
            "best-practices player is monotone in the link rate"
        ),
        header=("kbps", "player", "video", "audio", "rebuf s", "QoE"),
    )
    grid = [(kbps, name) for kbps in SWEEP_KBPS for name in PLAYER_SPECS]
    jobs = [
        SimulationJob(player=PLAYER_SPECS[name], trace=TraceSpec.constant(kbps))
        for kbps, name in grid
    ]
    results = run_grid(report, jobs)
    content = ContentSpec().build()

    qoe_series: Dict[str, List[float]] = {}
    video_series: Dict[str, List[float]] = {}
    rebuffer_totals: Dict[str, float] = {}
    for (kbps, name), result in zip(grid, results):
        qoe = compute_qoe(result, content)
        video_kbps = result.time_weighted_bitrate_kbps(MediaType.VIDEO)
        report.rows.append(
            (
                kbps,
                name,
                round(video_kbps),
                round(result.time_weighted_bitrate_kbps(MediaType.AUDIO)),
                round(result.total_rebuffer_s, 1),
                round(qoe.score, 1),
            )
        )
        qoe_series.setdefault(name, []).append(qoe.score)
        video_series.setdefault(name, []).append(video_kbps)
        rebuffer_totals[name] = rebuffer_totals.get(name, 0.0) + (
            result.total_rebuffer_s
        )
        report.series.setdefault(f"qoe:{name}", []).append(
            (float(kbps), qoe.score)
        )

    recommended = qoe_series["recommended"]
    report.check(
        "recommended QoE is monotone non-decreasing in link rate",
        all(b >= a - 1e-6 for a, b in zip(recommended, recommended[1:])),
        detail=str([round(x, 1) for x in recommended]),
    )
    report.check(
        "recommended never rebuffers anywhere in the sweep",
        rebuffer_totals["recommended"] == 0.0,
    )
    report.check(
        "recommended wins or ties the sweep-wide QoE total",
        sum(recommended) >= max(sum(v) for k, v in qoe_series.items()) - 1e-6,
        detail={k: round(sum(v), 1) for k, v in qoe_series.items()}.__repr__(),
    )
    # Shaka's dead zone: up to and including 1 Mbps, no interval ever
    # carries 16 KB (solo downloads need > 1024 kbps), so video quality
    # plateaus at the default-estimate pick; at 1.5 Mbps solo tails pass
    # the filter and the estimator recovers.
    shaka_video = dict(zip(SWEEP_KBPS, video_series["shaka"]))
    report.check(
        "Shaka plateaus at the default-estimate selection through 1 Mbps, "
        "recovering at 1.5 Mbps",
        abs(shaka_video[700] - shaka_video[1000]) < 30.0
        and shaka_video[1500] > shaka_video[1000] + 100.0,
        detail=f"video kbps at 0.7/1/1.5 Mbps: "
        f"{shaka_video[700]:.0f}/{shaka_video[1000]:.0f}/{shaka_video[1500]:.0f}",
    )
    # ExoPlayer-HLS pins A3: audio bitrate is flat across the sweep.
    exo_rows = [r for r in report.rows if r[1] == "exoplayer-hls"]
    audio_values = {r[3] for r in exo_rows}
    report.check(
        "ExoPlayer-HLS audio is pinned across the entire sweep",
        len(audio_values) == 1,
        detail=str(sorted(audio_values)),
    )
    return report
