"""Fig. 3 — ExoPlayer under HLS: fixed audio track, stalls, manifest
non-conformance.

Section 3.2's two HLS experiments over the curated H_sub playlist:

* **Fig. 3(a)/(b)** — A3 (highest audio) listed first; time-varying
  link averaging 600 kbps. ExoPlayer "selects A3 throughout the
  playback, resulting in 5 stall events and 36.9 seconds of
  rebuffering", and "selects some combinations (e.g., V1+A3) that are
  not in the specified subset".
* **second experiment** — A1 (lowest audio) listed first; fixed 5 Mbps
  link. "ExoPlayer selects A1 throughout the playback despite plenty of
  available network bandwidth."
"""

from __future__ import annotations

from ..core.combinations import hsub_combinations
from ..media.tracks import MediaType
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid
from .traces import fig3_spec


def _run(report: ExperimentReport, audio_order, trace: TraceSpec):
    """ExoPlayer-HLS over the H_sub master listing ``audio_order``."""
    exo = PlayerSpec("exoplayer-hls", audio_order=audio_order)
    (result,) = run_grid(report, [SimulationJob(player=exo, trace=trace)])
    return result


@register("fig3")
def run_fig3() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig3",
        title="ExoPlayer HLS (H_sub), A3 listed first, varying link avg 600 kbps",
        params={"manifest": "H_sub", "first_audio": "A3", "avg_kbps": 600},
        paper_claim=(
            "A3 selected throughout; 5 stall events, 36.9 s rebuffering; "
            "combinations outside the H_sub subset (e.g. V1+A3) get used"
        ),
    )
    result = _run(report, ("A3", "A2", "A1"), fig3_spec())

    audio_tracks = set(result.track_usage(MediaType.AUDIO))
    report.note(f"audio tracks used: {sorted(audio_tracks)}")
    report.check("audio is pinned to A3 for the whole session", audio_tracks == {"A3"})
    report.check(
        "playback stalls repeatedly (paper: 5 events)",
        result.n_stalls >= 2,
        detail=f"{result.n_stalls} stalls",
    )
    report.check(
        "rebuffering is substantial (paper: 36.9 s)",
        result.total_rebuffer_s >= 10.0,
        detail=f"{result.total_rebuffer_s:.1f} s",
    )
    used = set(result.combination_names())
    hsub = hsub_combinations(ContentSpec().build())
    outside = sorted(used - set(hsub.names))
    report.note(f"combinations used: {sorted(used)}; outside H_sub: {outside}")
    report.check(
        "selections disobey the H_sub subset", bool(outside), detail=str(outside)
    )
    report.series["video_buffer_s"] = list(zip(result.buffer_t, result.buffer_v))
    report.series["audio_buffer_s"] = list(zip(result.buffer_t, result.buffer_a))
    report.timelines["stalls"] = [
        (stall.start_s, f"stall {stall.duration_s:.1f}s") for stall in result.stalls
    ]
    return report


@register("fig3_a1_first")
def run_fig3_a1_first() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig3_a1_first",
        title="ExoPlayer HLS (H_sub), A1 listed first, fixed 5 Mbps link",
        params={"manifest": "H_sub", "first_audio": "A1", "bandwidth_kbps": 5000},
        paper_claim=(
            "ExoPlayer selects A1 throughout the playback despite plenty of "
            "available network bandwidth, leading to unnecessarily poor audio QoE"
        ),
    )
    result = _run(report, ("A1", "A2", "A3"), TraceSpec.constant(5000.0))

    audio_tracks = set(result.track_usage(MediaType.AUDIO))
    report.note(f"audio tracks used: {sorted(audio_tracks)}")
    report.check("audio is pinned to A1 despite a 5 Mbps link", audio_tracks == {"A1"})
    video_usage = result.track_usage(MediaType.VIDEO)
    top_video = max(video_usage, key=video_usage.get)
    report.note(f"video usage: {video_usage}")
    report.check(
        "video adapts to a high rung (V5/V6) at 5 Mbps",
        top_video in ("V5", "V6"),
        detail=top_video,
    )
    report.check("no stalls at 5 Mbps", result.n_stalls == 0)
    return report
