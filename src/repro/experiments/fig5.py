"""Fig. 5 — dash.js: fully independent A/V adaptation.

Section 3.4, fixed 700 kbps link: "the selected video and audio
combinations includes V2+A3, V2+A2, V2+A3 and V3+A3. Some of these
combinations are clearly undesirable, e.g., V2+A3. The combination
V3+A2 fits the network bandwidth profile ... We further see that the
buffer levels for audio and video can be unbalanced."
"""

from __future__ import annotations

from ..media.tracks import MediaType
from ..qoe.metrics import is_undesirable
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid

BANDWIDTH_KBPS = 700.0


@register("fig5")
def run_fig5() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig5",
        title="dash.js DASH, fixed 700 kbps link",
        params={"bandwidth_kbps": BANDWIDTH_KBPS},
        paper_claim=(
            "combinations include V2+A3, V2+A2 and V3+A3; V2+A3 is clearly "
            "undesirable while V3+A2 (lower aggregate) is never used; audio "
            "and video buffer levels become unbalanced"
        ),
    )
    job = SimulationJob(
        player=PlayerSpec("dashjs"), trace=TraceSpec.constant(BANDWIDTH_KBPS)
    )
    (result,) = run_grid(report, [job])
    content = ContentSpec().build()

    combos = set(result.combination_names())
    report.note(f"combinations used: {sorted(combos)}")
    report.check(
        "the paper's combinations appear (V2+A2, V2+A3, V3+A3)",
        {"V2+A2", "V2+A3", "V3+A3"} <= combos,
        detail=str(sorted(combos)),
    )
    report.check(
        "the undesirable V2+A3 is selected",
        "V2+A3" in combos and is_undesirable(content, "V2", "A3"),
    )
    report.check(
        "the preferable V3+A2 is never selected "
        "(independent adaptation cannot coordinate into it)",
        "V3+A2" not in combos,
    )
    report.check(
        "V3+A2 would fit the link better than V2+A3 "
        "(declared 669 vs 630, avg 558 vs 630)",
        (473 + 196) <= BANDWIDTH_KBPS and (558 < 630),
    )
    imbalance = result.max_buffer_imbalance_s()
    report.note(
        f"buffer imbalance: max {imbalance:.1f} s, "
        f"mean {result.mean_buffer_imbalance_s():.1f} s"
    )
    report.check(
        "audio and video buffers become substantially unbalanced",
        imbalance >= 10.0,
        detail=f"max {imbalance:.1f} s",
    )
    report.check(
        "video track fluctuates (independent per-medium DYNAMIC)",
        result.switch_count(MediaType.VIDEO) >= 5,
        detail=f"{result.switch_count(MediaType.VIDEO)} video switches",
    )
    report.series["video_buffer_s"] = list(zip(result.buffer_t, result.buffer_v))
    report.series["audio_buffer_s"] = list(zip(result.buffer_t, result.buffer_a))
    report.timelines["video"] = [
        (r.completed_at, r.track_id) for r in result.downloads_of(MediaType.VIDEO)
    ]
    report.timelines["audio"] = [
        (r.completed_at, r.track_id) for r in result.downloads_of(MediaType.AUDIO)
    ]
    return report
