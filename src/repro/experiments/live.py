"""X7 — demuxed A/V at the live edge: the latency-quality trade-off.

Live delivery bounds the client's buffer by what the packager has
published, which reshapes every demuxed finding: buffers cannot deepen,
so buffer-based up-switch hysteresis (tuned for VOD) never fires, and a
stall cannot be ridden out.

The experiment streams the drama show in live mode (2 s packaging
offset, 5 s chunks) at 1 Mbps, joining the stream at increasing
distances behind the live edge — implemented with the startup
threshold, exactly how HLS clients choose their start position ("start
3 target durations behind the live edge"). Expected shape:

* joining right at the edge (1 chunk) pins quality at V1: the decision-
  time buffer floor (~startup − offset ≈ 1 s) can never cover a higher
  rung's download time, so any up-switch stalls immediately;
* each extra chunk of join-behind latency buys quality headroom;
* at the HLS-recommended 3 target durations the player reaches the same
  V3+A2 steady state as VOD at this link rate, with zero stalls;
* buffers stay bounded by the published frontier throughout (structural
  live property).
"""

from __future__ import annotations

from collections import Counter

from ..media.content import DEFAULT_CHUNK_DURATION_S
from ..media.tracks import MediaType
from ..runner import ContentSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid

LIVE_OFFSET_S = 2.0
LINK_KBPS = 1000.0
JOIN_CHUNKS = (1, 2, 3, 4)


@register("live")
def run_live() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="live",
        title="Live edge: join distance vs quality (1 Mbps, 2 s offset)",
        params={"live_offset_s": LIVE_OFFSET_S, "bandwidth_kbps": LINK_KBPS},
        paper_claim=(
            "live bounds buffers by the published frontier: joining at the "
            "edge pins quality, joining 3 target durations behind recovers "
            "the VOD steady state (the HLS authoring guidance, quantified)"
        ),
        header=(
            "Join behind (chunks)",
            "Latency s",
            "Stalls",
            "Rebuffer s",
            "Video kbps",
            "Steady combination",
        ),
    )
    chunk_s = DEFAULT_CHUNK_DURATION_S
    results = run_grid(
        report,
        [
            SimulationJob(
                trace=TraceSpec.constant(LINK_KBPS),
                live_offset_s=LIVE_OFFSET_S,
                startup_threshold_s=join_chunks * chunk_s,
            )
            for join_chunks in JOIN_CHUNKS
        ],
    )
    content = ContentSpec().build()

    latency, video, stalls, steady = {}, {}, {}, {}
    for join, result in zip(JOIN_CHUNKS, results):
        latency[join] = result.ended_at_s - content.duration_s
        video[join] = result.time_weighted_bitrate_kbps(MediaType.VIDEO)
        stalls[join] = result.n_stalls
        names = result.combination_names()
        steady[join] = Counter(names[len(names) // 2 :]).most_common(1)[0][0]
        report.rows.append(
            (
                join,
                round(latency[join], 2),
                stalls[join],
                round(result.total_rebuffer_s, 1),
                round(video[join]),
                steady[join],
            )
        )
        # Structural live property: nothing is fetched before publication.
        for record in result.downloads:
            published = record.chunk_index * chunk_s + LIVE_OFFSET_S
            assert record.started_at >= published - 1e-9

    report.check(
        "joining at the edge pins quality at the lowest combination",
        steady[1] == "V1+A1",
        detail=steady[1],
    )
    report.check(
        "three target durations behind recovers the VOD steady state "
        "(V3+A2 at this link) with zero stalls",
        steady[3] == "V3+A2" and stalls[3] == 0,
        detail=f"{steady[3]}, {stalls[3]} stalls",
    )
    report.check(
        "quality is monotone in join distance",
        all(video[a] <= video[a + 1] + 1e-6 for a in (1, 2, 3)),
        detail=str({k: round(v) for k, v in video.items()}),
    )
    report.check(
        "latency is monotone in join distance (the trade-off is real)",
        all(latency[a] <= latency[a + 1] + 1e-6 for a in (1, 2, 3)),
        detail=str({k: round(v, 1) for k, v in latency.items()}),
    )
    report.note(
        "the decision-time buffer floor at the edge is startup-offset "
        "(~1 s here), below every higher rung's chunk download time — "
        "which is why edge-joined sessions cannot up-switch without "
        "growing their latency through stalls"
    )
    return report
