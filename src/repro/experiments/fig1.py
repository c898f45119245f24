"""Fig. 1 — ABR streaming of demuxed audio and video (structural demo).

Fig. 1 is a schematic, so this experiment demonstrates the structure it
depicts plus the two Section-1 advantages of demuxed storage:

1. a client selects, per chunk position, one chunk from the video
   adaptation set and one from the audio set (shown with a short
   simulated session's per-position picks);
2. origin storage is M + N tracks instead of M x N muxed tracks;
3. CDN cache hits improve: user B reusing user A's cached video chunks
   while changing only the audio track hits the cache on all video
   bytes in demuxed mode and on nothing in muxed mode.
"""

from __future__ import annotations

from ..net.server import CdnCache, OriginServer
from ..runner import ContentSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid


@register("fig1")
def run_fig1() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig1",
        title="Demuxed ABR streaming: per-position A/V selection, storage, CDN",
        paper_claim=(
            "demuxed mode stores M+N tracks instead of MxN and increases CDN "
            "cache hits when users differ only in audio track"
        ),
        header=("Mode", "Origin storage (Gb)", "User-B video cache hit ratio"),
    )
    # 1. Per-position selection over demuxed tracks.
    (result,) = run_grid(
        report, [SimulationJob(trace=TraceSpec.constant(1500.0))]
    )
    content = ContentSpec().build()
    picks = result.selected_combinations()
    report.note(
        "per-position (video, audio) picks, first 8: "
        + ", ".join(f"{v}+{a}" for _, v, a in picks[:8])
    )
    report.check(
        "every position pairs exactly one video with one audio chunk",
        all(v is not None and a is not None for _, v, a in picks),
    )

    # 2/3. Storage and cache behaviour, demuxed vs muxed.
    m, n = len(content.video), len(content.audio)
    rows = {}
    for muxed in (False, True):
        origin = OriginServer(content, muxed=muxed)
        cache = CdnCache(origin, capacity_bits=origin.storage_bits())
        # User A watches V5+A3; user B then watches V5+A1.
        for index in range(content.n_chunks):
            cache.fetch_position("V5", "A3", index)
        before = cache.stats.hits
        video_bits_hit = 0.0
        video_bits_total = 0.0
        for index in range(content.n_chunks):
            stats = cache.fetch_position("V5", "A1", index)
            video_bits_total += stats["bits"]
            video_bits_hit += stats["hit_bits"]
        hit_ratio = video_bits_hit / video_bits_total
        mode = "muxed" if muxed else "demuxed"
        rows[mode] = (origin.storage_bits() / 1e9, hit_ratio)
        report.rows.append((mode, f"{rows[mode][0]:.2f}", f"{rows[mode][1]:.2%}"))

    demuxed_storage, demuxed_hits = rows["demuxed"]
    muxed_storage, muxed_hits = rows["muxed"]
    report.check(
        f"demuxed stores M+N={m + n} tracks vs MxN={m * n} muxed "
        "(storage ratio matches)",
        muxed_storage > demuxed_storage * 1.5,
        detail=f"{muxed_storage:.2f} Gb vs {demuxed_storage:.2f} Gb",
    )
    report.check(
        "user B's shared video bytes hit the CDN cache only in demuxed mode",
        demuxed_hits > 0.8 and muxed_hits == 0.0,
        detail=f"demuxed {demuxed_hits:.0%}, muxed {muxed_hits:.0%}",
    )
    return report
