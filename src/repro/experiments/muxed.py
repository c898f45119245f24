"""X6 — muxed vs demuxed delivery, end to end.

Section 1 motivates demuxed storage with origin/CDN economics; this
experiment adds the *client-side* comparison the paper implies: the
same rate-adaptation logic streaming (a) demuxed tracks over the
curated combination set and (b) muxed variants of those same
combinations, over the same links.

Expected shape:

* delivery parity — a muxed variant carries the same bytes, so stalls
  and delivered bitrate match closely;
* the structural muxed drawback — every quality adaptation switches the
  embedded audio too, while the demuxed player holds the audio steady
  across most video switches;
* the economics — origin storage and CDN reuse strongly favour demuxed
  (also quantified in ``fig1``).
"""

from __future__ import annotations

from ..core.combinations import hsub_combinations
from ..media.content import TABLE1_VIDEO
from ..media.muxed import muxed_selection_pairs
from ..media.tracks import MediaType
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid

HSPA = TraceSpec.hspa(4)
LINKS = (("1 Mbps", TraceSpec.constant(1000.0)), ("hspa", HSPA))

#: The muxed title's variants are the H_sub pairs; the recommended
#: player adapts over all of them.
MUXED_CONTENT = ContentSpec("drama-muxed")
MUXED_PLAYER = PlayerSpec("recommended", combinations="all")

#: Video adapts freely while the audio stays pinned at A2.
STEADY_AUDIO = PlayerSpec(
    "recommended", combinations=tuple(f"{row[0]}+A2" for row in TABLE1_VIDEO)
)


@register("muxed_vs_demuxed")
def run_muxed_vs_demuxed() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="muxed_vs_demuxed",
        title="Muxed vs demuxed delivery with identical adaptation logic",
        paper_claim=(
            "demuxed mode wins on storage and CDN reuse (Section 1) and, "
            "structurally, lets audio stay stable while video adapts; a "
            "muxed variant switch always drags the audio with it"
        ),
        header=(
            "Link",
            "Mode",
            "Total kbps",
            "Stalls",
            "Rebuffer s",
            "Video switches",
            "Audio switches",
        ),
    )
    jobs = []
    for _, trace in LINKS:
        jobs.append(SimulationJob(trace=trace))
        jobs.append(
            SimulationJob(content=MUXED_CONTENT, player=MUXED_PLAYER, trace=trace)
        )
    jobs.append(SimulationJob(player=STEADY_AUDIO, trace=HSPA))
    results = run_grid(report, jobs)
    content = ContentSpec().build()

    totals = []  # (link, demuxed kbps, muxed kbps)
    audio_switches = []  # (demuxed, muxed)
    video, audio = MediaType.VIDEO, MediaType.AUDIO
    for (label, _), demuxed, muxed in zip(LINKS, results[0:-1:2], results[1:-1:2]):
        # A muxed variant embeds its audio, so its "video" rate is the
        # total and its audio switches show in the implied pairs.
        muxed_audio = [a for _, a in muxed_selection_pairs(muxed)]
        modes = (
            (
                "demuxed",
                demuxed,
                demuxed.time_weighted_bitrate_kbps(video)
                + demuxed.time_weighted_bitrate_kbps(audio),
                demuxed.switch_count(audio),
            ),
            (
                "muxed",
                muxed,
                muxed.time_weighted_bitrate_kbps(video),
                sum(a != b for a, b in zip(muxed_audio, muxed_audio[1:])),
            ),
        )
        for mode, result, total, switches in modes:
            report.rows.append(
                (
                    label,
                    mode,
                    round(total),
                    result.n_stalls,
                    round(result.total_rebuffer_s, 1),
                    result.switch_count(video),
                    switches,
                )
            )
        totals.append((label, modes[0][2], modes[1][2]))
        audio_switches.append((modes[0][3], modes[1][3]))

    report.check(
        "delivery parity: delivered bitrate within 15% between modes",
        all(d * 0.85 <= m <= d * 1.15 for _, d, m in totals),
        detail=str([(label, round(d), round(m)) for label, d, m in totals]),
    )
    # -- the flexibility gap: re-pairing without new storage --------------
    # A demuxed client can pin the audio (say A2, e.g. headphones where
    # A3's surround mix is wasted) while video adapts freely — zero new
    # origin objects. A muxed origin can only offer pairings it stored:
    # serving V1..V6 each with A2 requires six new muxed variants.
    steady_result = results[-1]
    hsub_names = set(hsub_combinations(content).names)
    extra_variants = [
        pair
        for pair in STEADY_AUDIO.combination_set(content)
        if pair.name not in hsub_names
    ]
    extra_bits = sum(
        content.chunk_table.total_bits(pair.video.track_id)
        + content.chunk_table.total_bits(pair.audio.track_id)
        for pair in extra_variants
    )
    report.note(
        "steady-audio policy (video adapts, audio pinned at A2): "
        f"{steady_result.switch_count(video)} video switches, "
        f"{steady_result.switch_count(audio)} audio switches, "
        f"{steady_result.n_stalls} stalls — free under demuxed storage; a "
        f"muxed origin would store {len(extra_variants)} extra variants "
        f"({extra_bits / 1e9:.2f} Gb) to offer the same pairings"
    )
    report.check(
        "demuxed re-pairing is free: steady-audio policy runs with zero "
        "audio switches while video still adapts",
        steady_result.switch_count(audio) == 0
        and steady_result.switch_count(video) > 0
        and steady_result.n_stalls == 0,
    )
    report.check(
        "matching that policy in muxed mode costs new origin objects",
        len(extra_variants) >= 4 and extra_bits > 0,
        detail=f"{len(extra_variants)} variants, {extra_bits / 1e9:.2f} Gb",
    )
    report.check(
        "with identical combination sets the two modes switch identically "
        "(the pairing, not the packaging, drives switching)",
        all(d == m for d, m in audio_switches),
    )
    report.check(
        "storage economics favour demuxed (from Section 1 accounting)",
        content.storage_bits_muxed() > content.storage_bits_demuxed() * 2,
    )
    return report
