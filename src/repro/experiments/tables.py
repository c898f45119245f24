"""Tables 1-3: the track ladder and the combination bitrate tables."""

from __future__ import annotations

from ..core.combinations import all_combinations, hsub_combinations
from ..media.content import TABLE1_AUDIO, TABLE1_VIDEO
from ..runner import ContentSpec
from .base import ExperimentReport, register

#: Table 2 of the paper, verbatim: combination -> (avg, peak) kbps.
PAPER_TABLE2 = {
    "V1+A1": (239, 253),
    "V1+A2": (307, 318),
    "V2+A1": (374, 395),
    "V2+A2": (442, 460),
    "V1+A3": (495, 510),
    "V2+A3": (630, 652),
    "V3+A1": (490, 775),
    "V3+A2": (558, 840),
    "V3+A3": (746, 1032),
    "V4+A1": (862, 1324),
    "V4+A2": (930, 1389),
    "V4+A3": (1118, 1581),
    "V5+A1": (1549, 2516),
    "V5+A2": (1617, 2581),
    "V5+A3": (1805, 2773),
    "V6+A1": (2856, 4581),
    "V6+A2": (2924, 4646),
    "V6+A3": (3112, 4838),
}

#: Table 3 of the paper, verbatim.
PAPER_TABLE3 = {
    "V1+A1": (239, 253),
    "V2+A1": (374, 395),
    "V3+A2": (558, 840),
    "V4+A2": (930, 1389),
    "V5+A3": (1805, 2773),
    "V6+A3": (3112, 4838),
}


@register("table1")
def run_table1() -> ExperimentReport:
    """Table 1: the drama show's audio and video track ladder."""
    report = ExperimentReport(
        experiment_id="table1",
        title="Video and audio of a YouTube drama show",
        paper_claim=(
            "6 video tracks (144p-1080p) and 3 audio tracks; declared DASH "
            "bitrate equals the average for audio/low video rungs and sits "
            "between average and peak for VBR video rungs"
        ),
        header=("Track", "Avg (Kbps)", "Peak (Kbps)", "Declared (Kbps)", "Detail"),
    )
    content = ContentSpec().build()
    for track in list(content.audio) + list(content.video):
        detail = (
            f"{track.channels} channels, {track.sampling_khz:g} kHz"
            if track.is_audio
            else f"{track.height}p"
        )
        report.rows.append(
            (
                track.track_id,
                f"{track.avg_kbps:g}",
                f"{track.peak_kbps:g}",
                f"{track.declared_kbps:g}",
                detail,
            )
        )
    expected_audio = {t[0]: (t[1], t[2], t[3]) for t in TABLE1_AUDIO}
    expected_video = {t[0]: (t[1], t[2], t[3]) for t in TABLE1_VIDEO}
    ladder_ok = all(
        (track.avg_kbps, track.peak_kbps, track.declared_kbps)
        == expected_audio.get(track.track_id, expected_video.get(track.track_id))
        for track in list(content.audio) + list(content.video)
    )
    report.check("ladder matches Table 1 exactly", ladder_ok)
    # The synthesized chunk tables must realize the published statistics.
    stats_ok = True
    worst = 0.0
    for track in list(content.audio) + list(content.video):
        avg = content.chunk_table.measured_avg_kbps(track.track_id)
        peak = content.chunk_table.measured_peak_kbps(track.track_id)
        avg_err = abs(avg - track.avg_kbps) / track.avg_kbps
        peak_err = abs(peak - track.peak_kbps) / track.peak_kbps
        worst = max(worst, avg_err, peak_err)
        if avg_err > 1e-6 or peak_err > 1e-6:
            stats_ok = False
    report.check(
        "synthesized chunk sizes realize avg and peak bitrates",
        stats_ok,
        detail=f"max relative error {worst:.2e}",
    )
    return report


def _combination_table(
    experiment_id: str, title: str, combos, paper_rows, claim: str
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id=experiment_id,
        title=title,
        paper_claim=claim,
        header=("Combination", "Average Bitrate (Kbps)", "Peak Bitrate (Kbps)"),
    )
    mismatches = []
    for name, avg, peak in combos.rows():
        report.rows.append((name, avg, peak))
        expected = paper_rows.get(name)
        if expected is None:
            mismatches.append(f"{name} not in paper table")
        elif (avg, peak) != expected:
            mismatches.append(f"{name}: got {(avg, peak)}, paper {expected}")
    missing = set(paper_rows) - {row[0] for row in report.rows}
    if missing:
        mismatches.append(f"missing combinations: {sorted(missing)}")
    report.check(
        "every combination bitrate matches the paper's table",
        not mismatches,
        detail="; ".join(mismatches[:3]),
    )
    return report


@register("table2")
def run_table2() -> ExperimentReport:
    """Table 2: all 18 combinations (the H_all manifest)."""
    content = ContentSpec().build()
    return _combination_table(
        "table2",
        "Bitrates of the full set of audio and video combinations (H_all)",
        all_combinations(content),
        PAPER_TABLE2,
        "18 combinations; peak = sum of track peaks, average = sum of track averages",
    )


@register("table3")
def run_table3() -> ExperimentReport:
    """Table 3: the curated 6-combination subset (the H_sub manifest)."""
    content = ContentSpec().build()
    return _combination_table(
        "table3",
        "Bitrates of a subset of audio and video combinations (H_sub)",
        hsub_combinations(content),
        PAPER_TABLE3,
        "V1+A1, V2+A1, V3+A2, V4+A2, V5+A3, V6+A3: high video with high audio",
    )
