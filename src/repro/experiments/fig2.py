"""Fig. 2 — ExoPlayer under DASH: predetermined combinations exclude
better choices.

Two experiments from Section 3.2, both with the Table-1 video tracks
and a 900 kbps fixed link:

* **Fig. 2(a)** — low-bitrate audio set B (32/64/128 kbps). ExoPlayer
  selects V3+B2 although V3+B3 (601 kbps declared) also fits within the
  link; V3+B3 simply is not among the predetermined combinations.
* **Fig. 2(b)** — high-bitrate audio set C (196/384/768 kbps).
  ExoPlayer selects V2+C2 (very low video, high audio) although V3+C1
  (473+196 = 669 kbps) would give better video at lower audio.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from ..media.tracks import MediaType
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from ..sim.records import SessionResult
from .base import ExperimentReport, register, run_grid

BANDWIDTH_KBPS = 900.0
EXOPLAYER_DASH = PlayerSpec("exoplayer-dash")


def _run(report: ExperimentReport, audio_set: str) -> Tuple[List[str], SessionResult]:
    """Predetermined combinations and the session for one audio set."""
    content = ContentSpec(f"drama-{audio_set}")
    job = SimulationJob(content, EXOPLAYER_DASH, TraceSpec.constant(BANDWIDTH_KBPS))
    (result,) = run_grid(report, [job])
    # Building the player packages the MPD; no simulation is needed.
    return EXOPLAYER_DASH.build(content.build()).combination_names, result


def _steady_state_combo(result: SessionResult) -> str:
    """The combination the player settles on (mode over the last half)."""
    names = result.combination_names()
    tail = names[len(names) // 2 :]
    return Counter(tail).most_common(1)[0][0] if tail else ""


def _series_from(result: SessionResult, content_chunk_s: float) -> dict:
    return {
        f"{medium.value}_kbps": [
            (r.completed_at, r.size_bits / content_chunk_s / 1000.0)
            for r in result.downloads_of(medium)
        ]
        for medium in (MediaType.VIDEO, MediaType.AUDIO)
    }


@register("fig2a")
def run_fig2a() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig2a",
        title="ExoPlayer DASH, low-bitrate audio set B, 900 kbps link",
        params={"bandwidth_kbps": BANDWIDTH_KBPS, "audio": "B1/B2/B3 = 32/64/128"},
        paper_claim=(
            "V3+B2 is selected, while V3+B3 would be a better choice (601 kbps "
            "declared, below the link); V3+B3 is not in the predetermined set"
        ),
    )
    combos, result = _run(report, "b")
    report.note(f"predetermined combinations: {combos}")
    report.check(
        "predetermined combinations match Section 3.2",
        combos
        == ["V1+B1", "V2+B1", "V2+B2", "V3+B2", "V4+B2", "V5+B2", "V5+B3", "V6+B3"],
    )
    steady = _steady_state_combo(result)
    report.note(f"steady-state selection: {steady}")
    report.check("steady-state selection is V3+B2", steady == "V3+B2", detail=steady)
    report.check(
        "the better V3+B3 is excluded by predetermination", "V3+B3" not in combos
    )
    report.check(
        "V3+B3 would fit the link (473+128 <= 900)",
        473 + 128 <= BANDWIDTH_KBPS,
    )
    report.check("no stalls at a fixed 900 kbps link", result.n_stalls == 0)
    report.series = _series_from(result, 5.0)
    report.timelines["combination"] = [
        (r.completed_at, f"{result.track_for(MediaType.VIDEO, r.chunk_index)}+"
         f"{result.track_for(MediaType.AUDIO, r.chunk_index)}")
        for r in result.downloads_of(MediaType.AUDIO)
    ]
    return report


@register("fig2b")
def run_fig2b() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig2b",
        title="ExoPlayer DASH, high-bitrate audio set C, 900 kbps link",
        params={"bandwidth_kbps": BANDWIDTH_KBPS, "audio": "C1/C2/C3 = 196/384/768"},
        paper_claim=(
            "ExoPlayer selects V2+C2 (very low video quality, high audio); "
            "V3+C1 (473+196) would be better but is not predetermined"
        ),
    )
    combos, result = _run(report, "c")
    report.note(f"predetermined combinations: {combos}")
    report.check(
        "predetermined combinations match Section 3.2",
        combos
        == ["V1+C1", "V2+C1", "V2+C2", "V3+C2", "V4+C2", "V5+C2", "V5+C3", "V6+C3"],
    )
    steady = _steady_state_combo(result)
    report.note(f"steady-state selection: {steady}")
    report.check("steady-state selection is V2+C2", steady == "V2+C2", detail=steady)
    report.check(
        "the better V3+C1 is excluded by predetermination", "V3+C1" not in combos
    )
    report.series = _series_from(result, 5.0)
    return report
