"""Fig. 4 — Shaka Player: bandwidth mis-estimation under demuxed A/V.

* **Fig. 4(a)** — H_all, constant 1 Mbps. "the bandwidth estimated by
  Shaka is a constant 500 Kbps, only half of the actual specified
  network bandwidth. As a result, V2+A2 ... is selected." Mechanism:
  concurrent audio/video each see ~500 kbps; 500 kbps x 0.125 s ≈
  7.8 KB < 16 KB, and even a solo download at 1 Mbps yields only
  ~15.6 KB per interval — no sample ever passes the filter, so the
  500 kbps *default* estimate is used throughout.
* **Fig. 4(b)** — dynamic profile averaging 600 kbps. "Shaka first
  underestimates the network bandwidth, and then overestimates ...
  the selected video and audio tracks are initially low (V2+A2), and
  then overly high (V3+A3), leading to a total rebuffering of 39 s."
"""

from __future__ import annotations

from ..players.estimators import ShakaEstimator
from ..runner import PlayerSpec, SimulationJob, TraceSpec
from ..sim.records import SessionResult
from .base import ExperimentReport, register, run_grid
from .traces import fig4b_spec


def _run(report: ExperimentReport, trace: TraceSpec) -> SessionResult:
    """Shaka over the H_all master (all 18 combinations)."""
    shaka = PlayerSpec("shaka", combinations="all")
    (result,) = run_grid(report, [SimulationJob(player=shaka, trace=trace)])
    return result


def sample_filter_counts(result: SessionResult) -> ShakaEstimator:
    """A fresh Shaka estimator fed the session's downloads in order: its
    filter counts are the live player's, read off a result alone."""
    estimator = ShakaEstimator()
    for record in result.downloads:
        estimator.observe_download(record)
    return estimator


@register("fig4a")
def run_fig4a() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig4a",
        title="Shaka HLS (H_all), constant 1 Mbps link",
        params={"manifest": "H_all", "bandwidth_kbps": 1000},
        paper_claim=(
            "estimated bandwidth is a constant 500 kbps (half the link); "
            "V2+A2 (460 kbps aggregate peak) is selected"
        ),
    )
    result = _run(report, TraceSpec.constant(1000.0))
    samples = sample_filter_counts(result)

    estimates = [e.kbps for e in result.estimate_timeline]
    report.note(
        f"estimate range: [{min(estimates):.0f}, {max(estimates):.0f}] kbps; "
        f"valid samples: {samples.valid_samples}, "
        f"discarded: {samples.discarded_samples}"
    )
    report.check(
        "no throughput sample ever passes the 16 KB filter",
        samples.valid_samples == 0,
    )
    report.check(
        "estimate pinned at the 500 kbps default",
        min(estimates) == max(estimates) == 500.0,
    )
    combos = set(result.combination_names())
    report.note(f"combinations used: {sorted(combos)}")
    report.check(
        "V2+A2 selected throughout (after any startup chunk)",
        combos <= {"V2+A2", "V1+A1"} and "V2+A2" in combos,
        detail=str(sorted(combos)),
    )
    report.series["estimate_kbps"] = [(e.t, e.kbps) for e in result.estimate_timeline]
    return report


@register("fig4b")
def run_fig4b() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="fig4b",
        title="Shaka HLS (H_all), dynamic link averaging 600 kbps",
        params={"manifest": "H_all", "avg_kbps": 600, "profile": "150/1050 kbps, 30 s"},
        paper_claim=(
            "first underestimates, then overestimates (around 50 s); tracks "
            "initially low (V2+A2) then overly high (V3+A3); ~39 s rebuffering"
        ),
    )
    result = _run(report, fig4b_spec())

    estimates = result.estimate_timeline
    early = [e.kbps for e in estimates if e.t < 30]
    late = [e.kbps for e in estimates if e.t >= 45]
    report.note(
        f"early estimates (<30 s): {min(early):.0f}-{max(early):.0f} kbps; "
        f"late (>=45 s): {min(late):.0f}-{max(late):.0f} kbps; link avg 600"
    )
    report.check(
        "initial underestimate (default 500 < 600 avg)",
        max(early) <= 500.0,
        detail=f"max early {max(early):.0f}",
    )
    report.check(
        "later overestimate (estimate well above the 600 kbps average)",
        max(late) > 900.0,
        detail=f"max late {max(late):.0f}",
    )
    combos = result.combination_names()
    report.note(f"combination sequence (distinct): {result.distinct_combinations()}")
    report.check("starts low at V2+A2", "V2+A2" in combos[:6])
    report.check("later selects the overly high V3+A3", "V3+A3" in combos)
    report.check(
        "substantial rebuffering follows (paper: 39 s)",
        result.total_rebuffer_s >= 15.0,
        detail=f"{result.total_rebuffer_s:.1f} s over {result.n_stalls} stalls",
    )
    report.series["estimate_kbps"] = [(e.t, e.kbps) for e in estimates]
    report.series["video_buffer_s"] = list(zip(result.buffer_t, result.buffer_v))
    return report
