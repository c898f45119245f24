"""X4 — four implementations of the Section-4 practices, compared.

The paper's best practices are policy-level: they do not prescribe one
algorithm. This experiment runs four ABR algorithms that all honour the
practices (joint decisions over allowed combinations, audio adaptation,
chunk-balanced prefetch) but differ in their control law:

* ``recommended`` — rate hysteresis (the library's reference player);
* ``chunk-aware`` — rate hysteresis priced with true per-chunk sizes
  (the manifests of Section 4.1 make these available);
* ``mpc`` — horizon optimization of the QoE objective;
* ``bola-joint`` — Lyapunov buffer control over the combination ladder.

All four must satisfy the practice-level invariants on every profile
(conformance, balance, no undesirable pairs); their QoE spread shows
how much head-room remains *above* the practices themselves.
"""

from __future__ import annotations

from ..core.combinations import hsub_combinations
from ..media.tracks import MediaType
from ..qoe.metrics import compute_qoe
from ..runner import ContentSpec, PlayerSpec, SimulationJob, TraceSpec
from .base import ExperimentReport, register, run_grid

#: The four practice-compliant algorithms, each over H_sub.
ALGORITHMS = ("recommended", "chunk-aware", "mpc", "bola-joint")

PROFILES = {
    "700 kbps": TraceSpec.constant(700.0),
    "2 Mbps": TraceSpec.constant(2000.0),
    "hspa": TraceSpec.hspa(5),
}


@register("algorithms")
def run_algorithms() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="algorithms",
        title="Four practice-compliant ABR algorithms",
        paper_claim=(
            "the Section-4 practices are algorithm-agnostic: rate-based, "
            "chunk-aware, MPC and BOLA controllers all uphold them"
        ),
        header=(
            "Profile",
            "Algorithm",
            "Video kbps",
            "Audio kbps",
            "Rebuffer s",
            "Switches",
            "QoE",
        ),
    )
    grid = [(profile, algo) for profile in PROFILES for algo in ALGORITHMS]
    results = run_grid(
        report,
        [
            SimulationJob(player=PlayerSpec(algo), trace=PROFILES[profile])
            for profile, algo in grid
        ],
    )
    content = ContentSpec().build()
    allowed = set(hsub_combinations(content).names)
    violations = []
    imbalance_violations = []
    for (profile_name, algo_name), result in zip(grid, results):
        qoe = compute_qoe(result, content)
        report.rows.append(
            (
                profile_name,
                algo_name,
                round(result.time_weighted_bitrate_kbps(MediaType.VIDEO)),
                round(result.time_weighted_bitrate_kbps(MediaType.AUDIO)),
                round(result.total_rebuffer_s, 1),
                qoe.video_switches + qoe.audio_switches,
                round(qoe.score, 1),
            )
        )
        if not set(result.combination_names()) <= allowed:
            violations.append((profile_name, algo_name))
        if result.max_buffer_imbalance_s() > content.chunk_duration_s + 1e-6:
            imbalance_violations.append((profile_name, algo_name))
        if qoe.undesirable_chunks:
            violations.append((profile_name, algo_name, "undesirable"))

    report.check(
        "every algorithm selects only allowed combinations on every profile",
        not violations,
        detail=str(violations),
    )
    report.check(
        "every algorithm keeps buffers balanced to one chunk",
        not imbalance_violations,
        detail=str(imbalance_violations),
    )
    report.check(
        "no algorithm rebuffers on the steady profiles",
        all(
            row[4] == 0
            for row in report.rows
            if row[0] in ("700 kbps", "2 Mbps")
        ),
    )
    return report
