"""repro.topology — multi-client cohort kernel throughput.

Times the flash-crowd grid every chaos CI run pays for: cohorts of
concurrent sessions max-min fair-sharing edge bottlenecks, with and
without a mid-run edge outage, and one 1000-session outage cell. The timer asserts every session reaches
a verdict and the cohort invariants hold before the timing is
accepted — a kernel that got fast by losing sessions does not count.
"""

import pytest

from repro.chaos import check_cohort
from repro.runner import run_jobs
from repro.topology import (
    CohortJob,
    FaultDomainKind,
    FaultDomainSchedule,
    FaultWindow,
    TopologySpec,
)

_TOPOLOGY = TopologySpec.uniform(4, capacity_kbps=25_000.0)
_OUTAGE = FaultDomainSchedule(
    kinds=(),
    pinned=(
        FaultWindow(FaultDomainKind.EDGE_OUTAGE, "edge-1", 60.0, 100.0),
    ),
)

GRID = [
    CohortJob(
        topology=_TOPOLOGY,
        faults=faults,
        n_sessions=100,
        arrival_burst_s=30.0,
        seed=seed,
        keep_summaries=False,
    )
    for faults in (None, _OUTAGE)
    for seed in (0, 1)
]


def test_bench_cohort_grid(benchmark):
    """4 cells x 100 sessions: the CI cohort-chaos workload shape."""
    outcomes = benchmark(run_jobs, GRID, 1)
    assert len(outcomes) == len(GRID)
    for outcome in outcomes:
        result = outcome.result
        assert sum(result.verdict_counts.values()) == 100
        assert check_cohort(result) == []


#: The flash-crowd cell the end-to-end benchmark scales: 4 edges sized
#: 250 kbps per session, edge-1 dark from t=60 s to t=100 s.
COHORT_1K = CohortJob(
    topology=TopologySpec.uniform(4, capacity_kbps=250_000.0),
    faults=_OUTAGE,
    n_sessions=1000,
    arrival_burst_s=30.0,
    seed=0,
    keep_summaries=False,
)


def test_bench_cohort_1k(benchmark):
    """One 1000-session cell; its scheduler work is pinned exactly, so a
    timing only counts for the same dispatched events."""

    def run():
        kernel = COHORT_1K.kernel()
        return kernel, kernel.run()

    kernel, result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert sum(result.verdict_counts.values()) == 1000
    assert check_cohort(result) == []
    work = kernel.work()
    assert work["requests"] == 111096
    assert work["events"] == 230883  # 2.08 per request
    assert work["by_kind"]["edge_complete"] == 102993
    assert work["by_kind"]["deadline"] == 2752
    assert work["dropped_deadlines"] == 108343


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only"])
