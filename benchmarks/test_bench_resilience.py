"""X8 — transient-failure resilience across players."""

from repro.experiments.resilience import run_resilience


def test_bench_resilience(benchmark):
    benchmark.pedantic(run_resilience, rounds=3, iterations=1)
    report = run_resilience()
    assert report.passed
