"""X5 — the HSPA trace-corpus study across all players."""

from repro.experiments.corpus import run_corpus


def test_bench_corpus(benchmark):
    benchmark.pedantic(run_corpus, rounds=3, iterations=1)
    # The fidelity assertion runs once outside the timed loop.
    report = run_corpus()
    assert report.passed
