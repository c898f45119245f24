"""Cohort grids through the hardened runner: determinism + resume.

The contracts under test extend the ISSUE-4 chaos guarantees to
cohort-level cells: a grid of :class:`CohortJob` cells produces
fingerprint-identical results under ``workers=1`` and ``workers=N``, a
SIGKILLed driver resumes from the checkpoint recomputing only the
incomplete cells, and cohort results ride the same content-addressed
cache as single-session jobs (pickle round-trip included).
"""

import os
import signal
import subprocess
import sys
import time

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import check_outcomes
from repro.net.resilience import FailoverPolicy
from repro.runner import GridRunner, ResultCache, run_jobs, runner_options
from repro.topology import (
    CohortJob,
    FaultDomainKind,
    FaultDomainSchedule,
    FaultWindow,
    TopologySpec,
)


def cohort_grid(n=4, n_sessions=12, seed0=0):
    """Small heterogeneous cohort cells: clean and outage-stricken."""
    topology = TopologySpec.uniform(2, capacity_kbps=20_000.0)
    outage = FaultDomainSchedule(
        kinds=(),
        pinned=(
            FaultWindow(FaultDomainKind.EDGE_OUTAGE, "edge-1", 40.0, 70.0),
        ),
    )
    return [
        CohortJob(
            topology=topology,
            faults=outage if i % 2 else None,
            n_sessions=n_sessions,
            arrival_burst_s=10.0,
            failover=FailoverPolicy(),
            seed=seed0 + i // 2,
        )
        for i in range(n)
    ]


def fingerprints(outcomes):
    return [o.result.fingerprint() for o in outcomes]


class TestCohortGridDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_parallel_matches_serial_byte_identically(self, seed):
        jobs = cohort_grid(4, seed0=seed)
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=2)
        assert all(o.ok for o in serial) and all(o.ok for o in parallel)
        assert [o.job for o in parallel] == jobs  # input order preserved
        assert fingerprints(parallel) == fingerprints(serial)
        # Cohort-level invariants hold for every cell (check_outcomes
        # dispatches on the result type).
        assert check_outcomes(parallel) == []

    def test_cohort_results_survive_the_cache(self, tmp_path):
        jobs = cohort_grid(2)
        cache = ResultCache(str(tmp_path))
        first = run_jobs(jobs, workers=1, cache=cache)
        assert cache.stats.misses == 2
        warm = run_jobs(jobs, workers=1, cache=ResultCache(str(tmp_path)))
        assert all(o.cached for o in warm)
        assert fingerprints(warm) == fingerprints(first)

    def test_cohort_result_pickle_round_trips(self):
        outcome = run_jobs(cohort_grid(1), workers=1)[0]
        clone = pickle.loads(pickle.dumps(outcome.result))
        assert clone.fingerprint() == outcome.result.fingerprint()

    def test_grid_runner_mixes_into_reports(self, tmp_path):
        with runner_options(workers=2, cache_dir=str(tmp_path)):
            runner = GridRunner()
        jobs = cohort_grid(2)
        results = runner.results(jobs)
        assert len(results) == 2
        assert all(
            sum(r.verdict_counts.values()) == r.n_sessions for r in results
        )


class TestCohortCheckpointResume:
    def test_sigkilled_driver_resumes_with_zero_recomputation(
        self, tmp_path
    ):
        """The CI cohort-chaos scenario: SIGKILL the driver mid-grid,
        resume with workers=2, assert every checkpointed cohort cell is
        a cache hit and the rows match the clean serial run."""
        cache_dir = str(tmp_path / "cache")
        n_jobs = 6
        script = (
            "from repro.runner import run_jobs, ResultCache\n"
            "import test_topology_grid\n"
            f"jobs = test_topology_grid.cohort_grid({n_jobs})\n"
            f"run_jobs(jobs, workers=1, cache=ResultCache({cache_dir!r}))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, os.path.dirname(__file__), env.get("PYTHONPATH", "")]
        )
        driver = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            probe = ResultCache(cache_dir)
            deadline = time.monotonic() + 120.0
            while probe.entry_count() < 2 and time.monotonic() < deadline:
                if driver.poll() is not None:
                    break
                time.sleep(0.01)
            driver.send_signal(signal.SIGKILL)
        finally:
            driver.wait(timeout=30)

        completed = ResultCache(cache_dir).entry_count()
        assert completed >= 2  # the checkpoint stream got that far

        jobs = cohort_grid(n_jobs)
        resumed_cache = ResultCache(cache_dir)
        outcomes = run_jobs(jobs, workers=2, cache=resumed_cache)
        assert all(o.ok for o in outcomes)
        assert resumed_cache.stats.hits == completed
        assert resumed_cache.stats.misses == n_jobs - completed
        assert fingerprints(outcomes) == fingerprints(
            run_jobs(jobs, workers=1)
        )
