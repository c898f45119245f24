"""repro.chaos + the hardened runner engine.

The contracts under test are the ISSUE-4 guarantees: a grid run under
seeded chaos (worker SIGKILL, hang past deadline, mid-job raise, torn
cache entry) completes with zero lost jobs and rows *byte-identical*
to the clean serial run; an interrupted sweep resumes recomputing only
incomplete cells; jobs that exhaust retries surface as failed outcomes
instead of aborting the grid; and every chaos-surviving session still
obeys the physical invariants (byte ledger, non-negative buffers,
terminal verdict).
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.chaos import (
    ChaosError,
    ChaosSchedule,
    FaultKind,
    check_outcomes,
    check_session,
)
from repro.media.tracks import MediaType
from repro.runner import (
    EngineStats,
    GridRunner,
    PlayerSpec,
    ResultCache,
    SimulationJob,
    TraceSpec,
    run_jobs,
    runner_options,
)
from repro.sim.records import (
    DownloadRecord,
    SessionResult,
    StallEvent,
)

#: Pool-breaking-but-fast kinds: everything except HANG, which needs a
#: watchdog deadline and costs ~timeout seconds per injection.
FAST_KINDS = (FaultKind.KILL, FaultKind.RAISE, FaultKind.TRUNCATE)


def cheap_grid(n=4):
    """Heterogeneous one-second-ish jobs across link rates."""
    rates = (700.0, 1000.0, 1500.0, 2000.0, 2500.0, 900.0, 1200.0, 1800.0)
    return [
        SimulationJob(
            player=PlayerSpec("recommended"),
            trace=TraceSpec.constant(rates[i % len(rates)]),
            seed=i // len(rates),
        )
        for i in range(n)
    ]


def fingerprints(outcomes):
    return [o.result.to_dict() for o in outcomes]


class TestChaosSchedule:
    def test_fault_plan_is_deterministic_and_picklable(self):
        a = ChaosSchedule(seed=7)
        b = pickle.loads(pickle.dumps(ChaosSchedule(seed=7)))
        coords = [(f"job{i}", attempt) for i in range(50) for attempt in (1, 2)]
        assert [a.fault_for(k, n) for k, n in coords] == [
            b.fault_for(k, n) for k, n in coords
        ]

    def test_only_eligible_attempts_fault(self):
        schedule = ChaosSchedule(probability=1.0, fault_attempts=1, seed=0)
        assert schedule.fault_for("k", 1) is not None
        assert schedule.fault_for("k", 2) is None
        assert schedule.fault_for("k", 3) is None

    def test_probability_zero_never_faults(self):
        schedule = ChaosSchedule(probability=0.0, seed=3)
        assert all(schedule.fault_for(f"j{i}", 1) is None for i in range(100))

    def test_all_kinds_are_reachable(self):
        schedule = ChaosSchedule(probability=1.0, seed=0)
        drawn = {schedule.fault_for(f"job{i}", 1) for i in range(200)}
        assert drawn == set(FaultKind)

    @pytest.mark.parametrize(
        "spec,kinds,p,attempts,seed,hang",
        [
            ("all", tuple(FaultKind), 1.0, 1, 0, 30.0),
            ("kill-hang", (FaultKind.KILL, FaultKind.HANG), 1.0, 1, 0, 30.0),
            (
                "raise:p=0.5,seed=3,attempts=2,hang=5",
                (FaultKind.RAISE,),
                0.5,
                2,
                3,
                5.0,
            ),
        ],
    )
    def test_spec_grammar(self, spec, kinds, p, attempts, seed, hang):
        schedule = ChaosSchedule.from_spec(spec)
        assert schedule.kinds == kinds
        assert schedule.probability == p
        assert schedule.fault_attempts == attempts
        assert schedule.seed == seed
        assert schedule.hang_s == hang

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "segfault",
            "kill-explode",
            "kill:p",
            "kill:volume=11",
            "kill:p=loud",
            "kill:p=1.5",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ExperimentError):
            ChaosSchedule.from_spec(bad)

    def test_spec_round_trips(self):
        schedule = ChaosSchedule(
            kinds=(FaultKind.KILL, FaultKind.RAISE),
            probability=0.25,
            fault_attempts=2,
            seed=9,
            hang_s=12.0,
        )
        assert ChaosSchedule.from_spec(schedule.spec()) == schedule


class TestInvariants:
    def test_clean_session_passes(self):
        (outcome,) = run_jobs([cheap_grid(1)[0]])
        assert check_session(outcome.result) == []

    def test_negative_buffer_detected(self):
        result = SessionResult(60.0, 2.0, 30)
        result.ended_at_s = 61.0
        result.completed = True
        result.buffer_t.append(1.0)
        result.buffer_v.append(-0.5)
        result.buffer_a.append(2.0)
        names = {v.invariant for v in check_session(result)}
        assert "non-negative-buffers" in names

    def test_missing_verdict_detected(self):
        unstamped = SessionResult(60.0, 2.0, 30)
        assert "terminates" in {v.invariant for v in check_session(unstamped)}
        # Incomplete, no reason, ended well before the sim-time
        # ceiling: the session vanished without a verdict.
        vanished = SessionResult(60.0, 2.0, 30)
        vanished.ended_at_s = 10.0
        assert "terminates" in {v.invariant for v in check_session(vanished)}
        # The same early end *with* a degradation reason is legitimate.
        degraded = SessionResult(60.0, 2.0, 30)
        degraded.ended_at_s = 10.0
        degraded.termination_reason = "retry budget exhausted"
        assert "terminates" not in {v.invariant for v in check_session(degraded)}

    def test_malformed_stalls_and_downloads_detected(self):
        result = SessionResult(60.0, 2.0, 30)
        result.ended_at_s = 61.0
        result.completed = True
        result.stalls.append(StallEvent(start_s=5.0, end_s=3.0))
        result.stalls.append(StallEvent(start_s=50.0, end_s=None))
        result.downloads.append(
            DownloadRecord(
                medium=MediaType.VIDEO,
                track_id="V1",
                chunk_index=45,
                size_bits=1000.0,
                started_at=5.0,
                completed_at=4.0,
            )
        )
        names = [v.invariant for v in check_session(result)]
        assert names.count("stalls-well-formed") == 2
        assert names.count("downloads-well-formed") == 2

    def test_broken_ledger_detected(self):
        class TornResult(SessionResult):
            def byte_accounting(self):
                ledger = super().byte_accounting()
                ledger["reconciles"] = False
                return ledger

        result = TornResult(60.0, 2.0, 30)
        result.ended_at_s = 61.0
        result.completed = True
        assert "byte-accounting" in {v.invariant for v in check_session(result)}

    def test_check_outcomes_tags_the_job_and_skips_failures(self):
        job = cheap_grid(1)[0]
        bad = SessionResult(60.0, 2.0, 30)  # no end stamp

        class Outcome:
            def __init__(self, job, result):
                self.job, self.result = job, result

        violations = check_outcomes([Outcome(job, bad), Outcome(job, None)])
        assert len(violations) == 1
        assert violations[0].job == job.key()[:12]


class TestCrashIsolation:
    def test_raise_fault_is_retried_with_cumulative_wall_time(self):
        jobs = cheap_grid(2)
        stats = EngineStats()
        chaos = ChaosSchedule(kinds=(FaultKind.RAISE,), probability=1.0, seed=0)
        outcomes = run_jobs(jobs, workers=2, retries=2, chaos=chaos, stats=stats)
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert outcome.attempts == 2
            assert len(outcome.attempt_times) == 2
            # Satellite: wall time is the cumulative cost of every
            # attempt, with the per-attempt breakdown preserved.
            assert outcome.wall_time_s == pytest.approx(
                sum(outcome.attempt_times)
            )
        assert stats.job_failures == 2
        assert stats.retried_jobs == 2

    def test_worker_sigkill_costs_only_that_job(self):
        jobs = cheap_grid(3)
        stats = EngineStats()
        chaos = ChaosSchedule(kinds=(FaultKind.KILL,), probability=1.0, seed=1)
        outcomes = run_jobs(jobs, workers=2, retries=3, chaos=chaos, stats=stats)
        assert all(o.ok for o in outcomes)  # zero lost jobs
        assert stats.pool_rebuilds >= 1
        assert stats.worker_crashes >= 1
        clean = run_jobs(jobs, workers=1)
        assert fingerprints(outcomes) == fingerprints(clean)

    def test_exhausted_retries_surface_failure_without_aborting_grid(self):
        jobs = cheap_grid(3)
        doomed_key = jobs[0].key()

        # Fault every attempt of every job, but keep two jobs clean by
        # probability: seed picked so only some jobs fault. Simpler and
        # fully deterministic: fault all attempts, retries=0, then
        # every job fails — the grid itself must still return.
        chaos = ChaosSchedule(
            kinds=(FaultKind.RAISE,), probability=1.0, fault_attempts=99, seed=2
        )
        stats = EngineStats()
        outcomes = run_jobs(jobs, workers=2, retries=1, chaos=chaos, stats=stats)
        assert len(outcomes) == len(jobs)
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.result is None
            assert outcome.attempts == 2
            assert "ChaosError" in outcome.error
        assert stats.failed_jobs == 3
        assert doomed_key == jobs[0].key()  # specs untouched by the run

    def test_grid_runner_results_raises_on_failed_jobs(self):
        chaos = ChaosSchedule(
            kinds=(FaultKind.RAISE,), probability=1.0, fault_attempts=99, seed=0
        )
        with runner_options(workers=2, job_retries=0, chaos=chaos):
            runner = GridRunner()
        with pytest.raises(ExperimentError, match="failed after"):
            runner.results(cheap_grid(2))

    def test_chaos_requires_a_pool(self):
        with pytest.raises(ExperimentError, match="workers >= 2"):
            run_jobs(cheap_grid(1), workers=1, chaos=ChaosSchedule())

    def test_chaos_error_is_a_simulation_error(self):
        from repro.errors import SimulationError

        assert issubclass(ChaosError, SimulationError)


class TestWatchdog:
    def test_hung_worker_is_killed_and_job_requeued(self):
        jobs = cheap_grid(2)
        stats = EngineStats()
        chaos = ChaosSchedule(
            kinds=(FaultKind.HANG,), probability=1.0, seed=0, hang_s=60.0
        )
        started = time.monotonic()
        outcomes = run_jobs(
            jobs, workers=2, timeout_s=1.0, retries=2, chaos=chaos, stats=stats
        )
        elapsed = time.monotonic() - started
        assert all(o.ok for o in outcomes)
        assert stats.watchdog_kills >= 1
        # The 60 s hangs must have been cut short by the ~1 s deadline.
        assert elapsed < 30.0
        for outcome in outcomes:
            assert outcome.attempts == 2
            assert outcome.attempt_times[0] >= 1.0  # the hung attempt
        clean = run_jobs(jobs, workers=1)
        assert fingerprints(outcomes) == fingerprints(clean)

    def test_deadline_generous_enough_never_fires(self):
        jobs = cheap_grid(2)
        stats = EngineStats()
        outcomes = run_jobs(jobs, workers=2, timeout_s=120.0, stats=stats)
        assert all(o.ok for o in outcomes)
        assert stats.watchdog_kills == 0
        assert stats.pool_rebuilds == 0


class TestDeterminismUnderChaos:
    """Satellite: same jobs + same chaos seed under workers=2 yield
    SessionResult rows identical to the clean workers=1 run once
    retries succeed — chaos must be invisible in the science."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_chaotic_grid_matches_clean_serial_run(self, tmp_path_factory, seed):
        jobs = cheap_grid(3)
        clean = run_jobs(jobs, workers=1)
        cache_dir = str(
            tmp_path_factory.mktemp("chaos-cache") / f"seed-{seed}"
        )
        chaos = ChaosSchedule(kinds=FAST_KINDS, probability=1.0, seed=seed)
        stats = EngineStats()
        chaotic = run_jobs(
            jobs,
            workers=2,
            cache=ResultCache(cache_dir),
            retries=3,
            chaos=chaos,
            stats=stats,
        )
        assert [o.job for o in chaotic] == jobs  # input order preserved
        assert all(o.ok for o in chaotic)  # zero lost jobs
        assert fingerprints(chaotic) == fingerprints(clean)  # identical rows
        assert check_outcomes(chaotic) == []  # invariants hold
        assert stats.lost_attempts >= 1  # chaos actually struck

    def test_same_seed_twice_same_recovery_same_rows(self, tmp_path):
        jobs = cheap_grid(2)
        chaos = ChaosSchedule(kinds=(FaultKind.RAISE,), probability=1.0, seed=5)
        first = run_jobs(jobs, workers=2, retries=2, chaos=chaos)
        second = run_jobs(jobs, workers=2, retries=2, chaos=chaos)
        assert fingerprints(first) == fingerprints(second)
        assert [o.attempts for o in first] == [o.attempts for o in second]


class TestCheckpointResume:
    def test_completed_prefix_is_never_recomputed(self, tmp_path):
        """Resume contract: after an interruption, only incomplete
        cells are simulated — the completed prefix is all cache hits."""
        jobs = cheap_grid(5)
        prefix = 2
        warm = ResultCache(str(tmp_path))
        run_jobs(jobs[:prefix], workers=1, cache=warm)
        assert warm.entry_count() == prefix

        resumed_cache = ResultCache(str(tmp_path))
        outcomes = run_jobs(jobs, workers=2, cache=resumed_cache)
        assert all(o.ok for o in outcomes)
        assert resumed_cache.stats.hits == prefix  # zero recomputation
        assert resumed_cache.stats.misses == len(jobs) - prefix
        assert [o.cached for o in outcomes[:prefix]] == [True] * prefix
        assert fingerprints(outcomes) == fingerprints(run_jobs(jobs, workers=1))

    def test_sigkilled_driver_resumes_from_checkpoint(self, tmp_path):
        """Kill the *driver* process mid-grid (the CI chaos scenario):
        completed cells must already be on disk, and the resumed run
        must replay them from cache and finish the rest."""
        cache_dir = str(tmp_path / "cache")
        n_jobs = 10
        script = (
            "from repro.runner import run_jobs, ResultCache\n"
            "import test_chaos\n"
            f"jobs = test_chaos.cheap_grid({n_jobs})\n"
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
            deadline = time.monotonic() + 60.0
            while probe.entry_count() < 2 and time.monotonic() < deadline:
                if driver.poll() is not None:
                    break
                time.sleep(0.01)
            driver.send_signal(signal.SIGKILL)
        finally:
            driver.wait(timeout=30)

        completed = ResultCache(cache_dir).entry_count()
        assert completed >= 2  # the checkpoint stream got that far

        jobs = cheap_grid(n_jobs)
        resumed_cache = ResultCache(cache_dir)
        outcomes = run_jobs(jobs, workers=2, cache=resumed_cache)
        assert all(o.ok for o in outcomes)
        # Zero lost jobs and zero recomputed completed cells: every
        # checkpointed entry is a hit, everything else a miss.
        assert resumed_cache.stats.hits == completed
        assert resumed_cache.stats.misses == n_jobs - completed
        assert fingerprints(outcomes) == fingerprints(run_jobs(jobs, workers=1))

    def test_torn_checkpoint_from_chaos_heals_on_resume(self, tmp_path):
        """TRUNCATE chaos leaves a torn entry and kills the worker;
        the retry's cache re-check must classify it truncated, evict
        it, and re-simulate — never serve torn bytes."""
        jobs = cheap_grid(2)
        cache = ResultCache(str(tmp_path))
        chaos = ChaosSchedule(
            kinds=(FaultKind.TRUNCATE,), probability=1.0, seed=0
        )
        outcomes = run_jobs(jobs, workers=2, cache=cache, retries=2, chaos=chaos)
        assert all(o.ok for o in outcomes)
        # A worker may be torn down by a sibling's pool break before it
        # writes its own torn entry, so the exact count is racy — but
        # every torn entry written must be classified and evicted.
        assert cache.stats.truncated >= 1
        assert cache.stats.evictions == cache.stats.truncated
        assert fingerprints(outcomes) == fingerprints(run_jobs(jobs, workers=1))


class TestGridRunnerChaos:
    def test_params_report_chaos_and_recovery(self, tmp_path):
        chaos = ChaosSchedule(kinds=(FaultKind.RAISE,), probability=1.0, seed=0)
        with runner_options(
            workers=2, cache_dir=str(tmp_path), job_retries=2, chaos=chaos
        ):
            runner = GridRunner()
        jobs = cheap_grid(2)
        results = runner.results(jobs)
        assert len(results) == 2
        params = runner.params()
        assert params["chaos"] == chaos.spec()
        assert params["job_retries"] == 2
        assert params["invariants_checked"] == 2
        assert params["recovery"]["job_failures"] == 2
        assert params["recovery"]["retried_jobs"] == 2
        assert params["cache"]["truncated"] == 0

    def test_event_log_is_written_and_parseable(self, tmp_path):
        log = str(tmp_path / "events.jsonl")
        chaos = ChaosSchedule(
            kinds=(FaultKind.RAISE,), probability=1.0, seed=0, log_path=log
        )
        run_jobs(cheap_grid(2), workers=2, retries=2, chaos=chaos)
        with open(log, "r", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        kinds = [event["event"] for event in events]
        assert kinds.count("fault") == 2
        assert kinds.count("requeue") == 2
        assert all("job" in e for e in events if e["event"] == "fault")

    def test_experiment_rows_identical_under_chaos(self, tmp_path):
        from repro.experiments import run_experiment

        serial = run_experiment("fluctuation")
        chaos = ChaosSchedule(kinds=FAST_KINDS, probability=1.0, seed=4)
        with runner_options(
            workers=2,
            cache_dir=str(tmp_path),
            job_retries=3,
            chaos=chaos,
        ):
            chaotic = run_experiment("fluctuation")
        assert chaotic.rows == serial.rows
        assert chaotic.notes == serial.notes
        assert [(c.description, c.passed) for c in chaotic.checks] == [
            (c.description, c.passed) for c in serial.checks
        ]
        assert chaotic.params["runner"]["chaos"] == chaos.spec()


class TestChaosCli:
    def test_run_with_chaos_flags(self, tmp_path, capsys):
        from repro.cli import main

        log = str(tmp_path / "chaos.jsonl")
        code = main(
            [
                "run",
                "fluctuation",
                "--jobs",
                "2",
                "--job-retries",
                "3",
                "--chaos",
                "raise:p=1,seed=2",
                "--chaos-log",
                log,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery" in out
        assert os.path.exists(log)

    def test_chaos_without_pool_is_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--jobs >= 2"):
            main(["run", "fluctuation", "--chaos", "kill"])

    def test_job_timeout_flag_threads_through(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "fluctuation", "--jobs", "2", "--job-timeout", "120"]
        )
        assert code == 0
        assert "job_timeout_s" in capsys.readouterr().out
