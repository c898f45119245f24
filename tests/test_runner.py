"""repro.runner: job specs, cache, and the parallel engine.

The contracts under test are the ones the experiment layer leans on:
stable content-addressed job keys, byte-identical results whether a
grid runs serially, on a process pool, or from the on-disk cache, and
cache invalidation whenever any outcome-affecting spec field changes.
"""

import json
import os
import pickle

import pytest

from repro.errors import ExperimentError
from repro.net.resilience import FailureKind, RetryPolicy
from repro.runner import (
    FailureSpec,
    GridRunner,
    PlayerSpec,
    ResultCache,
    SimulationJob,
    TraceSpec,
    get_runner_options,
    run_jobs,
    runner_options,
    set_runner_options,
)
from repro.runner.jobs import ContentSpec


def small_grid():
    """Four cheap, heterogeneous jobs (two players x two link rates)."""
    return [
        SimulationJob(
            player=PlayerSpec(name, combinations=combos),
            trace=TraceSpec.constant(kbps),
        )
        for kbps in (700.0, 1500.0)
        for name, combos in (("recommended", "hsub"), ("shaka", "all"))
    ]


def result_fingerprints(outcomes):
    return [outcome.result.to_dict() for outcome in outcomes]


class TestJobSpecs:
    def test_key_is_stable_across_instances(self):
        a = SimulationJob(trace=TraceSpec.constant(700.0))
        b = SimulationJob(trace=TraceSpec.constant(700.0))
        assert a.key() == b.key()

    def test_key_survives_pickle(self):
        job = SimulationJob(
            player=PlayerSpec("shaka", combinations="all"),
            trace=TraceSpec.hspa(3),
            failure=FailureSpec(0.1, seed=2, taxonomy=True),
            retry_policy=RetryPolicy(max_attempts=6),
            seed=7,
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.key() == job.key()

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda j: SimulationJob(player=j.player, trace=TraceSpec.constant(701.0)),
            lambda j: SimulationJob(player=PlayerSpec("dashjs"), trace=j.trace),
            lambda j: SimulationJob(player=j.player, trace=j.trace, seed=1),
            lambda j: SimulationJob(
                player=j.player, trace=j.trace, failure=FailureSpec(0.1, seed=0)
            ),
            lambda j: SimulationJob(
                player=j.player, trace=j.trace, retry_policy=RetryPolicy()
            ),
            lambda j: SimulationJob(player=j.player, trace=j.trace, rtt_s=0.05),
            lambda j: SimulationJob(player=j.player, trace=j.trace, live_offset_s=4.0),
        ],
    )
    def test_any_outcome_affecting_field_changes_the_key(self, mutation):
        base = SimulationJob(
            player=PlayerSpec("recommended"), trace=TraceSpec.constant(700.0)
        )
        assert mutation(base).key() != base.key()

    def test_failure_mix_order_is_part_of_the_key(self):
        """The model maps draws through cumulative weights, so mix
        order is seeded behaviour — reordering must miss the cache."""
        forward = FailureSpec.with_mix(
            0.1, 0, {FailureKind.CONNECTION_RESET: 0.7, FailureKind.HTTP_5XX: 0.3}
        )
        reverse = FailureSpec.with_mix(
            0.1, 0, {FailureKind.HTTP_5XX: 0.3, FailureKind.CONNECTION_RESET: 0.7}
        )
        a = SimulationJob(failure=forward)
        b = SimulationJob(failure=reverse)
        assert a.key() != b.key()

    def test_unknown_specs_rejected(self):
        with pytest.raises(ExperimentError):
            SimulationJob(content=ContentSpec("nope")).build()
        with pytest.raises(ExperimentError):
            SimulationJob(player=PlayerSpec("vlc")).build()
        with pytest.raises(ExperimentError):
            SimulationJob(trace=TraceSpec("fractal")).build()

    def test_func_trace_spec_builds_named_paper_profiles(self):
        from repro.experiments.traces import fig3_spec, fig3_trace, fig4b_spec

        assert fig3_spec().build().to_pairs() == fig3_trace().to_pairs()
        assert fig4b_spec().build().average_kbps() == pytest.approx(600.0)

    def test_build_produces_runnable_session(self):
        from repro.sim.session import simulate

        content, player, network, config = SimulationJob(
            trace=TraceSpec.constant(2000.0)
        ).build()
        result = simulate(content, player, network, config)
        assert result.completed


#: Keys as computed while the spec still went through ``asdict``:
#: existing caches and recorded logs stay valid only while these hold.
GOLDEN_KEYS = [
    (
        SimulationJob(),
        "f8d7ec956f01556e0d174c944cc3c34c257a228e75da1146a2d99e846e7de12e",
    ),
    (
        SimulationJob(
            trace=TraceSpec.pairs([(0.5, 400.0 + 7.25 * i) for i in range(1200)]),
            rtt_s=0.05,
            failure=FailureSpec.with_mix(
                0.15, 3, {FailureKind.TIMEOUT: 2.0, FailureKind.HTTP_5XX: 1.0}
            ),
            retry_policy=RetryPolicy(),
            seed=2,
        ),
        "6a3b1fcd6a3da81817bfde03cf9c6206fa6e387fbe7d926225455d12a6f834bb",
    ),
    (
        SimulationJob(
            player=PlayerSpec("exoplayer-hls", audio_order=("A3", "A1", "A2")),
            trace=TraceSpec.constant(1500.0),
        ),
        "766f2c8babb88f668ad3a6790d826c62fab4bdd1a45d7f177046efbf2624be31",
    ),
]


class TestKeyContract:
    @pytest.mark.parametrize("job,key", GOLDEN_KEYS)
    def test_key_bytes_are_pinned(self, job, key):
        assert job.key() == key
        assert SimulationJob.from_spec(job.spec_dict()).key() == key
        assert job.label() == job.label(key)

    def test_serial_record_run_hashes_the_spec_once(self, tmp_path, monkeypatch):
        calls = []
        original = SimulationJob.key

        def counting_key(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SimulationJob, "key", counting_key)
        job = SimulationJob(trace=TraceSpec.constant(1200.0))
        cache = ResultCache(str(tmp_path / "cache"))
        run_jobs([job], cache=cache, record_dir=str(tmp_path / "logs"))
        assert len(calls) == 1

    def test_recorded_header_carries_the_job_key_and_label(self, tmp_path):
        from repro.replay import replay_session
        from repro.replay.recorder import record_path

        job = GOLDEN_KEYS[2][0]
        record_dir = str(tmp_path / "logs")
        cache = ResultCache(str(tmp_path / "cache"))
        run_jobs([job], cache=cache, record_dir=record_dir)
        meta = replay_session(record_path(record_dir, job.key())).meta
        assert meta["key"] == job.key()
        assert meta["label"] == job.label()
        assert meta["job"] == json.loads(json.dumps(job.spec_dict()))


class TestEngineDeterminism:
    def test_serial_and_parallel_results_identical(self):
        jobs = small_grid()
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=4)
        assert [o.job for o in serial] == jobs  # input order preserved
        assert [o.job for o in parallel] == jobs
        assert result_fingerprints(serial) == result_fingerprints(parallel)

    def test_failure_grid_schedules_identical_across_workers(self):
        jobs = [
            SimulationJob(
                player=PlayerSpec("recommended"),
                trace=TraceSpec.constant(900.0),
                failure=FailureSpec.with_mix(
                    0.1, seed, {FailureKind.CONNECTION_RESET: 1.0}
                ),
                retry_policy=RetryPolicy(),
                seed=seed,
            )
            for seed in range(3)
        ]
        serial = run_jobs(jobs, workers=1)
        parallel = run_jobs(jobs, workers=3)
        assert [o.result.retry_schedule() for o in serial] == [
            o.result.retry_schedule() for o in parallel
        ]
        assert any(o.result.failures for o in serial)

    def test_wall_time_is_instrumented(self):
        (outcome,) = run_jobs([SimulationJob(trace=TraceSpec.constant(2000.0))])
        assert outcome.wall_time_s > 0.0
        assert not outcome.cached


class TestResultCache:
    def test_second_run_is_all_hits_and_bit_identical(self, tmp_path):
        jobs = small_grid()
        cold_cache = ResultCache(str(tmp_path / "cache"))
        cold = run_jobs(jobs, workers=1, cache=cold_cache)
        assert cold_cache.stats.misses == len(jobs)
        assert cold_cache.stats.bytes_written > 0

        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = run_jobs(jobs, workers=1, cache=warm_cache)
        assert warm_cache.stats.hits == len(jobs)
        assert warm_cache.stats.misses == 0
        assert all(o.cached for o in warm)
        assert result_fingerprints(warm) == result_fingerprints(cold)

    def test_changed_spec_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        base = SimulationJob(trace=TraceSpec.constant(700.0))
        run_jobs([base], cache=cache)
        for changed in (
            SimulationJob(trace=TraceSpec.constant(800.0)),
            SimulationJob(trace=TraceSpec.constant(700.0), seed=1),
            SimulationJob(
                trace=TraceSpec.constant(700.0), retry_policy=RetryPolicy()
            ),
        ):
            before = cache.stats.misses
            run_jobs([changed], cache=cache)
            assert cache.stats.misses == before + 1

    def test_corrupt_entry_is_evicted_not_raised(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        job = SimulationJob(trace=TraceSpec.constant(700.0))
        run_jobs([job], cache=cache)
        path = cache._path(job.key())
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        assert cache.get(job.key()) is None
        assert cache.stats.evictions == 1
        # Garbage bytes are corruption, not a partial write.
        assert cache.stats.truncated == 0
        assert not os.path.exists(path)

    def test_truncated_entry_is_classified_evicted_and_recounted(self, tmp_path):
        """A partially-written entry (worker killed mid-write, torn
        write on a full disk) must read as a miss at *every* cut
        point, be evicted, and bump the dedicated `truncated` stat."""
        cache = ResultCache(str(tmp_path))
        job = SimulationJob(trace=TraceSpec.constant(700.0))
        (outcome,) = run_jobs([job], cache=cache)
        path = cache._path(job.key())
        with open(path, "rb") as f:
            intact = f.read()
        # Cut inside the magic, inside the header, just after the
        # header, mid-payload, and one byte short of complete.
        offsets = [0, 3, 10, 20, len(intact) // 2, len(intact) - 1]
        for n, offset in enumerate(offsets, start=1):
            with open(path, "wb") as f:
                f.write(intact[:offset])
            assert cache.get(job.key()) is None, f"offset {offset}"
            assert not os.path.exists(path), f"offset {offset}"
            assert cache.stats.truncated == n, f"offset {offset}"
        assert cache.stats.evictions == len(offsets)
        # The evicted cell re-simulates and the cache heals.
        (replayed,) = run_jobs([job], cache=cache)
        assert cache.get(job.key()) is not None
        assert replayed.result.to_dict() == outcome.result.to_dict()

    def test_torn_entry_with_flipped_byte_is_corrupt_not_truncated(self, tmp_path):
        """Same length, damaged payload: the CRC catches it and it
        counts as corruption rather than truncation."""
        cache = ResultCache(str(tmp_path))
        job = SimulationJob(trace=TraceSpec.constant(700.0))
        run_jobs([job], cache=cache)
        path = cache._path(job.key())
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[-10] ^= 0xFF
        with open(path, "wb") as f:
            f.write(bytes(data))
        assert cache.get(job.key()) is None
        assert cache.stats.evictions == 1
        assert cache.stats.truncated == 0
        assert not os.path.exists(path)

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs(small_grid()[:2], cache=cache)
        assert cache.clear() == 2
        assert cache.clear() == 0


class TestGridRunnerOptions:
    def test_defaults_are_serial_and_uncached(self):
        options = get_runner_options()
        assert options.workers == 1
        assert options.cache_dir is None
        runner = GridRunner()
        assert runner.workers == 1
        assert runner.cache is None

    def test_context_manager_restores_options(self, tmp_path):
        with runner_options(workers=4, cache_dir=str(tmp_path)):
            assert get_runner_options().workers == 4
            runner = GridRunner()
            assert runner.workers == 4
            assert runner.cache is not None
        assert get_runner_options().workers == 1
        assert get_runner_options().cache_dir is None

    def test_set_options_floor_at_one_worker(self):
        try:
            assert set_runner_options(workers=0).workers == 1
        finally:
            set_runner_options(workers=1, cache_dir=None)

    def test_params_report_cache_and_wall_time(self, tmp_path):
        with runner_options(cache_dir=str(tmp_path)):
            runner = GridRunner()
            jobs = small_grid()[:2]
            runner.run(jobs)
            params = runner.params()
            assert params["simulated"] == 2
            assert params["sim_wall_s"] > 0
            assert params["cache"]["misses"] == 2

            replay = GridRunner()
            replay.run(jobs)
            params = replay.params()
            assert params["simulated"] == 0
            assert params["cache"] == {
                "hits": 2,
                "misses": 0,
                "bytes_read": replay.cache.stats.bytes_read,
                "bytes_written": 0,
                "evictions": 0,
                "truncated": 0,
            }

    def test_use_cache_false_forces_fresh_simulation(self, tmp_path):
        with runner_options(cache_dir=str(tmp_path)):
            runner = GridRunner()
            jobs = small_grid()[:1]
            runner.run(jobs)
            fresh = runner.run(jobs, use_cache=False)
            assert not fresh[0].cached


class TestExperimentEquivalence:
    """The acceptance contract: an experiment's rows are identical
    whether its grid ran serially, in parallel, or from cache."""

    def test_fluctuation_rows_and_checks_stable(self, tmp_path):
        from repro.experiments import run_experiment

        serial = run_experiment("fluctuation")
        with runner_options(workers=2, cache_dir=str(tmp_path)):
            cold = run_experiment("fluctuation")
        with runner_options(workers=2, cache_dir=str(tmp_path)):
            warm = run_experiment("fluctuation")
        for report in (cold, warm):
            assert report.rows == serial.rows
            assert report.notes == serial.notes
            assert [(c.description, c.passed) for c in report.checks] == [
                (c.description, c.passed) for c in serial.checks
            ]
        assert warm.params["runner"]["simulated"] == 0
        assert warm.params["runner"]["cache"]["misses"] == 0


class TestRunnerCli:
    def test_run_flags_parse_and_cache_reports_in_params(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        argv = [
            "run",
            "fluctuation",
            "--jobs",
            "2",
            "--cache",
            "--cache-dir",
            cache_dir,
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "'hits': 1" in out
        assert os.path.isdir(cache_dir)

    def test_no_cache_wins_over_cache(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cli-cache")
        argv = [
            "run",
            "fluctuation",
            "--cache",
            "--no-cache",
            "--cache-dir",
            cache_dir,
        ]
        assert main(argv) == 0
        assert not os.path.exists(cache_dir)
