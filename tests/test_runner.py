"""repro.runner: job specs, cache, and the parallel engine.

The contracts under test are the ones the experiment layer leans on:
stable content-addressed job keys, byte-identical results whether a
grid runs serially, on a process pool, or from the on-disk cache, and
cache invalidation whenever any outcome-affecting spec field changes.
"""

import copyreg
import dataclasses
import json
import os
import pickle
import subprocess
import sys

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
from repro.media.tracks import MediaType
from repro.runner.jobs import ContentSpec, spec_key
from repro.sim import records
from repro.sim.records import (
    AbortRecord,
    BufferSample,
    DownloadRecord,
    EstimateSample,
    FailureRecord,
    ProgressSegment,
    SessionResult,
    SkipRecord,
    StallEvent,
)


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
            SimulationJob(player=PlayerSpec("recommended", combinations="some")).build()
        with pytest.raises(ExperimentError):
            SimulationJob(player=PlayerSpec("shaka", balanced=False)).build()
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

    def test_non_json_spec_values_raise_naming_the_value(self):
        # A set would be keyed in hash order, so differently per process.
        with pytest.raises(TypeError, match=r"frozenset\(\{'A1'\}\)"):
            spec_key({"audio": frozenset({"A1"})})
        with pytest.raises(TypeError, match="MediaType.VIDEO"):
            spec_key({"medium": MediaType.VIDEO})
        assert spec_key({"ids": ("A1", "A2")}) == spec_key({"ids": ["A1", "A2"]})

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

    def test_spec_dict_keys_every_field(self):
        # A field left out of spec_dict() makes two different jobs share
        # one cache key -- unless it holds its default, which is how a
        # field added later keeps every older key in place. Nested specs
        # are checked the same way.
        from repro.topology import CohortJob

        def field_names(obj):
            return {f.name for f in dataclasses.fields(obj)}

        def assert_keyed(obj, keys, where):
            assert set(keys) <= field_names(obj), where
            for f in dataclasses.fields(obj):
                if f.name not in keys:
                    default = (
                        f.default_factory()
                        if f.default is dataclasses.MISSING
                        else f.default
                    )
                    assert getattr(obj, f.name) == default, (where, f.name)

        for root in (GOLDEN_KEYS[1][0], GOLDEN_KEYS[2][0], CohortJob()):
            spec = root.spec_dict()
            assert_keyed(root, set(spec) - {"schema", "kind"}, "root")
            for name, value in spec.items():
                sub = getattr(root, name, None)
                if dataclasses.is_dataclass(sub):
                    assert_keyed(sub, value, name)

        # A cohort keys its faults by FaultDomainSchedule.spec(), a
        # string: every schedule and pinned-window field must move it.
        from repro.topology import FaultDomainKind as Kind
        from repro.topology import FaultDomainSchedule, FaultWindow

        window = FaultWindow(
            Kind.ORIGIN_BROWNOUT, "origin", 60.1234567, 80.0,
            latency_factor=6.0, error_probability=0.4,
        )
        schedule = FaultDomainSchedule(
            kinds=(Kind.EDGE_OUTAGE,), seed=1, probability=0.5,
            windows_per_domain=2, duration_s=30.5, horizon_s=200.25,
            latency_factor=5.0, error_probability=0.25, pinned=(window,),
        )
        window_changes = {
            "kind": Kind.EVICTION_STORM,
            "domain": "edge-1",
            "start_s": 60.12345678,
            "end_s": 80.5,
            "latency_factor": 6.5,
            "error_probability": 0.45,
        }
        schedule_changes = {
            "kinds": (Kind.EVICTION_STORM,),
            "seed": 2,
            "probability": 0.55,
            "windows_per_domain": 3,
            "duration_s": 30.25,
            "horizon_s": 200.5,
            "latency_factor": 5.5,
            "error_probability": 0.3,
            "pinned": (),
        }
        assert set(window_changes) == field_names(window)
        assert set(schedule_changes) == field_names(schedule)
        variants = [
            dataclasses.replace(schedule, **{name: value})
            for name, value in schedule_changes.items()
        ] + [
            dataclasses.replace(
                schedule, pinned=(dataclasses.replace(window, **{name: value}),)
            )
            for name, value in window_changes.items()
        ]
        keys = {CohortJob(faults=s).key() for s in [schedule, *variants]}
        assert len(keys) == 1 + len(variants)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("player", "name"), "mpc"),
            (("player", "name"), "bola-joint"),
            (("player", "name"), "chunk-aware"),
            (("player", "combinations"), ("V1+A2", "V3+A2", "V6+A2")),
            (("player", "balanced"), False),
            (("player", "shared_meter"), False),
            (("content", "name"), "drama-b"),
            (("content", "name"), "drama-c"),
            (("content", "name"), "drama-muxed"),
            (("startup_threshold_s",), 15.0),
        ],
    )
    def test_new_spec_values_are_keyed_and_round_trip(self, path, value):
        base = SimulationJob(trace=TraceSpec.constant(1500.0))
        if len(path) == 1:
            job = dataclasses.replace(base, **{path[0]: value})
            assert path[0] not in base.spec_dict()
            keyed = job.spec_dict()[path[0]]
        else:
            sub = dataclasses.replace(getattr(base, path[0]), **{path[1]: value})
            job = dataclasses.replace(base, **{path[0]: sub})
            keyed = job.spec_dict()[path[0]][path[1]]
        assert keyed == value
        assert job.key() != base.key()
        round_trip = SimulationJob.from_spec(json.loads(json.dumps(job.spec_dict())))
        assert round_trip == job
        assert round_trip.key() == job.key()

    def test_cohort_key_bytes_are_pinned(self):
        from repro.topology import CohortJob

        assert CohortJob().key() == (
            "016f293df480ce3d9ed1d4edffbbf82fb4f0cd0d993f4ca77d00de93b31c2255"
        )


#: Run in a fresh interpreter: a mixed-player grid on a ``spawn`` pool
#: must return results that pickle byte-identically to a serial run.
SPAWN_CHECK = """
import multiprocessing
import pickle
import sys

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    from repro.net.resilience import RetryPolicy
    from repro.runner import (
        FailureSpec, PlayerSpec, SimulationJob, TraceSpec, run_jobs,
    )
    from repro.runner.jobs import PLAYER_NAMES, PRACTICE_PLAYER_NAMES

    jobs = [
        SimulationJob(player=PlayerSpec(name), trace=TraceSpec.random_walk(900.0, 1))
        for name in PLAYER_NAMES + PRACTICE_PLAYER_NAMES
    ] + [
        SimulationJob(
            player=PlayerSpec(name),
            trace=TraceSpec.constant(1500.0),
            failure=FailureSpec(0.2, seed=4, taxonomy=True),
            retry_policy=RetryPolicy(),
        )
        for name in ("shaka", "recommended")
    ]
    serial = [pickle.dumps(o.result) for o in run_jobs(jobs, workers=1)]
    pooled = run_jobs(jobs, workers=2)
    errors = [o.error for o in pooled if o.error is not None]
    if errors:
        sys.exit(f"pool jobs failed: {errors}")
    for job, outcome, expected in zip(jobs, pooled, serial):
        if pickle.dumps(outcome.result) != expected:
            sys.exit(f"spawned result differs from serial: {job.label()}")
    print(multiprocessing.get_start_method(), len(jobs))
"""


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

    def test_spawned_pool_matches_serial(self):
        """The pool contract on platforms whose default start method is
        not ``fork`` (macOS; Linux from Python 3.14): under ``spawn``
        every worker re-imports the package and receives each job by
        pickle, so an unpicklable job, a worker that depends on state
        the parent set after import, or a forced ``fork`` start method
        shows up here as a failed job, a result that differs from the
        serial run, or a raised start-method error."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        completed = subprocess.run(
            [sys.executable, "-c", SPAWN_CHECK],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-4000:]
        assert completed.stdout.split() == ["spawn", "10"]

    def test_wall_time_is_instrumented(self):
        (outcome,) = run_jobs([SimulationJob(trace=TraceSpec.constant(2000.0))])
        assert outcome.wall_time_s > 0.0
        assert not outcome.cached


def _record_classes():
    return {
        cls
        for cls in vars(records).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    }


_SEGMENT = ProgressSegment(1.0, 1.5, 250_000.0)

#: One or more instances of every record class, defaults included.
RECORD_SAMPLES = [
    _SEGMENT,
    DownloadRecord(MediaType.VIDEO, "V3", 4, 1.2e6, 1.0, 2.5),
    DownloadRecord(
        MediaType.AUDIO, "A1", 4, 64_000.0, 1.0, 1.5, (_SEGMENT, _SEGMENT), 0.5
    ),
    AbortRecord(MediaType.VIDEO, "V5", 7, 9.25, 3e5, 2.4e6),
    FailureRecord(MediaType.AUDIO, "A2", 2, 3.0, 0.0),
    FailureRecord(
        MediaType.VIDEO, "V2", 9, 12.5, 1e5, "timeout", 2, True, 13.75
    ),
    SkipRecord(MediaType.VIDEO, "V1", 11, 40.0, 3),
    StallEvent(5.0),
    StallEvent(5.0, 6.125),
    BufferSample(2.0, 8.5, -0.0),
    EstimateSample(2.0, float("inf")),
]


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

    def test_every_record_class_pickles_to_an_equal_record(self):
        covered = {type(record) for record in RECORD_SAMPLES}
        assert covered == _record_classes()
        for record in RECORD_SAMPLES:
            data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            clone = pickle.loads(data)
            assert type(clone) is type(record) and clone == record
            assert pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL) == data

    def test_entry_pickled_by_dataclass_state_still_loads(self, tmp_path, monkeypatch):
        """An entry written before records pickled by their fields (the
        dataclass ``__getstate__`` form) is still a hit, equal to the run."""
        job = SimulationJob(
            player=PlayerSpec("dashjs"),
            trace=TraceSpec.pairs([(20.0, 300.0), (20.0, 3000.0)]),
            failure=FailureSpec(0.2, seed=1, taxonomy=True),
            retry_policy=RetryPolicy(),
        )
        (outcome,) = run_jobs([job])
        result = outcome.result
        assert result.failures and result.stalls and result.downloads
        cache = ResultCache(str(tmp_path))
        cache.put("new", result)
        for cls in _record_classes():
            monkeypatch.delattr(cls, "__reduce__")
        cache.put("old", result)
        monkeypatch.undo()
        sizes = {key: os.path.getsize(cache._path(key)) for key in ("new", "old")}
        assert sizes["old"] > sizes["new"]
        cached = cache.get("old")
        assert cache.stats.hits == 1 and cache.stats.evictions == 0
        for name in ("downloads", "failures", "stalls", "buffer_timeline", "estimate_timeline"):
            assert getattr(cached, name) == getattr(result, name), name
        assert cached.to_dict() == result.to_dict()
        assert pickle.dumps(cached) == pickle.dumps(result)

    def test_entry_with_a_buffer_timeline_list_still_loads(
        self, tmp_path, monkeypatch
    ):
        """An entry written before the buffer columns (a list of
        ``BufferSample`` records under ``buffer_timeline``) is still a
        hit, and reads as a fresh run does."""
        job = SimulationJob(
            player=PlayerSpec("dashjs"),
            trace=TraceSpec.pairs([(20.0, 300.0), (20.0, 3000.0)]),
            failure=FailureSpec(0.2, seed=1, taxonomy=True),
            retry_policy=RetryPolicy(),
        )
        (outcome,) = run_jobs([job])
        result = outcome.result
        assert len(result.buffer_t) > 100 and result.max_buffer_imbalance_s() > 0
        old_state = {}
        for name, value in vars(result).items():
            if name == "buffer_t":
                old_state["buffer_timeline"] = list(
                    map(BufferSample, result.buffer_t, result.buffer_v, result.buffer_a)
                )
            elif name not in ("buffer_v", "buffer_a"):
                old_state[name] = value
        # How the default object pickling wrote a result of that layout.
        monkeypatch.setattr(
            SessionResult,
            "__reduce_ex__",
            lambda self, _: (copyreg.__newobj__, (SessionResult,), old_state),
            raising=False,
        )
        cache = ResultCache(str(tmp_path))
        cache.put("old", result)
        monkeypatch.undo()
        cached = cache.get("old")
        assert cache.stats.hits == 1 and cache.stats.evictions == 0
        fresh = job.execute()
        assert cached.buffer_timeline == fresh.buffer_timeline
        assert cached.max_buffer_imbalance_s() == fresh.max_buffer_imbalance_s()
        assert cached.mean_buffer_imbalance_s() == fresh.mean_buffer_imbalance_s()
        assert cached.to_dict() == fresh.to_dict()
        assert pickle.dumps(cached) == pickle.dumps(fresh)

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

    def test_pooled_params_count_what_the_workers_ran(self):
        # The parent folds run statistics from the returned outcomes; a
        # count or a time a worker keeps in a module global never
        # reaches it, and no row would show the loss.
        jobs = small_grid()
        with runner_options(workers=2):
            runner = GridRunner()
            runner.run(jobs)
        params = runner.params()
        assert params["simulated"] == len(jobs)
        assert params["sim_wall_s"] > 0
        assert params["slowest_job_s"] > 0

    def test_use_cache_false_forces_fresh_simulation(self, tmp_path):
        with runner_options(cache_dir=str(tmp_path)):
            runner = GridRunner()
            jobs = small_grid()[:1]
            runner.run(jobs)
            fresh = runner.run(jobs, use_cache=False)
            assert not fresh[0].cached
            # Deliberate re-runs are not cache misses.
            assert runner.params()["simulated"] == 1
            assert runner.params()["uncached"] == 1


class TestSharedContent:
    """Each process builds a title once and every cell runs on that one
    object, so no player may change it."""

    def test_every_player_shares_one_content_without_changing_it(self):
        from repro.media.content import drama_show
        from repro.runner.jobs import PLAYER_NAMES, PRACTICE_PLAYER_NAMES
        from repro.sim.session import simulate

        def snapshot(content):
            table = content.chunk_table
            sizes = {tid: table.sizes(tid) for tid in table.track_ids}
            return content.video, content.audio, sizes

        content = ContentSpec().build()
        before = snapshot(content)
        jobs = [
            SimulationJob(player=PlayerSpec(name), trace=TraceSpec.hspa(2))
            for name in PLAYER_NAMES + PRACTICE_PLAYER_NAMES
        ]
        runner = GridRunner()
        shared = runner.results(jobs)
        assert runner.params()["simulated"] == len(jobs)
        assert ContentSpec().build() is content
        assert snapshot(content) == before
        for job, result in zip(jobs, shared):
            # The same cell on a title of its own, synthesized fresh.
            unshared = drama_show()
            _, _, network, config = job.build()
            alone = simulate(unshared, job.player.build(unshared), network, config)
            assert result.to_dict() == alone.to_dict(), job.player.name

    def test_content_is_built_once_per_spec(self, monkeypatch):
        import repro.runner.jobs as jobs_module

        builds = []
        original = jobs_module.drama_show

        def counting_drama_show():
            builds.append(1)
            return original()

        monkeypatch.setattr(jobs_module, "_BUILT", {})
        monkeypatch.setattr(jobs_module, "drama_show", counting_drama_show)
        for seed in range(100):
            (outcome,) = run_jobs([SimulationJob(seed=seed)])
            assert outcome.ok
        assert len(builds) == 1
        for name in ("drama-b", "drama-c", "drama-muxed"):
            spec = ContentSpec(name)
            assert spec.build() is spec.build()
        assert ContentSpec().build() is ContentSpec().build()
        assert len(builds) == 1

    @pytest.mark.parametrize("name", ["drama-b", "drama-c", "drama-muxed"])
    def test_derived_title_equals_a_bare_build(self, name):
        # The memo derives the title from the shared drama title; one
        # derived from a fresh drama title must be equal.
        from repro.media.content import drama_show
        from repro.runner.jobs import _DERIVED_TITLES

        def snapshot(content):
            table = content.chunk_table
            sizes = {tid: tuple(table.sizes(tid)) for tid in table.track_ids}
            return content.name, content.video, content.audio, sizes

        spec = ContentSpec(name)
        fresh = _DERIVED_TITLES[name](drama_show())
        assert snapshot(spec.build()) == snapshot(fresh)


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
