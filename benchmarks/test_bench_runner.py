"""repro.runner — engine overhead, cache replay and record/replay speed.

Three costs matter: what the job/spec machinery adds on top of the bare
serial loop (should be negligible), how fast a fully warmed cache
replays a grid, and what recording an event log and replaying it cost
on a measured-shape trace. A warm cache serves these short
constant-link sessions several times faster than simulating them, not
orders of magnitude faster: unpickling a result is not free.

The measured-shape timers (``test_bench_measured_spec_key``,
``test_bench_record_then_replay``) are gated by the CI ``perf`` job.
A key that deep-copies its 1200-pair trace again, or an encoder or
decoder that goes back to per-value work, shows up there as a
multiple, not a percentage.
"""

import os
import pickle

import pytest

from repro.framing import scan_line_file
from repro.net.traces import random_walk
from repro.replay.recorder import record_path
from repro.replay.replayer import replay_session
from repro.runner import (
    PlayerSpec,
    ResultCache,
    SimulationJob,
    TraceSpec,
    run_jobs,
)

GRID = [
    SimulationJob(
        player=PlayerSpec(name, combinations=combos),
        trace=TraceSpec.constant(kbps),
    )
    for kbps in (500.0, 1000.0, 2000.0)
    for name, combos in (("recommended", "hsub"), ("dashjs", "hsub"))
]


def test_bench_runner_serial_grid(benchmark):
    outcomes = benchmark(run_jobs, GRID, 1)
    assert len(outcomes) == len(GRID)
    assert all(o.result.completed for o in outcomes)


def test_bench_runner_cached_replay(benchmark, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    run_jobs(GRID, workers=1, cache=cache)  # warm it

    def replay():
        return run_jobs(GRID, workers=1, cache=ResultCache(str(tmp_path / "cache")))

    outcomes = benchmark(replay)
    assert all(o.cached for o in outcomes)


def test_bench_job_key_hashing(benchmark):
    job = GRID[0]
    key = benchmark(job.key)
    assert len(key) == 64


#: A measured-shape job: 10 minutes of bandwidth at 0.5 s granularity.
MEASURED_JOB = SimulationJob(
    trace=TraceSpec.pairs(
        random_walk(
            1500.0, seed=3, floor_kbps=50.0, n_segments=1200, segment_duration_s=0.5
        ).to_pairs()
    ),
    rtt_s=0.05,
)


def test_bench_measured_spec_key(benchmark):
    key = benchmark(MEASURED_JOB.key)
    assert len(key) == 64


def test_bench_record_then_replay(benchmark, tmp_path):
    """Record one measured-shape session, then replay its log."""
    dirs = (str(tmp_path / f"round{n}") for n in range(10**6))
    key = MEASURED_JOB.key()

    def record_then_replay(record_dir):
        (outcome,) = run_jobs([MEASURED_JOB], record_dir=record_dir)
        return outcome, replay_session(record_path(record_dir, key))

    outcome, replayed = benchmark.pedantic(
        record_then_replay, setup=lambda: ((next(dirs),), {}), rounds=15
    )
    assert not outcome.cached and outcome.result.completed
    assert replayed.intact and replayed.has_verdict
    assert replayed.result.summary() == outcome.result.summary()
    # The work timed: events recorded, log bytes written, and the size
    # of the result as the cache pickles it. A timing only compares
    # with the pin for the same work.
    assert len(scan_line_file(replayed.path).payloads) == 2278
    assert os.path.getsize(replayed.path) == 332029
    pickled = pickle.dumps(outcome.result, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(pickled) == 60451


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only"])
