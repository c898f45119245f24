"""Parallel experiment execution with content-addressed result caching.

The experiment layer's grids (player x trace x rate x seed) are
embarrassingly parallel: every cell is one independent seeded
simulation. This package turns a grid cell into a picklable
:class:`~repro.runner.jobs.SimulationJob` *spec* — the recipe for a
session, not the session objects themselves — and fans specs out over
a :class:`concurrent.futures.ProcessPoolExecutor` while preserving
deterministic result ordering. A content-addressed on-disk cache
(:class:`~repro.runner.cache.ResultCache`, ``.repro-cache/`` by
default) replays previously simulated sessions bit-identically.

The engine is crash-safe: per-job wall-clock deadlines enforced by a
watchdog, crash isolation with capped retries on a fresh pool (a dead
or hung worker costs only its job), and checkpoint/resume — completed
cells stream into the cache as they finish, so an interrupted sweep
recomputes only its incomplete jobs. The :mod:`repro.chaos` harness
fault-injects real SIGKILLs, hangs, raises and torn cache entries to
prove those properties rather than assert them.

Entry points:

* :func:`run_jobs` — the engine: jobs in, ordered outcomes out.
* :class:`GridRunner` — per-experiment facade that binds the engine to
  the session-global :class:`RunnerOptions` (set by the CLI's
  ``--jobs`` / ``--cache`` flags) and accumulates cache/wall-time
  stats for ``ExperimentReport.params``.
"""

from .cache import CacheStats, ResultCache
from .engine import (
    EngineStats,
    GridRunner,
    JobOutcome,
    RunnerOptions,
    get_runner_options,
    run_jobs,
    runner_options,
    set_runner_options,
)
from .jobs import (
    ContentSpec,
    FailureSpec,
    PlayerSpec,
    SimulationJob,
    TraceSpec,
)

__all__ = [
    "CacheStats",
    "ContentSpec",
    "EngineStats",
    "FailureSpec",
    "GridRunner",
    "JobOutcome",
    "PlayerSpec",
    "ResultCache",
    "RunnerOptions",
    "SimulationJob",
    "TraceSpec",
    "get_runner_options",
    "run_jobs",
    "runner_options",
    "set_runner_options",
]
