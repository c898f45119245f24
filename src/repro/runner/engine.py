"""The crash-safe parallel job engine and the session-global options.

:func:`run_jobs` is the core: a list of
:class:`~repro.runner.jobs.SimulationJob` specs in, a list of
:class:`JobOutcome` out, *in input order* regardless of worker
completion order. ``workers=1`` (the default) executes in-process with
no executor at all, so single-worker runs are byte-identical to the
pre-runner serial loops; ``workers>1`` fans cache misses out over a
``ProcessPoolExecutor``. Determinism holds across both paths because
each worker rebuilds its cell from the spec — there is no shared RNG,
player or manifest state to race on.

The pool path is hardened against partial failure:

* **Crash isolation** — a worker that raises, segfaults, or takes the
  whole pool down (``BrokenProcessPool``) costs only the jobs it was
  running: they are requeued on a fresh pool up to ``retries`` extra
  attempts, then surfaced as failed :class:`JobOutcome`\\ s with
  ``error``/``attempts`` populated instead of aborting the grid.
* **Deadlines** — with ``timeout_s`` set, a watchdog kills workers
  whose job has run past its wall-clock budget and requeues the job;
  the hung attempt is charged against the retry cap.
* **Checkpoint/resume** — completed cells stream into the
  :class:`~repro.runner.cache.ResultCache` as they finish (not at grid
  end), so re-invoking an interrupted sweep replays the completed
  prefix from cache and recomputes only incomplete jobs.

The engine submits at most ``workers`` jobs at a time, so an in-flight
future is an *executing* attempt — which is what lets pool-break
recovery distinguish the guilty job from queued innocents, and the
watchdog measure execution time rather than queue time.

Experiments reach the engine through :class:`GridRunner`, which binds
the session-global :class:`RunnerOptions` (the CLI's ``--jobs`` /
``--cache`` / ``--job-timeout`` / ``--job-retries`` / ``--chaos``
flags), accumulates recovery statistics for
``ExperimentReport.params``, and runs the chaos invariant checker over
every chaos-surviving result.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExperimentError, SimulationError
from ..sim.records import SessionResult
from .cache import ResultCache
from .jobs import SimulationJob

#: Poll cadence of the watchdog / chaos-recovery loop. Plain blocking
#: waits are used when neither a deadline nor chaos is configured.
_POLL_TICK_S = 0.1


@dataclass
class JobOutcome:
    """One job's result plus where it came from and what it cost.

    ``wall_time_s`` is the *cumulative* cost across every attempt this
    job needed (per-attempt costs in ``attempt_times``), so report
    wall-time accounting stays truthful under retries. A job that
    exhausted its retries carries ``result=None`` and a diagnostic
    ``error``; the rest of the grid is unaffected.
    """

    job: SimulationJob
    result: Optional[SessionResult]
    wall_time_s: float
    cached: bool = False
    attempts: int = 1
    attempt_times: Tuple[float, ...] = ()
    error: Optional[str] = None
    #: Always ``False``: kept for ``benchmarks/e2e/workloads.py``.
    replayed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class EngineStats:
    """Recovery counters for one engine run (or one GridRunner's life)."""

    retried_jobs: int = 0  # jobs that succeeded only after a retry
    lost_attempts: int = 0  # attempts charged to crashes/hangs/raises
    watchdog_kills: int = 0  # attempts killed for running past deadline
    worker_crashes: int = 0  # attempts lost to a dead worker process
    job_failures: int = 0  # attempts that raised inside the job
    failed_jobs: int = 0  # jobs that exhausted every attempt
    pool_rebuilds: int = 0  # fresh pools after a break
    requeues: int = 0  # requeue events (charged and collateral)
    cache_resumes: int = 0  # retries satisfied by the cache re-check

    def any(self) -> bool:
        return any(value for value in vars(self).values())

    def as_dict(self) -> dict:
        return dict(vars(self))


def _execute(
    job: SimulationJob,
    attempt: int = 1,
    chaos=None,
    cache_root: Optional[str] = None,
    record_dir: Optional[str] = None,
    key: Optional[str] = None,
) -> Tuple[SessionResult, float]:
    """Worker entry point: run one attempt of ``job`` and time it.

    Module-level (picklable) on purpose; the wall time measured here is
    the job's own cost, excluding queueing and transport. When a chaos
    schedule is active the injector runs first — it may kill this
    process, sleep past the deadline, raise, or tear a cache entry.
    Every job type builds, runs and records itself through
    ``execute(attempt, log_path, key)``; with ``record_dir`` set its
    log goes to ``<record_dir>/<job key>.events.jsonl``, unless a
    complete log of this key is already there: then the job runs
    unrecorded and that log is kept as it is.

    ``key`` is the job's :meth:`~SimulationJob.key`, computed once by
    :func:`run_jobs`, which passes it whenever ``chaos`` or
    ``record_dir`` is set.
    """
    if chaos is not None:
        from ..chaos.injector import inject

        inject(chaos, key, attempt, cache_root)
    log_path = None
    if record_dir is not None:
        from ..replay.recorder import is_complete_log, record_path

        log_path = record_path(record_dir, key)
        if is_complete_log(log_path, key):
            log_path = None
    started = time.perf_counter()
    result = job.execute(attempt, log_path, key)
    return result, time.perf_counter() - started


class _JobState:
    """Per-job retry ledger while the grid is in flight."""

    __slots__ = ("attempts", "attempt_times", "last_error")

    def __init__(self):
        self.attempts = 0
        self.attempt_times: List[float] = []
        self.last_error: Optional[str] = None


def _pool_breaking(fault) -> bool:
    """Does this scheduled chaos fault take the whole pool down?"""
    from ..chaos.schedule import FaultKind

    return fault in (FaultKind.KILL, FaultKind.TRUNCATE)


def _kill_pool_workers(pool: ProcessPoolExecutor) -> int:
    """SIGKILL every worker process (the watchdog's hammer).

    ``_processes`` is a private attribute, but it is the only handle
    the stdlib gives us on a hung worker; guarded so a layout change
    degrades to "no kill" rather than a crash.
    """
    processes = getattr(pool, "_processes", None) or {}
    killed = 0
    for process in list(processes.values()):
        try:
            process.kill()
            killed += 1
        except Exception:
            pass
    return killed


def run_jobs(
    jobs: Sequence[SimulationJob],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    retries: int = 2,
    chaos=None,
    stats: Optional[EngineStats] = None,
    record_dir: Optional[str] = None,
) -> List[JobOutcome]:
    """Run every job, returning outcomes in input order.

    Cache hits short-circuit before any worker is consulted; misses are
    simulated (in-process for ``workers<=1``, else on the pool) and
    written back *as they complete*, so an interrupted grid resumes
    from its completed prefix. ``timeout_s`` is the per-job wall-clock
    deadline (pool mode only — a single in-process attempt cannot be
    preempted); ``retries`` caps the extra attempts a crashed, hung or
    raising job is granted before it is surfaced as a failed outcome.

    Each job's key is hashed at most once per call, and only when a
    cache, a record directory or a chaos schedule needs it; the cache,
    the log path, the recorder header, the chaos schedule and the
    log labels all share that one key.
    """
    stats = stats if stats is not None else EngineStats()
    if chaos is not None and workers <= 1:
        raise ExperimentError(
            "chaos injection needs workers >= 2: its faults kill real "
            "worker processes, which the in-process serial path cannot survive"
        )
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    keyed = cache is not None or record_dir is not None or chaos is not None
    keys: List[Optional[str]] = [job.key() if keyed else None for job in jobs]
    pending: deque = deque()
    for index, job in enumerate(jobs):
        if cache is not None:
            hit = cache.get(keys[index])
            if hit is not None:
                outcomes[index] = JobOutcome(
                    job=job,
                    result=hit,
                    wall_time_s=0.0,
                    cached=True,
                    attempts=0,
                )
                continue
        pending.append(index)

    run_serial = workers <= 1 or (
        len(pending) <= 1 and chaos is None and timeout_s is None
    )
    if run_serial:
        # Legacy semantics on purpose: in-process execution, exceptions
        # propagate (the tier-1 suite runs here), KeyboardInterrupt
        # leaves the completed prefix checkpointed in the cache.
        for index in pending:
            result, wall = _execute(
                jobs[index], record_dir=record_dir, key=keys[index]
            )
            outcomes[index] = JobOutcome(
                jobs[index], result, wall, attempts=1, attempt_times=(wall,)
            )
            if cache is not None:
                cache.put(keys[index], result)
    elif pending:
        _run_pool(
            jobs,
            keys,
            outcomes,
            pending,
            workers,
            cache,
            timeout_s,
            retries,
            chaos,
            stats,
            record_dir,
        )
    return [outcome for outcome in outcomes if outcome is not None]


def _run_pool(
    jobs: Sequence[SimulationJob],
    keys: Sequence[Optional[str]],
    outcomes: List[Optional[JobOutcome]],
    queue: deque,
    workers: int,
    cache: Optional[ResultCache],
    timeout_s: Optional[float],
    retries: int,
    chaos,
    stats: EngineStats,
    record_dir: Optional[str] = None,
) -> None:
    """The hardened pool loop: submit-throttle, watchdog, requeue."""
    log_path = chaos.log_path if chaos is not None else None

    def _log(**event):
        if log_path:
            from ..chaos.injector import log_event

            log_event(log_path, **event)

    states: Dict[int, _JobState] = {index: _JobState() for index in queue}
    inflight: Dict[object, Tuple[int, float]] = {}  # future -> (index, started)
    condemned: set = set()  # futures killed by the watchdog
    pool: Optional[ProcessPoolExecutor] = None
    # Slow-start: a crashing job can re-break a fresh pool faster than
    # any co-scheduled work completes, so every attempt sharing a pool
    # with it is lost collateral and the grid stops checkpointing.
    # After a break, probe with a single job until something completes,
    # then reopen the full submit window.
    throttle = workers
    poll = timeout_s is not None or chaos is not None

    def _charge(index: int, elapsed: float, error: str) -> None:
        state = states[index]
        state.attempts += 1
        state.attempt_times.append(elapsed)
        state.last_error = error
        stats.lost_attempts += 1

    def _settle(index: int) -> None:
        """Requeue a charged job, or fail it once attempts run out."""
        state = states[index]
        if state.attempts <= retries:
            # Head of the queue: a retry has already paid for its slot,
            # and (under chaos) is the likeliest job to complete — so
            # it is the right probe for a freshly rebuilt pool.
            queue.appendleft(index)
            stats.requeues += 1
            _log(
                event="requeue",
                job=jobs[index].label(keys[index]),
                attempt=state.attempts,
                error=state.last_error,
            )
        else:
            stats.failed_jobs += 1
            outcomes[index] = JobOutcome(
                job=jobs[index],
                result=None,
                wall_time_s=sum(state.attempt_times),
                attempts=state.attempts,
                attempt_times=tuple(state.attempt_times),
                error=state.last_error,
            )
            _log(
                event="job-failed",
                job=jobs[index].label(keys[index]),
                attempts=state.attempts,
                error=state.last_error,
            )

    try:
        while queue or inflight:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            # Submit-throttle: at most `workers` jobs in flight, so
            # every in-flight future is an executing attempt.
            pool_died_on_submit = False
            while queue and len(inflight) < throttle:
                index = queue.popleft()
                state = states[index]
                if cache is not None and state.attempts > 0:
                    # Another process (or a pre-crash write) may have
                    # finished this cell; a torn entry is evicted here.
                    hit = cache.get(keys[index])
                    if hit is not None:
                        stats.cache_resumes += 1
                        outcomes[index] = JobOutcome(
                            job=jobs[index],
                            result=hit,
                            wall_time_s=sum(state.attempt_times),
                            cached=True,
                            attempts=state.attempts,
                            attempt_times=tuple(state.attempt_times),
                        )
                        continue
                try:
                    future = pool.submit(
                        _execute,
                        jobs[index],
                        state.attempts + 1,
                        chaos,
                        cache.root if cache is not None else None,
                        record_dir,
                        keys[index],
                    )
                except BrokenProcessPool:
                    queue.appendleft(index)
                    pool_died_on_submit = True
                    break
                inflight[future] = (index, time.monotonic())
            if pool_died_on_submit and not inflight:
                pool.shutdown(wait=False)
                pool = None
                stats.pool_rebuilds += 1
                throttle = 1
                continue
            if not inflight:
                continue  # everything left resolved from the cache

            done, _ = wait(
                set(inflight),
                timeout=_POLL_TICK_S if poll else None,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            broken = pool_died_on_submit
            for future in done:
                index, started = inflight.pop(future)
                state = states[index]
                attempt = state.attempts + 1
                try:
                    result, wall = future.result()
                except BrokenProcessPool:
                    broken = True
                    elapsed = now - started
                    if future in condemned:
                        _charge(
                            index,
                            elapsed,
                            f"deadline exceeded: attempt {attempt} ran past "
                            f"the {timeout_s:g}s wall-clock limit",
                        )
                        stats.watchdog_kills += 1
                        _settle(index)
                    elif chaos is not None and not _pool_breaking(
                        chaos.fault_for(keys[index], attempt)
                    ):
                        # The deterministic schedule names the guilty
                        # job; this one was an innocent bystander of a
                        # chaos kill — requeue it uncharged.
                        queue.appendleft(index)
                        stats.requeues += 1
                    else:
                        _charge(
                            index,
                            elapsed,
                            f"worker died on attempt {attempt}: process pool "
                            "broken (killed, segfaulted, or OOM)",
                        )
                        stats.worker_crashes += 1
                        _settle(index)
                except Exception as exc:
                    _charge(
                        index,
                        now - started,
                        f"attempt {attempt} raised "
                        f"{type(exc).__name__}: {exc}",
                    )
                    stats.job_failures += 1
                    _settle(index)
                else:
                    throttle = workers  # slow-start over: work completes
                    state.attempts = attempt
                    state.attempt_times.append(wall)
                    outcomes[index] = JobOutcome(
                        job=jobs[index],
                        result=result,
                        wall_time_s=sum(state.attempt_times),
                        attempts=state.attempts,
                        attempt_times=tuple(state.attempt_times),
                    )
                    if state.attempts > 1:
                        stats.retried_jobs += 1
                    if cache is not None:
                        # Checkpoint: stream the cell to disk now, so an
                        # interrupted grid resumes from here.
                        cache.put(keys[index], result)
                condemned.discard(future)

            # Watchdog: kill the pool when any attempt overruns its
            # deadline. SIGKILL takes every worker (the stdlib pool has
            # no per-worker kill), but only condemned jobs are charged;
            # collateral jobs requeue uncharged via the chaos/innocent
            # paths above (non-chaos runs charge them conservatively —
            # the culprit of a real crash cannot be identified).
            if timeout_s is not None and inflight and not broken:
                overdue = [
                    future
                    for future, (index, started) in inflight.items()
                    if now - started > timeout_s and future not in condemned
                ]
                if overdue:
                    for future in overdue:
                        condemned.add(future)
                        index, started = inflight[future]
                        _log(
                            event="watchdog-kill",
                            job=jobs[index].label(keys[index]),
                            attempt=states[index].attempts + 1,
                            ran_s=round(now - started, 3),
                        )
                    _kill_pool_workers(pool)

            if broken:
                pool.shutdown(wait=False)
                pool = None
                stats.pool_rebuilds += 1
                throttle = 1
                _log(event="pool-rebuild")
        if pool is not None:
            # Every job settled, so the workers are idle: join them, and
            # leave no live child behind once the grid returns.
            pool.shutdown(wait=True)
            pool = None
    finally:
        if pool is not None:
            pool.shutdown(wait=False)


# -- session-global options -------------------------------------------------


@dataclass(frozen=True)
class RunnerOptions:
    """How grid experiments should execute in this session.

    ``workers=1`` and ``cache_dir=None`` (the defaults) reproduce the
    historical serial, uncached behaviour exactly — the tier-1 suite
    runs under these defaults. ``job_timeout_s``/``job_retries`` bound
    each job's wall clock and retry budget on the pool path; ``chaos``
    (a :class:`~repro.chaos.schedule.ChaosSchedule`) arms the fault
    injector.
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    job_timeout_s: Optional[float] = None
    job_retries: int = 2
    chaos: Optional[object] = None
    #: Directory for per-job event logs (``--record``): each cell's
    #: session streams to ``<record_dir>/<job key>.events.jsonl``; a
    #: complete log already there is kept, not recorded again.
    record_dir: Optional[str] = None


_OPTIONS = RunnerOptions()


def get_runner_options() -> RunnerOptions:
    return _OPTIONS


def set_runner_options(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    job_timeout_s: Optional[float] = None,
    job_retries: Optional[int] = None,
    chaos: Optional[object] = None,
    record_dir: Optional[str] = None,
) -> RunnerOptions:
    """Replace the session-global options; returns the new value."""
    global _OPTIONS
    changes: Dict[str, object] = {}
    if workers is not None:
        changes["workers"] = max(1, int(workers))
    changes["cache_dir"] = cache_dir
    changes["job_timeout_s"] = job_timeout_s
    if job_retries is not None:
        changes["job_retries"] = max(0, int(job_retries))
    changes["chaos"] = chaos
    changes["record_dir"] = record_dir
    # Session-global knobs by design: read in the parent at submit
    # time, never inside a worker.
    _OPTIONS = replace(_OPTIONS, **changes)
    return _OPTIONS


@contextmanager
def runner_options(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    job_timeout_s: Optional[float] = None,
    job_retries: Optional[int] = None,
    chaos: Optional[object] = None,
    record_dir: Optional[str] = None,
) -> Iterator[RunnerOptions]:
    """Temporarily override the global options (the CLI uses this)."""
    global _OPTIONS
    previous = _OPTIONS
    try:
        yield set_runner_options(
            workers=workers,
            cache_dir=cache_dir,
            job_timeout_s=job_timeout_s,
            job_retries=job_retries,
            chaos=chaos,
            record_dir=record_dir,
        )
    finally:
        # Restores the parent-side session global on context-manager
        # exit.
        _OPTIONS = previous


class GridRunner:
    """Per-experiment facade over the engine and the global options.

    One instance per experiment run: it owns a fresh
    :class:`~repro.runner.cache.CacheStats` window (via its own
    :class:`ResultCache` handle) and a fresh :class:`EngineStats`
    ledger, so ``params()`` reports the cache and recovery behaviour
    of *this* experiment, not the whole process. When a chaos schedule
    is armed, every surviving result is swept by the session-invariant
    checker (:mod:`repro.chaos.invariants`) — a violation raises
    rather than letting a damaged row into a report.
    """

    def __init__(self):
        options = get_runner_options()
        self.workers = options.workers
        self.cache = ResultCache(options.cache_dir) if options.cache_dir else None
        self.job_timeout_s = options.job_timeout_s
        self.job_retries = options.job_retries
        self.chaos = options.chaos
        self.record_dir = options.record_dir
        self.stats = EngineStats()
        self._simulated = 0
        self._uncached = 0
        self._sim_wall_s = 0.0
        self._slowest_s = 0.0
        self._invariants_checked = 0

    def run(
        self, jobs: Sequence[SimulationJob], use_cache: bool = True
    ) -> List[JobOutcome]:
        """Run a grid; ``use_cache=False`` forces fresh simulation
        (used by determinism checks that must not compare a cached
        result against itself)."""
        cache = self.cache if use_cache else None
        outcomes = run_jobs(
            jobs,
            workers=self.workers,
            cache=cache,
            timeout_s=self.job_timeout_s,
            retries=self.job_retries,
            chaos=self.chaos,
            stats=self.stats,
            record_dir=self.record_dir if use_cache else None,
        )
        for outcome in outcomes:
            if not outcome.cached and outcome.ok:
                if use_cache:
                    self._simulated += 1
                else:
                    self._uncached += 1
                self._sim_wall_s += outcome.wall_time_s
                self._slowest_s = max(self._slowest_s, outcome.wall_time_s)
        if self.chaos is not None:
            from ..chaos.invariants import check_outcomes

            self._invariants_checked += sum(
                1 for o in outcomes if o.result is not None
            )
            violations = check_outcomes(outcomes)
            if violations:
                shown = "; ".join(str(v) for v in violations[:5])
                raise SimulationError(
                    f"{len(violations)} session invariant violation(s) in "
                    f"chaos-surviving results: {shown}"
                )
        return outcomes

    def results(
        self, jobs: Sequence[SimulationJob], use_cache: bool = True
    ) -> List[SessionResult]:
        """Shorthand when only the session results matter.

        Experiments need complete grids: any job that exhausted its
        retries fails the whole call loudly rather than silently
        dropping a cell from the report.
        """
        outcomes = self.run(jobs, use_cache=use_cache)
        failed = [o for o in outcomes if not o.ok]
        if failed:
            first = failed[0]
            raise ExperimentError(
                f"{len(failed)}/{len(outcomes)} job(s) failed after "
                f"{first.attempts} attempt(s); first: "
                f"job {first.job.label()}: {first.error}"
            )
        return [outcome.result for outcome in outcomes]

    def params(self) -> dict:
        """Runner provenance for ``ExperimentReport.params``."""
        stats = {
            "workers": self.workers,
            "simulated": self._simulated,
            "sim_wall_s": round(self._sim_wall_s, 3),
            "slowest_job_s": round(self._slowest_s, 3),
        }
        if self._uncached:
            # use_cache=False re-runs (determinism checks) simulate on
            # every invocation; "simulated" counts cache misses only.
            stats["uncached"] = self._uncached
        if self.job_timeout_s is not None:
            stats["job_timeout_s"] = self.job_timeout_s
        if self.record_dir is not None:
            stats["record_dir"] = self.record_dir
        if self.chaos is not None:
            stats["chaos"] = self.chaos.spec()
            stats["job_retries"] = self.job_retries
            stats["invariants_checked"] = self._invariants_checked
        if self.stats.any():
            stats["recovery"] = self.stats.as_dict()
        if self.cache is not None:
            stats["cache"] = self.cache.stats.as_dict()
        return stats
