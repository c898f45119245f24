"""The four benchmark workloads: inputs from a seed, passes, checks.

Each workload turns ``--seed`` into a fixed list of specs, then runs
the same list on every pass, so every pass must fold to the same
sha256 digest. A pass calls the program only through its public API,
one job at a time in this process (a closed loop with one caller). The
harness times each job around the program calls alone; checks and
digest folding happen outside the timed region.

A *job* is the unit ``job_ms_p50`` is taken over:

* ``paper-all`` — one ``run_experiment(name)``;
* ``measured-grid`` — one ``run_jobs([job])`` plus ``compute_qoe``;
* ``record-replay`` — one spec through all three phases (record,
  replay, warm-cache hit), each of which delivers one session;
* ``flashcrowd-1k`` — one ``CohortJob.execute()`` cell.

A job fails when it raises, when the runner reports ``ok == False``,
when a session or cohort breaks an invariant of
:mod:`repro.chaos.invariants` (which includes ending without a
verdict), when replayed or cached QoE differs from fresh QoE, or when
an experiment is not ``REPRODUCED``. Degraded verdicts such as
``attempts_exhausted`` are simulated outcomes, not failures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.chaos.invariants import check_cohort, check_session
from repro.experiments import experiment_names, run_experiment
from repro.net.resilience import RetryPolicy
from repro.qoe.metrics import compute_qoe
from repro.replay.recorder import record_path
from repro.replay.replayer import replay_session
from repro.runner import (
    ContentSpec,
    FailureSpec,
    PlayerSpec,
    ResultCache,
    SimulationJob,
    TraceSpec,
    run_jobs,
)
from repro.runner.jobs import PLAYER_NAMES
from repro.topology import (
    CohortJob,
    FaultDomainKind,
    FaultDomainSchedule,
    FaultWindow,
    TopologySpec,
)

_clock = time.perf_counter

#: Trace means (kbps): from where only the lowest A/V combinations of
#: the drama ladder fit to above its top combination (about 3.1 Mbps).
MEANS_KBPS = (400.0, 900.0, 1500.0, 2400.0, 4000.0)
#: 1200 samples of 0.5 s: the capture shape of measured traces.
TRACE_SAMPLES = 1200
TRACE_STEP_S = 0.5
RTT_S = 0.05
FAILURE_P = 0.15
#: Record/replay logs and caches, at the repository root; every pass
#: removes what it wrote.
SCRATCH_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    ".bench_tmp",
)


class PassLog:
    """What one pass did: job times, sessions, failures, digest."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.job_s: List[float] = []
        self.sessions = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.failed_jobs: set = set()
        #: Named extra timings and counts: phase seconds, log bytes,
        #: per-experiment seconds, per-cell seconds and requests.
        self.info: Dict[str, float] = {}
        self._sha = hashlib.sha256()

    def fold(self, *values) -> None:
        self._sha.update(repr(values).encode("utf-8"))

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def add(self, key: str, value: float) -> None:
        self.info[key] = self.info.get(key, 0.0) + value

    def call(self, job_id, fn: Callable):
        """Run ``fn`` as one timed operation; returns (ok, value, seconds).

        An exception is a failed operation, recorded with its traceback
        tail; the pass continues with the next job.
        """
        self.attempted += 1
        close = self.tracer.job_span(job_id) if self.tracer is not None else None
        start = _clock()
        try:
            value = fn()
        except Exception:  # a failed operation, counted, not fatal
            self.fail(job_id, traceback.format_exc(limit=3).strip())
            return False, None, _clock() - start
        finally:
            if close is not None:
                close()
        return True, value, _clock() - start

    def fail(self, job_id, message: str) -> None:
        self.failed_jobs.add(job_id)
        self.failures.append(f"job {job_id}: {message}")


def _qoe_tuple(report) -> tuple:
    return dataclasses.astuple(report)


# -- inputs -------------------------------------------------------------------


def measured_trace(rng: random.Random, mean_kbps: float) -> TraceSpec:
    """A 1200 x 0.5 s trace around ``mean_kbps``.

    Log-rate follows an AR(1) walk, so capacity wanders over tens of
    seconds with sub-second jitter on top, as in measured captures.
    """
    phi, sigma = 0.97, 0.12
    spread = sigma / math.sqrt(1.0 - phi * phi)
    x = rng.gauss(0.0, spread)
    pairs = []
    for _ in range(TRACE_SAMPLES):
        x = phi * x + rng.gauss(0.0, sigma)
        kbps = mean_kbps * math.exp(x - spread * spread / 2.0)
        pairs.append((TRACE_STEP_S, round(max(50.0, kbps), 1)))
    return TraceSpec.pairs(pairs)


def grid_jobs(seed: int, count: int) -> List[SimulationJob]:
    """``count`` jobs cycling over 5 players x 5 trace means; every 4th
    job injects failures.

    With ``count`` a multiple of 25, every (player, mean) cell gets the
    same number of jobs, so the mix of work does not depend on the
    seed; the seed only shapes traces and failure draws.
    """
    rng = random.Random(seed)
    cells = [(player, mean) for player in PLAYER_NAMES for mean in MEANS_KBPS]
    jobs = []
    for index in range(count):
        player, mean = cells[index % len(cells)]
        failing = index % 4 == 3
        jobs.append(
            SimulationJob(
                player=PlayerSpec(player),
                trace=measured_trace(rng, mean),
                rtt_s=RTT_S,
                failure=(
                    FailureSpec.with_mix(FAILURE_P, rng.randrange(1 << 31), None)
                    if failing
                    else None
                ),
                retry_policy=RetryPolicy() if failing else None,
                seed=seed * 1000 + index // len(cells),
            )
        )
    return jobs


def _session_checks(log: PassLog, job_id, outcomes) -> bool:
    ok = True
    for outcome in outcomes:
        if not outcome.ok or outcome.result is None:
            log.fail(job_id, f"runner outcome not ok: {outcome.error}")
            ok = False
            continue
        # check_session directly: check_outcomes would label each
        # violation with the job's key, which costs more than the job.
        for violation in check_session(outcome.result):
            log.fail(job_id, f"invariant: {violation}")
            ok = False
    return ok


# -- workloads ----------------------------------------------------------------


class Workload:
    """One named workload; subclasses build inputs and run passes."""

    name = ""
    #: Does the warm-up run the same jobs as a timed pass (so its
    #: digest must match theirs)?
    warmup_is_pass = False

    def run_pass(self, tracer=None) -> PassLog:
        raise NotImplementedError

    def warmup(self, tracer=None) -> PassLog:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything the workload keeps between passes."""


class PaperAll(Workload):
    """Every registered experiment, in registry order.

    The seed is ignored: these are the paper's fixed configurations.
    """

    name = "paper-all"
    warmup_is_pass = True

    def __init__(self, seed: int, experiments: Optional[Sequence[str]] = None):
        self.experiments = list(experiments or experiment_names())

    def run_pass(self, tracer=None) -> PassLog:
        log = PassLog(tracer)
        for name in self.experiments:
            ok, report, seconds = log.call(name, lambda: run_experiment(name))
            log.job_s.append(seconds)
            log.add(f"experiment.{name}", seconds)
            if not ok:
                continue
            if report.status != "REPRODUCED":
                failed = [c.description for c in report.checks if not c.passed]
                log.fail(name, f"status {report.status}: {failed}")
            log.fold(
                report.experiment_id,
                report.status,
                report.header,
                report.rows,
                report.series,
                report.timelines,
                [(c.description, c.passed, c.detail) for c in report.checks],
            )
        return log

    warmup = run_pass


class MeasuredGrid(Workload):
    """Single sessions on measured-shape traces across the 5 players."""

    name = "measured-grid"

    def __init__(self, seed: int, n_jobs: int = 100):
        self.jobs = grid_jobs(seed, n_jobs)
        self.content = ContentSpec().build()

    def _run(self, jobs, tracer) -> PassLog:
        log = PassLog(tracer)
        content = self.content
        for index, job in enumerate(jobs):

            def op(job=job):
                outcomes = run_jobs([job])
                return outcomes, compute_qoe(outcomes[0].result, content)

            ok, value, seconds = log.call(index, op)
            log.job_s.append(seconds)
            log.sessions += 1
            if not ok:
                continue
            outcomes, qoe = value
            if _session_checks(log, index, outcomes):
                result = outcomes[0].result
                log.fold(result.completed, result.termination_reason, _qoe_tuple(qoe))
        return log

    def run_pass(self, tracer=None) -> PassLog:
        return self._run(self.jobs, tracer)

    def warmup(self, tracer=None) -> PassLog:
        return self._run(self.jobs[: len(PLAYER_NAMES) * len(MEANS_KBPS)], tracer)


class RecordReplay(Workload):
    """Record sessions to event logs and the cache, then read them back.

    Each pass uses fresh directories under ``scratch_root`` (by default
    inside the checkout) and removes them afterwards, so every pass
    records into empty directories.
    """

    name = "record-replay"

    def __init__(self, seed: int, n_jobs: int = 25, scratch_root: str = SCRATCH_ROOT):
        self.jobs = grid_jobs(seed, n_jobs)
        self.content = ContentSpec().build()
        # Keys locate the logs; computing them is input preparation,
        # not part of any timed phase.
        self.keys = [job.key() for job in self.jobs]
        self.scratch_root = scratch_root

    def _run(self, count: int, tracer) -> PassLog:
        os.makedirs(self.scratch_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="record-replay-", dir=self.scratch_root)
        try:
            return self._phases(count, tracer, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _phases(self, count: int, tracer, workdir: str) -> PassLog:
        log = PassLog(tracer)
        content = self.content
        record_dir = os.path.join(workdir, "logs")
        cache = ResultCache(os.path.join(workdir, "cache"))
        jobs = self.jobs[:count]
        spent = [0.0] * count
        fresh: List[Optional[tuple]] = [None] * count

        for index, job in enumerate(jobs):

            def record(job=job):
                outcomes = run_jobs([job], cache=cache, record_dir=record_dir)
                return outcomes, compute_qoe(outcomes[0].result, content)

            ok, value, seconds = log.call(("record", index), record)
            spent[index] += seconds
            log.add("record_s", seconds)
            if not ok:
                continue
            outcomes, qoe = value
            if outcomes[0].cached or outcomes[0].replayed:
                log.fail(("record", index), "record phase did not simulate")
            elif _session_checks(log, ("record", index), outcomes):
                fresh[index] = _qoe_tuple(qoe)
                result = outcomes[0].result
                log.fold(result.completed, result.termination_reason, fresh[index])
            path = record_path(record_dir, self.keys[index])
            if os.path.exists(path):
                log.add("log_bytes", os.path.getsize(path))

        for index in range(count):
            path = record_path(record_dir, self.keys[index])

            def replay(path=path):
                replayed = replay_session(path)
                return replayed, replayed.qoe()

            ok, value, seconds = log.call(("replay", index), replay)
            spent[index] += seconds
            log.add("replay_s", seconds)
            if not ok:
                continue
            replayed, qoe = value
            if not (replayed.intact and replayed.has_verdict):
                log.fail(("replay", index), f"replayed log damaged: {replayed.damage}")
            elif _qoe_tuple(qoe) != fresh[index]:
                log.fail(("replay", index), "replayed QoE differs from fresh QoE")

        for index, job in enumerate(jobs):

            def hit(job=job):
                outcomes = run_jobs([job], cache=cache)
                return outcomes, compute_qoe(outcomes[0].result, content)

            ok, value, seconds = log.call(("hit", index), hit)
            spent[index] += seconds
            log.add("hit_s", seconds)
            if not ok:
                continue
            outcomes, qoe = value
            if not outcomes[0].cached:
                log.fail(("hit", index), "warm-cache phase missed the cache")
            elif _qoe_tuple(qoe) != fresh[index]:
                log.fail(("hit", index), "cached QoE differs from fresh QoE")

        log.job_s = spent
        log.sessions = 3 * count
        return log

    def run_pass(self, tracer=None) -> PassLog:
        return self._run(len(self.jobs), tracer)

    def warmup(self, tracer=None) -> PassLog:
        return self._run(min(5, len(self.jobs)), tracer)

    def close(self) -> None:
        try:
            os.rmdir(self.scratch_root)
        except OSError:
            pass  # not empty (another run uses it) or already gone


def cohort_job(n_sessions: int, seed: int) -> CohortJob:
    """A flash crowd of ``n_sessions`` on 4 edges sized 250 kbps per
    session, with edge-1 dark from t=60 s to t=100 s."""
    outage = FaultDomainSchedule(
        kinds=(),
        pinned=(
            FaultWindow(FaultDomainKind.EDGE_OUTAGE, "edge-1", start_s=60.0, end_s=100.0),
        ),
    )
    return CohortJob(
        topology=TopologySpec.uniform(4, capacity_kbps=250.0 * n_sessions),
        faults=outage,
        n_sessions=n_sessions,
        arrival_burst_s=30.0,
        keep_summaries=False,
        seed=seed,
    )


class Flashcrowd(Workload):
    """Cohort cells of 250 and 1000 sessions; their per-request cost
    ratio is the cohort scaling curve.

    A 4000-session cell takes about 12 s on a 2-core VM, too long to
    repeat often enough in one run for a fastest-of-passes estimate; 250
    and 1000 keep the 4x size step that shows superlinear growth.
    """

    name = "flashcrowd-1k"

    def __init__(self, seed: int, sizes: Sequence[int] = (250, 1000), warm: int = 50):
        self.cells = [cohort_job(n, seed) for n in sizes]
        self.warm_cell = cohort_job(warm, seed)

    def _run(self, cells, tracer) -> PassLog:
        log = PassLog(tracer)
        for index, job in enumerate(cells):
            ok, result, seconds = log.call(index, job.execute)
            log.job_s.append(seconds)
            log.sessions += job.n_sessions
            if not ok:
                continue
            for violation in check_cohort(result):
                log.fail(index, f"cohort invariant: {violation}")
            if result.n_sessions != job.n_sessions:
                log.fail(index, f"{result.n_sessions} sessions, wanted {job.n_sessions}")
            log.add(f"cell{index}.run_s", seconds)
            log.add(
                f"cell{index}.requests",
                sum(e["cache_hits"] + e["cache_misses"] for e in result.edges.values()),
            )
            log.fold(
                json.dumps(result.aggregate, sort_keys=True, default=repr),
                json.dumps(result.edges, sort_keys=True, default=repr),
                sorted(result.verdict_counts.items()),
            )
        return log

    def run_pass(self, tracer=None) -> PassLog:
        return self._run(self.cells, tracer)

    def warmup(self, tracer=None) -> PassLog:
        return self._run([self.warm_cell], tracer)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperAll, MeasuredGrid, RecordReplay, Flashcrowd)
}
