"""Cohort jobs: content-addressed units of multi-session simulation.

A :class:`CohortJob` is to the cohort kernel what
:class:`~repro.runner.jobs.SimulationJob` is to the single-session
kernel: frozen plain data whose sha256 key is its identity in the
result cache, rebuilt into live state inside whichever worker runs it.
Both job types share one protocol — ``key()`` over
:func:`~repro.runner.jobs.spec_key` and ``execute(attempt, log_path,
key)`` — so cohort cells ride the runner's machinery (parallel pools,
crash-safe checkpointing, chaos injection, resume) without the engine
knowing anything about topologies.

The fault schedule serializes into the key via its round-trippable
spec string (:meth:`~repro.topology.faults.FaultDomainSchedule.spec`),
so two jobs agree on their key exactly when they would replay the
identical storm.

Like :class:`~repro.runner.jobs.SimulationJob`, the cohort key layout
is pinned by ``tests/test_runner.py`` (``TestKeyContract``); a semantic
change also bumps :data:`COHORT_SPEC_SCHEMA_VERSION`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import SimulationError
from ..net.resilience import FailoverPolicy, RetryPolicy
from ..runner.jobs import ContentSpec, spec_key
from .faults import FaultDomainSchedule
from .spec import TopologySpec

#: Bumped when the meaning of an existing cohort-spec field changes.
#: Version 2: the fault spec string carries every schedule and window
#: field at full float precision (version 1 keys collided).
COHORT_SPEC_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CohortJob:
    """One cohort cell: N sessions on one topology under one storm.

    Session ``i`` arrives at ``i * arrival_burst_s / n_sessions`` (the
    flash-crowd window); ``max_sim_time_s`` is the ceiling past which
    surviving sessions end degraded; ``keep_summaries=False`` drops the
    per-session summaries (the aggregate is kept) for very large
    cohorts.
    """

    topology: TopologySpec = field(default_factory=TopologySpec)
    faults: Optional[FaultDomainSchedule] = None
    content: ContentSpec = field(default_factory=ContentSpec)
    n_sessions: int = 100
    arrival_burst_s: float = 30.0
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    failover: FailoverPolicy = field(default_factory=FailoverPolicy)
    seed: int = 0
    max_sim_time_s: float = 3600.0
    keep_summaries: bool = True

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise SimulationError(
                f"cohort needs at least one session, got {self.n_sessions}"
            )
        if self.arrival_burst_s < 0:
            raise SimulationError(
                f"arrival burst must be >= 0, got {self.arrival_burst_s}"
            )
        if self.max_sim_time_s <= 0:
            raise SimulationError(
                f"max sim time must be positive, got {self.max_sim_time_s}"
            )

    def spec_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready form; the basis of the cache key."""
        return {
            "schema": COHORT_SPEC_SCHEMA_VERSION,
            "kind": "cohort",
            "topology": dataclasses.asdict(self.topology),
            "faults": None if self.faults is None else self.faults.spec(),
            "content": dataclasses.asdict(self.content),
            "n_sessions": self.n_sessions,
            "arrival_burst_s": self.arrival_burst_s,
            "retry_policy": dataclasses.asdict(self.retry_policy),
            "failover": dataclasses.asdict(self.failover),
            "seed": self.seed,
            "max_sim_time_s": self.max_sim_time_s,
            "keep_summaries": self.keep_summaries,
        }

    def key(self) -> str:
        """Stable content-addressed identity of this job."""
        return spec_key(self.spec_dict())

    def label(self, key: Optional[str] = None) -> str:
        """Short human identity for chaos logs and failure messages;
        ``key`` is this job's :meth:`key` when the caller holds it."""
        key = self.key() if key is None else key
        storm = "clean" if self.faults is None else "storm"
        return (
            f"cohort{self.n_sessions}/{len(self.topology.edges)}edges"
            f"/{storm}/s{self.seed}#{key[:10]}"
        )

    def execute(
        self,
        attempt: int = 1,
        log_path: Optional[str] = None,
        key: Optional[str] = None,
    ):
        """Run the cohort to a :class:`~repro.sim.cohort.CohortResult`.

        ``log_path`` writes the schema-2 fault-domain event log there —
        the CI artifact showing which windows opened and who failed
        over where. ``key`` is this job's :meth:`key` when the caller
        already holds it. ``attempt`` is accepted for the runner's job
        protocol; a cohort run does not depend on it.
        """
        result = self.kernel().run()
        if log_path is not None:
            self._record_fault_log(
                result, log_path, self.key() if key is None else key
            )
        return result

    def kernel(self):
        """The :class:`~repro.sim.cohort.CohortKernel` that
        :meth:`execute` runs, not yet run; after its ``run()``, its
        ``work()`` holds the exact scheduler counts."""
        # Deferred import: topology.* must stay importable without the
        # sim layer (which itself imports topology specs for the kernel).
        from ..core.combinations import curated_combinations
        from ..sim.cohort import CohortKernel

        content = self.content.build()
        windows = (
            () if self.faults is None else self.faults.windows_for(self.topology)
        )
        return CohortKernel(self, content, curated_combinations(content), windows)

    def _record_fault_log(self, result, log_path: str, key: str) -> None:
        """Write the cohort's fault-domain event log (schema 2)."""
        from ..replay.recorder import EventRecorder

        meta = {
            "job": self.spec_dict(),
            "key": key,
            "label": self.label(key),
            # Topology fields: their presence stamps the header schema 2.
            "edges": [edge.edge_id for edge in self.topology.edges],
        }
        with EventRecorder(log_path, meta) as rec:
            rec.emit("session_meta", {"n_sessions": self.n_sessions})
            for window in result.fault_windows:
                rec.emit("fault_window", dict(window))
            for event in result.fault_events:
                payload = dict(event)
                kind = payload.pop("k")
                rec.emit(f"fault_{kind}" if not kind.startswith("fault") else kind,
                         payload)
            rec.emit(
                "verdict",
                {
                    "completed": result.completed_sessions,
                    "degraded": result.degraded_sessions,
                    "verdicts": result.verdict_counts,
                },
            )
