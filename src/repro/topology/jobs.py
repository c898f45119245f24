"""Cohort jobs: content-addressed units of multi-session simulation.

A :class:`CohortJob` is to the cohort kernel what
:class:`~repro.runner.jobs.SimulationJob` is to the single-session
kernel: frozen plain data whose sha256 key is its identity in the
result cache, rebuilt into live state inside whichever worker runs it.
The runner engine dispatches on the job's ``execute`` hook, so cohort
cells ride the existing machinery — parallel pools, crash-safe
checkpointing, chaos injection, resume — without the engine knowing
anything about topologies.

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
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..net.resilience import FailoverPolicy, RetryPolicy
from ..runner.jobs import ContentSpec
from .faults import FaultDomainSchedule
from .spec import TopologySpec

#: Bumped when the meaning of an existing cohort-spec field changes.
COHORT_SPEC_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CohortJob:
    """One cohort cell: N sessions on one topology under one storm."""

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
        canonical = json.dumps(
            self.spec_dict(), sort_keys=True, separators=(",", ":"), default=list
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self, key: Optional[str] = None) -> str:
        """Short human identity for chaos logs and failure messages;
        ``key`` is this job's :meth:`key` when the caller holds it."""
        key = self.key() if key is None else key
        storm = "clean" if self.faults is None else "storm"
        return (
            f"cohort{self.n_sessions}/{len(self.topology.edges)}edges"
            f"/{storm}/s{self.seed}#{key[:10]}"
        )

    def execute(self, attempt: int = 1, record_dir: Optional[str] = None):
        """Run the cohort; the engine's job-agnostic entry point.

        ``record_dir`` writes a schema-2 fault-domain event log next to
        the session logs single-session jobs record — the CI artifact
        showing which windows opened and who failed over where.
        """
        # Deferred import: topology.* must stay importable without the
        # sim layer (which itself imports topology specs for the kernel).
        from ..core.combinations import curated_combinations
        from ..sim.cohort import CohortConfig, CohortKernel

        content = self.content.build()
        combos = curated_combinations(content)
        windows = (
            () if self.faults is None else self.faults.windows_for(self.topology)
        )
        config = CohortConfig(
            n_sessions=self.n_sessions,
            arrival_burst_s=self.arrival_burst_s,
            retry_policy=self.retry_policy,
            failover=self.failover,
            seed=self.seed,
            max_sim_time_s=self.max_sim_time_s,
            keep_summaries=self.keep_summaries,
        )
        kernel = CohortKernel(
            content, combos, self.topology, windows=windows, config=config
        )
        result = kernel.run()
        if record_dir is not None:
            self._record_fault_log(result, record_dir)
        return result

    def _record_fault_log(self, result, record_dir: str) -> None:
        """Write the cohort's fault-domain event log (schema 2)."""
        from ..replay.recorder import EventRecorder, record_path

        key = self.key()
        meta = {
            "job": self.spec_dict(),
            "key": key,
            "label": self.label(key),
            # Topology fields: their presence stamps the header schema 2.
            "edges": [edge.edge_id for edge in self.topology.edges],
        }
        with EventRecorder(record_path(record_dir, key), meta) as rec:
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
