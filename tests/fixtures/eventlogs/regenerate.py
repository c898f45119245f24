"""Regenerate the pinned kernel-equivalence event logs.

The logs in this directory were recorded at the pre-kernel-overhaul
HEAD (PR 6 engine) and are the equivalence oracle for every later
kernel rewrite: a new engine must replay them byte-identically
(``repro-abr replay --verify``) and a fresh recording of the same job
must ``diff-events`` clean and ``cmp`` identical against them (see
``docs/event_log.md``).

Run from the repo root to re-record against the *current* engine::

    PYTHONPATH=src python tests/fixtures/eventlogs/regenerate.py

Only regenerate deliberately — e.g. after an intentional,
schema-noted change in the recorded stream — and say so in the PR:
regenerating silently converts the oracle into a mirror.
"""

from __future__ import annotations

import os

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))


def fixture_jobs():
    """The pinned player x trace x failure grid, in recording order."""
    from repro.net.resilience import RetryPolicy
    from repro.runner.jobs import FailureSpec, PlayerSpec, SimulationJob, TraceSpec

    square = TraceSpec.pairs([(12.0, 600.0), (12.0, 2600.0)])
    traces = [
        TraceSpec.constant(900.0),
        square,
        TraceSpec.random_walk(1500.0, seed=3),
    ]
    players = ["shaka", "dashjs", "exoplayer-dash", "exoplayer-hls", "recommended"]
    jobs = [
        SimulationJob(player=PlayerSpec(name), trace=trace, rtt_s=0.05)
        for name in players
        for trace in traces
    ]
    # Failure-path cells: taxonomy failures with retry/backoff/resume.
    for name in ("shaka", "recommended"):
        jobs.append(
            SimulationJob(
                player=PlayerSpec(name),
                trace=square,
                rtt_s=0.05,
                failure=FailureSpec(
                    probability=0.25, seed=5, taxonomy=True
                ),
                retry_policy=RetryPolicy(),
            )
        )
    return jobs


def record_all(out_dir: str = FIXTURE_DIR):
    from repro.replay.recorder import EventRecorder, record_path
    from repro.sim.session import Session

    written = []
    for job in fixture_jobs():
        path = record_path(out_dir, job.key())
        recorder = EventRecorder(
            path,
            extra_meta={
                "job": job.spec_dict(),
                "key": job.key(),
                "label": job.label(),
            },
        )
        content, player, network, config = job.build(observer=recorder)
        Session(content, player, network, config).run()
        written.append((job.label(), path))
    return written


if __name__ == "__main__":
    import sys

    # Optional argument: record into a different directory (e.g. CI
    # re-records the oracle grid there and diff-events's it against
    # the pinned logs) instead of overwriting the fixtures in place.
    out_dir = sys.argv[1] if len(sys.argv) > 1 else FIXTURE_DIR
    os.makedirs(out_dir, exist_ok=True)
    for label, path in record_all(out_dir):
        print(f"{label}: {os.path.basename(path)} ({os.path.getsize(path)} bytes)")
