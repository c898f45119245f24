"""Checks of the end-to-end benchmark itself, at tiny sizes.

Not part of the tier-1 suite; run from the repository root with::

    python3 -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.runner import JobOutcome  # noqa: E402

SPEC = run.load_spec()


def tiny(name, tmp_path):
    """Each workload at a size that runs in a second or two."""
    if name == "paper-all":
        return workloads.PaperAll(0, experiments=["table1", "fig2a"])
    if name == "measured-grid":
        return workloads.MeasuredGrid(0, n_jobs=4)
    if name == "record-replay":
        return workloads.RecordReplay(0, n_jobs=4, scratch_root=str(tmp_path / "rr"))
    return workloads.Flashcrowd(0, sizes=(20, 40), warm=10)


def measure(name, tmp_path, trace, seconds=0.0):
    return run.measure(tiny(name, tmp_path), seconds, trace, SPEC, setup_runs=1)


NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_names_the_workloads_the_harness_has():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_its_unit(name, tmp_path):
    for trace, wanted in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        record = measure(name, tmp_path, trace)
        assert record["result"]["correct"], record["failures"]
        assert record["result"]["failed"] == 0
        assert record["result"]["attempted"] >= 1
        lines = run.metric_lines(record)
        assert [line.split()[0] for line in lines] == [m["name"] for m in wanted]
        for line, metric in zip(lines, wanted):
            _, value, unit = line.split()
            float(value)
            assert unit == metric["unit"]
        json.dumps(record["result"])  # the result line must serialize
        if not trace:
            assert all(m["value"] > 0 for m in record["result"]["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_runs_repeat_and_tracing_is_a_pure_tap(name, tmp_path):
    first = measure(name, tmp_path, True)
    # A longer second run traces more passes; exact counts must not
    # depend on how many.
    second = measure(name, tmp_path, True, seconds=3.0)
    assert second["info"]["traced_passes"] > first["info"]["traced_passes"]
    untraced = measure(name, tmp_path, False)
    assert first["digest"] == second["digest"] == untraced["digest"]
    assert first["counts"] == second["counts"]


def test_traced_grid_attributes_time_to_layers(tmp_path):
    values = measure("measured-grid", tmp_path, True)["values"]
    assert values["players.decisions_per_job"] > 0
    assert values["net.lookups_per_job"] > 0
    assert values["estimators.samples_per_job"] > 0
    assert 0 < values["session.self_ms_per_job"] < values["session.run_ms_per_job"]
    assert values["replay.emits_per_job"] == 0  # idle on this workload
    assert values["cohort.requests_per_session"] == 0


def test_tracer_restores_every_patched_function(tmp_path):
    from repro.players.base import BasePlayer
    from repro.runner import engine
    from repro.sim.session import Session
    from tracer import Tracer

    def patched():
        return (Session.run, engine.run_jobs, workloads.run_jobs, BasePlayer.consider_abort)

    before = patched()
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    during = patched()
    tracer.uninstall()
    assert all(a is not b for a, b in zip(during[:3], before[:3]))
    assert during[3] is before[3]  # consider_abort is never wrapped
    assert patched() == before


def test_forged_bad_outcome_is_counted_as_failed(tmp_path, monkeypatch):
    real = workloads.run_jobs
    calls = []

    def forged(jobs, **kwargs):
        calls.append(jobs)
        outcomes = real(jobs, **kwargs)
        if len(calls) == 2:  # the second job of the warm-up
            outcomes[0] = JobOutcome(
                jobs[0], outcomes[0].result, 0.0, error="forged failure"
            )
        return outcomes

    monkeypatch.setattr(workloads, "run_jobs", forged)
    record = measure("measured-grid", tmp_path, False)
    assert record["result"]["failed"] == 1
    assert not record["result"]["correct"]
    assert any("forged failure" in f for f in record["failures"])
