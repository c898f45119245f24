"""Full-result pins: a live run and the replay of its log are one result.

For every job of the pinned event-log oracle grid
(``tests/fixtures/eventlogs/regenerate.py``), the live
:meth:`~repro.runner.jobs.SimulationJob.execute` result and the result
:func:`~repro.replay.replay_session` rebuilds from the pinned log must
agree on every record list — downloads with their progress segments,
aborts, failures, skips, stalls, buffer and estimate timelines — and on
every scalar field. A sha256 over the ``repr`` of those fields pins the
result itself, so a change that moves both builders in step still
fails here.
"""

import hashlib
import importlib.util
import os

import pytest

from repro.replay import replay_session
from repro.replay.recorder import record_path


def _load_oracle_module():
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "eventlogs", "regenerate.py"
    )
    spec = importlib.util.spec_from_file_location("eventlog_oracle_pins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = _load_oracle_module()
_JOBS = _ORACLE.fixture_jobs()

#: Every field of a :class:`~repro.sim.records.SessionResult`.
RESULT_FIELDS = (
    "content_duration_s",
    "chunk_duration_s",
    "n_chunks",
    "downloads",
    "aborts",
    "failures",
    "skips",
    "stalls",
    "buffer_timeline",
    "estimate_timeline",
    "startup_delay_s",
    "ended_at_s",
    "completed",
    "termination_reason",
)

#: sha256 of ``repr`` of each oracle job's result fields, in
#: ``fixture_jobs()`` order.
RESULT_PINS = (
    "8e623fed56fa573769d4fa434415878ec9d3c60eb958f1c088fd21a4319a7854",
    "fbdf940b1735f2e0f3b578f439f1bd032259de2df4d50bef596c5046329457f9",
    "0e1b2dd8cc83185bc37dd911ec84f171956b39e7bed3814c454813b7037ca539",
    "461da1f69f491e779fb7da1eeeeaccebdc0504d0f9229df90e6e0249539157fa",
    "2981ad93a95d7afc140e8b1be25a65cce2bf0b2fd89926145cadc7b4d975a37e",
    "3f3ff496e7205516ed186263fe28d2eb6aebfbeab82eb1a5fefe55c5ae72e28b",
    "edb38e088e863737d8d22276b5859586cc206171ba35b31972c12730c7aaecb0",
    "3ffd7ea91c6172d679434c02227aeb62e4711ff62409fd082aad140392f8209f",
    "afa4061165f3a0ea26f2dafd2edbac52f8f10ea6c39b2bd6244469352d313789",
    "f8c1e677fbf82c981efa28bc85324efcb5363a3fcb2adf663186debeeee348e2",
    "da2b985c57edb15bf680ba46535ef4deb4c513546f369f9043f54bd4417b588e",
    "2419de5fc671e258883cf295925be2f8f237838ea36e0897d19e058861b30267",
    "dd7fcc4392b1550ba07d163eca2a94acd1c78c429fb3b50c9a3a3b142167c12a",
    "3296952ae79ddefa9911cd57f8c5e1438a5349e4d3ec830939538ef67aafa20b",
    "6bd9493ad6f8b7518af74c8a2ee16ac74de5709f364d84ed7d349e80f1305c65",
    "177e147c7f20c88861b021464ec69d90d1e489b2434b50aad110eeb600bfce13",
    "3d6af156c01fec08dab22b269f7ca333e4f40eec9c4890d1e80124dd1f7d0f32",
)


def result_fields(result):
    return tuple((name, getattr(result, name)) for name in RESULT_FIELDS)


def result_fingerprint(result) -> str:
    return hashlib.sha256(repr(result_fields(result)).encode("utf-8")).hexdigest()


#: The result's columns, each pinned through the field that builds
#: records from them.
COLUMN_FIELDS = {
    "buffer_t": "buffer_timeline",
    "buffer_v": "buffer_timeline",
    "buffer_a": "buffer_timeline",
}


def test_fields_cover_the_whole_result():
    from repro.sim.records import SessionResult

    stored = vars(SessionResult(60.0, 2.0, 30))
    assert {COLUMN_FIELDS.get(name, name) for name in stored} == set(RESULT_FIELDS)


def test_sim_never_imports_replay():
    # The fold lives in repro.sim so the kernel and the replayer share
    # it; the dependency only ever points from replay to sim.
    import ast

    import repro.sim

    sim_dir = os.path.dirname(repro.sim.__file__)
    for name in sorted(os.listdir(sim_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(sim_dir, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            assert not any("replay" in m for m in modules), name


def test_pins_cover_every_oracle_job():
    assert len(RESULT_PINS) == len(_JOBS)


@pytest.mark.parametrize("index", range(len(_JOBS)))
def test_live_result_equals_replayed_result(index):
    job = _JOBS[index]
    live = job.execute()
    replayed = replay_session(record_path(_ORACLE.FIXTURE_DIR, job.key())).result
    for (name, live_value), (_, replayed_value) in zip(
        result_fields(live), result_fields(replayed)
    ):
        assert live_value == replayed_value, f"{job.label()}: {name}"
    assert result_fingerprint(live) == RESULT_PINS[index], job.label()
    assert result_fingerprint(replayed) == RESULT_PINS[index], job.label()
