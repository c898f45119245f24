"""Property tests: replayed metrics are byte-identical, tears are safe.

The record/replay contract is exact, not approximate: for *any* seeded
player x trace combination, re-deriving QoE from the event log must
reproduce the live run's metrics to the last bit. Hypothesis walks a
grid of players, trace shapes, and seeds to probe that claim, and
separately tears logs at arbitrary byte offsets to check the framing
never turns a crash into silent corruption.
"""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.media.content import drama_show
from repro.framing import frame_line, scan_line_file
from repro.media.tracks import MediaType
from repro.net.link import shared
from repro.net.resilience import FailureKind, ResilienceModel, RetryPolicy
from repro.net.traces import constant, random_walk, square_wave
from repro.qoe.metrics import DEFAULT_WEIGHTS, compute_qoe
from repro.replay import EventRecorder, replay_session, scan_events
from repro.replay import recorder as recorder_module
from repro.replay.events import (
    EVENT_FIELDS,
    ReplayError,
    _sanitize,
    decode_event,
    encode_event,
)
from repro.runner.jobs import PlayerSpec
from repro.sim.session import Session, SessionConfig

CONTENT = drama_show()

PLAYERS = ["shaka", "dashjs", "exoplayer-dash", "exoplayer-hls", "recommended"]


def make_trace(shape: str, seed: int):
    if shape == "constant":
        return constant(800.0 + 400.0 * (seed % 3))
    if shape == "square":
        return square_wave(500.0 + 100.0 * (seed % 2), 2600.0, 12.0 + seed)
    return random_walk(1500.0, seed=seed)


def run_recorded(tmp_path, player_name, shape, seed, failures=False):
    path = str(tmp_path / f"{player_name}-{shape}-{seed}.events.jsonl")
    player = PlayerSpec(player_name).build(CONTENT)
    network = shared(make_trace(shape, seed), rtt_s=0.05)
    kwargs = {}
    if failures:
        kwargs["failure_model"] = ResilienceModel(0.2, seed=seed)
        kwargs["retry_policy"] = RetryPolicy()
    config = SessionConfig(observer=EventRecorder(path), **kwargs)
    result = Session(CONTENT, player, network, config).run()
    return result, path


class TestReplayProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        player_name=st.sampled_from(PLAYERS),
        shape=st.sampled_from(["constant", "square", "walk"]),
        seed=st.integers(min_value=0, max_value=7),
    )
    def test_replayed_metrics_byte_identical(
        self, tmp_path, player_name, shape, seed
    ):
        result, path = run_recorded(tmp_path, player_name, shape, seed)
        replayed = replay_session(path)
        assert replayed.intact and replayed.has_verdict
        assert replayed.result.summary() == result.summary()
        live = compute_qoe(result, CONTENT, DEFAULT_WEIGHTS)
        assert replayed.qoe().as_dict() == live.as_dict()

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        player_name=st.sampled_from(["shaka", "dashjs"]),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_replay_with_failures_byte_identical(self, tmp_path, player_name, seed):
        result, path = run_recorded(
            tmp_path, player_name, "square", seed, failures=True
        )
        replayed = replay_session(path)
        assert replayed.result.summary() == result.summary()
        assert replayed.result.failures == result.failures


class TestTornLogProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fraction=st.floats(min_value=0.01, max_value=0.999))
    def test_any_tear_yields_trustworthy_prefix(self, tmp_path, fraction):
        _, path = run_recorded(tmp_path, "shaka", "constant", 0)
        whole = scan_events(path)
        size = os.path.getsize(path)
        torn = str(tmp_path / "torn.jsonl")
        with open(path, "rb") as f:
            data = f.read(max(1, int(size * fraction)))
        with open(torn, "wb") as f:
            f.write(data)
        scan = scan_events(torn)
        # A tear is never corruption, and the surviving prefix is exactly
        # the first N events of the untorn log.
        assert scan.damage in (None, "truncated")
        assert scan.events == whole.events[: len(scan.events)]


_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(list(MediaType)),
    st.sampled_from(list(FailureKind)),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=16,
)


class TestEventCodec:
    """The encoder's fast path and the batch decoder change no bytes."""

    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=6), _PAYLOADS, max_size=5))
    def test_encoder_matches_sanitizing_reference(self, payload):
        event = {**payload, "k": "decision", "seq": 3}
        reference = json.dumps(
            _sanitize(event), sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        assert encode_event(event) == reference

    def test_batch_decode_matches_per_line_decode(self, tmp_path):
        _, path = run_recorded(tmp_path, "dashjs", "walk", 2, failures=True)
        payloads = scan_line_file(path).payloads
        assert scan_events(path).events == [decode_event(p) for p in payloads]

    def _log(self, tmp_path, bad: bytes) -> str:
        path = str(tmp_path / "bad.events.jsonl")
        good = encode_event({"k": "session_meta", "seq": 0, "schema": 1})
        with open(path, "wb") as f:
            for payload in (good, bad, encode_event({"k": "verdict", "seq": 2})):
                f.write(frame_line(payload))
        return path

    def test_invalid_json_names_the_payload(self, tmp_path):
        with pytest.raises(ReplayError, match="invalid JSON.*seq"):
            scan_events(self._log(tmp_path, b'{"k":"decision","seq":'))

    @pytest.mark.parametrize("bad", [b"1", b"[1]"])
    def test_non_object_payload_raises(self, tmp_path, bad):
        with pytest.raises(ReplayError, match="not an object"):
            scan_events(self._log(tmp_path, bad))

    def test_two_objects_in_one_payload_are_not_spliced(self, tmp_path):
        with pytest.raises(ReplayError, match="invalid JSON"):
            scan_events(self._log(tmp_path, b'{"k":"a"},{"k":"b"}'))


#: Every field set the kernel and ``ResultFold`` emit, as (kind, fields).
_FIELD_SETS = [
    (kind, tuple(names.split()))
    for kind, field_sets in EVENT_FIELDS.items()
    for names in field_sets
]

#: Field values for the line writers: the edge floats, ints where
#: floats go, bools, None, strings that need escaping, and values the
#: writers leave to ``encode_event`` (an enum, a list).
_FIELD_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 0.1, 2.5e-7]
    ),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["video", "wait", 'q"uote', "back\\slash", "t\nab", "\x7f", "é", "\u2028", "\U0001f600"]),
    st.sampled_from([MediaType.AUDIO, FailureKind.TIMEOUT, [1.5, math.inf]]),
)


@st.composite
def _emitted_events(draw):
    """A (kind, payload) in a declared field set, or one the writers do
    not know: fields reordered, one missing, or one added."""
    kind, fields = draw(st.sampled_from(_FIELD_SETS))
    change = draw(st.sampled_from(["declared", "declared", "reordered", "missing", "added"]))
    if change == "reordered":
        fields = tuple(draw(st.permutations(fields)))
    elif change == "missing":
        fields = fields[1:]
    elif change == "added":
        fields = fields + (draw(st.sampled_from(["extra", "k", "seq", "a{b}"])),)
    return kind, {field: draw(_FIELD_VALUES) for field in fields}


class TestRecorderLineWriters:
    """The recorder's per-kind line writers write what the reference
    ``frame_line(encode_event(event))`` writes, byte for byte."""

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(events=st.lists(_emitted_events(), min_size=1, max_size=4))
    def test_line_equals_reference(self, tmp_path, events):
        path = str(tmp_path / "writers.events.jsonl")
        with EventRecorder(path) as recorder:
            for kind, payload in events:
                recorder.emit(kind, payload)
        expected = b"".join(
            frame_line(encode_event({"k": kind, "seq": seq, **payload}))
            for seq, (kind, payload) in enumerate(events)
        )
        with open(path, "rb") as f:
            assert f.read() == expected

    def test_declared_field_sets_cover_every_kernel_event(self, tmp_path, monkeypatch):
        """Only the header goes through ``encode_event``: every other
        event a session emits (failures and retries included) has a
        line writer."""
        encoded = []

        def counting_encode(event):
            encoded.append(event["k"])
            return encode_event(event)

        monkeypatch.setattr(recorder_module, "encode_event", counting_encode)
        _, path = run_recorded(tmp_path, "dashjs", "square", 1, failures=True)
        kinds = {event["k"] for event in scan_events(path).events}
        assert {"failure", "retry", "stall_begin", "stall_end"} <= kinds
        assert encoded == ["session_meta"]


def _load_oracle_module():
    import importlib.util

    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "eventlogs", "regenerate.py"
    )
    spec = importlib.util.spec_from_file_location("eventlog_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = _load_oracle_module()
_ORACLE_JOBS = _ORACLE.fixture_jobs()


class TestPinnedOracleProperty:
    """The kernel-equivalence oracle: pre-rewrite logs, current engine.

    The logs under ``tests/fixtures/eventlogs/`` were recorded by the
    pre-overhaul kernel. Equivalence is enforced, not hoped for: for
    any pinned job, re-recording with the current engine must produce
    the byte-for-byte identical event stream. Hypothesis samples the
    grid so a shrunk counterexample names the offending cell directly.
    """

    @settings(
        max_examples=len(_ORACLE_JOBS),
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(job_index=st.integers(min_value=0, max_value=len(_ORACLE_JOBS) - 1))
    def test_prerewrite_log_rerecords_byte_identically(
        self, tmp_path, job_index
    ):
        from repro.replay.recorder import record_path
        from repro.sim.session import Session as _Session

        job = _ORACLE_JOBS[job_index]
        pinned = record_path(_ORACLE.FIXTURE_DIR, job.key())
        assert os.path.exists(pinned), f"missing oracle log for {job.label()}"
        fresh = record_path(str(tmp_path), job.key())
        recorder = EventRecorder(
            fresh,
            extra_meta={
                "job": job.spec_dict(),
                "key": job.key(),
                "label": job.label(),
            },
        )
        content, player, network, config = job.build(observer=recorder)
        _Session(content, player, network, config).run()

        old = scan_events(pinned)
        new = scan_events(fresh)
        assert old.damage is None and new.damage is None
        assert new.events == old.events, job.label()
