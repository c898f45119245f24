"""Record -> replay: event logs rebuild sessions byte-identically."""

import inspect
import json
import os

import pytest

from repro.net.failures import FailureModel
from repro.net.link import shared
from repro.net.resilience import ResilienceModel, RetryPolicy
from repro.net.traces import constant, square_wave
from repro.qoe.metrics import DEFAULT_WEIGHTS, QoEWeights, compute_qoe
from repro.qoe.rescore import rescore_log
from repro.replay import (
    EVENT_SCHEMA_BASE_VERSION,
    EVENT_SCHEMA_VERSION,
    TOPOLOGY_META_FIELDS,
    EventKind,
    EventRecorder,
    ReplayError,
    is_complete_log,
    record_path,
    replay_session,
    scan_events,
)
from repro.media.tracks import MediaType
from repro.runner.jobs import PlayerSpec, SimulationJob, TraceSpec
from repro.sim.records import ResultFold
from repro.sim.session import Session, SessionConfig

PLAYERS = ["shaka", "dashjs", "exoplayer-dash", "exoplayer-hls", "recommended"]


def record_run(content, tmp_path, player_name="shaka", name="run", **config_kw):
    """Simulate one recorded session; returns (live result, log path)."""
    path = str(tmp_path / f"{name}.events.jsonl")
    player = PlayerSpec(player_name).build(content)
    network = shared(square_wave(600.0, 2500.0, 15.0), rtt_s=0.05)
    recorder = EventRecorder(path)
    config = SessionConfig(observer=recorder, **config_kw)
    result = Session(content, player, network, config).run()
    assert recorder.closed  # the session closes its observer
    return result, path


class TestRoundTrip:
    @pytest.mark.parametrize("player_name", PLAYERS)
    def test_summary_and_qoe_byte_identical(self, content, tmp_path, player_name):
        result, path = record_run(content, tmp_path, player_name)
        replayed = replay_session(path)
        assert replayed.intact and replayed.has_verdict
        assert replayed.result.summary() == result.summary()
        live_qoe = compute_qoe(result, content, DEFAULT_WEIGHTS)
        assert replayed.qoe().as_dict() == live_qoe.as_dict()

    def test_timelines_match(self, content, tmp_path):
        result, path = record_run(content, tmp_path)
        replayed = replay_session(path)
        assert len(replayed.result.downloads) == len(result.downloads)
        for live, rep in zip(result.downloads, replayed.result.downloads):
            assert rep == live  # dataclass equality: every float identical
        assert replayed.result.buffer_timeline == result.buffer_timeline
        assert replayed.result.estimate_timeline == result.estimate_timeline
        assert replayed.result.stalls == result.stalls

    def test_failures_and_retries_round_trip(self, content, tmp_path):
        result, path = record_run(
            content,
            tmp_path,
            failure_model=ResilienceModel(0.25, seed=7),
            retry_policy=RetryPolicy(),
        )
        assert result.failures  # the scenario must actually exercise failures
        replayed = replay_session(path)
        assert replayed.result.failures == result.failures
        assert replayed.result.summary() == result.summary()

    def test_live_skips_round_trip(self, content, tmp_path):
        result, path = record_run(
            content,
            tmp_path,
            failure_model=ResilienceModel(0.35, seed=3),
            retry_policy=RetryPolicy(max_attempts=2),
            live_offset_s=4.0,
        )
        replayed = replay_session(path)
        assert replayed.result.skips == result.skips
        assert replayed.result.summary() == result.summary()

    def test_legacy_failure_model_round_trip(self, content, tmp_path):
        result, path = record_run(
            content, tmp_path, failure_model=FailureModel(0.15, seed=5)
        )
        assert result.failures
        replayed = replay_session(path)
        assert replayed.result.summary() == result.summary()

    def test_rescore_with_other_weights(self, content, tmp_path):
        result, path = record_run(content, tmp_path)
        weights = QoEWeights(rebuffer_per_s=50.0)
        live = compute_qoe(result, content, weights)
        assert rescore_log(path, weights).as_dict() == live.as_dict()


class TestTornLogs:
    def test_torn_log_replays_prefix(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        whole = scan_events(path)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 41)  # tear mid final line
        replayed = replay_session(path)
        assert replayed.damage == "truncated"
        assert not replayed.has_verdict
        assert len(replayed.events) == len(whole.events) - 1
        # The torn prefix still yields a well-formed partial result.
        assert replayed.result.summary()
        assert replayed.qoe().as_dict()

    def test_every_tear_point_replays_cleanly(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        with open(path, "rb") as f:
            data = f.read()
        header_len = data.index(b"\n") + 1
        for cut in range(header_len + 1, min(len(data), header_len + 400), 13):
            torn = str(tmp_path / "torn.jsonl")
            with open(torn, "wb") as f:
                f.write(data[:cut])
            replayed = replay_session(torn)  # must never raise
            assert replayed.result.summary()

    def test_corrupt_mid_log_stops_at_damage(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        with open(path, "r+b") as f:
            data = f.read()
            # Flip a byte inside the 5th line's payload.
            offset = 0
            for _ in range(4):
                offset = data.index(b"\n", offset) + 1
            f.seek(offset + 40)
            f.write(b"~")
        replayed = replay_session(path)
        assert replayed.damage == "corrupt"
        assert replayed.damage_line == 5
        with pytest.raises(ReplayError):
            replay_session(path, strict=True)

    def test_strict_tolerates_truncation(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 7)
        replayed = replay_session(path, strict=True)  # tears are contract
        assert replayed.damage == "truncated"


class TestSchema:
    def test_event_surface_is_pinned(self):
        # Readers of existing logs depend on these; change them only
        # together with a schema-version decision.
        assert sorted(kind.value for kind in EventKind) == [
            "buffer_sample", "decision", "download_abort",
            "download_complete", "download_progress", "download_start",
            "estimate", "failure", "playback_start", "retry",
            "session_meta", "skip", "stall_begin", "stall_end", "verdict",
        ]
        assert TOPOLOGY_META_FIELDS == ("edge_id", "edges", "failover_hops")
        assert (EVENT_SCHEMA_BASE_VERSION, EVENT_SCHEMA_VERSION) == (1, 2)

    def test_fold_methods_emit_their_parameters(self):
        # The replayer reads each kind's payload keys off its fold
        # method's parameter names, so every parameter must be a key
        # of the payload that method emits on the live side.
        samples = {
            "float": 1.5, "int": 2, "bool": True, "str": "x",
            "MediaType": MediaType.AUDIO, "Optional[float]": 2.5,
            "Optional[str]": "y",
        }
        emitted = []
        fold = ResultFold(
            10.0, 2.0, 5, lambda kind, payload: emitted.append((kind, payload))
        )
        folded = []
        # EventKind runs in lifecycle order: download_start before its
        # progress, stall_begin before stall_end.
        for kind in EventKind:
            method = getattr(ResultFold, kind.value, None)
            if not inspect.isfunction(method):
                continue
            folded.append(kind.value)
            params = list(inspect.signature(method).parameters.values())[1:]
            getattr(fold, kind.value)(*(samples[p.annotation] for p in params))
            assert emitted[-1][0] == kind.value
            assert {p.name for p in params} <= emitted[-1][1].keys(), kind.value
        assert len(emitted) == len(folded)
        assert sorted(set(kind.value for kind in EventKind) - set(folded)) == [
            "decision", "retry", "session_meta",
        ]

    def test_header_carries_schema_and_content(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        meta = scan_events(path).events[0]
        assert meta["k"] == "session_meta"
        # Writers stamp the lowest version their fields need (schema 2
        # is only for topology-bearing headers), never past the reader.
        assert meta["schema"] == EVENT_SCHEMA_BASE_VERSION
        assert meta["schema"] <= EVENT_SCHEMA_VERSION
        ladder = meta["content"]["video"]
        assert [t["id"] for t in ladder] == [t.track_id for t in content.video]

    def test_newer_schema_refused(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        scan = scan_events(path)
        scan.events[0]["schema"] = EVENT_SCHEMA_VERSION + 1
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        with open(path, "wb") as f:
            for event in scan.events:
                f.write(frame_line(encode_event(event)))
        with pytest.raises(ReplayError, match="newer than this reader"):
            replay_session(path)

    def test_unknown_event_kinds_ignored(self, content, tmp_path):
        result, path = record_run(content, tmp_path)
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        scan = scan_events(path)
        with open(path, "wb") as f:
            for i, event in enumerate(scan.events):
                f.write(frame_line(encode_event(event)))
                if i == 3:
                    f.write(
                        frame_line(
                            encode_event({"k": "future_kind", "seq": -1, "t": 0.0})
                        )
                    )
        assert replay_session(path).result.summary() == result.summary()

    def test_stall_end_without_open_stall_refused(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        header = scan_events(path).events[0]
        with open(path, "wb") as f:
            f.write(frame_line(encode_event(header)))
            f.write(frame_line(encode_event({"k": "stall_end", "seq": 1, "t": 2.0})))
        with pytest.raises(ReplayError, match="stall_end at seq 1: .*without an open stall"):
            replay_session(path)

    @pytest.mark.parametrize(
        "override,drop",
        [
            ({"medium": "subtitles"}, ()),  # not a medium
            ({"chunk_index": "first"}, ()),  # not an integer
            ({"size_bits": None}, ()),  # not a float
            ({}, ("started_at",)),  # a required field missing
            ({}, ("track_id",)),  # a required str field missing
        ],
    )
    def test_malformed_fields_are_replay_errors(
        self, content, tmp_path, override, drop
    ):
        _, path = record_run(content, tmp_path)
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        header = scan_events(path).events[0]
        event = {
            "k": "download_complete",
            "seq": 1,
            "t": 2.0,
            "medium": "video",
            "track_id": "V1",
            "chunk_index": 0,
            "size_bits": 1e6,
            "started_at": 0.0,
        }
        event.update(override)
        for key in drop:
            del event[key]
        with open(path, "wb") as f:
            f.write(frame_line(encode_event(header)))
            f.write(frame_line(encode_event(event)))
        with pytest.raises(ReplayError, match="cannot fold download_complete at seq 1"):
            replay_session(path)

    def test_an_omitted_defaulted_field_takes_its_default(self, content, tmp_path):
        _, path = record_run(content, tmp_path)
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        header = scan_events(path).events[0]
        event = {
            "k": "download_complete",
            "seq": 1,
            "t": 2.0,
            "medium": "audio",
            "track_id": "A1",
            "chunk_index": 0,
            "size_bits": 1e6,
            "started_at": 0.0,
        }  # no resumed_bits, as an older writer left it out
        with open(path, "wb") as f:
            f.write(frame_line(encode_event(header)))
            f.write(frame_line(encode_event(event)))
        (download,) = replay_session(path).result.downloads
        assert download.track_id == "A1"
        assert download.resumed_bits == 0.0

    def test_missing_header_refused(self, tmp_path):
        from repro.framing import frame_line
        from repro.replay.events import encode_event

        path = str(tmp_path / "headless.jsonl")
        with open(path, "wb") as f:
            f.write(frame_line(encode_event({"k": "estimate", "t": 0.0, "kbps": 1})))
        with pytest.raises(ReplayError, match="session_meta"):
            replay_session(path)

    def test_topology_meta_promotes_to_schema_2(self, content, tmp_path):
        from repro.replay import TOPOLOGY_META_FIELDS, schema_for_meta

        path = str(tmp_path / "topo.events.jsonl")
        recorder = EventRecorder(
            path, extra_meta={"edges": ["edge-1", "edge-2"]}
        )
        player = PlayerSpec("shaka").build(content)
        network = shared(constant(2000.0))
        Session(
            content, player, network, SessionConfig(observer=recorder)
        ).run()
        meta = scan_events(path).events[0]
        assert meta["schema"] == 2
        assert meta["edges"] == ["edge-1", "edge-2"]
        # And the replayer accepts the topology-bearing header.
        assert replay_session(path).result.completed
        # The stamping rule itself: any topology field promotes.
        assert schema_for_meta({}) == EVENT_SCHEMA_BASE_VERSION
        for name in TOPOLOGY_META_FIELDS:
            assert schema_for_meta({name: 1}) == 2

    def test_v1_log_replays_unchanged(self, content, tmp_path):
        # Back-compat: a pre-topology (schema 1) log must replay to the
        # identical session under the schema-2 reader.
        result, path = record_run(content, tmp_path)
        meta = scan_events(path).events[0]
        assert meta["schema"] == EVENT_SCHEMA_BASE_VERSION
        for name in ("edge_id", "edges", "failover_hops"):
            assert name not in meta
        assert replay_session(path).result.summary() == result.summary()

    def test_payload_is_strict_json(self, content, tmp_path):
        # Wait-forever decisions carry until=inf; it must be encoded as
        # a string, keeping every payload parseable by a strict reader.
        _, path = record_run(content, tmp_path)
        from repro.framing import scan_line_file

        for payload in scan_line_file(path).payloads:
            json.loads(payload.decode("utf-8"))  # must not need NaN/Infinity


SHAKA = SimulationJob(player=PlayerSpec("shaka"), trace=TraceSpec.constant(900.0))
DASHJS = SimulationJob(player=PlayerSpec("dashjs"), trace=TraceSpec.constant(700.0))
#: An mtime far in the past, so any rewrite of a log shows.
_OLD_NS = 1_000_000_000


def _aged(path):
    """Set ``path``'s mtime to ``_OLD_NS``; returns its bytes."""
    os.utime(path, ns=(_OLD_NS, _OLD_NS))
    with open(path, "rb") as f:
        return f.read()


def _assert_kept(path, recorded):
    with open(path, "rb") as f:
        assert f.read() == recorded
    assert os.stat(path).st_mtime_ns == _OLD_NS


def _flip(data, offset):
    """``data`` with one bit flipped at ``offset``."""
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1 :]


class TestRunnerRecording:
    def test_record_dir_writes_keyed_logs(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [SHAKA, DASHJS]
        outcomes = run_jobs(jobs, record_dir=record_dir)
        for job, outcome in zip(jobs, outcomes):
            path = record_path(record_dir, job.key())
            assert os.path.exists(path)
            replayed = replay_session(path)
            assert replayed.meta["key"] == job.key()
            assert replayed.result.summary() == outcome.result.summary()
            # The embedded spec is re-runnable.
            assert SimulationJob.from_spec(replayed.job_spec).key() == job.key()

    def test_a_complete_log_is_kept_and_the_job_simulates(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        first = run_jobs([SHAKA], record_dir=record_dir)
        path = record_path(record_dir, SHAKA.key())
        recorded = _aged(path)
        second = run_jobs([SHAKA], record_dir=record_dir)
        _assert_kept(path, recorded)
        assert not second[0].cached and not second[0].replayed
        assert second[0].result.summary() == first[0].result.summary()

    @pytest.mark.parametrize("damage", ["torn", "flipped", "foreign"])
    def test_an_incomplete_log_is_recorded_again_whole(self, tmp_path, damage):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        run_jobs([SHAKA, DASHJS], record_dir=record_dir)
        path = record_path(record_dir, SHAKA.key())
        with open(path, "rb") as f:
            recorded = f.read()
        if damage == "torn":
            data = recorded[:-10]
        elif damage == "flipped":
            data = _flip(recorded, len(recorded) // 2)
        else:  # another job's whole log under this key
            with open(record_path(record_dir, DASHJS.key()), "rb") as f:
                data = f.read()
        with open(path, "wb") as f:
            f.write(data)
        _aged(path)
        assert not is_complete_log(path, SHAKA.key())
        run_jobs([SHAKA], record_dir=record_dir)
        with open(path, "rb") as f:
            assert f.read() == recorded
        assert os.stat(path).st_mtime_ns != _OLD_NS

    def test_pool_workers_record_too(self, tmp_path):
        from repro.runner.engine import run_jobs

        record_dir = str(tmp_path / "rec")
        jobs = [SHAKA, DASHJS]
        first = run_jobs(jobs, workers=2, record_dir=record_dir)
        for job, outcome in zip(jobs, first):
            replayed = replay_session(record_path(record_dir, job.key()))
            assert replayed.result.summary() == outcome.result.summary()
        kept = record_path(record_dir, SHAKA.key())
        torn = record_path(record_dir, DASHJS.key())
        kept_bytes = _aged(kept)
        torn_bytes = _aged(torn)
        with open(torn, "r+b") as f:
            f.truncate(len(torn_bytes) - 10)
        second = run_jobs(jobs, workers=2, record_dir=record_dir)
        _assert_kept(kept, kept_bytes)
        with open(torn, "rb") as f:
            assert f.read() == torn_bytes
        for before, after in zip(first, second):
            assert not after.cached
            assert after.result.summary() == before.result.summary()

    def test_a_complete_cohort_fault_log_is_kept(self, tmp_path):
        from repro.runner.engine import run_jobs
        from tests.test_topology import outage, small_job

        record_dir = str(tmp_path / "rec")
        job = small_job(n_sessions=6, faults=outage())
        first = run_jobs([job], record_dir=record_dir)
        path = record_path(record_dir, job.key())
        assert is_complete_log(path, job.key())
        recorded = _aged(path)
        second = run_jobs([job], record_dir=record_dir)
        _assert_kept(path, recorded)
        assert not second[0].cached
        assert second[0].result.fingerprint() == first[0].result.fingerprint()

    def test_grid_runner_reports_provenance(self, tmp_path):
        from repro.runner.engine import GridRunner, runner_options

        record_dir = str(tmp_path / "rec")
        with runner_options(record_dir=record_dir):
            runner = GridRunner()
        runner.run([SHAKA])
        runner.run([SHAKA])
        params = runner.params()
        assert params["record_dir"] == record_dir
        assert params["simulated"] == 2  # results never come from a log
        assert "replayed_from_log" not in params

    def test_spec_round_trip_through_json(self):
        job = SimulationJob(
            player=PlayerSpec("exoplayer-hls", audio_order=("A3", "A1")),
            trace=TraceSpec.pairs([(10.0, 600.0), (5.0, 1800.0)]),
            retry_policy=RetryPolicy(max_attempts=3),
            rtt_s=0.08,
            live_offset_s=4.0,
            seed=9,
        )
        spec = json.loads(json.dumps(job.spec_dict()))
        assert SimulationJob.from_spec(spec).key() == job.key()


class TestKeepCheck:
    """``is_complete_log`` against the replayer it stands in for."""

    KEY = "k" * 64

    def _short_log(self, tmp_path):
        from tests.test_session import flat_content
        from repro.players.fixed import FixedTracksPlayer

        path = str(tmp_path / "short.events.jsonl")
        config = SessionConfig(observer=EventRecorder(path, {"key": self.KEY}))
        network = shared(constant(1000.0))
        content = flat_content(n_chunks=2)
        Session(content, FixedTracksPlayer("V1", "A1"), network, config).run()
        with open(path, "rb") as f:
            return path, f.read()

    @staticmethod
    def _replayer_keeps(path, key):
        try:
            replayed = replay_session(path)
        except ReplayError:
            return False
        return (
            replayed.intact
            and replayed.has_verdict
            and replayed.meta.get("key") == key
        )

    def test_agrees_with_the_replayer_at_every_tear_and_a_flip(self, tmp_path):
        _, data = self._short_log(tmp_path)
        variants = [data[:end] for end in range(len(data) + 1)]
        variants.append(_flip(data, len(data) // 2))
        probe = str(tmp_path / "probe.events.jsonl")
        kept = []
        for variant in variants:
            with open(probe, "wb") as f:
                f.write(variant)
            keep = is_complete_log(probe, self.KEY)
            assert keep == self._replayer_keeps(probe, self.KEY), len(variant)
            kept.append(keep)
        assert kept.count(True) == 1 and kept[len(data)]

    def test_a_foreign_or_missing_log_is_not_kept(self, tmp_path):
        path, _ = self._short_log(tmp_path)
        other = "o" * 64
        assert not is_complete_log(path, other)
        assert not self._replayer_keeps(path, other)
        assert not is_complete_log(str(tmp_path / "absent.events.jsonl"), self.KEY)

    def test_a_hand_edited_crc_valid_log_is_kept_yet_does_not_replay(
        self, tmp_path
    ):
        # The one known difference from the replayer: the check reads
        # frames and the first and last events, but folds nothing. No
        # result is read from a kept log, and replay still refuses it.
        from repro.framing import frame_line
        from repro.replay import decode_event, encode_event

        path, data = self._short_log(tmp_path)
        lines = data.splitlines(keepends=True)
        verdict = decode_event(lines[-1].split(b" ", 3)[3].rstrip(b"\n"))
        assert verdict["k"] == "verdict"
        del verdict["t"]  # a required field of ResultFold.verdict
        lines[-1] = frame_line(encode_event(verdict))
        with open(path, "wb") as f:
            f.write(b"".join(lines))
        assert is_complete_log(path, self.KEY)
        with pytest.raises(ReplayError, match="cannot fold verdict"):
            replay_session(path)


class TestRecorder:
    def test_truncates_on_open(self, content, tmp_path):
        _, path = record_run(content, tmp_path, name="same")
        first_size = os.path.getsize(path)
        _, path2 = record_run(content, tmp_path, name="same")
        assert path2 == path
        assert os.path.getsize(path) == first_size  # rewritten, not appended
        assert replay_session(path).intact

    def test_emit_after_close_raises(self, tmp_path):
        recorder = EventRecorder(str(tmp_path / "log.jsonl"))
        recorder.close()
        with pytest.raises(ValueError):
            recorder.emit("estimate", {"t": 0.0, "kbps": 1.0})

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "log.jsonl")
        with EventRecorder(path) as recorder:
            recorder.emit("session_meta", {"content": {}})
        assert os.path.exists(path)
