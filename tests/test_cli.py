"""Command-line interface."""

import argparse
import os
import subprocess
import sys

import pytest

import repro

from repro.cli import build_parser, main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "table2" in out


class TestRun:
    def test_single_experiment(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "1/1 experiments reproduced" in out

    def test_multiple_experiments(self, capsys):
        assert main(["run", "table1", "table2"]) == 0
        assert "2/2" in capsys.readouterr().out

    def test_no_names_is_an_error(self, capsys):
        assert main(["run"]) == 2

    def test_unknown_name_raises(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "figX"])


class TestSimulate:
    def test_recommended_default(self, capsys):
        assert main(["simulate", "--bandwidth", "900"]) == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "qoe:" in out

    @pytest.mark.parametrize(
        "player", ["exoplayer-dash", "exoplayer-hls", "shaka", "dashjs"]
    )
    def test_each_player_runs(self, capsys, player):
        assert main(["simulate", "--player", player, "--bandwidth", "1500"]) == 0
        assert "completed: True" in capsys.readouterr().out

    def test_all_combinations_mode(self, capsys):
        assert (
            main(["simulate", "--player", "shaka", "--combinations", "all"]) == 0
        )


class TestManifest:
    def test_dash_output(self, capsys):
        assert main(["manifest", "--format", "dash"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<?xml")
        assert "AdaptationSet" in out

    def test_hls_output(self, capsys):
        assert main(["manifest", "--format", "hls", "--combinations", "hsub"]) == 0
        out = capsys.readouterr().out
        assert "### master.m3u8" in out
        assert "#EXT-X-STREAM-INF" in out


class TestLint:
    def test_hall_warns(self, capsys):
        assert main(["lint", "--manifest", "hls"]) == 0
        assert "HLS-CURATED" in capsys.readouterr().out

    def test_curated_byteranges_clean(self, capsys):
        assert main(["lint", "--manifest", "hls", "--curated"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_blind_packaging_errors(self, capsys):
        assert main(["lint", "--manifest", "hls", "--curated", "--chunk-files"]) == 1
        assert "HLS-TRACK-BITRATES" in capsys.readouterr().out

    def test_chunk_files_with_tags_clean(self, capsys):
        assert (
            main(
                [
                    "lint",
                    "--manifest",
                    "hls",
                    "--curated",
                    "--chunk-files",
                    "--bitrate-tags",
                ]
            )
            == 0
        )
        assert "clean" in capsys.readouterr().out

    def test_dash_warns_without_extension(self, capsys):
        assert main(["lint", "--manifest", "dash"]) == 0
        assert "DASH-COMBINATIONS" in capsys.readouterr().out

    def test_dash_clean_with_extension(self, capsys):
        assert main(["lint", "--manifest", "dash", "--curated"]) == 0
        assert "clean" in capsys.readouterr().out


class TestTrace:
    def test_preset_summary(self, capsys):
        assert main(["trace", "--preset", "hspa", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "avg" in out and "segments" in out

    def test_write_csv_and_convert_to_mahimahi(self, capsys, tmp_path):
        csv_path = str(tmp_path / "t.csv")
        assert main(["trace", "--preset", "lte", "--output", csv_path]) == 0
        mm_path = str(tmp_path / "t.mm")
        assert (
            main(
                [
                    "trace",
                    "--input",
                    csv_path,
                    "--output",
                    mm_path,
                    "--format",
                    "mahimahi",
                    "--duration",
                    "30",
                ]
            )
            == 0
        )
        from repro.net.mahimahi import load_mahimahi

        assert load_mahimahi(mm_path).average_kbps() > 0

    def test_random_preset_mean(self, capsys):
        assert main(["trace", "--preset", "random", "--mean", "800"]) == 0
        out = capsys.readouterr().out
        assert "avg 800" in out


class TestSimulateDiagnosis:
    def test_diagnosis_printed(self, capsys):
        assert main(["simulate", "--player", "dashjs", "--bandwidth", "700"]) == 0
        out = capsys.readouterr().out
        assert "diagnosis:" in out
        assert "undesirable-pairs" in out

    def test_clean_diagnosis(self, capsys):
        assert main(["simulate", "--bandwidth", "900"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_live_simulation(self, capsys):
        assert main(["simulate", "--bandwidth", "900", "--live-offset", "2"]) == 0
        assert "completed: True" in capsys.readouterr().out


class TestCompare:
    def test_table_lists_all_players(self, capsys):
        assert main(["compare", "--bandwidth", "900"]) == 0
        out = capsys.readouterr().out
        for name in ("exoplayer-dash", "exoplayer-hls", "shaka", "dashjs", "recommended"):
            assert name in out

    def test_runs_one_grid_on_one_title(self, capsys, monkeypatch):
        import repro.runner.jobs as jobs_module
        from repro.runner import GridRunner

        grids = []
        builds = []
        run = GridRunner.run
        drama_show = jobs_module.drama_show

        def counting_run(self, jobs, use_cache=True):
            grids.append(len(jobs))
            return run(self, jobs, use_cache=use_cache)

        def counting_drama_show():
            builds.append(1)
            return drama_show()

        monkeypatch.setattr(GridRunner, "run", counting_run)
        monkeypatch.setattr(jobs_module, "_BUILT", {})
        monkeypatch.setattr(jobs_module, "drama_show", counting_drama_show)
        assert main(["compare", "--bandwidth", "900"]) == 0
        assert grids == [5]
        assert len(builds) == 1
        assert main(["compare", "--bandwidth", "900"]) == 0
        assert len(builds) == 1


class TestTraceImport:
    def test_measured_csv_import(self, capsys, tmp_path):
        import os

        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "trace_3g.csv"
        )
        assert (
            main(["trace", "--input", fixture, "--input-format", "measured"]) == 0
        )
        out = capsys.readouterr().out
        assert "segments" in out

    def test_measured_csv_with_unit(self, capsys, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("0,1.5\n10,2.5\n")
        out_path = str(tmp_path / "out.csv")
        assert (
            main(
                [
                    "trace",
                    "--input",
                    str(src),
                    "--input-format",
                    "measured",
                    "--unit",
                    "mbps",
                    "--output",
                    out_path,
                ]
            )
            == 0
        )
        from repro.net.traces import load_trace

        assert load_trace(out_path).bandwidth_at(0) == 1500.0


class TestRecordReplayCli:
    def _record(self, tmp_path, extra=()):
        log = str(tmp_path / "session.events.jsonl")
        code = main(
            ["simulate", "--bandwidth", "900", "--record", log, *extra]
        )
        assert code == 0
        return log

    def test_simulate_record_then_replay(self, capsys, tmp_path):
        log = self._record(tmp_path)
        assert "recorded" in capsys.readouterr().out
        assert main(["replay", log]) == 0
        out = capsys.readouterr().out
        assert "events:" in out and "verdict" in out

    def test_replay_verify_is_byte_identical(self, capsys, tmp_path):
        log = self._record(tmp_path)
        capsys.readouterr()
        assert main(["replay", log, "--verify"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_replay_torn_log(self, capsys, tmp_path):
        import os

        log = self._record(tmp_path)
        with open(log, "r+b") as f:
            f.truncate(os.path.getsize(log) - 20)
        # A tear is survivable: the prefix replays (exit 0), the damage
        # and the missing verdict are reported. --strict tolerates
        # truncation too — it only refuses *corruption*.
        assert main(["replay", log]) == 0
        out = capsys.readouterr().out
        assert "truncated" in out and "torn prefix" in out
        assert main(["replay", log, "--strict"]) == 0

    def test_replay_corrupt_log_strict(self, capsys, tmp_path):
        log = self._record(tmp_path)
        with open(log, "rb") as f:
            lines = f.read().splitlines(keepends=True)
        flipped = bytearray(lines[2])
        flipped[-3] ^= 0x40  # damage a mid-log line, leave it terminated
        with open(log, "wb") as f:
            f.write(b"".join(lines[:2]) + bytes(flipped) + b"".join(lines[3:]))
        assert main(["replay", log]) == 0  # lenient: prefix still replays
        assert "corrupt" in capsys.readouterr().out
        assert main(["replay", log, "--strict"]) == 2

    def test_replay_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "nope.jsonl")
        assert main(["replay", path]) == 2
        err = capsys.readouterr().err
        assert err.count(path) == 1 and "No such file" in err

    def test_replay_empty_log_names_the_path_once(self, capsys, tmp_path):
        path = str(tmp_path / "x.events.jsonl")
        open(path, "wb").close()
        assert main(["replay", path]) == 2
        assert capsys.readouterr().err == f"{path}: no replayable events\n"

    def test_replay_headerless_log_names_the_path_once(self, capsys, tmp_path):
        from repro.replay import EventRecorder

        path = str(tmp_path / "headless.events.jsonl")
        with EventRecorder(path) as rec:
            rec.emit("decision", {})
        assert main(["replay", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: event log does not start with")
        assert err.count(path) == 1

    def test_diff_events_identical_and_perturbed(self, capsys, tmp_path):
        log_a = self._record(tmp_path)
        log_b = str(tmp_path / "b.events.jsonl")
        import shutil

        shutil.copy(log_a, log_b)
        assert main(["diff-events", log_a, log_b]) == 0
        assert "identical" in capsys.readouterr().out
        # Perturb one estimate in B: the differ must localize it.
        from repro.framing import frame_line, scan_line_file
        from repro.replay import decode_event, encode_event

        scan = scan_line_file(log_b)
        events = [decode_event(p) for p in scan.payloads]
        for event in events:
            if event["k"] == "estimate":
                event["kbps"] = event["kbps"] * 1.5 + 1.0
                break
        with open(log_b, "wb") as f:
            for event in events:
                f.write(frame_line(encode_event(event)))
        assert main(["diff-events", log_a, log_b]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out and "kbps" in out
        assert main(["diff-events", log_a, log_b, "--rtol", "10"]) == 0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_player_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--player", "vlc"])


class TestGrammar:
    #: Option strings of every subcommand. Scripts and CI call these, so
    #: a rename or removal is a deliberate edit of this table.
    OPTIONS = {
        "list": [],
        "run": [
            "--all", "--cache", "--cache-dir", "--chaos", "--chaos-log",
            "--job-retries", "--job-timeout", "--jobs", "--no-cache",
            "--plot", "--record",
        ],
        "simulate": [
            "--bandwidth", "--combinations", "--failure-p", "--failure-seed",
            "--live-offset", "--max-attempts", "--player", "--record",
            "--request-timeout", "--resume-p", "--retry-base-delay",
            "--retry-budget",
        ],
        "cohort": [
            "--burst", "--cache-chunks", "--capacity", "--edges",
            "--failover-budget", "--fault-log", "--faults", "--no-summaries",
            "--seed", "--sessions",
        ],
        "replay": ["--strict", "--verify"],
        "diff-events": ["--atol", "--context", "--rtol"],
        "manifest": ["--combinations", "--format", "--self-lint"],
        "lint": [
            "--baseline", "--bitrate-tags", "--chunk-files", "--curated",
            "--disable", "--fix", "--format", "--manifest", "--select",
            "--write-baseline",
        ],
        "report": [
            "--cache", "--cache-dir", "--chaos", "--chaos-log",
            "--job-retries", "--job-timeout", "--jobs", "--no-cache",
            "--no-charts", "--output", "--record",
        ],
        "trace": [
            "--duration", "--format", "--input", "--input-format", "--mean",
            "--output", "--preset", "--seed", "--unit",
        ],
        "compare": ["--bandwidth", "--combinations"],
    }

    def test_option_strings_are_pinned(self):
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert {
            name: sorted(
                option
                for action in parser._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            )
            for name, parser in sub.choices.items()
        } == self.OPTIONS

    def test_import_leaves_the_analyzer_unloaded(self):
        # simulate/run/cohort must not pay for importing the linter.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, repro.cli; print('repro.analysis' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"
