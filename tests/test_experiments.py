"""Every paper artifact reproduces, and the report machinery works."""

import hashlib

import pytest

from repro.errors import ExperimentError
from repro.experiments import experiment_names, run_experiment
from repro.experiments.base import Check, ExperimentReport
from repro.experiments.traces import fig4b_spec
from repro.runner import ContentSpec, PlayerSpec, TraceSpec

ALL_EXPERIMENTS = experiment_names()


class TestRegistry:
    def test_expected_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) >= {
            "table1",
            "table2",
            "table3",
            "fig1",
            "fig2a",
            "fig2b",
            "fig3",
            "fig3_a1_first",
            "fig4a",
            "fig4b",
            "fig5",
            "fluctuation",
            "best_practices",
            "ablations",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_experiment_reproduces(name):
    """The headline integration test: every table and figure of the
    paper regenerates with the documented shape."""
    report = run_experiment(name)
    failed = [str(c) for c in report.checks if not c.passed]
    assert report.passed, f"{name}: {failed}"
    assert report.checks, f"{name} has no checks"


#: sha256 of each report's regenerated content (everything but
#: ``params``, which carries runner provenance such as wall times).
#: A refactor of how experiments run their sessions must not move any
#: of these: the report is the reproduction, byte for byte.
REPORT_PINS = {
    "ablations": "83967b43365d5b8b860b87511997490f7391425f4761ca7c4d8bbb2b5cf9cb0a",
    "algorithms": "e0ef3795984f6656e04c742d6ba818e7942c5fbb4b2b2fe18f3d11152d408920",
    "best_practices": "9843f608fb2381f0efd28284c3d509a194ce38d83e9505fa57f53515ae4addba",
    "corpus": "9c011b164f48bb792eba00a1aed8b8f20c5d1b4f4115151d13e89bf7db19c0a6",
    "fig1": "7081e5be3ec6070c7a499ac218067bd448eb32fbfe78eb5a99da93a5aec9eb31",
    "fig2a": "b88b7b0291554a2632157c4e4ac7d9e34bdcdeb6806c47b4a06569ef0cb99e6c",
    "fig2b": "ab4152cc0c4022dde3337f422c99923497f5b3c60075b8d49d8c3816ef9e8eec",
    "fig3": "bfad0af530da1c7fbce5e5a47e8e751da67b0c0cfa5f9dedfe99e0fbfbf8f90c",
    "fig3_a1_first": "97b8a237c42c96bfa9ba5d19a606091b9652fb5aee61feb1452652ae5b410006",
    "fig4a": "9479db56a3a5b5a167a90332aafa11b8a9581f44c7783ce13e7eb468fe515f2b",
    "fig4b": "454817420b8ac4b6af0556e8fa8254c421fb63f4a8673abf4bbb59e126917053",
    "fig5": "949e7b044a0258ea6560d1d5051848c6fa4ea0109d212e43b4a73c0e80a2e7be",
    "flashcrowd": "f84543187b3bcb879fcb6cd95826f6a927f4cf2f12d3ca4e5a038547d8dc62c3",
    "fluctuation": "0a52c8a5e76aa210324d5cd2c1df6a22b9fee903614ae3139151b390880b17da",
    "live": "48ba25b2fd29748e17e11c00db8a84b866c59bfa29eccc4016577740c7152253",
    "muxed_vs_demuxed": "5bf5e3c1dcaead7979fe3a86f57c3293f5db9763e65246163e71e8dc434b7656",
    "resilience": "e38d659df467aad5a84b793ca509b090e622931740de4fd89c5c5ae7d3b0aca3",
    "resilience-sweep": "7a31e01ae377a0e4b2926d4cbb92b7f731bb37a96b50382a1bf5678f7bc8cad0",
    "sweep": "9abef602fb2c3ddb8022ab799a144f8a8bc562496b4e7c599258d0d41faf9eda",
    "table1": "cc4ab6ba0dc054484c76b28f5983c53abf9a2701458f75b7a521b95bdd83a246",
    "table2": "d3cf355d78d883895cbb023c8451402a769a01ba82fe927647ea3adeb5957304",
    "table3": "ae6caf1b4ea2effde1d7ba10724c0e97560008da4ec20ae62056794349e92fdc",
}


def report_fingerprint(report) -> str:
    body = repr(
        (
            report.status,
            report.header,
            report.rows,
            report.series,
            report.timelines,
            [(c.description, c.passed, c.detail) for c in report.checks],
            report.notes,
        )
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def test_report_pins_cover_every_experiment():
    assert sorted(REPORT_PINS) == ALL_EXPERIMENTS


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_report_content_is_pinned(name):
    assert report_fingerprint(run_experiment(name)) == REPORT_PINS[name]


def test_every_registered_experiment_declares_checks():
    """Static audit backing the zero-checks fix: each registered
    runner's module registers at least one shape-level assertion, so no
    experiment can ride the (now-removed) vacuous REPRODUCED path."""
    import inspect

    from repro.experiments.base import _REGISTRY

    for name, runner in _REGISTRY.items():
        source = inspect.getsource(inspect.getmodule(runner))
        assert ".check(" in source, f"{name}'s module registers no checks"


class TestSpecificShapes:
    def test_fig3_stall_shape(self):
        report = run_experiment("fig3")
        stall_line = report.timelines["stalls"]
        assert len(stall_line) >= 2  # paper: 5 stall events

    def test_fig4a_estimate_series_flat_500(self):
        report = run_experiment("fig4a")
        values = {v for _, v in report.series["estimate_kbps"]}
        assert values == {500.0}

    @pytest.mark.parametrize(
        "trace,valid,discarded",
        [(TraceSpec.constant(1000.0), 0, 2050), (fig4b_spec(), 99, 6057)],
    )
    def test_fig4_sample_fold_matches_the_live_player(self, trace, valid, discarded):
        # Fig. 4(a) reads the filter counts off the result, not the
        # player: a cached or replayed result carries no player object.
        from repro.experiments.fig4 import sample_filter_counts
        from repro.net.link import shared
        from repro.sim.session import simulate

        content = ContentSpec().build()
        player = PlayerSpec("shaka", combinations="all").build(content)
        result = simulate(content, player, shared(trace.build()))
        folded = sample_filter_counts(result)
        live = player.estimator
        assert (folded.valid_samples, folded.discarded_samples) == (
            live.valid_samples,
            live.discarded_samples,
        )
        assert (live.valid_samples, live.discarded_samples) == (valid, discarded)

    def test_fig4b_estimate_crosses_600(self):
        report = run_experiment("fig4b")
        values = [v for _, v in report.series["estimate_kbps"]]
        assert min(values) <= 500.0
        assert max(values) > 900.0

    def test_table2_has_18_rows(self):
        assert len(run_experiment("table2").rows) == 18

    def test_table3_has_6_rows(self):
        assert len(run_experiment("table3").rows) == 6

    def test_best_practices_rows_cover_three_scenarios(self):
        report = run_experiment("best_practices")
        scenarios = {row[0] for row in report.rows}
        assert scenarios == {"fig3", "fig4a", "fig5"}


class TestGridCalls:
    """Each experiment runs its sessions in as few grids as it can."""

    @staticmethod
    def _count_runs(monkeypatch):
        from repro.runner import GridRunner

        calls = []
        original = GridRunner.run

        def counting_run(self, jobs, use_cache=True):
            calls.append((len(jobs), use_cache))
            return original(self, jobs, use_cache=use_cache)

        monkeypatch.setattr(GridRunner, "run", counting_run)
        return calls

    def test_resilience_sweep_is_one_grid_plus_one_rerun(self, monkeypatch):
        calls = self._count_runs(monkeypatch)
        report = run_experiment("resilience-sweep")
        # The 30 cell jobs and the degraded-budget job in one grid, then
        # the determinism check's uncached re-run of one 3-seed cell.
        assert calls == [(31, True), (3, False)]
        assert report.params["runner"]["simulated"] == 31
        assert report.params["runner"]["uncached"] == 3

    @pytest.mark.parametrize("name", ["muxed_vs_demuxed", "fig2a", "fig2b"])
    def test_derived_titles_reuse_the_runners_drama(self, monkeypatch, name):
        # From an empty title memo the drama title is synthesized once,
        # derived titles included; a second run synthesizes nothing.
        import repro.runner.jobs as jobs_module

        builds = []
        original = jobs_module.drama_show

        def counting_drama_show():
            builds.append(1)
            return original()

        monkeypatch.setattr(jobs_module, "_BUILT", {})
        monkeypatch.setattr(jobs_module, "drama_show", counting_drama_show)
        run_experiment(name)
        assert len(builds) == 1
        run_experiment(name)
        assert len(builds) == 1


class TestReportRendering:
    def test_render_contains_checks_and_verdict(self):
        report = run_experiment("table1")
        text = report.render()
        assert "table1" in text
        assert "[PASS]" in text
        assert "REPRODUCED" in text

    def test_render_table_alignment(self):
        report = ExperimentReport(
            experiment_id="x",
            title="t",
            header=("A", "B"),
            rows=[("aa", 1), ("b", 22)],
        )
        lines = report.render_table().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")

    def test_render_empty_table(self):
        report = ExperimentReport(experiment_id="x", title="t")
        assert report.render_table() == "(no rows)"

    def test_failed_check_marks_mismatch(self):
        report = ExperimentReport(experiment_id="x", title="t")
        report.check("always false", False, detail="boom")
        assert not report.passed
        assert "MISMATCH" in report.render()
        assert "boom" in report.render()

    def test_check_str(self):
        check = Check(description="d", passed=True, detail="x")
        assert str(check) == "[PASS] d (x)"

    def test_timeline_compaction(self):
        report = ExperimentReport(experiment_id="x", title="t")
        report.timelines["combo"] = [(0.0, "a"), (1.0, "a"), (2.0, "b")]
        text = report.render()
        assert "a@0s -> b@2s" in text

    def test_timeline_includes_final_run_end_time(self):
        """The last track choice must not render as lasting zero
        seconds: the final sample's time is appended when it extends
        past the last transition."""
        report = ExperimentReport(experiment_id="x", title="t")
        report.timelines["combo"] = [
            (0.0, "a"),
            (4.0, "a"),
            (8.0, "b"),
            (12.0, "b"),
        ]
        assert "a@0s -> b@8s (held to 12s)" in report.render()

    def test_zero_checks_is_not_reproduced(self):
        """A report that registers no assertions must not claim
        reproduction vacuously."""
        report = ExperimentReport(experiment_id="x", title="t")
        assert not report.passed
        assert report.status == "NO CHECKS"
        assert "=> NO CHECKS" in report.render()
        report.check("now it has one", True)
        assert report.passed
        assert report.status == "REPRODUCED"

    def test_render_table_header_wider_than_first_row(self):
        """Column widths come from the widest shape present: a header
        with more columns than the first row must not drop columns."""
        report = ExperimentReport(
            experiment_id="x",
            title="t",
            header=("alpha", "beta", "gamma"),
            rows=[("a", 1)],
        )
        lines = report.render_table().splitlines()
        assert "gamma" in lines[0]
        assert len(lines) == 3

    def test_render_table_ragged_rows_padded(self):
        report = ExperimentReport(
            experiment_id="x",
            title="t",
            header=("A",),
            rows=[("a",), ("b", 2, 3)],
        )
        lines = report.render_table().splitlines()
        assert lines[-1].split() == ["b", "2", "3"]
        assert len(lines) == 4
