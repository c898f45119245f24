"""Command-line interface.

::

    repro-abr list                 # available experiments
    repro-abr run fig4a            # one experiment, full report
    repro-abr run --all            # everything, summary + reports
    repro-abr simulate --player shaka --bandwidth 1000
    repro-abr manifest --format hls --combinations hsub

Exit status is non-zero when any executed experiment fails its
shape-level checks, so CI can gate on reproduction.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.combinations import all_combinations, hsub_combinations
from .core.player import RecommendedPlayer
from .experiments import experiment_names, run_experiment
from .analysis.findings import Severity
from .manifest.dash import write_mpd
from .manifest.packager import package_dash, package_hls
from .media.content import drama_show
from .net.link import shared
from .net.traces import constant
from .players.dashjs import DashJsPlayer
from .players.exoplayer import ExoPlayerDash, ExoPlayerHls
from .players.shaka import ShakaPlayer
from .qoe.metrics import compute_qoe
from .sim.session import simulate


def _build_player(name: str, content, combinations: str):
    combos = (
        hsub_combinations(content)
        if combinations == "hsub"
        else all_combinations(content)
    )
    if name == "exoplayer-dash":
        return ExoPlayerDash(package_dash(content))
    if name == "exoplayer-hls":
        return ExoPlayerHls(package_hls(content, combinations=combos).master)
    if name == "shaka":
        return ShakaPlayer.from_hls(package_hls(content, combinations=combos).master)
    if name == "dashjs":
        return DashJsPlayer(package_dash(content))
    if name == "recommended":
        return RecommendedPlayer(combos)
    raise SystemExit(f"unknown player {name!r}")


def cmd_list(_args) -> int:
    for name in experiment_names():
        print(name)
    return 0


def _runner_options_from(args):
    """The runner configuration implied by --jobs/--cache/--no-cache
    plus the robustness knobs (--job-timeout/--job-retries/--chaos)."""
    from .runner import runner_options

    cache_dir = args.cache_dir if args.cache and not args.no_cache else None
    chaos = None
    if args.chaos:
        from .chaos import ChaosSchedule

        chaos = ChaosSchedule.from_spec(args.chaos).with_log(args.chaos_log)
        if args.jobs <= 1:
            raise SystemExit(
                "--chaos needs --jobs >= 2: its faults kill real worker "
                "processes, which the in-process serial path cannot survive"
            )
    return runner_options(
        workers=args.jobs,
        cache_dir=cache_dir,
        job_timeout_s=args.job_timeout,
        job_retries=args.job_retries,
        chaos=chaos,
        record_dir=args.record,
    )


def cmd_run(args) -> int:
    from .experiments.plotting import render_report_charts

    names = experiment_names() if args.all else args.names
    if not names:
        print("nothing to run: give experiment names or --all", file=sys.stderr)
        return 2
    failures = 0
    with _runner_options_from(args):
        for name in names:
            report = run_experiment(name)
            print(report.render())
            if args.plot and report.series:
                print()
                print(render_report_charts(report))
            print()
            if not report.passed:
                failures += 1
    print(f"{len(names) - failures}/{len(names)} experiments reproduced")
    return 1 if failures else 0


def cmd_simulate(args) -> int:
    from .net.resilience import RetryPolicy
    from .qoe.diagnosis import diagnose
    from .runner.jobs import FailureSpec, PlayerSpec, SimulationJob, TraceSpec

    # Expressing the ad-hoc session as a SimulationJob means a recorded
    # log embeds the full job spec, so `replay --verify` can re-simulate
    # it later without this command line.
    failure = None
    retry_policy = None
    if args.failure_p > 0:
        failure = FailureSpec.with_mix(
            args.failure_p,
            args.failure_seed,
            mix=None,
            resume_probability=args.resume_p,
        )
        retry_policy = RetryPolicy(
            max_attempts=args.max_attempts,
            base_delay_s=args.retry_base_delay,
            retry_budget=args.retry_budget,
            request_timeout_s=args.request_timeout,
        )
    job = SimulationJob(
        player=PlayerSpec(args.player, combinations=args.combinations),
        trace=TraceSpec.constant(args.bandwidth),
        failure=failure,
        retry_policy=retry_policy,
        live_offset_s=args.live_offset,
    )
    observer = None
    if args.record:
        from .replay import EventRecorder

        key = job.key()
        observer = EventRecorder(
            args.record,
            extra_meta={
                "job": job.spec_dict(),
                "key": key,
                "label": job.label(key),
            },
        )
    content, player, network, config = job.build(observer=observer)
    result = simulate(content, player, network, config)
    if observer is not None:
        print(f"recorded {observer.events_written} events to {args.record}")
    summary = result.summary()
    qoe = compute_qoe(result, content)
    for key, value in summary.items():
        print(f"{key}: {value}")
    print("qoe:", qoe.as_dict())
    findings = diagnose(result, content)
    if findings:
        print("diagnosis:")
        for finding in findings:
            print(f"  {finding}")
    else:
        print("diagnosis: clean (no known pathologies)")
    return 0


def cmd_cohort(args) -> int:
    import json as _json

    from .chaos.invariants import check_cohort
    from .net.resilience import FailoverPolicy
    from .topology import CohortJob, FaultDomainSchedule, TopologySpec

    faults = None
    if args.faults:
        faults = FaultDomainSchedule.from_spec(args.faults)
    job = CohortJob(
        topology=TopologySpec.uniform(
            args.edges,
            capacity_kbps=args.capacity,
            cache_chunks=args.cache_chunks,
        ),
        faults=faults,
        n_sessions=args.sessions,
        arrival_burst_s=args.burst,
        failover=FailoverPolicy(failover_budget=args.failover_budget),
        seed=args.seed,
        keep_summaries=not args.no_summaries,
    )
    record_dir = None
    if args.fault_log:
        record_dir = os.path.dirname(os.path.abspath(args.fault_log)) or "."
    result = job.execute(record_dir=record_dir)
    key = job.key()
    if args.fault_log:
        from .replay.recorder import record_path

        written = record_path(record_dir, key)
        target = os.path.abspath(args.fault_log)
        if written != target:
            os.replace(written, target)
        print(f"fault-domain event log: {args.fault_log}")
    print(f"cohort {job.label(key)}")
    print(f"fingerprint: {result.fingerprint()}")
    print(
        f"sessions: {result.n_sessions}  completed: "
        f"{result.completed_sessions}  degraded: {result.degraded_sessions}"
    )
    print(f"verdicts: {result.verdict_counts}")
    print("aggregate:")
    print(_json.dumps(result.aggregate, indent=2, sort_keys=True))
    print("edges:")
    for edge_id, ledger in result.edges.items():
        print(f"  {edge_id}: " + ", ".join(
            f"{k}={v:.0f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in ledger.items()
        ))
    violations = check_cohort(result)
    if violations:
        print("INVARIANT VIOLATIONS:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("invariants: all hold")
    return 0


def cmd_manifest(args) -> int:
    content = drama_show()
    if args.format == "dash":
        print(write_mpd(package_dash(content, self_lint=args.self_lint)))
        return 0
    combos = (
        hsub_combinations(content)
        if args.combinations == "hsub"
        else all_combinations(content)
    )
    package = package_hls(content, combinations=combos, self_lint=args.self_lint)
    for filename, text in package.write_all().items():
        print(f"### {filename}")
        print(text)
    return 0


#: File suffixes the lint path-collector picks up from directories.
_LINTABLE_SUFFIXES = (".m3u8", ".m3u", ".mpd", ".xml", ".py")


def _collect_lint_files(paths):
    """{name: text} for explicit files plus lintable files under dirs."""
    import os

    files = {}
    for path in paths:
        if os.path.isdir(path):
            hits = []
            for root, dirs, names in os.walk(path):
                # Lint-fixture corpora are deliberately broken inputs;
                # skip them when recursing (explicit file arguments
                # still lint them).
                dirs[:] = [d for d in dirs if d != "fixtures"]
                for name in names:
                    if name.lower().endswith(_LINTABLE_SUFFIXES):
                        hits.append(os.path.join(root, name))
            for hit in sorted(hits):
                with open(hit, "r", encoding="utf-8") as fh:
                    files[hit] = fh.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                files[path] = fh.read()
    return files


def _packaged_lint_files(args):
    """Synthesize the reference-title packaging the legacy CLI linted."""
    content = drama_show()
    manifest_format = (
        args.format if args.format in ("dash", "hls") else args.manifest
    )
    combos = hsub_combinations(content) if args.curated else None
    if manifest_format == "dash":
        manifest = package_dash(content, allowed_combinations=combos)
        return {"manifest.mpd": write_mpd(manifest)}
    package = package_hls(
        content,
        combinations=combos,
        single_file=not args.chunk_files,
        include_bitrate_tag=args.bitrate_tags,
    )
    return package.write_all()


def cmd_lint(args) -> int:
    """Lint manifests (or Python sources) with ``repro.analysis``.

    Exit codes: 0 clean or warnings only, 1 at least one ERROR,
    2 a document could not be parsed at all (or bad usage).
    """
    from . import analysis

    disabled = frozenset(
        rule_id for spec in args.disable for rule_id in spec.split(",") if rule_id
    )
    selected = frozenset(
        rule_id for spec in args.select for rule_id in spec.split(",") if rule_id
    )
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = analysis.Baseline.loads(fh.read())
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    import os

    surfaces_given = args.surfaces is not None
    if args.surfaces is None:
        args.surfaces = "surfaces"
    surfaces_dir = args.surfaces
    if not os.path.isdir(surfaces_dir) and not args.update_surfaces:
        # The default "surfaces" only arms the SURF comparisons when
        # the snapshot directory actually exists (linting an arbitrary
        # tree must not demand one); an explicit missing path is a
        # usage error.
        if surfaces_given:
            print(
                f"surfaces directory {surfaces_dir!r} does not exist "
                "(run `repro-abr lint --update-surfaces` to create it)",
                file=sys.stderr,
            )
            return 2
        surfaces_dir = None
    config = analysis.AnalyzerConfig(
        disabled=disabled,
        selected=selected or None,
        baseline=baseline,
        surfaces_dir=surfaces_dir,
    )

    from_disk = bool(args.paths)
    try:
        files = (
            _collect_lint_files(args.paths)
            if from_disk
            else _packaged_lint_files(args)
        )
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2

    if args.update_surfaces:
        if not from_disk:
            print(
                "--update-surfaces needs explicit path arguments (the "
                "surfaces are extracted from the source tree)",
                file=sys.stderr,
            )
            return 2
        from .analysis.code_surfaces import write_surfaces
        from .analysis.engine import prepare

        try:
            prepared, ctx = prepare(files, analysis.AnalyzerConfig())
        except analysis.AnalysisParseFailure as exc:
            print(f"parse failure: {exc}", file=sys.stderr)
            return 2
        sources = {a.name: a.python for a in prepared if a.python is not None}
        written = write_surfaces(args.surfaces, sources, ctx.program)
        print(
            f"wrote {len(written)} surface snapshot(s) to {args.surfaces}: "
            + ", ".join(written),
            file=sys.stderr,
        )

    if args.fix:
        if not from_disk:
            print(
                "--fix needs explicit file arguments (the built-in packaging "
                "is generated, not on disk)",
                file=sys.stderr,
            )
            return 2
        from .analysis.autofix import fix_files

        try:
            result = fix_files(files, config)
        except analysis.AnalysisParseFailure as exc:
            print(f"parse failure: {exc}", file=sys.stderr)
            return 2
        for name, text in result.files.items():
            if text != files[name]:
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
        if result.n_fixed:
            print(
                f"fixed {result.n_fixed} finding(s) in {result.passes} pass(es)",
                file=sys.stderr,
            )
        files = result.files

    try:
        if args.jobs > 1:
            from .analysis.parallel import analyze_files_parallel

            findings = analyze_files_parallel(files, config, jobs=args.jobs)
        else:
            findings = analysis.analyze_files(files, config)
    except analysis.AnalysisParseFailure as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            fh.write(analysis.Baseline.from_findings(findings).dumps())
        print(
            f"wrote baseline with {len(findings)} fingerprint(s) to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )

    output_format = args.format if args.format in ("json", "sarif") else "text"
    renderer = {
        "text": analysis.render_text,
        "json": analysis.render_json,
        "sarif": analysis.render_sarif,
    }[output_format]
    sys.stdout.write(renderer(findings))
    return 1 if analysis.worst_severity(findings) is Severity.ERROR else 0


def cmd_compare(args) -> int:
    """All players on one link, one table."""
    from .media.tracks import MediaType
    from .qoe.metrics import compute_qoe

    content = drama_show()
    header = (
        f"{'player':<16} {'video':>6} {'audio':>6} {'stalls':>6} "
        f"{'rebuf s':>8} {'switches':>8} {'imbal s':>8} {'QoE':>8}"
    )
    print(f"link: constant {args.bandwidth:.0f} kbps")
    print(header)
    print("-" * len(header))
    for name in ("exoplayer-dash", "exoplayer-hls", "shaka", "dashjs", "recommended"):
        player = _build_player(name, content, args.combinations)
        result = simulate(content, player, shared(constant(args.bandwidth)))
        qoe = compute_qoe(result, content)
        print(
            f"{name:<16} "
            f"{result.time_weighted_bitrate_kbps(MediaType.VIDEO):>6.0f} "
            f"{result.time_weighted_bitrate_kbps(MediaType.AUDIO):>6.0f} "
            f"{result.n_stalls:>6d} {result.total_rebuffer_s:>8.1f} "
            f"{qoe.video_switches + qoe.audio_switches:>8d} "
            f"{result.max_buffer_imbalance_s():>8.1f} {qoe.score:>8.1f}"
        )
    return 0


def cmd_trace(args) -> int:
    """Generate or convert bandwidth traces."""
    from .net.mahimahi import load_mahimahi, save_mahimahi
    from .net.markov import hspa_preset, lte_preset
    from .net.traces import from_csv, load_trace, random_walk, save_trace

    if args.input:
        if args.input_format == "mahimahi":
            trace = load_mahimahi(args.input)
        elif args.input_format == "measured":
            trace = from_csv(args.input, unit=args.unit)
        else:
            trace = load_trace(args.input)
    elif args.preset == "lte":
        trace = lte_preset(duration_s=args.duration, seed=args.seed)
    elif args.preset == "hspa":
        trace = hspa_preset(duration_s=args.duration, seed=args.seed)
    else:  # random
        trace = random_walk(mean_kbps=args.mean, seed=args.seed)

    print(
        f"trace: {len(trace.segments)} segments, period {trace.period_s:.1f} s, "
        f"avg {trace.average_kbps():.0f} kbps "
        f"(min {trace.min_kbps():.0f}, max {trace.max_kbps():.0f})"
    )
    if args.output:
        if args.format == "mahimahi":
            save_mahimahi(trace, args.output, duration_s=args.duration)
        else:
            save_trace(trace, args.output)
        print(f"wrote {args.output} ({args.format})")
    return 0


def cmd_replay(args) -> int:
    """Re-derive session metrics from recorded event logs.

    Exit codes: 0 all logs replayed (and, with --verify, matched a
    fresh simulation byte-for-byte), 1 a verification mismatch,
    2 a log could not be replayed at all.
    """
    from .replay import ReplayError, replay_session

    status = 0
    for path in args.logs:
        try:
            replayed = replay_session(path, strict=args.strict)
        except (OSError, ReplayError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = max(status, 2)
            continue
        print(f"== {path}")
        if replayed.damage:
            where = (
                f" at line {replayed.damage_line}"
                if replayed.damage_line is not None
                else ""
            )
            print(f"damage: {replayed.damage}{where} ({replayed.damage_detail})")
        print(
            f"events: {len(replayed.events)}, verdict: "
            f"{'recorded' if replayed.has_verdict else 'missing (torn prefix)'}"
        )
        for key, value in replayed.result.summary().items():
            print(f"{key}: {value}")
        print("qoe:", replayed.qoe().as_dict())
        if args.verify:
            status = max(status, _verify_replay(path, replayed))
    return status


def _verify_replay(path: str, replayed) -> int:
    """Re-simulate the log's embedded job; compare metrics exactly."""
    from .runner.jobs import SimulationJob

    spec = replayed.job_spec
    if spec is None:
        print(
            f"{path}: verify impossible: the log embeds no job spec "
            "(record it through the runner's --record to verify)",
            file=sys.stderr,
        )
        return 2
    job = SimulationJob.from_spec(spec)
    content, player, network, config = job.build()
    live = simulate(content, player, network, config)
    live_summary = live.summary()
    replay_summary = replayed.result.summary()
    live_qoe = compute_qoe(live, content).as_dict()
    replay_qoe = replayed.qoe().as_dict()
    mismatches = [
        f"  {key}: live {live_summary[key]!r} != replay {replay_summary.get(key)!r}"
        for key in live_summary
        if live_summary[key] != replay_summary.get(key)
    ] + [
        f"  qoe.{key}: live {live_qoe[key]!r} != replay {replay_qoe.get(key)!r}"
        for key in live_qoe
        if live_qoe[key] != replay_qoe.get(key)
    ]
    if not mismatches:
        print("verify: OK (re-simulated metrics byte-identical)")
        return 0
    print(f"verify: MISMATCH ({len(mismatches)} metric(s) differ)")
    for line in mismatches:
        print(line)
    return 1


def cmd_diff_events(args) -> int:
    """Diff two event logs (or two recording directories pairwise).

    Exit codes: 0 identical within tolerance, 1 any divergence or
    unpaired log, 2 nothing comparable.
    """
    import json
    import os

    from .replay import ReplayError
    from .replay.diff import diff_event_logs

    pairs = []
    problems = 0
    if os.path.isdir(args.a) and os.path.isdir(args.b):
        names_a = {n for n in os.listdir(args.a) if n.endswith(".events.jsonl")}
        names_b = {n for n in os.listdir(args.b) if n.endswith(".events.jsonl")}
        for name in sorted(names_a ^ names_b):
            side = args.a if name in names_a else args.b
            print(f"{name}: only in {side}", file=sys.stderr)
            problems += 1
        pairs = [
            (os.path.join(args.a, n), os.path.join(args.b, n), n)
            for n in sorted(names_a & names_b)
        ]
        if not pairs and not problems:
            print("no event logs found to compare", file=sys.stderr)
            return 2
    else:
        pairs = [(args.a, args.b, f"{args.a} vs {args.b}")]
    for path_a, path_b, label in pairs:
        try:
            report = diff_event_logs(
                path_a,
                path_b,
                rtol=args.rtol,
                atol=args.atol,
                context=args.context,
                canonical=args.canonical,
            )
        except (OSError, ReplayError) as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            problems += 1
            continue
        for side, path, damage in (
            ("A", path_a, report.damage_a),
            ("B", path_b, report.damage_b),
        ):
            if damage:
                print(f"{label}: log {side} ({path}) is {damage}")
        if report.identical:
            print(f"{label}: identical ({report.events_compared} events)")
            continue
        problems += 1
        print(f"{label}: {report.divergence.describe()}")
        for event in report.context:
            print(f"  ...  {json.dumps(event, sort_keys=True)}")
        if report.divergence.a is not None:
            print(f"  A -> {json.dumps(report.divergence.a, sort_keys=True)}")
        if report.divergence.b is not None:
            print(f"  B -> {json.dumps(report.divergence.b, sort_keys=True)}")
    return 1 if problems else 0


def cmd_report(args) -> int:
    from .experiments.reporting import write_reports

    with _runner_options_from(args):
        outcomes = write_reports(
            args.output,
            names=args.names or None,
            include_charts=not args.no_charts,
        )
    for name, passed in sorted(outcomes.items()):
        print(f"{name}: {'REPRODUCED' if passed else 'MISMATCH'}")
    print(f"wrote {len(outcomes)} reports to {args.output}/")
    return 0 if all(outcomes.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-abr",
        description="Reproduction of 'ABR Streaming with Separate Audio and "
        "Video Tracks' (CoNEXT 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=cmd_list)

    def add_runner_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for grid experiments (1 = in-process serial)",
        )
        parser.add_argument(
            "--cache",
            action="store_true",
            help="replay previously simulated sessions from the result cache",
        )
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="force fresh simulation even when --cache is given",
        )
        parser.add_argument(
            "--cache-dir",
            default=".repro-cache",
            help="result-cache directory (default: .repro-cache)",
        )
        parser.add_argument(
            "--job-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-job wall-clock deadline; hung workers are killed and "
            "the job is requeued (pool mode only)",
        )
        parser.add_argument(
            "--job-retries",
            type=int,
            default=2,
            metavar="N",
            help="extra attempts granted to a crashed, hung or raising job "
            "before it is surfaced as failed (default: 2)",
        )
        parser.add_argument(
            "--chaos",
            metavar="SPEC",
            help="arm the fault injector: KINDS[:KEY=VALUE,...] with "
            "dash-separated kinds from kill/hang/raise/truncate or 'all' "
            "(e.g. 'kill-hang', 'raise:p=0.5,seed=3'); needs --jobs >= 2",
        )
        parser.add_argument(
            "--chaos-log",
            default="chaos-events.jsonl",
            metavar="FILE",
            help="JSON-lines chaos event log (faults injected, watchdog "
            "kills, requeues); only written when --chaos is armed",
        )
        parser.add_argument(
            "--record",
            default=None,
            metavar="DIR",
            help="record every simulated session's event log to "
            "DIR/<job key>.events.jsonl; intact logs double as a cache "
            "(replayed instead of re-simulated on the next run)",
        )

    run_parser = sub.add_parser("run", help="run experiments")
    run_parser.add_argument("names", nargs="*", help="experiment names")
    run_parser.add_argument("--all", action="store_true", help="run everything")
    run_parser.add_argument(
        "--plot", action="store_true", help="render time-series as ASCII charts"
    )
    add_runner_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    sim_parser = sub.add_parser("simulate", help="one ad-hoc session")
    sim_parser.add_argument(
        "--player",
        default="recommended",
        choices=["exoplayer-dash", "exoplayer-hls", "shaka", "dashjs", "recommended"],
    )
    sim_parser.add_argument("--bandwidth", type=float, default=1000.0, help="kbps")
    sim_parser.add_argument(
        "--combinations", default="hsub", choices=["hsub", "all"]
    )
    sim_parser.add_argument(
        "--live-offset",
        type=float,
        default=None,
        help="live mode: packaging delay in seconds (omit for VOD)",
    )
    sim_parser.add_argument(
        "--failure-p",
        type=float,
        default=0.0,
        help="per-request failure probability (0 disables injection)",
    )
    sim_parser.add_argument(
        "--failure-seed", type=int, default=0, help="failure-model RNG seed"
    )
    sim_parser.add_argument(
        "--resume-p",
        type=float,
        default=0.6,
        help="fraction of byte-kind failures kept range-resumable",
    )
    sim_parser.add_argument(
        "--max-attempts", type=int, default=4, help="tries per chunk request"
    )
    sim_parser.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.4,
        help="backoff base delay in seconds",
    )
    sim_parser.add_argument(
        "--retry-budget", type=int, default=64, help="retries per session"
    )
    sim_parser.add_argument(
        "--request-timeout",
        type=float,
        default=8.0,
        help="per-request watchdog in seconds",
    )
    sim_parser.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="record the session's event log to FILE (replayable with "
        "'repro-abr replay')",
    )
    sim_parser.set_defaults(func=cmd_simulate)

    cohort_parser = sub.add_parser(
        "cohort",
        help="run a multi-session cohort over an edge topology with "
        "correlated fault domains",
    )
    cohort_parser.add_argument(
        "--sessions", type=int, default=100, help="cohort size"
    )
    cohort_parser.add_argument(
        "--edges", type=int, default=3, help="number of CDN edges"
    )
    cohort_parser.add_argument(
        "--capacity", type=float, default=20_000.0,
        help="per-edge uplink capacity in kbps (fair-shared)",
    )
    cohort_parser.add_argument(
        "--cache-chunks", type=int, default=512,
        help="per-edge LRU cache capacity in chunks (0 disables)",
    )
    cohort_parser.add_argument(
        "--burst", type=float, default=30.0,
        help="flash-crowd arrival window in seconds",
    )
    cohort_parser.add_argument(
        "--faults", default=None,
        help="fault-domain spec, e.g. 'all', 'edge_outage:seed=3', "
        "'none:pin=edge_outage@edge-1@60@90'",
    )
    cohort_parser.add_argument(
        "--failover-budget", type=int, default=8,
        help="endpoint switches each session may spend",
    )
    cohort_parser.add_argument("--seed", type=int, default=0)
    cohort_parser.add_argument(
        "--no-summaries", action="store_true",
        help="drop per-session summaries (O(1) memory for huge cohorts)",
    )
    cohort_parser.add_argument(
        "--fault-log", metavar="FILE", default=None,
        help="write the schema-2 fault-domain event log to FILE",
    )
    cohort_parser.set_defaults(func=cmd_cohort)

    replay_parser = sub.add_parser(
        "replay",
        help="re-derive session metrics from recorded event logs "
        "without re-simulating",
    )
    replay_parser.add_argument("logs", nargs="+", help="event-log files")
    replay_parser.add_argument(
        "--strict",
        action="store_true",
        help="refuse corrupt logs instead of replaying the intact prefix "
        "(truncation is always tolerated)",
    )
    replay_parser.add_argument(
        "--verify",
        action="store_true",
        help="re-simulate each log's embedded job spec and require "
        "byte-identical summary and QoE metrics",
    )
    replay_parser.set_defaults(func=cmd_replay)

    diff_parser = sub.add_parser(
        "diff-events",
        help="align two event logs (or recording directories) and report "
        "the first divergence",
    )
    diff_parser.add_argument("a", help="first log file or recording directory")
    diff_parser.add_argument("b", help="second log file or recording directory")
    diff_parser.add_argument(
        "--rtol",
        type=float,
        default=0.0,
        metavar="R",
        help="relative float tolerance (default 0: exact — recorded "
        "floats round-trip exactly)",
    )
    diff_parser.add_argument(
        "--atol",
        type=float,
        default=0.0,
        metavar="A",
        help="absolute float tolerance (default 0)",
    )
    diff_parser.add_argument(
        "--context",
        type=int,
        default=3,
        metavar="N",
        help="events of context to print before a divergence (default 3)",
    )
    diff_parser.add_argument(
        "--canonical",
        action="store_true",
        help="compare deduplicated canonical forms: collapse coincident "
        "duplicate buffer samples and ignore seq renumbering, accepting "
        "logs recorded before the kernel deduped them (default: exact)",
    )
    diff_parser.set_defaults(func=cmd_diff_events)

    man_parser = sub.add_parser("manifest", help="emit manifests for the title")
    man_parser.add_argument("--format", default="dash", choices=["dash", "hls"])
    man_parser.add_argument(
        "--combinations", default="all", choices=["hsub", "all"]
    )
    man_parser.add_argument(
        "--self-lint",
        action="store_true",
        help="fail if the emitted packaging has ERROR-level lint findings",
    )
    man_parser.set_defaults(func=cmd_manifest)

    lint_parser = sub.add_parser(
        "lint",
        help="static-analyze manifests (RFC 8216 / DASH-IF / Section 4.1) "
        "and Python sources (determinism DET-*, units/dimension flow "
        "UNIT-*, pickle/fork safety POOL-*, shared-state SHARE-*, "
        "hot-path discipline HOT-*, compatibility surfaces SURF-*, "
        "player contract POLICY-*)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="manifest or Python files (or directories) to lint; "
        "omit to lint a generated packaging of the reference title",
    )
    lint_parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif", "dash", "hls"],
        help="output format; 'dash'/'hls' are legacy aliases selecting "
        "the generated packaging (text output)",
    )
    lint_parser.add_argument(
        "--manifest",
        default="hls",
        choices=["dash", "hls"],
        help="which packaging to generate when no paths are given",
    )
    lint_parser.add_argument(
        "--curated",
        action="store_true",
        help="package the curated H_sub subset instead of all combinations",
    )
    lint_parser.add_argument(
        "--chunk-files",
        action="store_true",
        help="package one file per chunk (no byte ranges)",
    )
    lint_parser.add_argument(
        "--bitrate-tags",
        action="store_true",
        help="emit EXT-X-BITRATE tags",
    )
    lint_parser.add_argument(
        "--fix",
        action="store_true",
        help="apply autofixes to the given files in place before reporting",
    )
    lint_parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule IDs to skip (repeatable)",
    )
    lint_parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule IDs to run exclusively (repeatable)",
    )
    lint_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint with N worker processes (two-phase: summarize, then "
        "lint against the merged whole-program index); findings are "
        "identical to a serial run",
    )
    lint_parser.add_argument(
        "--baseline",
        help="suppression file of known-finding fingerprints to ignore",
    )
    lint_parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings as the new baseline",
    )
    lint_parser.add_argument(
        "--surfaces",
        default=None,
        metavar="DIR",
        help="directory of committed compatibility-surface snapshots "
        "the SURF-* rules compare against (default: surfaces/ when it "
        "exists)",
    )
    lint_parser.add_argument(
        "--update-surfaces",
        action="store_true",
        help="re-extract the compatibility surfaces from the given "
        "paths and rewrite the snapshot files before linting",
    )
    lint_parser.set_defaults(func=cmd_lint)

    report_parser = sub.add_parser(
        "report", help="write Markdown+JSON reports for experiments"
    )
    report_parser.add_argument("names", nargs="*", help="experiment names (default all)")
    report_parser.add_argument("--output", default="results", help="output directory")
    report_parser.add_argument(
        "--no-charts", action="store_true", help="omit ASCII charts"
    )
    add_runner_flags(report_parser)
    report_parser.set_defaults(func=cmd_report)

    trace_parser = sub.add_parser("trace", help="generate/convert bandwidth traces")
    trace_parser.add_argument(
        "--preset", default="hspa", choices=["lte", "hspa", "random"]
    )
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--duration", type=float, default=300.0)
    trace_parser.add_argument("--mean", type=float, default=600.0, help="random preset mean kbps")
    trace_parser.add_argument("--input", help="convert an existing trace file instead")
    trace_parser.add_argument(
        "--input-format",
        default="csv",
        choices=["csv", "mahimahi", "measured"],
        help="'csv' is the save_trace duration,kbps format; 'measured' "
        "imports FCC/3G-style timestamp,bandwidth logs",
    )
    trace_parser.add_argument(
        "--unit",
        default="kbps",
        choices=["kbps", "mbps", "bps"],
        help="bandwidth unit of a 'measured' input (default kbps)",
    )
    trace_parser.add_argument("--output", help="write the trace to this path")
    trace_parser.add_argument("--format", default="csv", choices=["csv", "mahimahi"])
    trace_parser.set_defaults(func=cmd_trace)

    compare_parser = sub.add_parser("compare", help="all players on one link")
    compare_parser.add_argument("--bandwidth", type=float, default=700.0, help="kbps")
    compare_parser.add_argument(
        "--combinations", default="hsub", choices=["hsub", "all"]
    )
    compare_parser.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
