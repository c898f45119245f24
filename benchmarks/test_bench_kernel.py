"""Session-kernel throughput timers: the ROADMAP item-1 speed contract.

Unlike the paper-artifact benches, these time *sessions per second*
through the event-driven kernel over a representative player x trace x
failure grid — the quantity every sweep, chaos run and population
study pays for. ``BENCH_baseline.json`` pins the before/after numbers
of the kernel overhaul; the perf CI job regresses against them via
``benchmarks/perf_gate.py``.

The session timers run over fine-grained bandwidth profiles (0.5 s
segments, the granularity :func:`repro.net.mahimahi.load_mahimahi` and
``traces.from_csv`` produce from real cellular captures) because that
is what the paper's experiments replay. It is also where the trace
cursor earns its keep: per-event lookups against a many-hundred-segment
trace were the old kernel's dominant cost. On toy two-segment traces
the overhaul is worth ~3x; on measured-trace workloads it is ~10x.

Each timer asserts the sessions it runs actually complete (or reach a
verdict) before the timing is accepted: a kernel that got fast by
dropping work does not count.
"""

from repro.media.content import drama_show
from repro.net.link import SeparatePaths, shared
from repro.net.resilience import ResilienceModel, RetryPolicy
from repro.net.traces import random_walk
from repro.players.fixed import FixedTracksPlayer
from repro.runner.jobs import PlayerSpec, TraceSpec
from repro.sim.session import Session, SessionConfig, simulate

CONTENT = drama_show()

GRID_PLAYERS = ["shaka", "dashjs", "exoplayer-dash", "recommended"]

#: Measured-trace shape: 10 minutes of bandwidth at 0.5 s granularity,
#: looped — what load_mahimahi(window_s=0.5) yields from a real capture.
_FINE = dict(n_segments=1200, segment_duration_s=0.5)


def _fine_trace(mean_kbps, seed, floor_kbps=50.0):
    return random_walk(mean_kbps, seed=seed, floor_kbps=floor_kbps, **_FINE)


def test_bench_kernel_grid(benchmark):
    """The headline grid: 4 adaptive players x 3 measured-shape traces."""
    traces = [_fine_trace(1500.0, 3), _fine_trace(900.0, 4), _fine_trace(2400.0, 5)]

    def run():
        results = []
        for name in GRID_PLAYERS:
            for trace in traces:
                player = PlayerSpec(name).build(CONTENT)
                results.append(
                    simulate(CONTENT, player, shared(trace, rtt_s=0.05))
                )
        return results

    results = benchmark(run)
    assert len(results) == 12 and all(r.completed for r in results)


def test_bench_kernel_fixed_grid(benchmark):
    """Kernel-isolated grid: non-adaptive player, pure event-loop cost."""
    traces = [_fine_trace(1500.0, s) for s in (1, 2, 3, 4)]

    def run():
        results = []
        for trace in traces:
            for v, a in (("V3", "A2"), ("V1", "A1")):
                player = FixedTracksPlayer(
                    video_id=v, audio_id=a, buffer_target_s=30.0
                )
                results.append(
                    simulate(CONTENT, player, shared(trace, rtt_s=0.05))
                )
        return results

    results = benchmark(run)
    assert len(results) == 8 and all(r.completed for r in results)


def test_bench_kernel_failure_grid(benchmark):
    """The failure-path grid: taxonomy failures, retries, range-resume."""
    trace = _fine_trace(1500.0, 3)

    def run():
        results = []
        for name in ("shaka", "recommended"):
            for seed in range(3):
                player = PlayerSpec(name).build(CONTENT)
                config = SessionConfig(
                    failure_model=ResilienceModel(0.2, seed=seed),
                    retry_policy=RetryPolicy(),
                )
                results.append(
                    Session(
                        CONTENT, player, shared(trace, rtt_s=0.05), config
                    ).run()
                )
        return results

    results = benchmark(run)
    assert len(results) == 6
    assert all(r.ended_at_s is not None for r in results)


def test_bench_kernel_stall_heavy(benchmark):
    """An underprovisioned link: long stalls, many trace boundaries."""
    trace = _fine_trace(260.0, 5, floor_kbps=60.0)

    def run():
        player = PlayerSpec("dashjs").build(CONTENT)
        return simulate(CONTENT, player, shared(trace, rtt_s=0.05))

    result = benchmark(run)
    assert result.completed and result.n_stalls > 0


def test_bench_kernel_separate_paths(benchmark):
    """Dual-trace topology: two cursor-backed traces per event."""
    network = SeparatePaths(
        _fine_trace(1800.0, 7),
        _fine_trace(400.0, 11, floor_kbps=40.0),
        rtt_s=0.05,
    )

    def run():
        player = PlayerSpec("shaka").build(CONTENT)
        return simulate(CONTENT, player, network)

    result = benchmark(run)
    assert result.completed


def test_bench_trace_lookup(benchmark):
    """Monotonic bandwidth_at/next_change_after sweep over a
    1200-segment trace — the access pattern the session kernel
    generates against a measured capture."""
    trace = random_walk(1500.0, seed=3, **_FINE)
    period = trace.period_s

    def run():
        acc = 0.0
        t = 0.0
        while t < 4.0 * period:
            acc += trace.bandwidth_at(t)
            nxt = trace.next_change_after(t)
            t = nxt if nxt > t else t + 0.5
        return acc

    acc = benchmark(run)
    assert acc > 0.0


def test_bench_trace_build(benchmark):
    """Build a 1200-pair ``TraceSpec.pairs`` trace — the per-job cost of
    every measured-shape session. The trace fills two float columns;
    a return to one validated object per segment is ~6x slower."""
    rates = random_walk(1500.0, seed=3, **_FINE).to_pairs()
    spec = TraceSpec.pairs(rates)

    trace = benchmark(spec.build)
    assert trace.to_pairs() == list(spec.args)
