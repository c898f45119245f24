"""repro.topology + the cohort kernel + streaming aggregation.

The contracts under test are this PR's guarantees: a seeded fault
schedule replays the identical storm everywhere; the edge LRU cache is
deterministic; per-session endpoint health fails over in ring order
under a budget and never leaves a session with no endpoint; the
processor-sharing cohort kernel is byte-deterministic, conserves every
edge's byte ledger, and ends every session with a verdict (the
zero-aborted-sessions law) even when a whole edge goes dark mid
flash crowd; cohort QoE folds in O(1) memory with exact shard merges;
and the player's rung-ejection guard keeps a single-rung ladder alive
through a fully-tripped breaker.
"""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import check_cohort
from repro.core.combinations import (
    Combination,
    CombinationSet,
    hsub_combinations,
)
from repro.core.player import RecommendedPlayer
from repro.errors import (
    ExperimentError,
    PlayerError,
    SimulationError,
    TraceError,
)
from repro.media.content import drama_show
from repro.net.resilience import (
    CircuitBreaker,
    EndpointHealth,
    FailoverPolicy,
    ResilienceModel,
    RetryPolicy,
)
from repro.qoe.aggregate import CohortAggregate, OnlineStats
from repro.sim.cohort import _EVENTS_PER_CHUNK_CAP, CohortResult
from repro.topology import (
    CohortJob,
    EdgeCache,
    EdgeSpec,
    FaultDomainKind,
    FaultDomainSchedule,
    FaultWindow,
    TopologySpec,
)


@pytest.fixture(scope="module")
def content():
    return drama_show()


def small_job(**overrides) -> CohortJob:
    defaults = dict(
        topology=TopologySpec.uniform(3, capacity_kbps=25_000.0),
        n_sessions=24,
        arrival_burst_s=8.0,
        seed=0,
    )
    defaults.update(overrides)
    return CohortJob(**defaults)


def outage(domain="edge-1", start=60.0, end=90.0) -> FaultDomainSchedule:
    return FaultDomainSchedule(
        kinds=(),
        pinned=(
            FaultWindow(FaultDomainKind.EDGE_OUTAGE, domain, start, end),
        ),
    )


def golden_storm_job(error_probability=0.3) -> CohortJob:
    """40 sessions on 3 edges through an outage, a 5xx brownout and an
    eviction storm: failovers, retries and degraded verdicts."""
    return CohortJob(
        topology=TopologySpec.uniform(3, capacity_kbps=15_000.0),
        faults=FaultDomainSchedule(
            kinds=(),
            pinned=(
                FaultWindow(FaultDomainKind.EDGE_OUTAGE, "edge-1", 40.0, 80.0),
                FaultWindow(
                    FaultDomainKind.ORIGIN_BROWNOUT, "origin", 20.0, 70.0,
                    latency_factor=6.0, error_probability=error_probability,
                ),
                FaultWindow(FaultDomainKind.EVICTION_STORM, "edge-2", 50.0, 51.0),
            ),
        ),
        n_sessions=40,
        arrival_burst_s=10.0,
        seed=0,
        keep_summaries=True,
    )


def flashcrowd_job(n_sessions: int, seed: int) -> CohortJob:
    """The benchmark's flash-crowd cell shape: 4 edges sized 250 kbps
    per session, edge-1 dark from t=60 s to t=100 s, a 30 s burst."""
    return CohortJob(
        topology=TopologySpec.uniform(4, capacity_kbps=250.0 * n_sessions),
        faults=outage(domain="edge-1", start=60.0, end=100.0),
        n_sessions=n_sessions,
        arrival_burst_s=30.0,
        seed=seed,
        keep_summaries=True,
    )


#: Fingerprints of ``flashcrowd_job(250, seed)``, pinned as literal hex.
FLASHCROWD_250_PINS = {
    0: "f7c4423156dd6316945ca94018eeea9a0f5b7c4c92770e82499399c998d92458",
    1: "54f4d8ec0012ed41ce44a694ebe1d255acf15c6e1b5a8bd715e59acaee9c83d2",
}


@pytest.fixture(scope="module")
def flashcrowd_250():
    """seed -> (result, kernel work) of ``flashcrowd_job(250, seed)``,
    each cell run once per module."""
    runs = {}

    def run(seed):
        if seed not in runs:
            kernel = flashcrowd_job(250, seed).kernel()
            runs[seed] = (kernel.run(), kernel.work())
        return runs[seed]

    return run


_unit = st.floats(0.0, 1.0, allow_nan=False)
_positive = st.floats(1e-3, 1e5, allow_nan=False, allow_infinity=False)


@st.composite
def _fault_windows(draw):
    start = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    return FaultWindow(
        kind=draw(st.sampled_from(FaultDomainKind)),
        domain=draw(st.from_regex(r"[a-z0-9][a-z0-9_-]{0,8}", fullmatch=True)),
        start_s=start,
        end_s=start + draw(_positive),
        latency_factor=draw(st.floats(1.0, 100.0, allow_nan=False)),
        error_probability=draw(_unit),
    )


@st.composite
def _fault_schedules(draw):
    kinds = draw(st.lists(st.sampled_from(FaultDomainKind), unique=True))
    pinned = draw(st.lists(_fault_windows(), min_size=0 if kinds else 1, max_size=3))
    return FaultDomainSchedule(
        kinds=tuple(kinds),
        seed=draw(st.integers(-(2**31), 2**63)),
        probability=draw(_unit),
        windows_per_domain=draw(st.integers(0, 5)),
        duration_s=draw(_positive),
        horizon_s=draw(_positive),
        latency_factor=draw(st.floats(1.0, 100.0, allow_nan=False)),
        error_probability=draw(_unit),
        pinned=tuple(pinned),
    )


# -- topology specs ---------------------------------------------------------


class TestTopologySpec:
    def test_endpoint_order_is_deterministic_ring(self):
        topo = TopologySpec.uniform(4)
        order = topo.endpoint_order(seed=3, session_id=17)
        assert order == topo.endpoint_order(3, 17)
        assert sorted(order) == sorted(e.edge_id for e in topo.edges)
        # Ring order: each fallback is the next edge cyclically.
        ids = [e.edge_id for e in topo.edges]
        start = ids.index(order[0])
        assert list(order) == [ids[(start + i) % 4] for i in range(4)]

    def test_primary_spread_covers_every_edge(self):
        topo = TopologySpec.uniform(3)
        primaries = {
            topo.endpoint_order(0, sid)[0] for sid in range(60)
        }
        assert primaries == {"edge-1", "edge-2", "edge-3"}

    def test_validation(self):
        with pytest.raises(ExperimentError):
            TopologySpec(edges=())
        with pytest.raises(ExperimentError):
            TopologySpec(edges=(EdgeSpec("a"), EdgeSpec("a")))
        with pytest.raises(ExperimentError):
            EdgeSpec("a", capacity_kbps=0.0)
        with pytest.raises(ExperimentError):
            TopologySpec.uniform(0)
        with pytest.raises(ExperimentError):
            TopologySpec().edge("nope")


# -- fault schedules --------------------------------------------------------


class TestFaultDomainSchedule:
    def test_windows_are_deterministic(self):
        topo = TopologySpec.uniform(3)
        a = FaultDomainSchedule(seed=7).windows_for(topo)
        b = FaultDomainSchedule(seed=7).windows_for(topo)
        assert a == b
        assert a != FaultDomainSchedule(seed=8).windows_for(topo)

    def test_first_eighth_of_horizon_is_storm_free(self):
        topo = TopologySpec.uniform(4)
        schedule = FaultDomainSchedule(seed=1, windows_per_domain=3)
        for window in schedule.windows_for(topo):
            assert window.start_s >= schedule.horizon_s / 8.0

    def test_spec_round_trips(self):
        schedule = FaultDomainSchedule(
            kinds=(FaultDomainKind.EDGE_OUTAGE,),
            seed=5,
            probability=0.4,
            duration_s=33.0,
            pinned=(
                FaultWindow(
                    FaultDomainKind.EVICTION_STORM, "edge-2", 60.0, 90.0
                ),
            ),
        )
        assert FaultDomainSchedule.from_spec(schedule.spec()) == schedule

    @given(schedule=_fault_schedules())
    @settings(max_examples=80, deadline=None)
    def test_from_spec_inverts_spec(self, schedule):
        assert FaultDomainSchedule.from_spec(schedule.spec()) == schedule

    def test_pinned_window_keeps_its_own_brownout_values(self):
        parsed = FaultDomainSchedule.from_spec(
            "none:latency=6.0,errp=0.4,"
            "pin=origin_brownout@origin@10@20,"
            "pin=origin_brownout@origin@30@40@2.0@0.1"
        )
        first, second = parsed.pinned
        assert (first.latency_factor, first.error_probability) == (6.0, 0.4)
        assert (second.latency_factor, second.error_probability) == (2.0, 0.1)

    def test_grammar_accepts_all_and_none_heads(self):
        assert FaultDomainSchedule.from_spec("all").kinds == tuple(
            FaultDomainKind
        )
        pinned_only = FaultDomainSchedule.from_spec(
            "none:pin=edge_outage@edge-1@10@20"
        )
        assert pinned_only.kinds == ()
        assert len(pinned_only.pinned) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate",
            "all:bogus=1",
            "all:p=notafloat",
            "none:pin=edge_outage@edge-1@10",  # missing END
            "none",  # no kinds and no pinned windows
            "all:p=1,p=2",  # duplicate option
        ],
    )
    def test_grammar_rejects_garbage(self, bad):
        with pytest.raises(ExperimentError):
            FaultDomainSchedule.from_spec(bad)

    def test_window_validation(self):
        with pytest.raises(ExperimentError):
            FaultWindow(FaultDomainKind.EDGE_OUTAGE, "e", 10.0, 10.0)
        with pytest.raises(ExperimentError):
            FaultWindow(
                FaultDomainKind.ORIGIN_BROWNOUT, "origin", 0.0, 1.0,
                error_probability=1.5,
            )


# -- the edge cache ---------------------------------------------------------


class TestEdgeCache:
    def test_lru_eviction_order(self):
        cache = EdgeCache(2)
        cache.admit(("V1", 0))
        cache.admit(("V1", 1))
        assert cache.lookup(("V1", 0))  # touch 0: 1 becomes LRU
        cache.admit(("V1", 2))  # evicts 1
        assert cache.lookup(("V1", 2))
        assert not cache.lookup(("V1", 1))
        assert cache.evictions == 1

    def test_flush_counts_everything(self):
        cache = EdgeCache(8)
        for i in range(5):
            cache.admit(("A1", i))
        assert cache.flush() == 5
        assert cache.evictions == 5
        assert len(cache) == 0

    def test_capacity_zero_disables(self):
        cache = EdgeCache(0)
        cache.admit(("V1", 0))
        assert not cache.lookup(("V1", 0))
        assert len(cache) == 0
        with pytest.raises(ValueError):
            EdgeCache(-1)


# -- endpoint health / failover ---------------------------------------------


class TestEndpointHealth:
    def test_fails_over_in_ring_order_after_threshold(self):
        health = EndpointHealth(
            ("a", "b", "c"), FailoverPolicy(endpoint_threshold=2)
        )
        assert health.current(0.0) == "a"
        health.record_failure("a", 0.0)
        assert health.current(0.1) == "a"  # one failure: not tripped yet
        health.record_failure("a", 0.2)
        assert health.current(0.3) == "b"
        assert health.failovers == 1
        assert health.hops[0][1:] == ("a", "b")

    def test_budget_caps_switching(self):
        health = EndpointHealth(
            ("a", "b"),
            FailoverPolicy(failover_budget=1, endpoint_threshold=1),
        )
        health.record_failure("a", 0.0)
        assert health.current(0.1) == "b"
        health.record_failure("b", 0.2)
        # Budget spent: stays on b even though its circuit is open.
        assert health.current(0.3) == "b"
        assert health.failovers == 1

    def test_all_open_returns_current_as_last_resort(self):
        health = EndpointHealth(
            ("a", "b"), FailoverPolicy(endpoint_threshold=1)
        )
        health.record_failure("a", 0.0)
        health.record_failure("b", 0.0)
        assert health.current(0.1) in ("a", "b")  # never nothing

    def test_validation(self):
        with pytest.raises(TraceError):
            EndpointHealth((), FailoverPolicy())
        with pytest.raises(TraceError):
            EndpointHealth(("a", "a"), FailoverPolicy())
        with pytest.raises(TraceError):
            FailoverPolicy(failover_budget=-1)
        with pytest.raises(TraceError):
            FailoverPolicy(endpoint_threshold=0)


# -- the cohort kernel ------------------------------------------------------


class TestCohortKernel:
    def test_identical_specs_identical_fingerprints(self):
        a = small_job().execute()
        b = small_job().execute()
        assert isinstance(a, CohortResult)
        assert a.fingerprint() == b.fingerprint()
        assert small_job(seed=1).execute().fingerprint() != a.fingerprint()

    def test_clean_adequately_provisioned_cohort_completes(self):
        result = small_job().execute()
        assert result.verdict_counts == {"completed": result.n_sessions}
        assert check_cohort(result) == []

    def test_every_session_always_has_a_verdict(self):
        # Starve the cohort: tiny capacity, so most sessions degrade —
        # but every one must end with an explicit reason, not an abort.
        result = small_job(
            topology=TopologySpec.uniform(2, capacity_kbps=300.0),
            n_sessions=10,
        ).execute()
        assert sum(result.verdict_counts.values()) == 10
        assert "no_verdict" not in result.verdict_counts
        for summary in result.summaries:
            assert summary.completed or summary.termination_reason

    def test_edge_outage_forces_failover_onto_ring_neighbor(self):
        clean = small_job().execute()
        stormy = small_job(faults=outage()).execute()
        assert (
            stormy.aggregate["failover_sessions"]
            > clean.aggregate["failover_sessions"]
        )
        # Sessions that failed over ended on a different edge.
        moved = [
            s for s in stormy.summaries if s.final_edge != s.primary_edge
        ]
        assert moved
        assert check_cohort(stormy) == []

    def test_ledger_conserves_bytes_per_edge(self):
        result = small_job(faults=outage()).execute()
        for ledger in result.edges.values():
            assert math.isclose(
                ledger["served_bits"],
                ledger["settled_bits"],
                rel_tol=1e-6,
                abs_tol=1e4,
            )
            assert math.isclose(
                ledger["settled_bits"],
                ledger["useful_bits"] + ledger["wasted_bits"],
                rel_tol=1e-6,
                abs_tol=1e4,
            )
        # Cross-check: edge-side totals equal session-side totals.
        edge_total = sum(
            led["useful_bits"] + led["wasted_bits"]
            for led in result.edges.values()
        )
        session_total = sum(
            s.bits_useful + s.bits_wasted for s in result.summaries
        )
        assert math.isclose(
            edge_total, session_total, rel_tol=1e-6, abs_tol=1e4
        )

    def test_eviction_storm_flushes_and_recovers(self):
        schedule = FaultDomainSchedule(
            kinds=(),
            pinned=(
                FaultWindow(
                    FaultDomainKind.EVICTION_STORM, "edge-1", 60.0, 61.0
                ),
            ),
        )
        stormy = small_job(faults=schedule).execute()
        clean = small_job().execute()
        storm_ev = sum(
            led["cache_evictions"] for led in stormy.edges.values()
        )
        clean_ev = sum(
            led["cache_evictions"] for led in clean.edges.values()
        )
        assert storm_ev > clean_ev
        assert stormy.verdict_counts.get("completed", 0) > 0

    def test_origin_brownout_degrades_but_never_aborts(self):
        schedule = FaultDomainSchedule(
            kinds=(),
            pinned=(
                FaultWindow(
                    FaultDomainKind.ORIGIN_BROWNOUT, "origin", 30.0, 90.0,
                    latency_factor=8.0, error_probability=0.6,
                ),
            ),
        )
        result = small_job(faults=schedule).execute()
        assert sum(result.verdict_counts.values()) == result.n_sessions
        assert "no_verdict" not in result.verdict_counts
        assert check_cohort(result) == []

    def test_keep_summaries_false_drops_them_but_not_the_aggregate(self):
        kept = small_job().execute()
        dropped = small_job(keep_summaries=False).execute()
        assert dropped.summaries == ()
        assert dropped.aggregate == kept.aggregate
        assert dropped.verdict_counts == kept.verdict_counts

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            CohortJob(n_sessions=0)
        with pytest.raises(SimulationError):
            CohortJob(arrival_burst_s=-1.0)
        with pytest.raises(SimulationError):
            CohortJob(max_sim_time_s=0.0)

    def test_golden_storm_fingerprint_is_pinned(self):
        # One small cohort through every failure path, pinned as literal
        # hex: a kernel refactor that moves any byte of the result fails
        # here, not only one that breaks run-to-run self-consistency.
        result = golden_storm_job().execute()
        assert result.fingerprint() == (
            "bcc9a709a155358d2627f2c8d54521b842dbf2ad184bcef55c9db2e1a1638674"
        )
        # The pin only proves something if the storm exercised each path.
        kinds = [event["k"] for event in result.fault_events]
        opened = {
            event["fault"] for event in result.fault_events
            if event["k"] == "fault_open"
        }
        assert opened == {kind.value for kind in FaultDomainKind}
        assert any(
            event["k"] == "cache_flush" and event["dropped"] > 0
            for event in result.fault_events
        )
        assert "failover" in kinds
        assert "degraded" in kinds
        assert result.degraded_sessions > 0 and result.completed_sessions > 0
        retries = sum(s.retries for s in result.summaries)
        assert retries > 0
        # Brownout 5xx: the same storm without origin errors retries less.
        calm = golden_storm_job(error_probability=0.0).execute()
        assert sum(s.retries for s in calm.summaries) < retries

    @pytest.mark.parametrize("seed", sorted(FLASHCROWD_250_PINS))
    def test_flashcrowd_250_fingerprint_is_pinned(self, flashcrowd_250, seed):
        # The contended-edge shape the benchmark scales to 1000
        # sessions: every superseded completion and dead watchdog the
        # scheduler skips must leave each byte of the result in place.
        result, _ = flashcrowd_250(seed)
        assert result.fingerprint() == FLASHCROWD_250_PINS[seed]
        assert result.aggregate["failover_sessions"] > 0

    def test_job_key_is_stable_and_fault_sensitive(self):
        assert small_job().key() == small_job().key()
        assert small_job().key() != small_job(faults=outage()).key()
        assert small_job().key() != small_job(seed=9).key()


class TestCohortScheduler:
    """Exact scheduler work: only timers that can still fire are kept.

    Every request arms one watchdog, and nearly every one is dead (its
    request finished first) long before it would expire; those are
    dropped from their FIFO's head, never dispatched. Each edge holds
    one pending completion, so no superseded completion is scheduled.
    """

    def test_golden_storm_work_is_pinned(self):
        kernel = golden_storm_job().kernel()
        kernel.run()
        work = kernel.work()
        assert work == {
            "events": 9108,
            "by_kind": {
                "arrive": 40, "deadline": 91, "edge_complete": 4100,
                "fault_end": 3, "fault_start": 3, "flow_start": 4196,
                "reqfail": 95, "retry": 179, "wake": 401,
            },
            "dropped_deadlines": 4199,
            "requests": 4291,
        }
        assert round(work["events"] / work["requests"], 4) == 2.1226

    def test_flashcrowd_250_work_is_pinned(self, flashcrowd_250):
        _, work = flashcrowd_250(0)
        assert work == {
            "events": 59746,
            "by_kind": {
                "arrive": 250, "deadline": 652, "edge_complete": 27319,
                "fault_end": 1, "fault_start": 1, "flow_start": 28247,
                "retry": 627, "wake": 2649,
            },
            "dropped_deadlines": 27594,
            "requests": 28247,
        }
        assert round(work["events"] / work["requests"], 4) == 2.1151

    def test_a_finished_kernel_is_freed_by_refcount(self):
        # Timers carry bound handlers; none may outlive the run, or each
        # finished kernel (every session's state) waits for the cycle
        # collector and a grid of cells holds several at once. The
        # outage outlasts every session, so its end is never dispatched.
        kernel = small_job(faults=outage(end=10_000.0)).kernel()
        kernel.run()
        ref = weakref.ref(kernel)
        gc.disable()
        try:
            del kernel
            assert ref() is None
        finally:
            gc.enable()

    def test_runaway_guard_trips_on_a_livelock(self):
        # A forged livelock: the arrival re-arms itself at the same t,
        # so time never advances. The budget counts dispatched events
        # only, so it trips after exactly cap x chunks of them.
        kernel = small_job(n_sessions=1).kernel()

        def rearm(t, session):
            kernel._push(t, kernel._on_arrive, (session,))

        kernel._on_arrive = rearm
        with pytest.raises(SimulationError, match="budget exhausted"):
            kernel.run()
        budget = kernel.n_chunks * _EVENTS_PER_CHUNK_CAP
        assert kernel.work()["events"] == budget

    def test_watchdog_fifo_rejects_an_out_of_order_deadline(self):
        # The FIFOs are sorted only because dispatch times never go
        # back; a deadline below its FIFO's tail must fail loudly.
        kernel = small_job(n_sessions=1).kernel()
        arrive = kernel._on_arrive

        def arrive_behind_a_later_deadline(t, session):
            kernel._video_watch[1].append((math.inf, 0, session, None))
            arrive(t, session)

        kernel._on_arrive = arrive_behind_a_later_deadline
        with pytest.raises(SimulationError, match="precedes its queue's tail"):
            kernel.run()


class TestFlashCrowdAcceptance:
    """The PR's headline scenario, scaled to the acceptance bar."""

    def test_1000_session_flash_crowd_with_midrun_outage(self):
        job = CohortJob(
            topology=TopologySpec.uniform(4, capacity_kbps=150_000.0),
            faults=outage(domain="edge-1", start=90.0, end=130.0),
            n_sessions=1000,
            arrival_burst_s=60.0,
            seed=0,
        )
        result = job.execute()
        # Zero aborted sessions: every session completed or carries an
        # explicit degraded verdict.
        assert sum(result.verdict_counts.values()) == 1000
        assert "no_verdict" not in result.verdict_counts
        # The outage is survivable: the overwhelming majority complete
        # by failing over across the ring.
        assert result.completed_sessions >= 950
        assert result.aggregate["failover_sessions"] > 0
        # Cohort invariants (byte ledger, fair share, verdicts) hold.
        assert check_cohort(result) == []
        # Aggregation stayed streaming: the aggregate knows exactly as
        # many sessions as ran.
        assert result.aggregate["sessions"] == 1000


# -- streaming aggregation --------------------------------------------------


class TestOnlineStats:
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=60,
        ),
        split=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_of_shards_equals_single_pass(self, values, split):
        split = min(split, len(values))
        whole = OnlineStats()
        for v in values:
            whole.add(v)
        left, right = OnlineStats(), OnlineStats()
        for v in values[:split]:
            left.add(v)
        for v in values[split:]:
            right.add(v)
        left.merge(right)
        assert left.n == whole.n
        assert math.isclose(left.mean, whole.mean, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(
            left.variance(), whole.variance(), rel_tol=1e-6, abs_tol=1e-6
        )
        assert left.min == whole.min and left.max == whole.max

    def test_matches_closed_form(self):
        stats = OnlineStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.add(v)
        assert stats.mean == 2.5
        assert math.isclose(stats.variance(), 1.25)
        assert stats.summary()["min"] == 1.0

    def test_rejects_non_finite(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            OnlineStats().add(float("nan"))

    def test_empty_is_merge_identity(self):
        stats = OnlineStats()
        stats.add(5.0)
        stats.merge(OnlineStats())
        assert stats.n == 1 and stats.mean == 5.0
        assert OnlineStats().summary()["n"] == 0


class TestCohortAggregate:
    def test_fold_equals_shard_merge(self):
        result = small_job(faults=outage()).execute()
        whole = CohortAggregate()
        shard_a, shard_b = CohortAggregate(), CohortAggregate()
        for i, summary in enumerate(result.summaries):
            whole.add_session(summary)
            (shard_a if i % 2 == 0 else shard_b).add_session(summary)
        shard_a.merge(shard_b)
        merged, folded = shard_a.summary(), whole.summary()
        assert merged["sessions"] == folded["sessions"]
        assert merged["verdicts"] == folded["verdicts"]
        for metric, stats in folded.items():
            if not isinstance(stats, dict) or "mean" not in stats:
                continue
            for field in ("n", "mean", "stddev", "min", "max"):
                # Chan's parallel merge is algebraically equal to the
                # sequential fold but not bit-identical.
                assert math.isclose(
                    merged[metric][field], stats[field],
                    rel_tol=1e-9, abs_tol=1e-9,
                ), (metric, field)
        # The sequential re-fold IS bit-identical to what the kernel
        # streamed online (same order, same arithmetic).
        assert folded == result.aggregate

    def test_state_is_fixed_size(self):
        # O(1) memory: the aggregate's state is a fixed set of slots
        # and per-metric OnlineStats, independent of session count.
        agg = CohortAggregate()
        assert not hasattr(agg, "__dict__")  # __slots__: nothing grows
        result = small_job().execute()
        for summary in result.summaries:
            agg.add_session(summary)
        assert all(
            isinstance(stats, OnlineStats) for stats in agg.stats.values()
        )
        assert len(agg.stats) == 8  # fixed metric set, not per-session


# -- satellite: rung-ejection guard -----------------------------------------


class _BreakerCtx:
    """Minimal ctx for _allowed_indices/_degrade: a clock + no budget."""

    def __init__(self, now=0.0):
        self.now = now
        self.retry_policy = None

    def retry_budget_remaining(self):
        return None


class TestRungEjectionGuard:
    """The emergency lowest rung must survive a fully-tripped ladder."""

    def _single_rung(self, content):
        return CombinationSet(
            [Combination(video=content.video[0], audio=content.audio[0])]
        )

    def test_single_rung_ladder_fully_tripped_still_selects_rung_0(
        self, content
    ):
        combos = self._single_rung(content)
        breaker = CircuitBreaker(threshold=1, cooldown_s=600.0)
        player = RecommendedPlayer(combos, circuit_breaker=breaker)
        breaker.record_failure(combos[0].video.track_id, now=0.0)
        breaker.record_failure(combos[0].audio.track_id, now=0.0)
        ctx = _BreakerCtx(now=1.0)
        assert breaker.is_open(combos[0].video.track_id, ctx.now)
        # Every combination touches an open circuit, yet the guard
        # keeps the cheapest rung available and selection never raises.
        assert player._allowed_indices(ctx) == [0]
        assert player._degrade(0, ctx) == 0

    def test_empty_combination_sequence_is_rejected_up_front(self):
        with pytest.raises(PlayerError, match="at least one combination"):
            RecommendedPlayer([])

    def test_degraded_but_alive_verdict_under_certain_failure(self, content):
        """Regression pin: a session whose every request fails must end
        with an explicit degraded verdict — never an exception — and
        its selections must stay inside the (still-allowed) ladder."""
        from repro.net.link import shared
        from repro.net.traces import constant
        from repro.sim.session import Session, SessionConfig

        player = RecommendedPlayer(hsub_combinations(content))
        config = SessionConfig(
            failure_model=ResilienceModel(1.0, seed=3),
            retry_policy=RetryPolicy(retry_budget=6),
        )
        result = Session(
            content, player, shared(constant(900.0)), config
        ).run()
        assert not result.completed
        assert result.termination_reason in (
            "retry_budget_exhausted",
            "attempts_exhausted",
        )
        assert result.ended_at_s is not None
