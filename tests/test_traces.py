"""Bandwidth traces."""

import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, TraceError
from repro.net.markov import hspa_preset
from repro.net.traces import (
    BandwidthTrace,
    TraceSegment,
    constant,
    from_csv,
    from_pairs,
    load_trace,
    random_walk,
    save_trace,
    square_wave,
)

FIXTURE_3G = os.path.join(os.path.dirname(__file__), "fixtures", "trace_3g.csv")


class TestTraceSegment:
    def test_valid(self):
        assert TraceSegment(10, 500).kbps == 500

    def test_nonpositive_duration(self):
        with pytest.raises(TraceError):
            TraceSegment(0, 500)

    def test_negative_bandwidth(self):
        with pytest.raises(TraceError):
            TraceSegment(10, -1)


class TestConstant:
    def test_bandwidth_everywhere(self):
        trace = constant(700)
        for t in (0, 0.5, 10, 1e6):
            assert trace.bandwidth_at(t) == 700

    def test_never_changes(self):
        assert constant(700).next_change_after(3.7) == math.inf

    def test_average(self):
        assert constant(700).average_kbps() == 700
        assert constant(700).average_kbps(42.5) == 700


class TestPiecewise:
    def _trace(self):
        return from_pairs([(10, 100), (20, 400)])

    def test_bandwidth_in_segments(self):
        trace = self._trace()
        assert trace.bandwidth_at(0) == 100
        assert trace.bandwidth_at(9.999) == 100
        assert trace.bandwidth_at(10.0) == 400
        assert trace.bandwidth_at(29.9) == 400

    def test_loops(self):
        trace = self._trace()
        assert trace.period_s == 30
        assert trace.bandwidth_at(30.0) == 100
        assert trace.bandwidth_at(40.0) == 400
        assert trace.bandwidth_at(65.0) == 100  # 65 mod 30 = 5, first segment
        assert trace.bandwidth_at(75.0) == 400  # 75 mod 30 = 15, second

    def test_next_change(self):
        trace = self._trace()
        assert trace.next_change_after(0) == 10
        assert trace.next_change_after(10) == 30
        assert trace.next_change_after(9.999) == pytest.approx(10)
        assert trace.next_change_after(31) == 40

    def test_next_change_strictly_after(self):
        trace = self._trace()
        assert trace.next_change_after(30.0) == 40.0

    def test_next_change_never_in_the_past_at_period_multiples(self):
        """Regression: a query time a few ulps past a period multiple
        used to return a boundary <= t, freezing the event-driven
        simulator in zero-length steps (found by hypothesis)."""
        trace = from_pairs([(2.00001, 2045.0), (9.027980598517289, 791.0)])
        t = 3 * trace.period_s * (1 + 1e-16) + 1e-9
        for query in (t, 33.08397179555186, trace.period_s * 7):
            assert trace.next_change_after(query) > query

    def test_average_over_period(self):
        # (10*100 + 20*400) / 30 = 300
        assert self._trace().average_kbps() == pytest.approx(300)

    def test_average_over_partial_window(self):
        assert self._trace().average_kbps(10) == pytest.approx(100)
        assert self._trace().average_kbps(20) == pytest.approx(250)

    def test_min_max(self):
        trace = self._trace()
        assert trace.min_kbps() == 100
        assert trace.max_kbps() == 400

    def test_non_looping_holds_last_rate(self):
        trace = from_pairs([(10, 100), (20, 400)], loop=False)
        assert trace.bandwidth_at(1000) == 400
        assert trace.next_change_after(35) == math.inf

    def test_negative_time_rejected(self):
        with pytest.raises(TraceError):
            self._trace().bandwidth_at(-1)

    def test_empty_rejected(self):
        with pytest.raises(TraceError, match="at least one segment"):
            BandwidthTrace([])
        with pytest.raises(TraceError, match="at least one segment"):
            from_pairs([])

    def test_scaled(self):
        scaled = self._trace().scaled(2.0)
        assert scaled.bandwidth_at(0) == 200
        assert scaled.average_kbps() == pytest.approx(600)

    def test_scaled_invalid_factor(self):
        with pytest.raises(TraceError):
            self._trace().scaled(0)

    def test_to_pairs(self):
        assert self._trace().to_pairs() == [(10, 100), (20, 400)]


class TestSquareWave:
    def test_alternation_and_average(self):
        trace = square_wave(200, 800, half_period_s=5)
        assert trace.bandwidth_at(0) == 200
        assert trace.bandwidth_at(5) == 800
        assert trace.average_kbps() == pytest.approx(500)


class TestRandomWalk:
    def test_mean_is_exact(self):
        trace = random_walk(600, seed=1)
        assert trace.average_kbps() == pytest.approx(600, rel=1e-9)

    def test_deterministic(self):
        assert random_walk(600, seed=2).to_pairs() == random_walk(600, seed=2).to_pairs()

    def test_seeds_differ(self):
        assert random_walk(600, seed=1).to_pairs() != random_walk(600, seed=2).to_pairs()

    def test_floor_respected(self):
        trace = random_walk(200, seed=3, spread=1.5, floor_kbps=50)
        assert trace.min_kbps() >= 50

    def test_needs_two_segments(self):
        with pytest.raises(TraceError):
            random_walk(600, seed=1, n_segments=1)

    def test_mean_below_floor_rejected(self):
        """The floor clip makes the target unreachable — the contract
        raises instead of silently missing the mean."""
        with pytest.raises(TraceError):
            random_walk(40, seed=1, floor_kbps=50)

    def test_mean_exact_even_under_heavy_floor_clipping(self):
        """The regression the residual redistribution fixes: a wide
        spread close to the floor used to leave the time-average short
        of the documented mean."""
        trace = random_walk(80, seed=5, spread=2.5, floor_kbps=50)
        assert trace.min_kbps() >= 50
        assert trace.average_kbps() == pytest.approx(80, rel=1e-8)

    @given(
        mean=st.floats(60, 3000),
        seed=st.integers(0, 10_000),
        spread=st.floats(0.0, 3.0),
        n_segments=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_average_always_matches_the_contract(
        self, mean, seed, spread, n_segments
    ):
        """Property form of the docstring promise: for any admissible
        (mean >= floor) parameters, the time-average equals the target
        mean to float round-off, and the floor still holds."""
        trace = random_walk(mean, seed=seed, spread=spread, n_segments=n_segments)
        assert trace.min_kbps() >= 50.0
        assert trace.average_kbps() == pytest.approx(mean, rel=1e-8)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        trace = from_pairs([(10, 100.5), (20, 400.25)])
        path = str(tmp_path / "trace.csv")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.to_pairs() == trace.to_pairs()

    def test_load_bad_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("10,abc\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_load_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(TraceError):
            load_trace(str(path))


class TestLoadTraceHardening:
    """A half-broken measured trace must fail at load, naming file:line."""

    @pytest.mark.parametrize(
        "row",
        ["nan,500", "10,nan", "inf,500", "10,-inf", "-5,500", "0,500", "10,-1"],
    )
    def test_pathological_rows_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"10,100\n{row}\n")
        with pytest.raises(TraceError) as excinfo:
            load_trace(str(path))
        message = str(excinfo.value)
        assert f"{path}:2" in message  # the offending line, not just the file

    def test_trace_error_is_a_value_error(self, tmp_path):
        """Callers that predate TraceError catch ValueError; both work."""
        assert issubclass(TraceError, ValueError)
        assert issubclass(TraceError, ReproError)
        path = tmp_path / "bad.csv"
        path.write_text("nan,500\n")
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestFromCsv:
    def test_fixture_imports(self):
        trace = from_csv(FIXTURE_3G)
        pairs = trace.to_pairs()
        # 12 timestamped rows at 5 s spacing -> 12 segments (the final
        # row inherits the previous interval), all 5 s long.
        assert len(pairs) == 12
        assert all(duration == 5.0 for duration, _ in pairs)
        assert pairs[0] == (5.0, 842.0)
        assert pairs[-1] == (5.0, 602.0)
        assert trace.min_kbps() == 95.0
        assert trace.max_kbps() == 1184.0

    def test_measurement_holds_until_next_timestamp(self):
        trace = from_csv(FIXTURE_3G)
        assert trace.bandwidth_at(0.0) == 842.0
        assert trace.bandwidth_at(4.999) == 842.0
        assert trace.bandwidth_at(5.0) == 611.0
        assert trace.bandwidth_at(57.0) == 602.0  # final row's interval

    def test_whitespace_separated_columns(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 1000\n2 2000\n")
        assert from_csv(str(path)).to_pairs() == [(2.0, 1000.0), (2.0, 2000.0)]

    def test_units_scale_bandwidth(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,5\n10,3\n")
        assert from_csv(str(path), unit="mbps").bandwidth_at(0) == 5000.0
        assert from_csv(str(path), unit="bps").bandwidth_at(0) == 0.005
        with pytest.raises(TraceError):
            from_csv(str(path), unit="furlongs")

    def test_uneven_intervals(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,100\n1,200\n4,300\n")
        # Final row inherits the previous (3 s) interval.
        assert from_csv(str(path)).to_pairs() == [
            (1.0, 100.0),
            (3.0, 200.0),
            (3.0, 300.0),
        ]

    def test_non_increasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,100\n5,200\n5,300\n")
        with pytest.raises(TraceError) as excinfo:
            from_csv(str(path))
        assert f"{path}:3" in str(excinfo.value)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,100\n")
        with pytest.raises(TraceError):
            from_csv(str(path))

    @pytest.mark.parametrize(
        "row", ["nan,100", "5,inf", "5,-1", "5", "5,1,2", "t,100"]
    )
    def test_bad_rows_name_the_line(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"0,100\n{row}\n")
        with pytest.raises(TraceError) as excinfo:
            from_csv(str(path))
        assert f"{path}:2" in str(excinfo.value)

    def test_no_loop(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,100\n10,200\n")
        trace = from_csv(str(path), loop=False)
        assert trace.bandwidth_at(1000.0) == 200.0


class TestTraceProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100),
                st.floats(min_value=0, max_value=1e5),
            ),
            min_size=1,
            max_size=8,
        ),
        t=st.floats(min_value=0, max_value=1e4),
    )
    def test_bandwidth_matches_some_segment(self, pairs, t):
        trace = from_pairs(pairs)
        rates = {kbps for _, kbps in pairs}
        assert trace.bandwidth_at(t) in rates

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100),
                st.floats(min_value=0, max_value=1e5),
            ),
            min_size=2,
            max_size=8,
        ),
        t=st.floats(min_value=0, max_value=1e4),
    )
    def test_next_change_is_in_the_future_and_rate_constant_until(self, pairs, t):
        trace = from_pairs(pairs)
        boundary = trace.next_change_after(t)
        assert boundary > t
        if math.isfinite(boundary):
            midpoint = (t + boundary) / 2
            assert trace.bandwidth_at(midpoint) == trace.bandwidth_at(t)


class TestTraceCursor:
    """The cursor is a pure cache: any query order, identical answers.

    The reference below is the predicate the historical linear scan
    answered — the largest ``i`` with ``t >= starts[i] - 1e-12`` — so
    these tests pin the cursor/bisect fast paths to the exact semantics
    the kernel's recordings were made under.
    """

    @staticmethod
    def _reference_locate(trace, t):
        if trace.loops:
            t = math.fmod(t, trace.period_s)
        elif t >= trace.period_s:
            return len(trace.segments) - 1
        starts, offset = [], 0.0
        for segment in trace.segments:
            starts.append(offset)
            offset += segment.duration_s
        for i in range(len(starts) - 1, -1, -1):
            if t >= starts[i] - 1e-12:
                return i
        return 0

    def _check_sequence(self, trace, times):
        for t in times:
            want = trace.segments[self._reference_locate(trace, t)].kbps
            assert trace.bandwidth_at(t) == want, t

    def test_seek_backward_after_advancing(self):
        trace = from_pairs([(10, 100), (10, 200), (10, 300), (10, 400)])
        # Advance the cursor to the last segment, then jump back.
        self._check_sequence(trace, [35.0, 5.0, 25.0, 0.0, 15.0, 39.9])

    def test_seek_past_end_of_nonlooping_trace(self):
        trace = BandwidthTrace(
            [TraceSegment(10, 100), TraceSegment(10, 900)], loop=False
        )
        assert trace.bandwidth_at(500.0) == 900  # last rate holds
        assert trace.next_change_after(500.0) == math.inf
        # Seeking backward from past-the-end still answers exactly.
        assert trace.bandwidth_at(5.0) == 100
        assert trace.next_change_after(5.0) == 10.0

    def test_repeated_queries_at_same_time(self):
        trace = from_pairs([(10, 100), (10, 200), (10, 300)])
        for t in (0.0, 10.0, 15.0, 29.999999999, 10.0, 10.0):
            first = (trace.bandwidth_at(t), trace.next_change_after(t))
            for _ in range(3):
                assert (trace.bandwidth_at(t), trace.next_change_after(t)) == first

    def test_loop_wraparound_resets_cursor_correctly(self):
        trace = from_pairs([(10, 100), (10, 200), (10, 300)])
        # Monotonic queries crossing the loop boundary: fmod lands the
        # wrapped time back in segment 0 while the cursor sits at 2.
        self._check_sequence(trace, [25.0, 29.9, 30.0, 31.0, 55.0, 61.0])

    def test_boundary_epsilon_matches_reference(self):
        trace = from_pairs([(10, 100), (10, 200)])
        for t in (10.0 - 1e-13, 10.0 - 1e-11, 10.0, 10.0 + 1e-13):
            self._check_sequence(trace, [t])

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50),
                st.floats(min_value=1, max_value=1e4),
            ),
            min_size=1,
            max_size=10,
        ),
        times=st.lists(
            st.floats(min_value=0, max_value=2e3), min_size=1, max_size=30
        ),
        loop=st.booleans(),
    )
    def test_any_query_order_matches_reference(self, pairs, times, loop):
        trace = BandwidthTrace(
            [TraceSegment(d, k) for d, k in pairs], loop=loop
        )
        self._check_sequence(trace, times)

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50),
                st.floats(min_value=1, max_value=1e4),
            ),
            min_size=1,
            max_size=10,
        ),
        times=st.lists(
            st.floats(min_value=0, max_value=2e3), min_size=1, max_size=20
        ),
    )
    def test_fused_lookup_bit_identical_to_separate_calls(self, pairs, times):
        fused = from_pairs(pairs)
        separate = from_pairs(pairs)
        for t in times:
            kbps, boundary = fused.rate_and_next_change(t)
            assert kbps == separate.bandwidth_at(t)
            assert boundary == separate.next_change_after(t)


class TestSharedTraceCursors:
    """One immutable trace, many per-consumer cursors.

    The shared-state hazard SHARE-MUTATES-SHARED exists to catch: a
    lookup cursor memoized *on the trace object* lets one consumer's
    seek corrupt another's fast path. The fix keeps the trace stateless
    and hands each consumer its own ``TraceCursor`` view; these tests
    pin that contract by adversarially interleaving two consumers over
    a single trace object.
    """

    def _trace(self):
        return from_pairs([(10, 100), (10, 200), (10, 300), (10, 400)])

    def test_interleaved_cursors_match_stateless_answers(self):
        trace = self._trace()
        a, b = trace.cursor(), trace.cursor()
        # a walks forward, b seeks backward, strictly alternating —
        # the worst case for a cursor shared through the trace.
        a_times = [0.0, 12.0, 25.0, 38.0, 1.0]
        b_times = [38.0, 25.0, 12.0, 0.0, 39.9]
        for ta, tb in zip(a_times, b_times):
            assert a.bandwidth_at(ta) == trace.bandwidth_at(ta)
            assert b.bandwidth_at(tb) == trace.bandwidth_at(tb)
            assert a.next_change_after(ta) == trace.next_change_after(ta)
            assert b.next_change_after(tb) == trace.next_change_after(tb)

    def test_cursor_queries_leave_the_trace_untouched(self):
        trace = self._trace()
        before = dict(vars(trace))
        cursor = trace.cursor()
        for t in (35.0, 2.0, 17.0, 39.0, 0.0):
            cursor.bandwidth_at(t)
            cursor.rate_and_next_change(t)
        assert vars(trace) == before

    def test_fused_lookup_interleaved_across_cursors(self):
        trace = self._trace()
        a, b = trace.cursor(), trace.cursor()
        for t in (5.0, 15.0, 25.0, 35.0, 45.0, 3.0):
            want = (trace.bandwidth_at(t), trace.next_change_after(t))
            assert a.rate_and_next_change(t) == want
            # b deliberately queries a different epoch first.
            b.bandwidth_at((t + 20.0) % 40.0)
            assert b.rate_and_next_change(t) == want

    def test_cursor_exposes_its_trace(self):
        trace = self._trace()
        assert trace.cursor().trace is trace

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50),
                st.floats(min_value=1, max_value=1e4),
            ),
            min_size=1,
            max_size=8,
        ),
        a_times=st.lists(
            st.floats(min_value=0, max_value=500), min_size=1, max_size=15
        ),
        b_times=st.lists(
            st.floats(min_value=0, max_value=500), min_size=1, max_size=15
        ),
        loop=st.booleans(),
    )
    def test_two_cursors_any_interleaving_matches_reference(
        self, pairs, a_times, b_times, loop
    ):
        trace = BandwidthTrace(
            [TraceSegment(d, k) for d, k in pairs], loop=loop
        )
        a, b = trace.cursor(), trace.cursor()
        for i in range(max(len(a_times), len(b_times))):
            if i < len(a_times):
                t = a_times[i]
                assert a.bandwidth_at(t) == trace.bandwidth_at(t)
            if i < len(b_times):
                t = b_times[i]
                assert b.next_change_after(t) == trace.next_change_after(t)


class _SegmentReference:
    """A trace kept as one :class:`TraceSegment` per interval, answering
    by the historical linear predicate ("largest i with t >= starts[i]
    - 1e-12"): the representation the trace's float columns replaced,
    and the reference they must answer bit-identically to."""

    def __init__(self, segments, loop):
        self.segments = tuple(segments)
        self.loop = loop
        self.period = sum(s.duration_s for s in self.segments)
        self.starts = []
        offset = 0.0
        for segment in self.segments:
            self.starts.append(offset)
            offset += segment.duration_s

    def _locate(self, t):
        if self.loop:
            t = math.fmod(t, self.period)
        elif t >= self.period:
            return len(self.segments) - 1, t - self.starts[-1]
        for i in range(len(self.starts) - 1, -1, -1):
            if t >= self.starts[i] - 1e-12:
                return i, t - self.starts[i]
        return 0, t - self.starts[0]

    def bandwidth_at(self, t):
        return self.segments[self._locate(t)[0]].kbps

    def next_change_after(self, t):
        if len(self.segments) == 1 and self.loop:
            return math.inf
        if not self.loop and t >= self.period:
            return math.inf
        index, offset = self._locate(t)
        boundary = t + (self.segments[index].duration_s - offset)
        if boundary <= t:
            boundary = math.nextafter(t, math.inf)
        return boundary


def _same_bits(got, want):
    return type(got) is type(want) and repr(got) == repr(want)


class TestColumnarTrace:
    """A trace's float columns answer exactly what one
    :class:`TraceSegment` per interval answered."""

    @staticmethod
    def _pairs(kind, rng):
        if kind == "pairs":
            return [
                (rng.choice((0.5, 1.0, rng.uniform(0.05, 20.0))),
                 round(rng.uniform(0.0, 5000.0), 1))
                for _ in range(rng.randint(1, 60))
            ]
        if kind == "random_walk":
            return random_walk(
                rng.uniform(300.0, 3000.0), seed=rng.randrange(1 << 16)
            ).to_pairs()
        return hspa_preset(
            duration_s=rng.uniform(30.0, 120.0), seed=rng.randrange(1 << 16)
        ).to_pairs()

    @staticmethod
    def _times(reference, rng):
        """Monotone walks with arbitrary seeks, landing on, just before
        and just after segment starts, over three periods."""
        period = reference.period
        starts = reference.starts
        times = []
        t = 0.0
        for _ in range(150):
            roll = rng.random()
            if roll < 0.5:
                t += rng.uniform(0.0, period / 10.0)
            elif roll < 0.8:
                nudge = rng.choice((0.0, -1e-13, 1e-13, -1e-11))
                t = rng.randrange(3) * period + rng.choice(starts) + nudge
            else:
                t = rng.uniform(0.0, 3.0 * period)
            times.append(max(t, 0.0))
        return times

    @pytest.mark.parametrize("kind", ["pairs", "random_walk", "hspa"])
    @pytest.mark.parametrize("loop", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_queries_bit_identical_to_segment_objects(self, kind, loop, seed):
        rng = random.Random(f"{kind}-{loop}-{seed}")
        pairs = self._pairs(kind, rng)
        trace = from_pairs(pairs, loop=loop)
        reference = _SegmentReference(
            [TraceSegment(d, k) for d, k in pairs], loop
        )
        assert _same_bits(trace.period_s, reference.period)
        assert trace.segments == reference.segments
        assert BandwidthTrace(reference.segments, loop=loop).to_pairs() == pairs
        cursor = trace.cursor()
        for t in self._times(reference, rng):
            kbps = reference.bandwidth_at(t)
            change = reference.next_change_after(t)
            for view in (trace, cursor):
                assert _same_bits(view.bandwidth_at(t), kbps), (view, t)
                assert _same_bits(view.next_change_after(t), change), (view, t)
                got_kbps, got_change = view.rate_and_next_change(t)
                assert _same_bits(got_kbps, kbps), (view, t)
                assert _same_bits(got_change, change), (view, t)

    @staticmethod
    def _first_error(build):
        try:
            build()
        except TraceError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.0, 100.0)],
            [(1.0, 100.0), (-2.0, 100.0)],
            [(1.0, -1.0)],
            [(1.0, 100.0), (1.0, -0.5), (0.0, 100.0)],
            [(1.0, 100.0), (0.0, -5.0)],
            [(math.nan, 100.0), (1.0, -3.0)],
            [(1.0, math.nan), (-1.0, 100.0)],
        ],
    )
    def test_bad_rows_raise_what_segment_objects_raise(self, pairs):
        want = self._first_error(
            lambda: BandwidthTrace([TraceSegment(d, k) for d, k in pairs])
        )
        assert want is not None
        assert self._first_error(lambda: from_pairs(pairs)) == want

    def test_nan_passes_as_it_does_for_segment_objects(self):
        pairs = [(1.0, math.nan), (math.nan, 200.0), (1.0, 300.0)]
        reference = [TraceSegment(d, k) for d, k in pairs]
        trace = from_pairs(pairs)
        assert repr(trace.segments) == repr(tuple(reference))
        assert math.isnan(trace.bandwidth_at(0.5))
