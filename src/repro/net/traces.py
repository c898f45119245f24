"""Bandwidth traces.

A trace is a piecewise-constant bandwidth profile — the software
equivalent of the paper's ``tc``-shaped server-to-client link: "The
network bandwidths from the server to client are controlled by using tc
at the server" (Section 3.1). Piecewise-constant profiles let the
simulator compute download completions exactly instead of numerically.

Traces loop by default, so a session can outlast the profile (as a
``tc`` schedule would be replayed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple

from ..errors import TraceError


@dataclass(frozen=True)
class TraceSegment:
    """One constant-bandwidth interval.

    A trace stores its intervals as two float columns, not as these
    objects; :attr:`BandwidthTrace.segments` builds them on demand.
    """

    duration_s: float
    kbps: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise TraceError(f"segment duration must be positive, got {self.duration_s}")
        if self.kbps < 0:
            raise TraceError(f"segment bandwidth must be non-negative, got {self.kbps}")


class _RateQueries:
    """The rate queries a trace and each of its cursors answer, written
    once over ``_locate(t) -> (segment index, offset)`` and the
    ``_durations`` and ``_kbps`` columns."""

    __slots__ = ()

    def bandwidth_at(self, t: float) -> float:
        """Link bandwidth in kbps at absolute time ``t``."""
        index, _ = self._locate(t)
        return self._kbps[index]

    def next_change_after(self, t: float) -> float:
        """Absolute time of the next rate change strictly after ``t``.

        Returns ``inf`` when the rate never changes again (constant
        trace, or non-looping trace past its end). The rate is constant
        on the open interval ``(t, next_change_after(t))``: the
        remaining time in the located segment *is* the next boundary.
        """
        if self._n == 1 and self._loop:
            return math.inf
        if not self._loop and t >= self._period:
            return math.inf
        index, offset = self._locate(t)
        boundary = t + (self._durations[index] - offset)
        if boundary <= t:
            # t sits within a few ulps of the segment end (fmod rounding
            # placed it in the expiring segment). The rate flips at the
            # very next representable instant; returning that keeps the
            # boundary strictly in the future without skipping a real
            # change the way jumping a whole period would.
            boundary = math.nextafter(t, math.inf)
        return boundary

    def rate_and_next_change(self, t: float) -> Tuple[float, float]:
        """``(bandwidth_at(t), next_change_after(t))`` in one lookup.

        The kernel needs both values for every event; answering them
        from a single ``_locate`` halves the hot-path segment lookups.
        Bit-identical to calling the two methods separately.
        """
        index, offset = self._locate(t)
        kbps = self._kbps[index]
        if self._loop:
            if self._n == 1:
                return kbps, math.inf
        elif t >= self._period:
            return kbps, math.inf
        boundary = t + (self._durations[index] - offset)
        if boundary <= t:
            boundary = math.nextafter(t, math.inf)
        return kbps, boundary


class BandwidthTrace(_RateQueries):
    """A piecewise-constant bandwidth profile, looping by default.

    The trace itself is immutable once built, so any number of sessions
    (or link models) can share one trace object. Anything that queries
    it on a hot path should hold its own :class:`TraceCursor` from
    :meth:`cursor` — the cursor memoizes the last-hit segment for O(1)
    near-monotonic lookups, and keeping it *per consumer* means two
    interleaved sessions cannot thrash (or corrupt) each other's fast
    path. The trace's own queries locate by bisection, which is also
    every cursor's seek fallback: always correct under sharing, just
    without the memoized hop.
    """

    def __init__(self, segments: Iterable[TraceSegment], loop: bool = True):
        segments = tuple(segments)
        self._fill(
            [s.duration_s for s in segments], [s.kbps for s in segments], loop
        )

    @classmethod
    def _from_columns(
        cls, durations: List[float], kbps: List[float], loop: bool
    ) -> "BandwidthTrace":
        """A trace over already-validated columns (see :func:`from_columns`)."""
        trace = cls.__new__(cls)
        trace._fill(durations, kbps, loop)
        return trace

    def _fill(self, durations: List[float], kbps: List[float], loop: bool) -> None:
        if not durations:
            raise TraceError("trace must contain at least one segment")
        # Segment i lasts durations[i] seconds at kbps[i].
        self._durations = durations
        self._kbps = kbps
        self._loop = loop
        # sum(durations), not starts[-1] + durations[-1]: Python 3.12's
        # sum is compensated and 3.11's is not, so only this keeps the
        # period each version has always computed.
        self._period = sum(durations)
        # Cumulative start offsets of each segment within one period.
        self._starts: List[float] = list(accumulate(durations[:-1], initial=0.0))
        # Segment i holds from edges[i] = starts[i] - 1e-12 on: the
        # historical lookup predicate, evaluated once per segment.
        self._edges: List[float] = [start - 1e-12 for start in self._starts]
        self._n = len(durations)

    @property
    def segments(self) -> Tuple[TraceSegment, ...]:
        """The intervals as :class:`TraceSegment` records, built per call."""
        return tuple(map(TraceSegment, self._durations, self._kbps))

    @property
    def loops(self) -> bool:
        return self._loop

    @property
    def period_s(self) -> float:
        """Total duration of one pass through the segments."""
        return self._period

    def cursor(self) -> "TraceCursor":
        """A fresh per-consumer lookup view over this trace."""
        return TraceCursor(self)

    def _locate(self, t: float) -> Tuple[int, float]:
        """(segment index, time offset within that segment) at time ``t``.

        The target is the largest i with ``t >= edges[i]`` (0 if none),
        found by bisection; a :class:`TraceCursor` answers the same
        predicate from its memoized hops and falls back to this.
        """
        if t < 0:
            raise TraceError(f"time must be non-negative, got {t}")
        if self._loop:
            t = math.fmod(t, self._period)
        elif t >= self._period:
            # Past the end of a non-looping trace the last rate holds.
            return self._n - 1, t - self._starts[-1]
        # Edges are non-decreasing, so the target is the count of edges
        # <= t, less one (never below 0: edges[0] < 0 <= t). A NaN time
        # satisfies no edge, so "0 if none" applies (bisect_right alone
        # would answer n - 1).
        i = bisect_right(self._edges, t) - 1 if t == t else 0
        return i, t - self._starts[i]

    def average_kbps(self, duration_s: float = 0.0) -> float:
        """Time-average bandwidth over ``duration_s`` (one period if 0)."""
        if duration_s <= 0:
            total_bits = sum(d * k for d, k in zip(self._durations, self._kbps))
            return total_bits / self._period
        cursor = self.cursor()
        t = 0.0
        acc = 0.0
        while t < duration_s - 1e-12:
            kbps, change = cursor.rate_and_next_change(t)
            horizon = min(change, duration_s)
            acc += (horizon - t) * kbps
            t = horizon
        return acc / duration_s

    def min_kbps(self) -> float:
        return min(self._kbps)

    def max_kbps(self) -> float:
        return max(self._kbps)

    def scaled(self, factor: float) -> "BandwidthTrace":
        """A copy with every rate multiplied by ``factor``."""
        if factor <= 0:
            raise TraceError(f"scale factor must be positive, got {factor}")
        return BandwidthTrace._from_columns(
            self._durations, [k * factor for k in self._kbps], self._loop
        )

    def to_pairs(self) -> List[Tuple[float, float]]:
        return list(zip(self._durations, self._kbps))


class TraceCursor(_RateQueries):
    """One consumer's memoized lookup view over a shared trace.

    The kernel's queries are near-monotonic, so the next lookup almost
    always lands in the last-hit segment or its successor; memoizing
    that index turns the per-event lookup into O(1) with a bisect
    fallback for arbitrary seeks. The cursor is a pure cache — it never
    affects results, only which path computes them — and it is the
    *only* mutable state in the trace machinery, owned by exactly one
    consumer, so two sessions walking one trace object never share a
    fast path (``TestSharedTraceObject`` in ``tests/test_session.py``
    guards that contract). An arbitrary seek is the trace's own
    bisection, so both answer the same predicate, "largest i with
    t >= starts[i] - 1e-12", with the same arithmetic.
    """

    __slots__ = ("_trace", "_durations", "_kbps", "_starts", "_edges", "_n",
                 "_loop", "_period", "_cursor")

    def __init__(self, trace: BandwidthTrace) -> None:
        self._trace = trace
        # Immutable views, re-referenced to keep the hot path free of
        # attribute chains through the trace.
        self._durations = trace._durations
        self._kbps = trace._kbps
        self._starts = trace._starts
        self._edges = trace._edges
        self._n = trace._n
        self._loop = trace._loop
        self._period = trace._period
        self._cursor = 0

    @property
    def trace(self) -> BandwidthTrace:
        return self._trace

    def _locate(self, t: float) -> Tuple[int, float]:
        """(segment index, time offset within that segment) at time ``t``."""
        if t < 0:
            raise TraceError(f"time must be non-negative, got {t}")
        if self._loop:
            t = math.fmod(t, self._period)
        elif t >= self._period:
            # Past the end of a non-looping trace the last rate holds.
            return self._n - 1, t - self._starts[-1]
        # The target is the largest i with t >= edges[i] (0 if none).
        # Every path below answers that exact predicate, so the memoized
        # hops and the bisect fallback agree bit for bit.
        starts = self._starts
        edges = self._edges
        n = self._n
        i = self._cursor
        if t >= edges[i]:
            # Same segment as the last lookup?
            if i + 1 >= n or not t >= edges[i + 1]:
                return i, t - starts[i]
            # The immediate successor (the monotonic-advance case)?
            i += 1
            if i + 1 >= n or not t >= edges[i + 1]:
                self._cursor = i
                return i, t - starts[i]
        # Arbitrary seek: the trace's bisection. ``t`` is already inside
        # one period, where the trace's own wrap leaves it unchanged.
        i, offset = self._trace._locate(t)
        self._cursor = i
        return i, offset


def constant(kbps: float) -> BandwidthTrace:
    """A fixed-bandwidth link — the paper's preferred controlled setting."""
    return from_pairs([(1.0, kbps)])


def from_pairs(
    pairs: Sequence[Tuple[float, float]], loop: bool = True
) -> BandwidthTrace:
    """Build a trace from ``(duration_s, kbps)`` pairs (see :func:`from_columns`)."""
    return from_columns(
        [duration for duration, _ in pairs], [kbps for _, kbps in pairs], loop
    )


def from_columns(
    durations: List[float], kbps: List[float], loop: bool = True
) -> BandwidthTrace:
    """Build a trace whose segment i lasts ``durations[i]`` s at ``kbps[i]``.

    The lists become the trace's own columns. A bad row raises the
    :class:`TraceError` a :class:`TraceSegment` of it would, at the
    first bad row; a NaN passes, as it does there.
    """
    # min() passes over a NaN unless the column starts with one, and
    # then the row loop decides, so only a column holding a bad value
    # (or led by a NaN) is walked row by row.
    if durations and not (min(durations) > 0 and min(kbps) >= 0):
        for duration, rate in zip(durations, kbps):
            if duration <= 0:
                raise TraceError(f"segment duration must be positive, got {duration}")
            if rate < 0:
                raise TraceError(f"segment bandwidth must be non-negative, got {rate}")
    return BandwidthTrace._from_columns(durations, kbps, loop)


def square_wave(
    low_kbps: float, high_kbps: float, half_period_s: float = 20.0
) -> BandwidthTrace:
    """Alternate between two rates; average is their midpoint."""
    return from_pairs([(half_period_s, low_kbps), (half_period_s, high_kbps)])


def random_walk(
    mean_kbps: float,
    seed: int,
    n_segments: int = 30,
    segment_duration_s: float = 10.0,
    spread: float = 0.8,
    floor_kbps: float = 50.0,
) -> BandwidthTrace:
    """A seeded random time-varying profile with a given mean.

    Rates are drawn uniformly in ``mean*(1±spread)``, clipped at
    ``floor_kbps``, then rescaled so the time-average equals
    ``mean_kbps`` exactly (to float round-off). The contract requires
    ``mean_kbps >= floor_kbps``: with every segment clipped at the
    floor the target average would be unreachable, so that case raises
    :class:`~repro.errors.TraceError` instead of silently missing the
    mean. Used for the paper's "time-varying, with the average as 600
    Kbps" experiments (Figs. 3 and 4(b)).
    """
    if n_segments < 2:
        raise TraceError("random walk needs at least two segments")
    if mean_kbps < floor_kbps:
        raise TraceError(
            f"mean_kbps ({mean_kbps}) below floor_kbps ({floor_kbps}): "
            "the floor clip makes the target average unreachable"
        )
    rng = random.Random(seed)
    rates = [
        max(floor_kbps, mean_kbps * (1.0 + spread * (2.0 * rng.random() - 1.0)))
        for _ in range(n_segments)
    ]
    actual_mean = sum(rates) / n_segments
    rates = [max(floor_kbps, r * mean_kbps / actual_mean) for r in rates]
    # Rescaling can re-clip segments at the floor, leaving a residual
    # error. Fold it into the largest segment first (where it is
    # proportionally smallest), then close whatever the fold's own
    # floor clip leaves by spreading the remainder across segments
    # that still have headroom, until the average matches exactly.
    target_total = mean_kbps * n_segments
    residual = target_total - sum(rates)
    top = max(range(n_segments), key=rates.__getitem__)
    rates[top] = max(floor_kbps, rates[top] + residual)
    for _ in range(n_segments):
        residual = target_total - sum(rates)
        if abs(residual) <= 1e-9 * target_total:
            break
        if residual > 0:
            # Raising rates never violates the floor: spread evenly.
            bump = residual / n_segments
            rates = [r + bump for r in rates]
        else:
            free = [i for i in range(n_segments) if rates[i] > floor_kbps + 1e-12]
            if not free:  # pragma: no cover - unreachable given the guard
                break
            cut = residual / len(free)
            for i in free:
                rates[i] = max(floor_kbps, rates[i] + cut)
    return from_pairs([(segment_duration_s, r) for r in rates])


def save_trace(trace: BandwidthTrace, path: str) -> None:
    """Write a trace as ``duration_s,kbps`` CSV lines."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# duration_s,kbps\n")
        for duration, kbps in trace.to_pairs():
            f.write(f"{duration:.6f},{kbps:.6f}\n")


def load_trace(path: str, loop: bool = True) -> BandwidthTrace:
    """Read a trace written by :func:`save_trace`.

    Every numeric pathology is rejected with a :class:`TraceError`
    (also a ``ValueError``) naming the file and line: NaN or infinite
    values, non-positive durations, negative bandwidths, unparseable
    rows. A half-broken measured trace must fail at load time, not as
    a mystery deep inside a simulation.
    """
    pairs: List[Tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                duration_text, kbps_text = line.split(",")
                duration, kbps = float(duration_text), float(kbps_text)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: bad trace line {line!r}") from exc
            if not math.isfinite(duration) or not math.isfinite(kbps):
                raise TraceError(
                    f"{path}:{lineno}: non-finite value in trace line {line!r}"
                )
            if duration <= 0:
                raise TraceError(
                    f"{path}:{lineno}: segment duration must be positive, "
                    f"got {duration}"
                )
            if kbps < 0:
                raise TraceError(
                    f"{path}:{lineno}: bandwidth must be non-negative, got {kbps}"
                )
            pairs.append((duration, kbps))
    if not pairs:
        raise TraceError(f"{path}: no trace segments found")
    return from_pairs(pairs, loop=loop)


#: Bandwidth-unit multipliers to kbps accepted by :func:`from_csv`.
_CSV_UNITS = {"kbps": 1.0, "mbps": 1000.0, "bps": 1e-3}


def from_csv(
    path: str,
    unit: str = "kbps",
    loop: bool = True,
) -> BandwidthTrace:
    """Import a measured ``timestamp, bandwidth`` two-column trace.

    The format of the public FCC broadband, Norway 3G/HSDPA and
    similar measurement datasets: each row is an absolute timestamp in
    seconds paired with the bandwidth measured *from* that instant.
    Columns split on a comma or on whitespace; blank lines and ``#``
    comments are skipped; ``unit`` scales the bandwidth column
    (``kbps``/``mbps``/``bps``).

    Each measurement holds until the next timestamp, so row *i* becomes
    a segment of duration ``t[i+1] - t[i]``. The final row has no
    successor; it inherits the previous interval (matching how these
    datasets are replayed by tools like Mahimahi). Timestamps must be
    finite and strictly increasing, bandwidths finite and non-negative,
    and at least two rows are needed to define an interval — anything
    else raises :class:`TraceError` naming the file and line.
    """
    if unit not in _CSV_UNITS:
        raise TraceError(
            f"unknown bandwidth unit {unit!r}; expected one of "
            f"{sorted(_CSV_UNITS)}"
        )
    scale = _CSV_UNITS[unit]
    rows: List[Tuple[float, float]] = []  # (timestamp_s, kbps)
    last_lineno = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",") if "," in line else line.split()
            if len(fields) != 2:
                raise TraceError(
                    f"{path}:{lineno}: expected two columns "
                    f"(timestamp, bandwidth), got {len(fields)}: {line!r}"
                )
            try:
                timestamp, bandwidth = float(fields[0]), float(fields[1])
            except ValueError as exc:
                raise TraceError(
                    f"{path}:{lineno}: non-numeric value in {line!r}"
                ) from exc
            if not math.isfinite(timestamp) or not math.isfinite(bandwidth):
                raise TraceError(
                    f"{path}:{lineno}: non-finite value in {line!r}"
                )
            if bandwidth < 0:
                raise TraceError(
                    f"{path}:{lineno}: bandwidth must be non-negative, "
                    f"got {bandwidth}"
                )
            if rows and timestamp <= rows[-1][0]:
                raise TraceError(
                    f"{path}:{lineno}: timestamps must be strictly "
                    f"increasing, got {timestamp} after {rows[-1][0]}"
                )
            rows.append((timestamp, bandwidth * scale))
            last_lineno = lineno
    if len(rows) < 2:
        raise TraceError(
            f"{path}:{last_lineno or 1}: need at least two rows to define "
            f"a measurement interval, got {len(rows)}"
        )
    pairs = [
        (rows[i + 1][0] - rows[i][0], rows[i][1]) for i in range(len(rows) - 1)
    ]
    # The last measurement holds for as long as the one before it.
    pairs.append((pairs[-1][0], rows[-1][1]))
    return from_pairs(pairs, loop=loop)
