"""Mahimahi packet-delivery trace import.

Mahimahi's ``mm-link`` traces — the de-facto interchange format of ABR
research (Pensieve, Oboe, Fugu all ship them) — are plain text files
with one integer per line: a millisecond timestamp at which one MTU
(1500-byte) packet delivery opportunity occurs. :func:`load_mahimahi`
converts such a file into a piecewise-constant
:class:`~repro.net.traces.BandwidthTrace` by bucketing deliveries into
fixed windows, so recorded cellular traces can drive the simulator
directly.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import TraceError
from .traces import BandwidthTrace, from_pairs

#: Bits per delivery opportunity: one 1500-byte MTU packet.
BITS_PER_PACKET = 1500 * 8


def trace_from_timestamps(
    timestamps_ms: Sequence[int],
    window_s: float = 1.0,
    loop: bool = True,
) -> BandwidthTrace:
    """Convert delivery timestamps (ms) into a bandwidth trace.

    Deliveries are bucketed into ``window_s`` windows; each window's
    rate is ``deliveries * 12000 bits / window``. Windows with no
    deliveries become 0 kbps segments (a genuine cellular outage).
    """
    if window_s <= 0:
        raise TraceError(f"window must be positive, got {window_s}")
    if not timestamps_ms:
        raise TraceError("trace has no delivery opportunities")
    ordered = sorted(timestamps_ms)
    if ordered[0] < 0:
        raise TraceError(f"negative timestamp {ordered[0]}")
    window_ms = window_s * 1000.0
    n_windows = int(ordered[-1] // window_ms) + 1
    counts = [0] * n_windows
    for ts in ordered:
        counts[int(ts // window_ms)] += 1
    pairs = [
        (window_s, count * BITS_PER_PACKET / window_s / 1000.0) for count in counts
    ]
    return from_pairs(pairs, loop=loop)


def load_mahimahi(path: str, window_s: float = 1.0, loop: bool = True) -> BandwidthTrace:
    """Load a mahimahi ``mm-link`` trace file."""
    timestamps: List[int] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                timestamps.append(int(line))
            except ValueError as exc:
                raise TraceError(
                    f"{path}:{lineno}: expected an integer millisecond "
                    f"timestamp, got {line!r}"
                ) from exc
    return trace_from_timestamps(timestamps, window_s=window_s, loop=loop)


def save_mahimahi(trace: BandwidthTrace, path: str, duration_s: float = 0.0) -> None:
    """Export a trace as mahimahi delivery timestamps.

    The inverse of :func:`load_mahimahi` up to packet quantization:
    each segment emits evenly spaced deliveries at its rate.
    """
    total_s = duration_s or trace.period_s
    cursor = trace.cursor()
    timestamps: List[int] = []
    t = 0.0
    credit_bits = 0.0
    while t < total_s:
        kbps, change = cursor.rate_and_next_change(t)
        horizon = min(change, total_s)
        rate_bps = kbps * 1000.0
        span = horizon - t
        credit_bits += rate_bps * span
        n_packets = int(credit_bits // BITS_PER_PACKET)
        if n_packets > 0 and rate_bps > 0:
            spacing = span / n_packets
            for i in range(n_packets):
                timestamps.append(int(round((t + i * spacing) * 1000.0)))
            credit_bits -= n_packets * BITS_PER_PACKET
        t = horizon
    with open(path, "w", encoding="utf-8") as f:
        for ts in sorted(timestamps):
            f.write(f"{ts}\n")
