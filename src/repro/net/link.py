"""Network path models: how concurrent downloads share capacity.

The paper's client fetches audio and video "over a shared network
bottleneck link" in the default setup, but Section 1 notes the demuxed
tracks "may be located at different servers and hence may not
necessarily share the same bottleneck link." Both topologies are
modelled:

* :class:`SharedBottleneck` — one shaped link; concurrent downloads
  split the capacity max-min fairly (equal shares, since no flow is
  otherwise limited). This equal split is what halves Shaka's per-stream
  throughput samples in Fig. 4.
* :class:`SeparatePaths` — audio and video ride independent links, each
  with its own trace.

Both expose the same interface: given the set of active downloads (each
tagged with its medium) and a time, return each download's current rate
and the time at which any rate may next change.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Mapping, Tuple

from ..errors import LinkConfigError
from ..media.tracks import MediaType
from .traces import BandwidthTrace, TraceCursor


class NetworkModel:
    """Interface for path models used by the simulator."""

    #: Dead time at the start of every request (HTTP request RTT). Rates
    #: are zero during this window, which realistically yields empty
    #: leading sample intervals for interval-based estimators.
    rtt_s: float = 0.0

    def rates(
        self, active: Mapping[Hashable, MediaType], t: float
    ) -> Dict[Hashable, float]:
        """Per-download rate in kbps at time ``t``."""
        raise NotImplementedError

    def media_rates(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float]:
        """Kernel fast path: ``(video_kbps, audio_kbps)`` at time ``t``.

        The session runs at most one download per medium, so the
        general :meth:`rates` mapping collapses to a pair of floats.
        This default delegates to :meth:`rates` — custom network models
        keep working unchanged and produce bit-identical values — while
        the built-in models override it to skip the per-event dict
        traffic. An inactive medium's rate is 0.0.
        """
        live: Dict[Hashable, MediaType] = {}
        if video_active:
            live[MediaType.VIDEO] = MediaType.VIDEO
        if audio_active:
            live[MediaType.AUDIO] = MediaType.AUDIO
        rates = self.rates(live, t) if live else {}
        return (
            rates.get(MediaType.VIDEO, 0.0),
            rates.get(MediaType.AUDIO, 0.0),
        )

    def next_change_after(self, t: float) -> float:
        """Next absolute time any underlying trace changes rate."""
        raise NotImplementedError

    def media_step(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float, float]:
        """``(video_kbps, audio_kbps, next_change_after(t))`` at ``t``.

        One call per simulation event instead of two. The default
        composes :meth:`media_rates` and :meth:`next_change_after`, so
        custom network models see exactly the calls the kernel used to
        make; the built-in models override it to resolve both answers
        from a single trace lookup.
        """
        v_rate, a_rate = self.media_rates(video_active, audio_active, t)
        return v_rate, a_rate, self.next_change_after(t)


class SharedBottleneck(NetworkModel):
    """A single shaped link shared by all active downloads.

    The model holds its own :class:`~repro.net.traces.TraceCursor`
    over the (immutable, shareable) trace: many models — one per
    session of a population sweep — can be built over one trace object
    without their memoized fast paths interfering.
    """

    def __init__(self, trace: BandwidthTrace, rtt_s: float = 0.0):
        if rtt_s < 0:
            raise LinkConfigError(f"rtt must be non-negative, got {rtt_s}")
        self.trace = trace
        self._cursor = trace.cursor()
        self.rtt_s = rtt_s

    def rates(
        self, active: Mapping[Hashable, MediaType], t: float
    ) -> Dict[Hashable, float]:
        if not active:
            return {}
        share = self._cursor.bandwidth_at(t) / len(active)
        return {key: share for key in active}

    def media_rates(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float]:
        # Same arithmetic as rates(): full bandwidth over the number of
        # active flows, so concurrent A+V each get an equal share.
        if video_active:
            if audio_active:
                share = self._cursor.bandwidth_at(t) / 2
                return share, share
            return self._cursor.bandwidth_at(t), 0.0
        if audio_active:
            return 0.0, self._cursor.bandwidth_at(t)
        return 0.0, 0.0

    def next_change_after(self, t: float) -> float:
        return self._cursor.next_change_after(t)

    def media_step(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float, float]:
        kbps, change = self._cursor.rate_and_next_change(t)
        if video_active:
            if audio_active:
                share = kbps / 2
                return share, share, change
            return kbps, 0.0, change
        if audio_active:
            return 0.0, kbps, change
        return 0.0, 0.0, change


class SeparatePaths(NetworkModel):
    """Independent audio and video paths (tracks on different servers)."""

    def __init__(
        self,
        video_trace: BandwidthTrace,
        audio_trace: BandwidthTrace,
        rtt_s: float = 0.0,
    ):
        if rtt_s < 0:
            raise LinkConfigError(f"rtt must be non-negative, got {rtt_s}")
        self.video_trace = video_trace
        self.audio_trace = audio_trace
        self._video_cursor = video_trace.cursor()
        self._audio_cursor = audio_trace.cursor()
        self.rtt_s = rtt_s

    def _cursor_for(self, medium: MediaType) -> "TraceCursor":
        if medium is MediaType.VIDEO:
            return self._video_cursor
        return self._audio_cursor

    def rates(
        self, active: Mapping[Hashable, MediaType], t: float
    ) -> Dict[Hashable, float]:
        # Each path is shared only by downloads of its own medium; the
        # simulator runs at most one download per medium, so each gets
        # the full path rate — but the general split is kept for safety.
        by_medium: Dict[MediaType, int] = {}
        for medium in active.values():
            by_medium[medium] = by_medium.get(medium, 0) + 1
        out: Dict[Hashable, float] = {}
        for key, medium in active.items():
            rate = self._cursor_for(medium).bandwidth_at(t)
            out[key] = rate / by_medium[medium]
        return out

    def media_rates(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float]:
        # One download per medium on its own path: each active medium
        # gets its full path rate (the general split divides by 1).
        return (
            self._video_cursor.bandwidth_at(t) if video_active else 0.0,
            self._audio_cursor.bandwidth_at(t) if audio_active else 0.0,
        )

    def next_change_after(self, t: float) -> float:
        return min(
            self._video_cursor.next_change_after(t),
            self._audio_cursor.next_change_after(t),
        )

    def media_step(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float, float]:
        v_kbps, v_change = self._video_cursor.rate_and_next_change(t)
        a_kbps, a_change = self._audio_cursor.rate_and_next_change(t)
        return (
            v_kbps if video_active else 0.0,
            a_kbps if audio_active else 0.0,
            a_change if a_change < v_change else v_change,
        )


def shared(trace: BandwidthTrace, rtt_s: float = 0.0) -> SharedBottleneck:
    """Shorthand used throughout the experiments."""
    return SharedBottleneck(trace, rtt_s=rtt_s)
