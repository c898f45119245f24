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

Both expose the same interface. The session runs at most one download
per medium, so :meth:`NetworkModel.media_step` answers, for a time and
which media are downloading, the ``(video_kbps, audio_kbps)`` rates and
the time at which any rate may next change;
:meth:`NetworkModel.next_change_after` answers the latter alone.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import LinkConfigError
from .traces import BandwidthTrace


class NetworkModel:
    """Interface for path models used by the simulator."""

    #: Dead time at the start of every request (HTTP request RTT). Rates
    #: are zero during this window, which realistically yields empty
    #: leading sample intervals for interval-based estimators.
    rtt_s: float = 0.0

    def next_change_after(self, t: float) -> float:
        """Next absolute time any underlying trace changes rate."""
        raise NotImplementedError

    def media_step(
        self, video_active: bool, audio_active: bool, t: float
    ) -> Tuple[float, float, float]:
        """``(video_kbps, audio_kbps, next_change_after(t))`` at ``t``.

        The kernel's one per-event query: each active medium's rate (an
        inactive medium's is 0.0) and when any rate may next change.
        """
        raise NotImplementedError


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
