"""Abstract player interface.

A player model is the client-side brain: at every free download slot it
is asked which track to fetch next for a medium (or to wait), and it is
told about every completed chunk so it can update its bandwidth
estimators. Everything else — buffers, the playback clock, the network —
belongs to the simulator.

Subclasses keep the replay/fast-forward contract: ``choose_next``
returns interned decisions (:func:`~repro.sim.decisions.download_for`,
``WAIT_FOREVER``), methods are deterministic, state changes only in the
lifecycle hooks declared here, and overridden hooks keep these
parameter names. The oracle event logs and the player test suites check
the behaviour that follows from it.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..media.tracks import MediaType
from ..sim.decisions import (
    WAIT_FOREVER,
    Decision,
    Download,
    Wait,
    download_for,
)
from ..sim.playback import PlaybackState
from ..sim.records import DownloadRecord


class BasePlayer(abc.ABC):
    """Interface implemented by every player model."""

    #: Human-readable name used in experiment output.
    name: str = "player"

    def on_session_start(self, ctx) -> None:
        """Called once before the first scheduling decision."""

    def on_session_end(self, ctx) -> None:
        """Called once when the session ends."""

    @abc.abstractmethod
    def choose_next(self, medium: MediaType, ctx) -> Decision:
        """Pick the track for the medium's next chunk, or wait.

        Called only when the medium has no download in flight and chunks
        remain. Return :class:`~repro.sim.decisions.Download` or
        :class:`~repro.sim.decisions.Wait`.
        """

    def on_chunk_start(self, medium: MediaType, track_id: str, index: int, ctx) -> None:
        """Called when a chosen download begins."""

    def on_chunk_complete(self, record: DownloadRecord, ctx) -> None:
        """Called when a download finishes (estimators update here)."""

    def on_failure(self, medium: MediaType, failure, ctx) -> None:
        """Called for every classified request failure.

        ``failure`` is a :class:`~repro.sim.records.FailureRecord`
        carrying the taxonomy ``kind``, the ``attempt`` number, whether
        the partial bytes were stashed for range-resume, and the
        scheduled ``retry_at`` (``None`` when no retry follows). The
        session has already decided *whether* and *when* to retry; this
        hook is where the player decides *what* — e.g. eject the failing
        rung via a circuit breaker, downshift the retry, or fall back to
        the cheapest combination when ``ctx.retry_budget_remaining()``
        nears exhaustion. The medium's slot is already free, and
        ``choose_next`` will be asked again for the same position; the
        default is to retry whatever it picks next.
        """

    def consider_abort(self, medium: MediaType, download, ctx) -> bool:
        """Should the in-flight ``download`` be abandoned?

        Called at every simulation event while a download is active.
        Returning ``True`` discards the partial data; the medium's slot
        frees immediately and ``choose_next`` is asked again for the
        same chunk position (usually to pick a cheaper track). This is
        the simulator-side hook for abandonment rules such as dash.js's
        ``AbandonRequestsRule``. Default: never abort.
        """
        return False

    # -- shared scheduling helpers ----------------------------------------

    @staticmethod
    def buffer_gate(ctx, medium: MediaType, target_s: float) -> Optional[Wait]:
        """Standard "don't overfill the buffer" gate.

        Returns a :class:`Wait` when the medium's buffer is at or above
        ``target_s`` — timed to when draining will cross back below the
        target if playback is running, or until the next event otherwise
        — and ``None`` when fetching may proceed.
        """
        level = ctx.buffer_level_s(medium)
        if level < target_s - 1e-9:
            return None
        if ctx.playback_state is PlaybackState.PLAYING:
            return Wait(until=ctx.now + (level - target_s) + 1e-6)
        return WAIT_FOREVER

    @staticmethod
    def download(track_id: str) -> Download:
        return download_for(track_id)
