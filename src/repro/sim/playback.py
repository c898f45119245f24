"""Playback clock with demuxed-buffer stall semantics.

The defining property of demuxed playback (Section 2.1): playback needs
*both* media, so "either empty audio or video buffer leads to stalls ...
even if there is a lot of content in the other buffer." The tracker
advances a single play position bounded by the *minimum* of the two
buffered frontiers.
"""

from __future__ import annotations

import enum
from ..errors import SimulationError
from .constants import EPS
from .records import ResultFold


class PlaybackState(enum.Enum):
    STARTUP = "startup"  # initial buffering, never played yet
    PLAYING = "playing"
    STALLED = "stalled"  # rebuffering mid-session
    ENDED = "ended"


class PlaybackTracker:
    """Tracks play position and playback state.

    Each transition is folded into the session result the moment it
    happens (``playback_start``, ``stall_begin``, ``stall_end``); the
    startup delay and stall intervals live there, in ``fold.result``.
    """

    def __init__(
        self,
        content_duration_s: float,
        startup_threshold_s: float,
        resume_threshold_s: float,
        fold: ResultFold,
    ):
        if content_duration_s <= 0:
            raise SimulationError("content duration must be positive")
        if startup_threshold_s <= 0 or resume_threshold_s <= 0:
            raise SimulationError("playback thresholds must be positive")
        self.content_duration_s = content_duration_s
        self.startup_threshold_s = startup_threshold_s
        self.resume_threshold_s = resume_threshold_s
        self.state = PlaybackState.STARTUP
        self.position_s = 0.0
        self.fold = fold

    def buffered_frontier_ok(self, frontier_s: float, threshold_s: float) -> bool:
        """Is there enough content past the play position to (re)start?

        ``frontier_s`` is the buffered frontier of the *lagging* medium.
        Near the end of the title less than a full threshold remains, so
        the requirement shrinks to "everything that is left".
        """
        remaining = self.content_duration_s - self.position_s
        needed = min(threshold_s, remaining)
        return frontier_s - self.position_s >= needed - EPS

    def advance(self, dt: float, frontier_s: float) -> None:
        """Advance wall time by ``dt``; play if in PLAYING state.

        ``frontier_s`` is min(video frontier, audio frontier): playback
        can never move past it. The session sizes ``dt`` so the position
        lands exactly on the frontier at an event boundary rather than
        overshooting; overshoot means the event schedule was wrong.
        """
        if dt < -EPS:
            raise SimulationError(f"negative time step {dt}")
        if self.state is not PlaybackState.PLAYING:
            return
        new_position = self.position_s + dt
        if new_position > frontier_s + 1e-6:
            raise SimulationError(
                f"playback overshot buffered frontier: {new_position} > {frontier_s}"
            )
        self.position_s = min(new_position, frontier_s)

    def update_state(self, now: float, frontier_s: float, all_downloaded: bool) -> None:
        """Apply state transitions after an event.

        :param frontier_s: min of the two buffered frontiers (seconds of
            content playable from the start).
        :param all_downloaded: every chunk of both media is buffered.
        """
        if self.state is PlaybackState.ENDED:
            return
        if self.position_s >= self.content_duration_s - EPS:
            self._end(now)
            return
        if self.state is PlaybackState.PLAYING:
            if self.position_s >= frontier_s - EPS and not all_downloaded:
                self.state = PlaybackState.STALLED
                self.fold.stall_begin(now)
            return
        # STARTUP or STALLED: can we (re)start?
        threshold = (
            self.startup_threshold_s
            if self.state is PlaybackState.STARTUP
            else self.resume_threshold_s
        )
        if all_downloaded or self.buffered_frontier_ok(frontier_s, threshold):
            if self.state is PlaybackState.STARTUP:
                self.fold.playback_start(now)
            else:
                self.fold.stall_end(now)
            self.state = PlaybackState.PLAYING

    def _end(self, now: float) -> None:
        if self.state is PlaybackState.STALLED:
            # A stall can in principle end exactly at content end.
            self.fold.stall_end(now)
        self.state = PlaybackState.ENDED

    def close(self, now: float) -> None:
        """Close any open stall at session teardown."""
        if self.state is PlaybackState.STALLED:
            self.fold.stall_end(now)
