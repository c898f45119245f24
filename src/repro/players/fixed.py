"""A non-adaptive player: fixed video and audio tracks.

Useful as an experimental control (it is exactly what pre-2.10 ExoPlayer
did for audio) and for exercising the simulator in tests, where the
download schedule must be predictable.
"""

from __future__ import annotations

from typing import Optional

from ..errors import PlayerError
from ..media.tracks import MediaType
from ..sim.decisions import WAIT_FOREVER, Decision, download_for
from .base import BasePlayer


class FixedTracksPlayer(BasePlayer):
    """Always fetches the same (video, audio) pair.

    A non-adaptive control has nothing to adapt on failure, so it
    deliberately inherits BasePlayer's silent failure default.

    :param balanced: when true, downloads alternate per chunk (video
        *i*, audio *i*, video *i+1*, ...); when false, each medium
        free-runs to the buffer target, downloading concurrently.
    """

    name = "fixed"

    def __init__(
        self,
        video_id: str,
        audio_id: str,
        buffer_target_s: float = 30.0,
        balanced: bool = True,
    ):
        if not video_id or not audio_id:
            raise PlayerError("fixed player needs both track ids")
        if buffer_target_s <= 0:
            raise PlayerError(f"buffer target must be positive: {buffer_target_s}")
        self.video_id = video_id
        self.audio_id = audio_id
        self.buffer_target_s = buffer_target_s
        self.balanced = balanced

    def choose_next(self, medium: MediaType, ctx) -> Decision:
        if self.balanced:
            video_done = ctx.completed_chunks(MediaType.VIDEO)
            audio_done = ctx.completed_chunks(MediaType.AUDIO)
            if medium is MediaType.VIDEO and audio_done < video_done:
                return WAIT_FOREVER
            if medium is MediaType.AUDIO and video_done <= audio_done:
                return WAIT_FOREVER
        gate = self.buffer_gate(ctx, medium, self.buffer_target_s)
        if gate is not None:
            return gate
        if medium is MediaType.VIDEO:
            return download_for(self.video_id)
        return download_for(self.audio_id)
