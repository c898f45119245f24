"""BOLA over the joint combination ladder.

dash.js runs BOLA per medium, independently — the paper's Section 3.4
finding. The natural repair, given Section 4.2's "consider the
combinations of audio and video while making rate adaptation
decisions", is to run the *same* Lyapunov machinery over the allowed
combination ladder: utilities come from aggregate bitrates, the buffer
argument is the joint (minimum) buffer, and the chunk balancer keeps
both media on the same frontier so that buffer is well defined.

This demonstrates that the paper's recommendation composes with an
existing, principled ABR algorithm rather than requiring a new one.
"""

from __future__ import annotations

from typing import Dict

from ..media.tracks import MediaType
from ..players.base import BasePlayer
from ..players.bola import BolaState, bola_quality, build_bola_state
from ..sim.decisions import Decision, download_for
from ..sim.records import DownloadRecord
from .balancer import PrefetchBalancer
from .combinations import Combination, CombinationSet


class JointBolaPlayer(BasePlayer):
    """Buffer-based joint A/V adaptation over allowed combinations.

    Failure handling deliberately stays on BasePlayer's default: BOLA
    carries no bandwidth estimator to poison, and the retry machinery
    in the session kernel already re-polls ``choose_next``.
    """

    name = "bola-joint"

    def __init__(
        self,
        combinations: CombinationSet,
        stable_buffer_time_s: float = 12.0,
        buffer_target_s: float = 30.0,
        max_lead_chunks: int = 1,
        oscillation_guard_s: float = 6.0,
    ):
        """``oscillation_guard_s`` is a Schmitt-trigger deadband in the
        spirit of BOLA-O: an up-switch is taken only if it would still be
        taken with the buffer ``oscillation_guard_s`` lower. At BOLA's
        equilibrium the buffer hovers exactly on a rung boundary, so the
        raw rule flip-flops every chunk; the deadband suppresses that
        without introducing a bandwidth estimator. Down-switches are
        never delayed. Set to 0 for textbook BOLA."""
        self.combinations = combinations
        self.buffer_target_s = buffer_target_s
        self._balancer = PrefetchBalancer(max_lead_chunks=max_lead_chunks)
        # BOLA needs an ascending-bitrate ladder; a CombinationSet is
        # ordered by aggregate *peak*, which is not monotone in the
        # average for VBR ladders (V3+A1 averages less than V2+A3), so
        # re-order by the average we optimize over.
        self._ordered = sorted(combinations, key=lambda combo: combo.avg_kbps)
        self._state: BolaState = build_bola_state(
            [combo.avg_kbps for combo in self._ordered],
            stable_buffer_time_s=stable_buffer_time_s,
        )
        self.oscillation_guard_s = oscillation_guard_s
        self._current_rung = 0
        self._selection_for_position: Dict[int, Combination] = {}

    def quality_at(self, buffer_level_s: float) -> int:
        """Expose the rung choice for tests and analysis."""
        return bola_quality(self._state, buffer_level_s)

    def _selection_at(self, position: int, ctx) -> Combination:
        if position not in self._selection_for_position:
            joint_buffer = min(
                ctx.buffer_level_s(MediaType.VIDEO),
                ctx.buffer_level_s(MediaType.AUDIO),
            )
            rung = bola_quality(self._state, joint_buffer)
            if rung > self._current_rung:
                guarded = bola_quality(
                    self._state,
                    max(0.0, joint_buffer - self.oscillation_guard_s),
                )
                rung = max(self._current_rung, min(rung, guarded))
            self._current_rung = rung
            self._selection_for_position[position] = self._ordered[rung]
        return self._selection_for_position[position]

    def choose_next(self, medium: MediaType, ctx) -> Decision:
        gate = self._balancer.gate(medium, ctx)
        if gate is not None:
            return gate
        buffer_gate = self.buffer_gate(ctx, medium, self.buffer_target_s)
        if buffer_gate is not None:
            return buffer_gate
        combo = self._selection_at(ctx.next_chunk_index(medium), ctx)
        if medium is MediaType.VIDEO:
            return download_for(combo.video.track_id)
        return download_for(combo.audio.track_id)

    def on_chunk_complete(self, record: DownloadRecord, ctx) -> None:
        # Pure buffer-based control: no bandwidth estimator at all.
        return None
