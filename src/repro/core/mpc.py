"""Model-predictive joint A/V adaptation.

Section 4.2 asks for joint adaptation that balances "maximizing
quality, minimizing stalls and minimizing quality variation". The
standard control-theoretic formulation of that trade-off is MPC (Yin et
al., SIGCOMM'15); :class:`MpcPlayer` applies it to the *combination*
ladder: at each chunk position it enumerates combination sequences over
a short horizon, simulates the joint buffer under the (conservatively
discounted) bandwidth estimate, and commits only the first step.

Because the decision variable is an allowed combination — not a video
rung and an audio rung separately — every plan the optimizer can emit
is automatically a desirable pair, and the chunk-balanced scheduler
keeps the single-buffer model honest (audio and video frontiers stay
within one chunk).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PlayerError
from ..media.tracks import MediaType
from ..players.base import BasePlayer
from ..players.estimators import SharedThroughputEstimator
from ..sim.decisions import Decision, download_for
from ..sim.records import DownloadRecord
from .balancer import PrefetchBalancer
from .combinations import Combination, CombinationSet


@dataclass(frozen=True)
class MpcConfig:
    """MPC tuning parameters."""

    horizon: int = 3
    #: Robustness discount on the estimate (robust MPC divides by
    #: (1 + max observed error); a fixed discount is the simple variant).
    safety_factor: float = 0.9
    #: Per-unit-utility weights of the objective.
    quality_weight: float = 1.0
    switch_weight: float = 1.0
    rebuffer_weight_per_s: float = 4.3
    #: Candidate moves per step relative to the previous rung, which
    #: prunes the K^H enumeration without forbidding real plans.
    max_step: int = 2
    buffer_target_s: float = 30.0
    #: Terminal condition: penalize plans that end the horizon with less
    #: than this much buffer, at this weight per missing second. Without
    #: it a short horizon is blind to rungs that drain the buffer slower
    #: than the horizon is long (the classic MPC myopia).
    terminal_buffer_s: float = 12.0
    terminal_weight_per_s: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise PlayerError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 < self.safety_factor <= 1:
            raise PlayerError(f"safety_factor in (0,1], got {self.safety_factor}")
        if self.max_step < 1:
            raise PlayerError(f"max_step must be >= 1, got {self.max_step}")


class MpcPlayer(BasePlayer):
    """Horizon-optimizing joint A/V player over allowed combinations.

    Failure handling deliberately stays on BasePlayer's default; the
    throughput estimator only observes *completed* downloads, so a
    failed request cannot poison the horizon prediction.
    """

    name = "mpc"

    def __init__(
        self,
        combinations: CombinationSet,
        config: Optional[MpcConfig] = None,
        chunk_duration_s: Optional[float] = None,
    ):
        self.combinations = combinations
        self.config = config or MpcConfig()
        self._estimator = SharedThroughputEstimator()
        self._balancer = PrefetchBalancer(max_lead_chunks=1)
        self._current = 0
        self._selection_for_position: Dict[int, Combination] = {}
        # Utilities: log aggregate average bitrate relative to the lowest
        # allowed combination (same scale as the QoE model).
        lowest = combinations.lowest.avg_kbps
        self._utilities = [
            math.log(combo.avg_kbps / lowest) for combo in combinations
        ]

    # -- planning ------------------------------------------------------------

    def _candidate_moves(self, rung: int) -> List[int]:
        lo = max(0, rung - self.config.max_step)
        hi = min(len(self.combinations) - 1, rung + self.config.max_step)
        return list(range(lo, hi + 1))

    def _plan(
        self, start_rung: int, buffer_s: float, estimate_kbps: float, chunk_s: float
    ) -> int:
        """Enumerate horizon plans; return the first step of the best."""
        budget = estimate_kbps * self.config.safety_factor
        _, first = self._best_plan(
            0, start_rung, buffer_s, 0.0, start_rung, budget, chunk_s
        )
        return start_rung if first is None else first

    def _best_plan(
        self,
        step: int,
        rung: int,
        buffer_level: float,
        score: float,
        first: int,
        budget: float,
        chunk_s: float,
    ) -> Tuple[float, Optional[int]]:
        """(score, first step) of the best plan from this node.

        Plans are visited depth first in ascending rung order and a
        plan wins only by a strictly higher score, so among equal
        scores the first plan visited wins; ``None`` when no plan
        scores above ``-inf``.
        """
        if step == self.config.horizon:
            deficit = max(0.0, self.config.terminal_buffer_s - buffer_level)
            return score - self.config.terminal_weight_per_s * deficit, first
        best_score, best_first = -math.inf, None
        for nxt in self._candidate_moves(rung):
            combo = self.combinations[nxt]
            download_s = combo.avg_kbps * chunk_s / budget if budget > 0 else math.inf
            rebuffer = max(0.0, download_s - buffer_level)
            new_buffer = min(
                max(buffer_level - download_s, 0.0) + chunk_s,
                self.config.buffer_target_s + chunk_s,
            )
            gain = (
                self.config.quality_weight * self._utilities[nxt]
                - self.config.switch_weight
                * abs(self._utilities[nxt] - self._utilities[rung])
                - self.config.rebuffer_weight_per_s * rebuffer
            )
            plan_score, plan_first = self._best_plan(
                step + 1,
                nxt,
                new_buffer,
                score + gain,
                nxt if step == 0 else first,
                budget,
                chunk_s,
            )
            if plan_score > best_score:
                best_score, best_first = plan_score, plan_first
        return best_score, best_first

    # -- player interface ------------------------------------------------------

    def _selection_at(self, position: int, ctx) -> Combination:
        if position not in self._selection_for_position:
            estimate = self._estimator.get_estimate_kbps()
            if estimate is None:
                self._current = 0
            else:
                ctx.log_estimate(estimate)
                buffered = min(
                    ctx.buffer_level_s(MediaType.VIDEO),
                    ctx.buffer_level_s(MediaType.AUDIO),
                )
                self._current = self._plan(
                    self._current, buffered, estimate, ctx.chunk_duration_s
                )
            self._selection_for_position[position] = self.combinations[self._current]
        return self._selection_for_position[position]

    def choose_next(self, medium: MediaType, ctx) -> Decision:
        gate = self._balancer.gate(medium, ctx)
        if gate is not None:
            return gate
        buffer_gate = self.buffer_gate(ctx, medium, self.config.buffer_target_s)
        if buffer_gate is not None:
            return buffer_gate
        combo = self._selection_at(ctx.next_chunk_index(medium), ctx)
        if medium is MediaType.VIDEO:
            return download_for(combo.video.track_id)
        return download_for(combo.audio.track_id)

    def on_chunk_complete(self, record: DownloadRecord, ctx) -> None:
        self._estimator.observe_download(record)
