"""The best-practices player — the paper's Section 4.2 made concrete.

The paper stops at recommendations ("as future work, we ... plan to
design and implement rate adaptation schemes following the suggested
practices"); this player implements all four of them so the benchmarks
can quantify the benefit:

1. **Adopt audio rate adaptation** — audio quality follows the selected
   combination; it is never pinned.
2. **Select only from allowed audio and video combinations** — the
   player is handed a :class:`~repro.core.combinations.CombinationSet`
   (from an HLS master playlist's curated variants, the repro DASH
   extension, or an out-of-band channel) and never leaves it.
3. **Joint adaptation of audio and video** — one decision per chunk
   position over aggregate combination bitrates, with hysteresis to
   avoid "frequent changes in either audio or video tracks".
4. **Maintain balance between audio and video prefetching** — a
   :class:`~repro.core.balancer.PrefetchBalancer` caps the frontier gap
   at a small number of chunks.

The ablation flags (``balanced``, ``shared_meter``) exist so the
benchmarks can turn each practice off and measure the regression.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..errors import PlayerError
from ..media.tracks import MediaType
from ..net.resilience import CircuitBreaker
from ..players.base import BasePlayer
from ..players.estimators import HarmonicMeanEstimator, SharedThroughputEstimator
from ..sim.decisions import Decision, download_for
from ..sim.records import DownloadRecord
from .balancer import PrefetchBalancer
from .combinations import Combination, CombinationSet


class RecommendedPlayer(BasePlayer):
    """Joint, combination-restricted, balanced A/V rate adaptation.

    :param combinations: the server-allowed combinations. Selection never
        leaves this set.
    :param safety_factor: fraction of the estimate treated as spendable.
    :param up_buffer_s: minimum buffer before an up-switch (hysteresis).
    :param down_buffer_s: buffer above which a nominal down-switch is
        deferred (ride out short dips to avoid oscillation). The 15 s
        default was tuned on the HSPA Markov corpus, where deferring
        while >15 s remains buffered absorbs most fade states without
        risking the stall boundary.
    :param up_patience: consecutive decisions the ideal combination must
        exceed the current one before switching up (switch damping).
    :param balanced: apply chunk-level prefetch balancing (practice 4).
    :param shared_meter: estimate bandwidth from pooled audio+video
        bytes over merged busy time. ``False`` ablates the pooling: each
        transfer's own throughput is taken as a sample of the *link*
        (the Shaka/dash.js failure mode of Section 3.3) — concurrent
        transfers then contribute half-rate samples and the budget
        collapses toward a single stream's share.
    :param rate_key: which aggregate bitrate to budget against —
        ``"avg"`` (default; robust for VBR ladders, cf. Qin et al.
        CoNEXT'18) or ``"peak"``/``"declared"``.
    :param abandonment: abandon an in-flight chunk (and re-fetch the
        position from a cheaper combination) when, at the currently
        measured transfer rate, finishing it would outlast the remaining
        buffer — the dash.js ``AbandonRequestsRule`` idea applied
        jointly. Off by default.
    """

    name = "recommended"

    def __init__(
        self,
        combinations: CombinationSet,
        safety_factor: float = 0.85,
        up_buffer_s: float = 10.0,
        down_buffer_s: float = 15.0,
        up_patience: int = 2,
        buffer_target_s: float = 30.0,
        max_lead_chunks: int = 1,
        balanced: bool = True,
        shared_meter: bool = True,
        rate_key: str = "avg",
        initial_estimate_kbps: Optional[float] = None,
        abandonment: bool = False,
        abandon_grace_s: float = 0.5,
        circuit_breaker: Optional[CircuitBreaker] = None,
    ):
        if not 0 < safety_factor <= 1:
            raise PlayerError(f"safety factor must be in (0,1], got {safety_factor}")
        if up_patience < 1:
            raise PlayerError(f"up_patience must be >= 1, got {up_patience}")
        if rate_key not in ("avg", "peak", "declared"):
            raise PlayerError(f"bad rate_key {rate_key!r}")
        if len(combinations) == 0:
            # CombinationSet already rejects empty construction; this
            # guards hand-rolled sequences so degradation always has a
            # rung 0 to fall back to.
            raise PlayerError("player needs at least one combination")
        self.combinations = combinations
        self.safety_factor = safety_factor
        self.up_buffer_s = up_buffer_s
        self.down_buffer_s = down_buffer_s
        self.up_patience = up_patience
        self.buffer_target_s = buffer_target_s
        self.balanced = balanced
        self.rate_key = rate_key
        self._balancer = PrefetchBalancer(max_lead_chunks=max_lead_chunks)
        self.shared_meter = shared_meter
        if shared_meter:
            self._estimator = SharedThroughputEstimator(
                initial_estimate_kbps=initial_estimate_kbps
            )
        else:
            # Ablation: naive per-transfer sampling, no concurrency pooling.
            self._estimator = HarmonicMeanEstimator(
                window=5, initial_estimate_kbps=initial_estimate_kbps
            )
        self.abandonment = abandonment
        self.abandon_grace_s = abandon_grace_s
        self._current_index = 0
        self._pending_up: Optional[int] = None
        self._pending_up_count = 0
        self._selection_for_position: Dict[int, Combination] = {}
        #: How many times a failure stepped the working point down.
        self.failure_downshifts = 0
        #: Per-track breaker: a rung that keeps failing is temporarily
        #: ejected from the allowed set (graceful degradation; selection
        #: stays inside the curated combinations).
        self._breaker = circuit_breaker or CircuitBreaker()
        #: How many times the breaker ejected a track.
        self.circuit_trips = 0
        #: Latched once the retry budget forced the lowest-rung fallback.
        self.emergency_engaged = False

    # -- estimation ----------------------------------------------------------

    def estimate_kbps(self) -> Optional[float]:
        return self._estimator.get_estimate_kbps()

    # -- selection -------------------------------------------------------------

    def _rate_of(self, combo: Combination, position: int) -> float:
        """Bandwidth requirement of a combination at a chunk position.

        The base player uses ladder-level aggregates; subclasses (e.g.
        the chunk-size-aware player) override this with per-position
        information.
        """
        if self.rate_key == "avg":
            return combo.avg_kbps
        if self.rate_key == "peak":
            return combo.peak_kbps
        return combo.declared_kbps

    def _ideal_index(self, budget_kbps: float, position: int) -> int:
        ideal = 0
        for i, combo in enumerate(self.combinations):
            if self._rate_of(combo, position) <= budget_kbps:
                ideal = i
        return ideal

    def _adapt(self, ctx, position: int) -> int:
        estimate = self.estimate_kbps()
        if estimate is None:
            # Cold start: lowest allowed combination, per practice 1/2 —
            # never gamble QoE on an unmeasured link.
            self._current_index = 0
            return 0
        ctx.log_estimate(estimate)
        budget = estimate * self.safety_factor
        ideal = self._ideal_index(budget, position)
        current = self._current_index
        buffered = min(
            ctx.buffer_level_s(MediaType.VIDEO), ctx.buffer_level_s(MediaType.AUDIO)
        )
        if ideal > current:
            # Up-switch: enough buffer AND the ideal has persisted.
            if self._pending_up is not None and ideal >= self._pending_up:
                self._pending_up_count += 1
            else:
                self._pending_up = ideal
                self._pending_up_count = 1
            if (
                buffered >= self.up_buffer_s
                and self._pending_up_count >= self.up_patience
            ):
                current = ideal
                self._pending_up = None
                self._pending_up_count = 0
        else:
            self._pending_up = None
            self._pending_up_count = 0
            if ideal < current:
                # Down-switch: immediate when the buffer is thin; deferred
                # while a deep buffer can absorb the dip.
                if buffered < self.down_buffer_s:
                    current = ideal
        self._current_index = current
        return current

    def _allowed_indices(self, ctx) -> List[int]:
        """Combination indices whose tracks are not circuit-open.

        The lowest rung is never ejected outright: when every curated
        combination touches an open circuit, the cheapest one stays as
        the last resort (ejecting everything would deadlock selection).
        """
        open_keys = self._breaker.open_keys(ctx.now)
        if not open_keys:
            return list(range(len(self.combinations)))
        allowed = [
            i
            for i, combo in enumerate(self.combinations)
            if combo.video.track_id not in open_keys
            and combo.audio.track_id not in open_keys
        ]
        return allowed or [0]

    def _degrade(self, index: int, ctx) -> int:
        """Apply graceful degradation to a nominal selection index."""
        policy = ctx.retry_policy
        remaining = ctx.retry_budget_remaining()
        if (
            policy is not None
            and remaining is not None
            and remaining <= policy.emergency_threshold()
        ):
            # Budget nearly gone: stop gambling bytes on high rungs.
            self.emergency_engaged = True
            index = 0
        allowed = self._allowed_indices(ctx)
        if not allowed:
            # Unreachable while _allowed_indices keeps its never-empty
            # guarantee; fail loudly (not IndexError below) if a
            # subclass override breaks it.
            raise PlayerError(
                "circuit breaker ejected every combination including the "
                "emergency rung; _allowed_indices must never return empty"
            )
        if index in allowed:
            return index
        lower = [i for i in allowed if i < index]
        return max(lower) if lower else min(allowed)

    def _selection_at(self, position: int, ctx) -> Combination:
        if position not in self._selection_for_position:
            index = self._degrade(self._adapt(ctx, position), ctx)
            self._selection_for_position[position] = self.combinations[index]
        return self._selection_for_position[position]

    # -- scheduling ----------------------------------------------------------

    def choose_next(self, medium: MediaType, ctx) -> Decision:
        if self.balanced:
            gate = self._balancer.gate(medium, ctx)
            if gate is not None:
                return gate
        buffer_gate = self.buffer_gate(ctx, medium, self.buffer_target_s)
        if buffer_gate is not None:
            return buffer_gate
        position = ctx.next_chunk_index(medium)
        combo = self._selection_at(position, ctx)
        if medium is MediaType.VIDEO:
            return download_for(combo.video.track_id)
        return download_for(combo.audio.track_id)

    def on_chunk_complete(self, record: DownloadRecord, ctx) -> None:
        self._estimator.observe_download(record)
        self._breaker.record_success(record.track_id)

    def on_failure(self, medium: MediaType, failure, ctx) -> None:
        """Classified-failure reaction: breaker bookkeeping + downshift.

        Every failure counts against the failing track's circuit; a 404
        counts double (the resource is *missing* — hammering it again is
        strictly pointless, unlike a reset that may be transient).

        Then the working point backs off one rung for what follows. The
        failed position itself is retried as selected — its pair is
        normally already locked by the companion medium under balanced
        scheduling, and changing only one side would leave a combination
        outside the allowed set. Instead the *working point* steps down
        one rung (so subsequent positions are decided a rung lower) and
        any pending up-switch is cancelled: a reset mid-chunk is weak
        evidence of congestion, and re-climbing immediately into the
        same weather is how retry storms happen. If the companion has
        not touched the failed position yet, the position itself is
        downgraded too.

        Finally, if the breaker just ejected the track this position
        had selected — and the pair is not yet locked by the companion
        medium — the position is re-pointed at the best still-allowed
        cheaper combination.
        """
        from .balancer import other_medium

        weight = 2 if failure.kind == "http_404" else 1
        if self._breaker.record_failure(failure.track_id, ctx.now, weight=weight):
            self.circuit_trips += 1
        position = failure.chunk_index
        current = self._selection_for_position.get(position)
        if current is None:
            return
        locked = self._pair_locked(other_medium(medium), position, ctx)
        rung = next(
            (i for i, combo in enumerate(self.combinations) if combo is current),
            0,
        )
        if rung > 0:
            self._current_index = min(self._current_index, rung - 1)
            self.failure_downshifts += 1
            if not locked:
                rung -= 1
                current = self.combinations[rung]
                self._selection_for_position[position] = current
        self._pending_up = None
        self._pending_up_count = 0
        open_keys = self._breaker.open_keys(ctx.now)
        if locked or (
            current.video.track_id not in open_keys
            and current.audio.track_id not in open_keys
        ):
            return
        allowed = self._allowed_indices(ctx)
        lower = [i for i in allowed if i < rung]
        fallback = max(lower) if lower else min(allowed)
        self._selection_for_position[position] = self.combinations[fallback]

    @staticmethod
    def _pair_locked(companion: MediaType, position: int, ctx) -> bool:
        """Has the companion medium already fetched or started ``position``?"""
        companion_inflight = ctx.in_flight(companion)
        return ctx.completed_chunks(companion) > position or (
            companion_inflight is not None
            and companion_inflight.chunk_index == position
        )

    # -- abandonment -----------------------------------------------------------

    def consider_abort(self, medium: MediaType, download, ctx) -> bool:
        if not self.abandonment:
            return False
        elapsed = ctx.now - download.started_at
        if elapsed < self.abandon_grace_s or download.bits_done <= 0:
            return False
        position = download.chunk_index
        current = self._selection_for_position.get(position)
        if current is None or current is self.combinations[0]:
            return False  # nothing cheaper to fall back to
        measured_kbps = download.bits_done / elapsed / 1000.0
        remaining_s = download.remaining_bits / (measured_kbps * 1000.0)
        buffered = ctx.buffer_level_s(medium)
        # Abort only when finishing the chunk would outlast the buffer
        # by a margin (half a chunk) — a plain slow chunk is not worth
        # the wasted bytes.
        if remaining_s <= buffered + 0.5 * ctx.chunk_duration_s:
            return False
        # Re-price the position at the measured rate and drop to it.
        budget = measured_kbps * self.safety_factor
        fallback = self._ideal_index(budget, position)
        current_rung = next(
            i for i, combo in enumerate(self.combinations) if combo is current
        )
        if fallback >= current_rung:
            fallback = current_rung - 1
        self._current_index = fallback
        self._pending_up = None
        self._pending_up_count = 0
        self._selection_for_position[position] = self.combinations[fallback]
        return True
