"""Download abandonment (the AbandonRequestsRule analogue)."""

import pytest

from repro.core.combinations import hsub_combinations
from repro.core.player import RecommendedPlayer
from repro.errors import PlayerError
from repro.media.content import drama_show
from repro.media.tracks import MediaType
from repro.net.link import shared
from repro.net.traces import constant, from_pairs
from repro.players.base import BasePlayer
from repro.players.fixed import FixedTracksPlayer
from repro.sim.decisions import Download
from repro.sim.session import simulate

V = MediaType.VIDEO

#: A link that is generous for a minute, then crashes hard: exactly the
#: situation where a big in-flight chunk should be abandoned.
def crash_trace():
    return from_pairs([(60, 3000.0), (600, 120.0)], loop=False)


class TestAbandonmentBehaviour:
    def test_aborts_on_bandwidth_crash(self, content, hsub_combos):
        player = RecommendedPlayer(hsub_combos, abandonment=True)
        result = simulate(content, player, shared(crash_trace()))
        assert result.completed
        assert len(result.aborts) >= 1
        # Every abort happened after the crash and fell back downward.
        for abort in result.aborts:
            assert abort.aborted_at >= 60.0

    def test_no_aborts_on_steady_links(self, content, hsub_combos):
        for kbps in (500.0, 900.0, 2500.0):
            player = RecommendedPlayer(hsub_combos, abandonment=True)
            result = simulate(content, player, shared(constant(kbps)))
            assert result.aborts == [], kbps

    def test_disabled_by_default(self, content, hsub_combos):
        player = RecommendedPlayer(hsub_combos)
        result = simulate(content, player, shared(crash_trace()))
        assert result.aborts == []

    def test_abandonment_reduces_rebuffering(self, content, hsub_combos):
        with_abort = simulate(
            content,
            RecommendedPlayer(hsub_combos, abandonment=True),
            shared(crash_trace()),
        )
        without_abort = simulate(
            content,
            RecommendedPlayer(hsub_combos),
            shared(crash_trace()),
        )
        assert with_abort.total_rebuffer_s <= without_abort.total_rebuffer_s

    def test_wasted_bits_accounted(self, content, hsub_combos):
        player = RecommendedPlayer(hsub_combos, abandonment=True)
        result = simulate(content, player, shared(crash_trace()))
        if result.aborts:
            assert result.wasted_bits > 0
            for abort in result.aborts:
                assert 0 < abort.wasted_fraction < 1

    def test_aborted_chunk_is_refetched_cheaper(self, content, hsub_combos):
        player = RecommendedPlayer(hsub_combos, abandonment=True)
        result = simulate(content, player, shared(crash_trace()))
        by_index = {
            record.chunk_index: record.track_id
            for record in result.downloads_of(V)
        }
        ladder_rank = {t.track_id: i for i, t in enumerate(content.video)}
        for abort in result.aborts:
            if abort.medium is not V:
                continue
            final_track = by_index[abort.chunk_index]
            assert ladder_rank[final_track] < ladder_rank[abort.track_id]


class _AbortLoopPlayer(BasePlayer):
    """Pathological player: aborts everything, re-requests the same track."""

    def choose_next(self, medium, ctx):
        return Download(track_id="V1" if medium is V else "A1")

    def consider_abort(self, medium, download, ctx):
        return download.bits_done > 0


class TestAbortLoopGuard:
    def test_runaway_abort_loop_is_detected(self):
        from repro.media.content import synthetic_content

        content = synthetic_content("tiny", [100], [48], n_chunks=2)
        # Aborts are evaluated at event boundaries; a trace with a
        # breakpoint every 0.2 s guarantees mid-download events, so the
        # pathological player re-aborts the same chunk until the guard
        # trips.
        choppy = from_pairs([(0.2, 500.0), (0.2, 499.0)])
        with pytest.raises(PlayerError):
            simulate(content, _AbortLoopPlayer(), shared(choppy))


class TestNonAbortingPlayersUnaffected:
    def test_fixed_player_never_aborts(self, content):
        result = simulate(
            content, FixedTracksPlayer("V2", "A1"), shared(crash_trace())
        )
        assert result.aborts == []
