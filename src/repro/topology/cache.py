"""Deterministic LRU chunk cache for one simulated edge.

Hit/miss dynamics are driven by the *actual* chunk request stream the
cohort's sessions emit — which is what makes an eviction storm hurt:
the post-flush misses arrive exactly when a crowd is re-requesting the
same popular rungs. The cache is the simulator's one
:class:`~repro.net.server.LruCache` with every chunk admitted at size
1, so capacity counts chunks. Keys are plain tuples, so identical
request streams produce identical hit/miss sequences in any process.
"""

from __future__ import annotations

from typing import Tuple

from ..net.server import LruCache

#: A cached object: (track id, chunk index).
ChunkAddress = Tuple[str, int]


class EdgeCache(LruCache):
    """Bounded LRU over chunk addresses with hit/miss/eviction counters.

    ``capacity_chunks=0`` disables caching entirely: every lookup is a
    miss and nothing is admitted (an edge reduced to a dumb proxy).
    """

    __slots__ = ()

    def __init__(self, capacity_chunks: int):
        if capacity_chunks < 0:
            raise ValueError(
                f"cache capacity must be >= 0 chunks, got {capacity_chunks}"
            )
        super().__init__(capacity_chunks)
