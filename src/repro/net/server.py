"""Origin server and CDN cache models.

These back the paper's Section-1 motivation for demuxed delivery:

* storage — "the server only needs to store M video and N audio tracks
  for the demuxed mode, while it has to store a much larger set of M x N
  muxed tracks";
* CDN efficiency — "the demuxed mode increases CDN cache hits" because a
  video chunk cached for one user serves any user regardless of the
  audio track they pair with it.

:class:`CdnCache` is a byte-capacity cache over :class:`LruCache`, the
simulator's one chunk LRU (the cohort's per-edge
:class:`~repro.topology.cache.EdgeCache` is the same LRU counting
chunks); :class:`OriginServer` serves chunk objects in either muxed or
demuxed naming. The ``examples/cdn_cache_study.py`` script and the
Fig.-1 benchmark quantify the effect on the Table-1 title.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..errors import MediaError
from ..media.content import Content


@dataclass(frozen=True)
class ChunkKey:
    """Cache key for one stored chunk object.

    In demuxed mode the key names a single track; in muxed mode it names
    a (video, audio) pair, because each muxed object embeds both.
    """

    title: str
    track_ids: Tuple[str, ...]
    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.title}/{'+'.join(self.track_ids)}/{self.index}"


@dataclass
class TransferStats:
    """Byte accounting for one tier (origin or CDN)."""

    requests: int = 0
    hits: int = 0
    bits_served: float = 0.0

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class OriginServer:
    """Holds a title's chunks, in demuxed or muxed packaging."""

    def __init__(self, content: Content, muxed: bool = False):
        self.content = content
        self.muxed = muxed
        self.stats = TransferStats()

    def storage_bits(self) -> float:
        if self.muxed:
            return self.content.storage_bits_muxed()
        return self.content.storage_bits_demuxed()

    def chunk_key(
        self, video_id: Optional[str], audio_id: Optional[str], index: int
    ) -> Tuple[ChunkKey, ...]:
        """The object keys a client must fetch for one playback position.

        Demuxed: two objects (one per track). Muxed: one combined object.
        """
        if self.muxed:
            if video_id is None or audio_id is None:
                raise MediaError("muxed fetch needs both a video and an audio track")
            return (ChunkKey(self.content.name, (video_id, audio_id), index),)
        keys = []
        if video_id is not None:
            keys.append(ChunkKey(self.content.name, (video_id,), index))
        if audio_id is not None:
            keys.append(ChunkKey(self.content.name, (audio_id,), index))
        if not keys:
            raise MediaError("fetch needs at least one track")
        return tuple(keys)

    def size_bits(self, key: ChunkKey) -> float:
        return sum(
            self.content.chunk(track_id, key.index).size_bits
            for track_id in key.track_ids
        )

    def serve(self, key: ChunkKey) -> float:
        """Serve one object from origin; returns its size in bits."""
        size = self.size_bits(key)
        self.stats.requests += 1
        self.stats.bits_served += size
        return size


class LruCache:
    """Size-weighted LRU with hit/miss/eviction counters.

    Admitting an object evicts least-recently-used entries until it
    fits; an object larger than the whole capacity is never admitted
    (so a zero capacity caches nothing). The default size of 1 makes
    capacity a plain object count. Insertion and recency order are the
    only state, so identical request streams produce identical hit/miss
    sequences in any process.
    """

    __slots__ = ("capacity", "used", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: float):
        self.capacity = capacity
        self.used = 0
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[float]:
        """The cached object's size (touching its recency), or ``None``."""
        size = self._entries.get(key)
        if size is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return size

    def admit(self, key: Hashable, size: float = 1) -> None:
        """Insert after a fetch from upstream, evicting LRU entries first."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        if size > self.capacity:
            return
        while self.used + size > self.capacity and entries:
            _, evicted = entries.popitem(last=False)
            self.used -= evicted
            self.evictions += 1
        entries[key] = size
        self.used += size

    def flush(self) -> int:
        """Drop everything (an eviction storm); returns the entries lost."""
        dropped = len(self._entries)
        self._entries.clear()
        self.used = 0
        self.evictions += dropped
        return dropped


class CdnCache(LruCache):
    """A byte-capacity LRU cache in front of an origin server."""

    __slots__ = ("origin", "stats")

    def __init__(self, origin: OriginServer, capacity_bits: float):
        if capacity_bits <= 0:
            raise MediaError(f"cache capacity must be positive, got {capacity_bits}")
        super().__init__(capacity_bits)
        self.origin = origin
        self.stats = TransferStats()

    @property
    def used_bits(self) -> float:
        return self.used

    def fetch(self, key: ChunkKey) -> Tuple[float, bool]:
        """Fetch one object through the cache.

        Returns ``(size_bits, was_hit)``. Misses are pulled from origin
        and inserted (objects larger than the whole cache bypass it).
        """
        self.stats.requests += 1
        size = self.lookup(key)
        if size is not None:
            self.stats.hits += 1
            self.stats.bits_served += size
            return size, True
        size = self.origin.serve(key)
        self.stats.bits_served += size
        self.admit(key, size)
        return size, False

    def fetch_position(
        self, video_id: Optional[str], audio_id: Optional[str], index: int
    ) -> Dict[str, float]:
        """Fetch all objects for one playback position.

        Returns ``{"bits": total, "hit_bits": from cache, "origin_bits":
        from origin}`` — the quantities the demuxed-vs-muxed comparison
        cares about.
        """
        total = hit_bits = origin_bits = 0.0
        for key in self.origin.chunk_key(video_id, audio_id, index):
            size, was_hit = self.fetch(key)
            total += size
            if was_hit:
                hit_bits += size
            else:
                origin_bits += size
        return {"bits": total, "hit_bits": hit_bits, "origin_bits": origin_bits}
