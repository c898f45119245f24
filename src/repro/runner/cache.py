"""Content-addressed on-disk cache of simulated session results.

Entries live under ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the
job's sha256 spec hash (:meth:`repro.runner.jobs.SimulationJob.key`).
Values are pickled :class:`~repro.sim.records.SessionResult` objects,
so a hit replays the original run *bit-identically* — every float,
record and timeline survives the round trip, which is what lets a
cached experiment produce byte-equal report rows. The records inside
pickle as their class and field values (see
:mod:`repro.sim.records`); entries written when they pickled through
the dataclass ``__getstate__`` still load, through ``__setstate__``.

The cache is safe to share between concurrent runs: writes go through
a per-process temp file and an atomic :func:`os.replace`, and a
corrupt entry is treated as a miss and evicted rather than raised.
Every entry is framed (magic, payload length, CRC32) so the cache can
tell *truncation* — a worker killed mid-write before the rename, or a
torn entry from a full disk — apart from garbage, and account for each
separately (``truncated`` vs ``evictions`` stats). Both recover the
same way: evict and re-simulate.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Optional

# Entry framing (magic, 8-byte big-endian payload length, CRC32 of the
# payload, then the pickled payload) lives in :mod:`repro.framing`,
# shared with the replay event logs; re-exported here because tests and
# the chaos injector historically import it from the cache module.
from ..framing import (  # noqa: F401  (re-exports)
    ENTRY_HEADER_SIZE as HEADER_SIZE,
    ENTRY_MAGIC,
    TRUNCATED,
    frame_payload,
    unframe_payload,
)
from ..sim.records import SessionResult

DEFAULT_CACHE_DIR = ".repro-cache"


def _cacheable_types() -> tuple:
    """What a CRC-valid entry may deserialize to. Anything else is a
    stale class layout or a hostile write: evicted, never returned.

    Resolved lazily: ``sim.cohort`` reaches back into ``runner`` (via
    ``topology.jobs``), so a top-level import here would cycle.
    """
    from ..sim.cohort import CohortResult

    return (SessionResult, CohortResult)


@dataclass
class CacheStats:
    """Hit/miss/byte counters for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    evictions: int = 0
    truncated: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "evictions": self.evictions,
            "truncated": self.truncated,
        }


class ResultCache:
    """Pickle-backed result store keyed by job spec hash."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    def _evict(self, path: str, truncated: bool = False) -> None:
        self.stats.misses += 1
        self.stats.evictions += 1
        if truncated:
            self.stats.truncated += 1
        try:
            os.remove(path)
        except OSError:
            pass

    def get(self, key: str) -> Optional[SessionResult]:
        """The cached result for ``key``, or ``None`` (counted a miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self._evict(path)
            return None
        payload, kind = unframe_payload(data)
        if payload is None:
            self._evict(path, truncated=kind == TRUNCATED)
            return None
        try:
            result = pickle.loads(payload)
        except Exception:
            # A CRC-valid frame whose pickle still fails means a stale
            # class layout (or a hostile write): corrupt, not truncated.
            self._evict(path)
            return None
        if not isinstance(result, _cacheable_types()):
            self._evict(path)
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(data)
        return result

    def put(self, key: str, result: SessionResult) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        framed = frame_payload(payload)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(framed)
        os.replace(tmp, path)
        self.stats.bytes_written += len(framed)

    def write_torn(self, key: str, fraction: float = 0.5) -> str:
        """Write a deliberately truncated entry straight to the final
        path — the failure a worker killed mid-write (or a full disk)
        leaves behind. The chaos injector's ``truncate`` fault and the
        regression tests use this; production writes never bypass the
        temp-file/rename protocol.
        """
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = pickle.dumps(("torn-entry", key), protocol=pickle.HIGHEST_PROTOCOL)
        framed = frame_payload(payload)
        cut = max(1, int(len(framed) * fraction))
        with open(path, "wb") as f:
            f.write(framed[:cut])
        return path

    def entry_count(self) -> int:
        """How many entries are currently on disk (resume accounting)."""
        count = 0
        if not os.path.isdir(self.root):
            return count
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            count += sum(1 for n in os.listdir(shard_dir) if n.endswith(".pkl"))
        return count

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(".pkl"):
                    try:
                        os.remove(os.path.join(shard_dir, name))
                        removed += 1
                    except OSError:
                        pass
        return removed
