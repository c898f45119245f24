"""Decision types a player returns from ``choose_next``."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import PlayerError


@dataclass(frozen=True)
class Download:
    """Fetch the next chunk of this medium from ``track_id``."""

    track_id: str

    def __post_init__(self) -> None:
        if not self.track_id:
            raise PlayerError("Download decision needs a track id")


@dataclass(frozen=True)
class Wait:
    """Do not fetch now; re-ask at ``until`` (or at the next event).

    ``until=inf`` means "poll me again whenever anything else happens"
    — used when the player is blocked on another medium's progress
    rather than on time (e.g. ExoPlayer's per-chunk A/V locking).
    """

    until: float = math.inf

    def __post_init__(self) -> None:
        if not self.until == self.until:  # NaN guard
            raise PlayerError("Wait.until must not be NaN")


Decision = object  # Download | Wait (typing.Union kept loose for 3.9)

#: Shared "blocked on another medium, re-poll at the next event"
#: decision. Both decision types are frozen, so hot players return the
#: same instance instead of constructing one per poll.
WAIT_FOREVER = Wait()

_DOWNLOAD_CACHE: dict = {}


def download_for(track_id: str) -> Download:
    """A (shared, frozen) :class:`Download` decision for ``track_id``.

    Players issue the same few decisions tens of thousands of times per
    session sweep; interning them removes the per-poll construction.
    """
    decision = _DOWNLOAD_CACHE.get(track_id)
    if decision is None:
        # Intern cache: the value is a pure function of the key, so
        # each worker rebuilding its own copy is correct by design.
        decision = _DOWNLOAD_CACHE[track_id] = Download(track_id=track_id)
    return decision
