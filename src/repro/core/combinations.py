"""Audio+video combination machinery.

A *combination* pairs one video track with one audio track for the same
chunk position — exactly what an HLS ``EXT-X-STREAM-INF`` variant
declares. The paper's Tables 2 and 3 enumerate combinations of the
Table-1 ladder; this module builds those sets and provides the curation
primitives recommended in Section 4.1 ("the content provider should
identify desirable combinations ... and specify these combinations in
the manifest file").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import MediaError
from ..media.content import Content
from ..media.tracks import Ladder, Track


@dataclass(frozen=True)
class Combination:
    """One (video track, audio track) pair.

    Aggregate bitrates follow the paper's Appendix A: "the peak bitrate
    is the sum of the peak bitrates of the audio and video tracks; the
    average bitrate is sum of their average bitrates."
    """

    video: Track
    audio: Track

    def __post_init__(self) -> None:
        if not self.video.is_video:
            raise MediaError(f"{self.video.track_id} is not a video track")
        if not self.audio.is_audio:
            raise MediaError(f"{self.audio.track_id} is not an audio track")

    @property
    def name(self) -> str:
        """Paper-style name, e.g. ``"V3+A2"``."""
        return f"{self.video.track_id}+{self.audio.track_id}"

    @property
    def avg_kbps(self) -> float:
        return self.video.avg_kbps + self.audio.avg_kbps

    @property
    def peak_kbps(self) -> float:
        return self.video.peak_kbps + self.audio.peak_kbps

    @property
    def declared_kbps(self) -> float:
        """Sum of declared per-track bitrates (the DASH view of the pair)."""
        return self.video.declared_kbps + self.audio.declared_kbps

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class CombinationSet:
    """An ordered set of allowed combinations for one title.

    The order is by aggregate peak bitrate (the order of Table 2), which
    is also the order a rate-based player steps through.
    """

    def __init__(self, combinations: Iterable[Combination]):
        items = list(combinations)
        if not items:
            raise MediaError("combination set must not be empty")
        names = [c.name for c in items]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise MediaError(f"duplicate combinations: {dupes}")
        self._items: Tuple[Combination, ...] = tuple(
            sorted(items, key=lambda c: (c.peak_kbps, c.avg_kbps, c.name))
        )

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, index: int) -> Combination:
        return self._items[index]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Combination):
            return item.name in self.names
        if isinstance(item, str):
            return item in self.names
        return False

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._items)

    @property
    def lowest(self) -> Combination:
        return self._items[0]

    @property
    def highest(self) -> Combination:
        return self._items[-1]

    def by_name(self, name: str) -> Combination:
        for combo in self._items:
            if combo.name == name:
                return combo
        raise MediaError(f"no combination {name!r} in set")

    def video_tracks(self) -> Tuple[Track, ...]:
        """Distinct video tracks, in ladder order of first appearance."""
        seen: List[Track] = []
        for combo in self._items:
            if all(t.track_id != combo.video.track_id for t in seen):
                seen.append(combo.video)
        return tuple(seen)

    def audio_tracks(self) -> Tuple[Track, ...]:
        """Distinct audio tracks, in order of first appearance."""
        seen: List[Track] = []
        for combo in self._items:
            if all(t.track_id != combo.audio.track_id for t in seen):
                seen.append(combo.audio)
        return tuple(seen)

    def rows(self, include_declared: bool = False) -> List[Tuple]:
        """Table rows (name, avg, peak[, declared]) as in Tables 2/3."""
        if include_declared:
            return [
                (c.name, round(c.avg_kbps), round(c.peak_kbps), round(c.declared_kbps))
                for c in self._items
            ]
        return [(c.name, round(c.avg_kbps), round(c.peak_kbps)) for c in self._items]


def all_combinations(content: Content) -> CombinationSet:
    """Every video x audio pair — the paper's H_all manifest (Table 2)."""
    return CombinationSet(
        Combination(video=v, audio=a) for v in content.video for a in content.audio
    )


#: The curated subset used by the paper's H_sub manifest (Table 3):
#: "V1+A1, V2+A1, V3+A2, V4+A2, V5+A3, V6+A3, where high quality video
#: tracks are associated with high audio quality tracks".
HSUB_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("V1", "A1"),
    ("V2", "A1"),
    ("V3", "A2"),
    ("V4", "A2"),
    ("V5", "A3"),
    ("V6", "A3"),
)


def hsub_combinations(content: Content) -> CombinationSet:
    """The paper's H_sub curated subset of six combinations (Table 3)."""
    return combinations_from_pairs(content, HSUB_PAIRS)


def combinations_from_pairs(
    content: Content, pairs: Sequence[Tuple[str, str]]
) -> CombinationSet:
    """Build a set from explicit (video_id, audio_id) pairs."""
    return CombinationSet(
        Combination(video=content.video.by_id(v), audio=content.audio.by_id(a))
        for v, a in pairs
    )


def proportional_pairing(
    video: Ladder,
    audio: Ladder,
    audio_bias: float = 0.0,
) -> List[Tuple[str, str]]:
    """Pair each video rung with an audio rung by relative ladder position.

    This is the generic curation heuristic behind sets like H_sub: the
    i-th of M video rungs is paired with the audio rung at the same
    relative position in the N-rung audio ladder.

    :param audio_bias: shifts the pairing toward higher (+) or lower (-)
        audio quality; expressed as a fraction of the audio ladder. The
        paper motivates this with content type: "for music shows, the
        sound quality may be relatively more important than video
        quality" (Section 2.1). ``+0.5`` pairs music-show audio half a
        ladder higher; action content would use a negative bias.
    """
    m, n = len(video), len(audio)
    pairs: List[Tuple[str, str]] = []
    for i, vtrack in enumerate(video):
        position = i / (m - 1) if m > 1 else 1.0
        j = round(position * (n - 1) + audio_bias * (n - 1))
        j = min(max(j, 0), n - 1)
        pairs.append((vtrack.track_id, audio[j].track_id))
    return pairs


def curated_combinations(
    content: Content,
    audio_bias: float = 0.0,
    name_filter: Optional[Sequence[str]] = None,
) -> CombinationSet:
    """Server-side curation per Section 4.1.

    Builds one combination per video rung via :func:`proportional_pairing`
    (optionally biased by content type), then applies an explicit
    allow-list if the content provider supplies one.
    """
    pairs = proportional_pairing(content.video, content.audio, audio_bias)
    combos = combinations_from_pairs(content, pairs)
    if name_filter is not None:
        allowed = [c for c in combos if c.name in set(name_filter)]
        if not allowed:
            raise MediaError("name_filter excluded every curated combination")
        combos = CombinationSet(allowed)
    return combos
