"""Track and ladder models for demuxed ABR content.

A *track* (called a Representation in DASH and a rendition in HLS) is one
encoded version of the audio or the video component of a title. A
*ladder* is the ordered set of tracks for one medium. The paper's
Table 1 is expressed with these types in :mod:`repro.media.content`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import MediaError


class MediaType(enum.Enum):
    """The medium a track carries."""

    AUDIO = "audio"
    VIDEO = "video"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Track:
    """One encoded audio or video track.

    Parameters mirror the columns of the paper's Table 1:

    :param track_id: short identifier, e.g. ``"V3"`` or ``"A1"``.
    :param media_type: :class:`MediaType.AUDIO` or :class:`MediaType.VIDEO`.
    :param avg_kbps: average bitrate over the whole title.
    :param peak_kbps: peak (maximum chunk) bitrate.
    :param declared_kbps: the bitrate declared in a DASH manifest's
        ``bandwidth`` attribute. The paper's Table 1 shows this is the
        average bitrate for audio/low video rungs but sits between the
        average and the peak for the VBR-encoded higher video rungs.
    :param height: video resolution height in lines (video tracks only).
    :param channels: audio channel count (audio tracks only).
    :param sampling_khz: audio sampling rate in kHz (audio tracks only).
    """

    track_id: str
    media_type: MediaType
    avg_kbps: float
    peak_kbps: float
    declared_kbps: Optional[float] = None
    height: Optional[int] = None
    channels: Optional[int] = None
    sampling_khz: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.track_id:
            raise MediaError("track_id must be non-empty")
        if self.avg_kbps <= 0:
            raise MediaError(
                f"track {self.track_id}: avg_kbps must be positive, got {self.avg_kbps}"
            )
        if self.peak_kbps < self.avg_kbps:
            raise MediaError(
                f"track {self.track_id}: peak_kbps ({self.peak_kbps}) must be >= "
                f"avg_kbps ({self.avg_kbps})"
            )
        if self.declared_kbps is None:
            # Services commonly declare the average bitrate when no better
            # value is provisioned; Table 1 does exactly this for audio.
            object.__setattr__(self, "declared_kbps", self.avg_kbps)
        if self.declared_kbps <= 0:
            raise MediaError(
                f"track {self.track_id}: declared_kbps must be positive, "
                f"got {self.declared_kbps}"
            )

    def __hash__(self) -> int:
        # Only fields that hash alike in every process: before Python
        # 3.12 ``hash(None)`` follows the object's address, so hashing
        # the ``Optional`` fields would order a set of tracks (or of
        # combinations) differently from process to process.
        return hash((self.track_id, self.media_type))

    @property
    def is_audio(self) -> bool:
        return self.media_type is MediaType.AUDIO

    @property
    def is_video(self) -> bool:
        return self.media_type is MediaType.VIDEO

    def describe(self) -> str:
        """One-line human-readable description, Table-1 style."""
        parts = [
            f"{self.track_id}",
            f"avg {self.avg_kbps:g} kbps",
            f"peak {self.peak_kbps:g} kbps",
            f"declared {self.declared_kbps:g} kbps",
        ]
        if self.is_video and self.height is not None:
            parts.append(f"{self.height}p")
        if self.is_audio and self.channels is not None:
            parts.append(f"{self.channels} ch")
        if self.is_audio and self.sampling_khz is not None:
            parts.append(f"{self.sampling_khz:g} kHz")
        return ", ".join(parts)


def audio_track(
    track_id: str,
    avg_kbps: float,
    peak_kbps: Optional[float] = None,
    declared_kbps: Optional[float] = None,
    channels: int = 2,
    sampling_khz: float = 44.0,
) -> Track:
    """Convenience constructor for an audio :class:`Track`.

    Audio encodings are near-CBR, so ``peak_kbps`` defaults to a few
    percent above the average (Table 1 shows peaks 2-5% over average).
    """
    if peak_kbps is None:
        peak_kbps = round(avg_kbps * 1.03, 3)
    return Track(
        track_id=track_id,
        media_type=MediaType.AUDIO,
        avg_kbps=avg_kbps,
        peak_kbps=peak_kbps,
        declared_kbps=declared_kbps,
        channels=channels,
        sampling_khz=sampling_khz,
    )


def video_track(
    track_id: str,
    avg_kbps: float,
    peak_kbps: float,
    declared_kbps: Optional[float] = None,
    height: Optional[int] = None,
) -> Track:
    """Convenience constructor for a video :class:`Track`."""
    return Track(
        track_id=track_id,
        media_type=MediaType.VIDEO,
        avg_kbps=avg_kbps,
        peak_kbps=peak_kbps,
        declared_kbps=declared_kbps,
        height=height,
    )


@dataclass(frozen=True)
class Ladder:
    """An ordered set of tracks of one medium, lowest bitrate first.

    The order is by declared bitrate, which is the order players use
    when reasoning about upgrade/downgrade steps.
    """

    media_type: MediaType
    tracks: Tuple[Track, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.tracks:
            raise MediaError(f"{self.media_type} ladder must contain at least one track")
        seen = set()
        for track in self.tracks:
            if track.media_type is not self.media_type:
                raise MediaError(
                    f"ladder of {self.media_type} contains {track.media_type} "
                    f"track {track.track_id}"
                )
            if track.track_id in seen:
                raise MediaError(f"duplicate track id {track.track_id!r} in ladder")
            seen.add(track.track_id)
        declared = [t.declared_kbps for t in self.tracks]
        if declared != sorted(declared):
            raise MediaError(
                f"{self.media_type} ladder must be sorted by declared bitrate, "
                f"got {declared}"
            )

    def __len__(self) -> int:
        return len(self.tracks)

    def __iter__(self) -> Iterator[Track]:
        return iter(self.tracks)

    def __getitem__(self, index: int) -> Track:
        return self.tracks[index]

    @property
    def track_ids(self) -> Tuple[str, ...]:
        return tuple(t.track_id for t in self.tracks)

    @property
    def lowest(self) -> Track:
        return self.tracks[0]

    @property
    def highest(self) -> Track:
        return self.tracks[-1]

    def index_of(self, track_id: str) -> int:
        """Rung index (0 = lowest) of ``track_id``."""
        for i, track in enumerate(self.tracks):
            if track.track_id == track_id:
                return i
        raise MediaError(f"no track {track_id!r} in {self.media_type} ladder")

    def by_id(self, track_id: str) -> Track:
        return self.tracks[self.index_of(track_id)]


def make_ladder(media_type: MediaType, tracks: Sequence[Track]) -> Ladder:
    """Build a :class:`Ladder`, sorting the tracks by declared bitrate."""
    ordered = tuple(sorted(tracks, key=lambda t: (t.declared_kbps, t.avg_kbps)))
    return Ladder(media_type=media_type, tracks=ordered)
