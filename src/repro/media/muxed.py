"""Muxed-delivery modelling.

The paper's baseline alternative (Section 1): "a video track and its
corresponding audio can be combined together as a single multiplexed
track, where each chunk in the track contains the associated video and
audio content." To stream muxed variants through the same simulator,
:func:`muxed_content` re-expresses a title as a Content whose *video*
ladder is the muxed variant ladder (per-chunk sizes are the sums of the
constituent video and audio chunks) and whose audio ladder is a single
negligible *marker* track (a few bytes per chunk) that satisfies the
two-medium playback contract without influencing timing, estimation or
adaptation.

This makes the muxed-vs-demuxed comparison an apples-to-apples
experiment: the same players, the same simulator, only the packaging
differs. The muxed mode's structural drawback is directly observable —
every quality adaptation necessarily switches the *audio* too, because
audio is fused into the variant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.combinations import CombinationSet, all_combinations
from ..errors import MediaError
from .chunks import ChunkTable
from .content import Content
from .tracks import MediaType, Track, audio_track, make_ladder

#: The marker audio track id used in muxed mode.
MUX_MARKER_ID = "MUX"
#: Marker bitrate: 0.01 kbps = ~6 bytes per 5 s chunk. Negligible.
MUX_MARKER_KBPS = 0.01


def muxed_track_id(video_id: str, audio_id: str) -> str:
    return f"{video_id}+{audio_id}"


def demux_ids(muxed_id: str) -> Tuple[str, str]:
    """Recover the constituent (video_id, audio_id) of a muxed track."""
    if "+" not in muxed_id:
        raise MediaError(f"{muxed_id!r} is not a muxed track id")
    video_id, audio_id = muxed_id.split("+", 1)
    return video_id, audio_id


def muxed_content(
    content: Content,
    combinations: Optional[CombinationSet] = None,
    name: Optional[str] = None,
) -> Content:
    """Re-package a demuxed title as muxed variants.

    :param combinations: the muxed variants the origin stores (each one
        costs full video+audio storage). Defaults to every combination —
        the paper's M x N worst case.
    """
    combos = combinations if combinations is not None else all_combinations(content)
    tracks: List[Track] = []
    sizes: Dict[str, List[float]] = {}
    for combo in combos:
        track_id = muxed_track_id(combo.video.track_id, combo.audio.track_id)
        tracks.append(
            Track(
                track_id=track_id,
                media_type=MediaType.VIDEO,
                avg_kbps=combo.avg_kbps,
                peak_kbps=combo.peak_kbps,
                declared_kbps=combo.declared_kbps,
                height=combo.video.height,
            )
        )
        video_sizes = content.chunk_table.sizes(combo.video.track_id)
        audio_sizes = content.chunk_table.sizes(combo.audio.track_id)
        sizes[track_id] = [v + a for v, a in zip(video_sizes, audio_sizes)]

    marker = audio_track(
        MUX_MARKER_ID, MUX_MARKER_KBPS, MUX_MARKER_KBPS, channels=0 or None
    )
    marker_bits = MUX_MARKER_KBPS * 1000.0 * content.chunk_duration_s
    sizes[MUX_MARKER_ID] = [marker_bits] * content.n_chunks

    # Muxed variants must be strictly orderable by declared bitrate for
    # ladder purposes; ties (possible with synthetic ladders) are not —
    # they would also be indistinguishable to a player, so reject them.
    declared = [t.declared_kbps for t in tracks]
    if len(set(declared)) != len(declared):
        raise MediaError("muxed variants have duplicate declared bitrates")

    return Content(
        name=name or f"{content.name}-muxed",
        video=make_ladder(MediaType.VIDEO, tracks),
        audio=make_ladder(MediaType.AUDIO, [marker]),
        chunk_table=ChunkTable(
            duration_s=content.chunk_duration_s, sizes_bits=sizes
        ),
    )


def muxed_selection_pairs(result) -> List[Tuple[str, str]]:
    """Per-position (video_id, audio_id) implied by muxed selections."""
    pairs: List[Tuple[str, str]] = []
    for _, muxed_id, _marker in result.selected_combinations():
        if muxed_id is not None:
            pairs.append(demux_ids(muxed_id))
    return pairs
