"""Unit conventions and conversion helpers.

The whole library sticks to one set of units so that quantities can be
combined without ambiguity:

* **time** — seconds (``float``)
* **bitrate** — kilobits per second, *kbps* (``float``); this matches the
  units used throughout the paper (Table 1 declares bitrates in Kbps)
* **data size** — bits (``float``); helpers convert to/from bytes,
  kilobytes and megabits where external interfaces (e.g. Shaka's 16 KB
  sample filter) are specified in other units

Identifiers name their unit with a suffix (``buffer_s``,
``ladder_kbps``, ``size_bits``, ``length_bytes``), so a mix shows at the
call site and a conversion goes through the helpers below.

Sizes are floats rather than ints because they are produced by
integrating piecewise-constant bandwidth over time; rounding is applied
only at presentation boundaries.
"""

from __future__ import annotations

BITS_PER_BYTE = 8.0
BITS_PER_KILOBIT = 1000.0
BYTES_PER_KILOBYTE = 1024.0

#: One kilobyte expressed in bits (Shaka's sample filter is in KB).
BITS_PER_KILOBYTE = BITS_PER_BYTE * BYTES_PER_KILOBYTE


def kbps_to_bps(kbps: float) -> float:
    """Convert kilobits per second to bits per second."""
    return kbps * BITS_PER_KILOBIT


def bps_to_kbps(bps: float) -> float:
    """Convert bits per second to kilobits per second."""
    return bps / BITS_PER_KILOBIT


def bits_to_bytes(bits: float) -> float:
    """Convert bits to bytes."""
    return bits / BITS_PER_BYTE


def bytes_to_bits(nbytes: float) -> float:
    """Convert bytes to bits."""
    return nbytes * BITS_PER_BYTE


def bits_to_kilobytes(bits: float) -> float:
    """Convert bits to kilobytes (1 KB = 1024 bytes)."""
    return bits / BITS_PER_KILOBYTE


def kilobytes_to_bits(kilobytes: float) -> float:
    """Convert kilobytes (1 KB = 1024 bytes) to bits."""
    return kilobytes * BITS_PER_KILOBYTE


def chunk_bits(bitrate_kbps: float, duration_s: float) -> float:
    """Size in bits of a chunk encoded at ``bitrate_kbps`` for ``duration_s``."""
    if bitrate_kbps < 0:
        raise ValueError(f"bitrate must be non-negative, got {bitrate_kbps}")
    if duration_s < 0:
        raise ValueError(f"duration must be non-negative, got {duration_s}")
    return kbps_to_bps(bitrate_kbps) * duration_s


def bitrate_of(bits: float, duration_s: float) -> float:
    """Average bitrate in kbps of ``bits`` transferred over ``duration_s``."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    return bps_to_kbps(bits / duration_s)

