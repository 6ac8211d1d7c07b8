"""Quantization tables and quality scaling.

Uses the Annex-K example luminance/chrominance tables from the JPEG standard
and the IJG (libjpeg) quality-to-scale mapping, so a "quality 75" encode here
discards roughly the same frequency content as a quality-75 libjpeg encode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# JPEG Annex K example tables.
BASE_LUMA_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

BASE_CHROMA_TABLE = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def quality_scale_factor(quality: int) -> float:
    """Return the IJG scale factor for a JPEG quality setting in ``[1, 100]``."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        return 5000.0 / quality
    return 200.0 - 2.0 * quality


def scaled_table(base: np.ndarray, quality: int) -> np.ndarray:
    """Scale a base quantization table for the given quality setting."""
    scale = quality_scale_factor(quality)
    table = np.floor((base * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


@dataclass(frozen=True)
class QuantizationTables:
    """A pair of (luma, chroma) quantization tables for a quality setting."""

    luma: np.ndarray
    chroma: np.ndarray
    quality: int

    @classmethod
    def for_quality(cls, quality: int) -> "QuantizationTables":
        """Build the standard tables scaled to the requested quality."""
        return cls(
            luma=scaled_table(BASE_LUMA_TABLE, quality),
            chroma=scaled_table(BASE_CHROMA_TABLE, quality),
            quality=quality,
        )

    def table_for_component(self, component_index: int) -> np.ndarray:
        """Return the table for component 0 (luma) or 1/2 (chroma)."""
        return self.luma if component_index == 0 else self.chroma

    def to_bytes(self) -> bytes:
        """Serialize both tables (row-major uint8) plus the quality byte."""
        return (
            bytes([self.quality])
            + self.luma.astype(np.uint8).tobytes()
            + self.chroma.astype(np.uint8).tobytes()
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "QuantizationTables":
        """Deserialize tables written by :meth:`to_bytes`."""
        if len(payload) != 1 + 64 + 64:
            raise ValueError(f"quantization payload must be 129 bytes, got {len(payload)}")
        quality = payload[0]
        luma = np.frombuffer(payload[1:65], dtype=np.uint8).astype(np.float64).reshape(8, 8)
        chroma = np.frombuffer(payload[65:129], dtype=np.uint8).astype(np.float64).reshape(8, 8)
        return cls(luma=luma, chroma=chroma, quality=quality)

