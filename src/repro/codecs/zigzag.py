"""Zigzag ordering of 8x8 DCT coefficient blocks.

The zigzag order places low-frequency coefficients first, which is what makes
spectral-selection progressive scans meaningful: scan band ``[ss, se]`` covers
a contiguous range of zigzag indices.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.blocks import BLOCK_SIZE


def _build_zigzag_order(n: int = BLOCK_SIZE) -> np.ndarray:
    """Return flat indices of an ``n x n`` block in zigzag order."""
    order = sorted(
        ((i, j) for i in range(n) for j in range(n)),
        key=lambda ij: (ij[0] + ij[1], ij[1] if (ij[0] + ij[1]) % 2 else ij[0]),
    )
    return np.array([i * n + j for i, j in order], dtype=np.int64)


ZIGZAG_ORDER = _build_zigzag_order()
N_COEFFICIENTS = BLOCK_SIZE * BLOCK_SIZE

