"""Word-level bit packing for the entropy coder.

The encoder packs a whole image's ``(value, width)`` items at once with
:func:`pack_bits` rather than moving one bit at a time.  The byte-level
format is MSB-first bit order with the final partial byte padded with 1
bits (mirroring JPEG).  The scalar bit-at-a-time writer it must match, and
the bit reader the scalar decoder uses, are the test oracle in
``tests/codec_reference.py``.
"""

from __future__ import annotations

import numpy as np


def pack_bits(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack ``(value, width)`` items MSB-first into bytes.

    ``values`` and ``widths`` are int64 arrays; every width is in
    ``[0, 63]`` and every value fits its width (not checked).  The final
    partial byte is padded with 1 bits.

    Each item lands in the 64-bit word its first bit falls in, and an item
    that crosses into the next word spills its low bits there; an item of
    at most 63 bits crosses at most one boundary, and at most one item
    crosses each.  The word-resident parts are OR-reduced per word with
    one ``np.bitwise_or.reduceat``, the spills are ORed in after, so the
    cost scales with items, not bits, and every step is exact integer math.
    """
    if values.shape[0] == 0:
        return b""
    ends = np.cumsum(widths)
    total_bits = int(ends[-1])
    word = (ends - widths) >> 6
    # Where each item ends, counted from the start of its first word: past
    # 64 it spills ``end - 64`` low bits into the next word.
    end = ends - (word << 6)
    spill = np.maximum(end - 64, 0).astype(np.uint64)
    unsigned = values.astype(np.uint64)
    head = (unsigned >> spill) << np.maximum(64 - end, 0).astype(np.uint64)
    words = np.zeros(total_bits // 64 + 2, dtype=np.uint64)
    firsts = np.flatnonzero(np.diff(word, prepend=-1) != 0)
    words[word[firsts]] = np.bitwise_or.reduceat(head, firsts)
    crossing = np.flatnonzero(end > 64)
    words[word[crossing] + 1] |= unsigned[crossing] << (np.uint64(64) - spill[crossing])
    data = bytearray(words.astype(">u8").tobytes()[: (total_bits + 7) >> 3])
    pad = -total_bits & 7
    if pad:
        data[-1] |= (1 << pad) - 1
    return bytes(data)

