"""Word-level bit packing for the entropy coder.

The encoder packs a whole image's ``(value, width)`` items at once with
:func:`pack_bits` rather than moving one bit at a time.  The byte-level
format is MSB-first bit order with the final partial byte padded with 1
bits (mirroring JPEG).  Its per-item work arrays live in the calling
thread's :class:`~repro.codecs.pixelpath.PixelScratch`; what it allocates
per call is the packed bytes and arrays that scale with the 64-bit words,
not with the items.  The scalar bit-at-a-time writer it must match, and
the bit reader the scalar decoder uses, are the test oracle in
``tests/codec_reference.py``.
"""

from __future__ import annotations

import numpy as np

from repro.codecs.pixelpath import _thread_scratch


def pack_bits(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack ``(value, width)`` items MSB-first into bytes.

    ``values`` and ``widths`` are int64 arrays; every width is in
    ``[0, 63]`` and every value fits its width (not checked).  The final
    partial byte is padded with 1 bits.  The work arrays are the calling
    thread's ``encode_a`` / ``encode_b`` / ``encode_e`` / ``nonzero``
    scratch roles, so the inputs must not be views of those.

    Each item lands in the 64-bit word its first bit falls in, and an item
    that crosses into the next word spills its low bits there; an item of
    at most 63 bits crosses at most one boundary, and at most one item
    crosses each.  The word-resident parts are OR-reduced per word with
    one ``np.bitwise_or.reduceat``, the spills are ORed in after, so the
    cost scales with items, not bits, and every step is exact integer math.
    """
    n = values.shape[0]
    if n == 0:
        return b""
    # Scratch roles as in the table of repro.codecs.rle.
    scratch = _thread_scratch()
    unsigned = np.asarray(values, dtype=np.int64).view(np.uint64)
    end = np.cumsum(widths, out=scratch.array("encode_a", n, np.int64))
    total_bits = int(end[-1])
    word = np.subtract(end, widths, out=scratch.array("encode_b", n, np.int64))
    word >>= 6
    flags = scratch.array("nonzero", n, np.bool_)
    flags[0] = True
    np.not_equal(word[1:], word[:-1], out=flags[1:])
    firsts = np.flatnonzero(flags)
    # Where each item ends, counted from the start of its first word: past
    # 64 it spills ``end - 64`` low bits into the next word.
    head = np.left_shift(word, 6, out=scratch.array("encode_e", n, np.int64))
    end -= head
    crossing = np.flatnonzero(np.greater(end, 64, out=flags))
    first_words, crossing_words = word[firsts], word[crossing] + 1
    shift = word  # the word indices are kept where they are needed
    np.subtract(end, 64, out=shift)
    np.maximum(shift, 0, out=shift)
    head = np.right_shift(unsigned, shift.view(np.uint64), out=head.view(np.uint64))
    np.subtract(64, end, out=shift)
    np.maximum(shift, 0, out=shift)
    head <<= shift.view(np.uint64)

    words = scratch.array("pack_words", total_bits // 64 + 2, np.uint64)
    words.fill(0)
    words[first_words] = np.bitwise_or.reduceat(head, firsts)
    words[crossing_words] |= unsigned[crossing] << (128 - end[crossing]).astype(np.uint64)

    words.byteswap(inplace=True)  # MSB-first bytes
    data = words.view(np.uint8)
    n_bytes = (total_bits + 7) >> 3
    pad = -total_bits & 7
    if pad:
        data[n_bytes - 1] |= (1 << pad) - 1
    return data[:n_bytes].tobytes()
