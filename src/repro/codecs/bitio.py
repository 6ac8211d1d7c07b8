"""Bit-level writer and reader used by the entropy coder.

Both classes are word-buffered: instead of moving one bit at a time they
accumulate bits in a Python integer and move whole bytes with
``int.to_bytes`` / ``int.from_bytes``.  The byte-level output format is
unchanged from the original scalar implementation — MSB-first bit order,
final partial byte padded with 1 bits (mirroring JPEG).  The scalar
reference coder writes through :class:`BitWriter`; the runtime encoder
packs a whole image's items at once with :func:`pack_bits`, which writes
the same bytes.

Invariants:

* ``BitWriter`` keeps at most ``_FLUSH_BITS + 63`` pending bits in its
  accumulator; whole bytes are flushed eagerly, so memory stays bounded.
* ``BitReader._bitbuf`` always holds exactly ``_bitcnt`` valid bits (the
  next bit to be read is its most significant bit).  Reading past the end
  raises ``EOFError``.
"""

from __future__ import annotations

import numpy as np

#: Flush the writer's accumulator to bytes once it holds this many bits.
#: Large enough that big-int shifts amortize well, small enough that the
#: accumulator stays a few machine words.
_FLUSH_BITS = 4096

#: Number of bytes the reader loads per refill.
_REFILL_BYTES = 8


class BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc = 0
        self._n_bits = 0

    def write_bits(self, value: int, n_bits: int) -> None:
        """Append the lowest ``n_bits`` of ``value`` (MSB first)."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if n_bits == 0:
            return
        if value < 0 or value >> n_bits:
            raise ValueError(f"value {value} does not fit in {n_bits} bits")
        self._acc = (self._acc << n_bits) | value
        self._n_bits += n_bits
        if self._n_bits >= _FLUSH_BITS:
            self._flush_whole_bytes()

    def _flush_whole_bytes(self) -> None:
        rem = self._n_bits & 7
        whole = self._n_bits - rem
        if whole:
            self._buffer += (self._acc >> rem).to_bytes(whole >> 3, "big")
            self._acc &= (1 << rem) - 1
            self._n_bits = rem

    def getvalue(self) -> bytes:
        """Return the accumulated bytes, padding the final byte with 1s.

        Padding with 1 bits mirrors JPEG; a decoder that knows the symbol
        count never consumes padding as data.
        """
        self._flush_whole_bytes()
        data = bytes(self._buffer)
        if self._n_bits:
            pad = 8 - self._n_bits
            last = (self._acc << pad) | ((1 << pad) - 1)
            data += bytes([last])
        return data


def pack_bits(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack ``(value, width)`` items MSB-first, as :class:`BitWriter` would.

    ``values`` and ``widths`` are int64 arrays; every width is in
    ``[0, 63]`` and every value fits its width (not checked).  Returns what
    ``write_bits`` over the items then ``getvalue`` returns: the final
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


class BitReader:
    """Reads bits most-significant-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # next byte offset to load into the buffer
        self._bitbuf = 0
        self._bitcnt = 0  # valid (unconsumed) bits currently buffered
        self._total_bits = len(data) * 8
        self._consumed = 0

    @property
    def exhausted(self) -> bool:
        """True if no complete bit remains."""
        return self._consumed >= self._total_bits

    def bits_remaining(self) -> int:
        """Number of unconsumed bits left in the stream."""
        return self._total_bits - self._consumed

    def _refill(self, n_bits: int) -> None:
        data = self._data
        pos = self._pos
        while self._bitcnt < n_bits:
            chunk = data[pos : pos + _REFILL_BYTES]
            if not chunk:
                break
            pos += len(chunk)
            self._bitbuf = (self._bitbuf << (len(chunk) * 8)) | int.from_bytes(chunk, "big")
            self._bitcnt += len(chunk) * 8
        self._pos = pos

    def read_bit(self) -> int:
        """Read a single bit; raises ``EOFError`` when the stream ends."""
        return self.read_bits(1)

    def read_bits(self, n_bits: int) -> int:
        """Read ``n_bits`` bits MSB-first and return them as an integer."""
        if n_bits == 0:
            return 0
        if self._bitcnt < n_bits:
            self._refill(n_bits)
            if self._bitcnt < n_bits:
                raise EOFError("bit stream exhausted")
        bitcnt = self._bitcnt - n_bits
        value = self._bitbuf >> bitcnt
        self._bitbuf &= (1 << bitcnt) - 1
        self._bitcnt = bitcnt
        self._consumed += n_bits
        return value
