"""Bit-level writer and reader used by the entropy coder.

Both classes are word-buffered: instead of moving one bit at a time they
accumulate bits in a Python integer and move whole bytes with
``int.to_bytes`` / ``int.from_bytes``.  The byte-level output format is
unchanged from the original scalar implementation — MSB-first bit order,
final partial byte padded with 1 bits (mirroring JPEG) — so streams written
by either implementation are byte-identical.

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

    def write_many(self, values, widths) -> None:
        """Append many ``(value, width)`` pairs in one buffered pass.

        ``values[i]`` must already fit in ``widths[i]`` bits; no per-item
        validation is performed (this is the batch fast path).
        """
        acc = self._acc
        n_bits = self._n_bits
        buffer = self._buffer
        for value, width in zip(values, widths):
            acc = (acc << width) | value
            n_bits += width
            if n_bits >= _FLUSH_BITS:
                rem = n_bits & 7
                whole = n_bits - rem
                buffer += (acc >> rem).to_bytes(whole >> 3, "big")
                acc &= (1 << rem) - 1
                n_bits = rem
        self._acc = acc
        self._n_bits = n_bits

    #: Per-slice bit cap for the vectorized packer: bounds the int64
    #: temporaries (~24 bytes per bit) to a few tens of MB however large a
    #: single scan gets.
    _PACK_SLICE_BITS = 1 << 21

    def write_many_array(self, values: np.ndarray, widths: np.ndarray) -> None:
        """Vectorized :meth:`write_many` for int64 numpy ``(value, width)`` arrays.

        Produces bit-identical output: every value's lowest ``width`` bits
        are appended MSB-first.  Instead of a Python loop over big-int
        shifts, the whole batch is expanded to a per-bit array (item index
        via ``np.repeat``, per-bit shift via a cumulative-width ramp) and
        packed with ``np.packbits``; the trailing partial byte is folded
        back into the accumulator so subsequent scalar writes continue
        seamlessly.  Items must be non-negative and at most 62 bits wide
        (the caller's fused symbol+magnitude pairs are ``<= 62``); wider
        items must take :meth:`write_many`.
        """
        n_items = int(values.shape[0])
        if n_items == 0:
            return
        # Move whole pending bytes out, then fold the <8 leftover bits in as
        # a leading pseudo-item so the packed run starts byte-aligned.
        self._flush_whole_bytes()
        if self._n_bits:
            values = np.concatenate((np.asarray([self._acc], dtype=np.int64), values))
            widths = np.concatenate((np.asarray([self._n_bits], dtype=np.int64), widths))
            self._acc = 0
            self._n_bits = 0
        ends = np.cumsum(widths, dtype=np.int64)
        total_bits = int(ends[-1])
        buffer = self._buffer
        start_item = 0
        start_bit = 0
        while start_bit < total_bits:
            # Slice on item boundaries so each expansion stays bounded.
            stop_item = int(np.searchsorted(ends, start_bit + self._PACK_SLICE_BITS))
            stop_item = max(stop_item, start_item + 1)
            stop_bit = int(ends[stop_item - 1])
            slice_widths = widths[start_item:stop_item]
            slice_bits = stop_bit - start_bit
            item_of_bit = np.repeat(
                np.arange(start_item, stop_item, dtype=np.int64), slice_widths
            )
            shift = ends[item_of_bit] - np.arange(start_bit + 1, stop_bit + 1)
            bits = ((values[item_of_bit] >> shift) & 1).astype(np.uint8)
            whole = slice_bits & ~7
            if whole:
                buffer += np.packbits(bits[:whole]).tobytes()
            for bit in bits[whole:]:
                self._acc = (self._acc << 1) | int(bit)
                self._n_bits += 1
            start_item = stop_item
            start_bit = stop_bit
            if self._n_bits and start_bit < total_bits:
                # A mid-run slice ended off a byte boundary; re-fold the
                # pending bits as the next slice's leading pseudo-item (and
                # back the cursor up over them) so it starts aligned.
                pending = self._n_bits
                values = np.concatenate(
                    (np.asarray([self._acc], dtype=np.int64), values[start_item:])
                )
                widths = np.concatenate(
                    (np.asarray([pending], dtype=np.int64), widths[start_item:])
                )
                start_bit -= pending
                ends = np.cumsum(widths, dtype=np.int64) + start_bit
                start_item = 0
                self._acc = 0
                self._n_bits = 0

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
