"""Tests for bit I/O, Huffman coding, and run-length symbol coding."""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codecs.bitio import pack_bits
from repro.codecs.huffman import HuffmanTable as RuntimeHuffmanTable
from repro.codecs.huffman import MAX_CODE_LENGTH, _package_merge_lengths, _plain_huffman_lengths
from repro.codecs.rle import EOB_SYMBOL, ZRL_SYMBOL
from tests.codec_reference import (
    BitReader,
    BitWriter,
    HuffmanTable,
    ac_band_symbols,
    dc_symbols,
    decode_magnitude,
    heap_huffman_lengths,
    limited_heap_huffman_lengths,
    magnitude_bits,
    magnitude_category,
    read_ac_band,
    read_dc_values,
    write_symbols,
)


class TestBitIO:
    def test_roundtrip_bits(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        writer.write_bits(0b1, 1)
        writer.write_bits(0b000111, 6)
        reader = BitReader(writer.getvalue())
        assert reader.read_bits(4) == 0b1011
        assert reader.read_bit() == 1
        assert reader.read_bits(6) == 0b000111

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.getvalue() == b""

    def test_padding_with_ones(self):
        writer = BitWriter()
        writer.write_bits(0b1, 1)
        assert writer.getvalue() == bytes([0b10111111 | 0b01111111 & 0xFF]) or writer.getvalue()[0] & 0x7F == 0x7F

    def test_value_too_large_raises(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(4, 2)

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)

    def test_reader_eof(self):
        reader = BitReader(b"")
        assert reader.exhausted
        with pytest.raises(EOFError):
            reader.read_bit()

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 16)), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, pairs):
        writer = BitWriter()
        clipped = [(value % (1 << bits), bits) for value, bits in pairs]
        for value, bits in clipped:
            writer.write_bits(value, bits)
        reader = BitReader(writer.getvalue())
        for value, bits in clipped:
            assert reader.read_bits(bits) == value

    def test_bits_remaining_and_exhausted(self):
        reader = BitReader(b"\xab")
        assert reader.bits_remaining() == 8
        assert not reader.exhausted
        reader.read_bits(8)
        assert reader.bits_remaining() == 0
        assert reader.exhausted

    @staticmethod
    def _written(pairs) -> bytes:
        writer = BitWriter()
        for value, width in pairs:
            writer.write_bits(value, width)
        return writer.getvalue()

    @staticmethod
    def _packed(pairs) -> bytes:
        values = np.array([value for value, _ in pairs], dtype=np.int64)
        widths = np.array([width for _, width in pairs], dtype=np.int64)
        return pack_bits(values, widths)

    def test_pack_bits_matches_write_bits(self):
        cases = [
            [],
            [(0, 0)],
            [(0b1, 1), (0b1011, 4), (0, 3), (0xFFFF, 16), (0b10, 2)],
            [(5, 3), (0, 0), (0, 0), (1, 1)],  # zero-width items mid-run
            [((1 << 63) - 1, 63), (1, 1)],  # a 63-bit item, then a run ending on a word
            [((1 << 40) - 3, 40), (0, 24), (0, 0), (7, 3)],  # ends on a word, then a zero width
            [(1, 1), ((1 << 63) - 2, 63), ((1 << 62) + 9, 63), (3, 2)],  # items crossing words
        ]
        for pairs in cases:
            assert self._packed(pairs) == self._written(pairs), pairs

    @given(st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 63)), max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_pack_bits_property(self, pairs):
        clipped = [(value % (1 << width), width) for value, width in pairs]
        assert self._packed(clipped) == self._written(clipped)

    def test_large_stream_flushes_incrementally(self):
        writer = BitWriter()
        for index in range(4096):
            writer.write_bits(index & 0x7F, 7)
        data = writer.getvalue()
        assert len(data) == (4096 * 7 + 7) // 8
        reader = BitReader(data)
        for index in range(4096):
            assert reader.read_bits(7) == index & 0x7F


class TestHuffman:
    def test_single_symbol_table(self):
        table = HuffmanTable.from_symbols([7, 7, 7])
        writer = BitWriter()
        table.encode_symbol(7, writer)
        reader = BitReader(writer.getvalue())
        assert table.decode_symbol(reader) == 7

    def test_empty_symbol_list_gives_usable_table(self):
        table = HuffmanTable.from_symbols([])
        assert table.code_lengths

    def test_frequent_symbols_get_short_codes(self):
        symbols = [1] * 100 + [2] * 10 + [3]
        table = HuffmanTable.from_symbols(symbols)
        lengths = table.code_lengths
        assert lengths[1] <= lengths[2] <= lengths[3]

    def test_roundtrip_many_symbols(self):
        import random

        rng = random.Random(0)
        symbols = [rng.randint(0, 40) for _ in range(500)]
        table = HuffmanTable.from_symbols(symbols)
        writer = BitWriter()
        for symbol in symbols:
            table.encode_symbol(symbol, writer)
        reader = BitReader(writer.getvalue())
        decoded = [table.decode_symbol(reader) for _ in symbols]
        assert decoded == symbols

    def test_serialization_roundtrip(self):
        table = HuffmanTable.from_symbols([0, 0, 1, 1, 1, 2, 3, 3, 3, 3, 4])
        payload = table.to_bytes()
        restored, consumed = HuffmanTable.from_bytes(payload + b"extra")
        assert consumed == len(payload)
        assert restored.code_lengths == table.code_lengths

    def test_unknown_symbol_raises(self):
        table = HuffmanTable.from_symbols([1, 2, 3])
        with pytest.raises(KeyError):
            table.encode_symbol(99, BitWriter())

    def test_truncated_payload_raises(self):
        with pytest.raises(ValueError):
            HuffmanTable.from_bytes(b"\x00\x01")

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, symbols):
        table = HuffmanTable.from_symbols(symbols)
        writer = BitWriter()
        for symbol in symbols:
            table.encode_symbol(symbol, writer)
        reader = BitReader(writer.getvalue())
        assert [table.decode_symbol(reader) for _ in symbols] == symbols

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_serialized_table_decodes_stream(self, symbols):
        table = HuffmanTable.from_symbols(symbols)
        restored, _ = HuffmanTable.from_bytes(table.to_bytes())
        writer = BitWriter()
        for symbol in symbols:
            table.encode_symbol(symbol, writer)
        reader = BitReader(writer.getvalue())
        assert [restored.decode_symbol(reader) for _ in symbols] == symbols

    def test_lut_rejects_invalid_prefix(self):
        import numpy as np

        from repro.codecs.huffman import SUPER_BITS, _window_slots

        # A single-symbol table assigns only code "0" (length 1); every
        # window starting with "1" is an empty first slot with a zero walk
        # stride in both flavours, exactly as the dict probe rejects it.
        table = HuffmanTable(code_lengths={7: 1})
        for ac in (True, False):
            first, second, pairbits = _window_slots(table._encode_map, ac)
            upper = slice(1 << (SUPER_BITS - 1), None)
            assert not first[upper].any() and not pairbits[upper].any()
            assert np.all(first[: 1 << (SUPER_BITS - 1)] != 0)
        with pytest.raises(ValueError, match="invalid Huffman code"):
            table.decode_symbol(BitReader(b"\xff\xff"))
        # A complete code (every prefix decodable) leaves no empty slots.
        complete = HuffmanTable.from_symbols([1, 1, 1, 2])
        for ac in (True, False):
            assert np.all(_window_slots(complete._encode_map, ac)[0] != 0)

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_from_counts_matches_from_symbols(self, symbols):
        from collections import Counter

        by_symbols = HuffmanTable.from_symbols(symbols)
        by_counts = HuffmanTable.from_counts(Counter(symbols))
        assert by_symbols.code_lengths == by_counts.code_lengths

    def test_from_counts_ignores_zero_counts(self):
        table = HuffmanTable.from_counts({1: 5, 2: 0, 3: 2})
        assert set(table.code_lengths) == {1, 3}

    def test_from_counts_empty_and_singleton(self):
        assert HuffmanTable.from_counts({}).code_lengths == {0: 1}
        assert HuffmanTable.from_counts({9: 4}).code_lengths == {9: 1}

    def test_cached_from_bytes_returns_equivalent_table(self):
        import numpy as np

        from repro.codecs.huffman import _build_super_tables

        table = HuffmanTable.from_symbols([0, 0, 1, 1, 1, 2, 3, 3, 3, 3, 4])
        payload = table.to_bytes()
        first, consumed_first = HuffmanTable.cached_from_bytes(payload + b"tail", "ac")
        second, consumed_second = HuffmanTable.cached_from_bytes(payload + b"liat", "ac")
        assert consumed_first == consumed_second == len(payload)
        assert first is second  # served from the table cache
        # The cached bundle is what the caller's own table would build.
        for cached, built in zip(first, _build_super_tables(table._encode_map, "ac")):
            assert np.array_equal(cached, built)

    # -- over-subscribed length counts (Kraft sum > 1) ---------------------------

    @staticmethod
    def _payload(counts) -> bytes:
        import struct

        n_symbols = sum(counts)
        return struct.pack("<H", n_symbols) + bytes(counts) + bytes(range(n_symbols))

    def test_from_bytes_rejects_oversubscribed_lengths(self):
        # Every symbol at length 1 is what one flipped byte of a DHT gives;
        # a complete code (Kraft sum exactly 1) is the boundary and stays.
        for counts in ([3], [1, 2, 1], [0, 4, 1], [1, 1, 1, 3]):
            with pytest.raises(ValueError, match="over-subscribed"):
                HuffmanTable.from_bytes(self._payload(counts + [0] * (16 - len(counts))))
        for counts in ([2], [1, 2], [0, 4], [1, 1, 1, 2], [0] * 8 + [255]):
            HuffmanTable.from_bytes(self._payload(counts + [0] * (16 - len(counts))))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_bytes_accepts_exactly_the_kraft_feasible_counts(self, data):
        from fractions import Fraction

        # A feasible vector (each count fits the room the shorter lengths
        # left), then up to three more codes at one length: about half the
        # draws stay a prefix code, the rest are over-subscribed.
        counts, room = [], Fraction(1)
        for index in range(16):
            count = data.draw(st.integers(0, min(int(room * (2 << index)), 12)))
            room -= Fraction(count, 2 << index)
            counts.append(count)
        counts[data.draw(st.integers(0, 15))] += data.draw(st.integers(0, 3))
        kraft = sum(Fraction(count, 2 << index) for index, count in enumerate(counts))
        try:
            HuffmanTable.from_bytes(self._payload(counts))
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (kraft <= 1)


def _by_symbol(lengths_of, counts: dict[int, int], *args) -> dict[int, int]:
    """Run a per-count length builder over ``counts`` in symbol order, keyed back by symbol."""
    symbols = sorted(counts)
    return dict(zip(symbols, lengths_of([counts[symbol] for symbol in symbols], *args)))


class TestHuffmanTableValidation:
    """A table that constructs is a prefix code over byte symbols, so it serializes."""

    def test_zero_length_is_rejected(self):
        # A length-0 code is no code; serialized, it lands in the count of length 16.
        with pytest.raises(ValueError, match="symbol 1 has code length 0"):
            RuntimeHuffmanTable(code_lengths={1: 0, 2: 1})

    def test_length_over_the_limit_is_rejected(self):
        # The serialization has no count for a length above 16.
        with pytest.raises(ValueError, match="symbol 1 has code length 17"):
            RuntimeHuffmanTable(code_lengths={1: 17, 2: 1})

    def test_symbol_outside_a_byte_is_rejected_by_from_counts(self):
        # The serialization stores each symbol in one byte.
        with pytest.raises(ValueError, match="symbol 300 is outside"):
            RuntimeHuffmanTable.from_counts({300: 5, 1: 3})
        with pytest.raises(ValueError, match="symbol -1 is outside"):
            RuntimeHuffmanTable(code_lengths={-1: 1, 2: 1})

    def test_over_subscribed_lengths_are_rejected(self):
        # Three 1-bit codes: canonical assignment would hand out 0, 1, 10.
        with pytest.raises(ValueError, match="over-subscribed at length 1"):
            RuntimeHuffmanTable(code_lengths={1: 1, 2: 1, 3: 1})
        with pytest.raises(ValueError, match="over-subscribed at length 3"):
            RuntimeHuffmanTable(code_lengths={1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3})
        # A complete code is the boundary and builds.
        complete = RuntimeHuffmanTable(code_lengths={1: 2, 2: 2, 3: 2, 4: 3, 5: 3})
        assert RuntimeHuffmanTable.from_bytes(complete.to_bytes())[0] == complete


class TestHuffmanLengths:
    """The two-queue merge gives the heap construction's lengths exactly."""

    @given(st.dictionaries(st.integers(0, 255), st.integers(1, 10_000), min_size=2, max_size=256))
    @settings(max_examples=80, deadline=None)
    def test_two_queue_matches_the_heap(self, counts):
        assert _by_symbol(_plain_huffman_lengths, counts) == heap_huffman_lengths(counts)

    @given(st.dictionaries(st.integers(0, 255), st.integers(1, 4), min_size=2, max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_two_queue_matches_the_heap_on_tied_counts(self, counts):
        assert _by_symbol(_plain_huffman_lengths, counts) == heap_huffman_lengths(counts)

    @pytest.mark.parametrize("n_symbols", [20, 40, 200])
    def test_skewed_counts_that_need_damping(self, n_symbols):
        # Fibonacci-like counts make a maximally deep tree: plain Huffman
        # exceeds the 16-bit limit, so the damped re-runs decide the lengths.
        fibonacci = [1, 1]
        while len(fibonacci) < n_symbols:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        counts = {symbol: fibonacci[symbol % len(fibonacci)] for symbol in range(n_symbols)}
        assert max(heap_huffman_lengths(counts).values()) > MAX_CODE_LENGTH
        lengths = _by_symbol(_package_merge_lengths, counts, MAX_CODE_LENGTH)
        assert lengths == limited_heap_huffman_lengths(counts, MAX_CODE_LENGTH)
        assert max(lengths.values()) <= MAX_CODE_LENGTH


class TestMagnitudeCoding:
    def test_categories(self):
        assert magnitude_category(0) == 0
        assert magnitude_category(1) == 1
        assert magnitude_category(-1) == 1
        assert magnitude_category(255) == 8
        assert magnitude_category(-128) == 8

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 7, -7, 31, -31, 1000, -1000])
    def test_magnitude_roundtrip(self, value):
        category = magnitude_category(value)
        bits = magnitude_bits(value, category)
        assert decode_magnitude(bits, category) == value

    @given(st.integers(-(2**14), 2**14))
    @settings(max_examples=100, deadline=None)
    def test_magnitude_roundtrip_property(self, value):
        category = magnitude_category(value)
        assert decode_magnitude(magnitude_bits(value, category), category) == value


class TestRunLengthCoding:
    def test_dc_roundtrip(self):
        values = [10, 12, 12, 8, -3, 0, 5]
        symbols, extras = dc_symbols(values)
        table = HuffmanTable.from_symbols(symbols)
        writer = BitWriter()
        write_symbols(symbols, extras, table, writer)
        reader = BitReader(writer.getvalue())
        assert read_dc_values(reader, table, len(values)) == values

    def test_ac_band_roundtrip(self):
        band = [0, 5, 0, 0, -2, 0, 0, 0, 0, 0, 1, 0, 0]
        symbols, extras = ac_band_symbols(band)
        table = HuffmanTable.from_symbols(symbols)
        writer = BitWriter()
        write_symbols(symbols, extras, table, writer)
        reader = BitReader(writer.getvalue())
        assert read_ac_band(reader, table, len(band)) == band

    def test_all_zero_band_is_single_eob(self):
        symbols, extras = ac_band_symbols([0] * 20)
        assert symbols == [EOB_SYMBOL]
        assert extras == [(0, 0)]

    def test_long_zero_run_uses_zrl(self):
        band = [0] * 20 + [3]
        symbols, _ = ac_band_symbols(band)
        assert ZRL_SYMBOL in symbols

    def test_trailing_nonzero_has_no_eob(self):
        band = [0, 0, 4]
        symbols, _ = ac_band_symbols(band)
        assert symbols[-1] != EOB_SYMBOL

    @given(st.lists(st.integers(-300, 300), min_size=1, max_size=63))
    @settings(max_examples=60, deadline=None)
    def test_ac_band_roundtrip_property(self, band):
        symbols, extras = ac_band_symbols(band)
        table = HuffmanTable.from_symbols(symbols if symbols else [EOB_SYMBOL])
        writer = BitWriter()
        write_symbols(symbols, extras, table, writer)
        reader = BitReader(writer.getvalue())
        assert read_ac_band(reader, table, len(band)) == band

    @given(st.lists(st.integers(-2000, 2000), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_dc_roundtrip_property(self, values):
        symbols, extras = dc_symbols(values)
        table = HuffmanTable.from_symbols(symbols)
        writer = BitWriter()
        write_symbols(symbols, extras, table, writer)
        reader = BitReader(writer.getvalue())
        assert read_dc_values(reader, table, len(values)) == values


class TestSuperscalarTables:
    """Structural invariants of the superscalar window tables, per flavour."""

    @staticmethod
    def _table():
        # Skewed AC-style symbol mix so the code has short and long codes,
        # and rare wide magnitudes whose windows escape.
        symbols = (
            [EOB_SYMBOL] * 120
            + [0x11] * 60
            + [0x21] * 25
            + [0x12] * 10
            + [ZRL_SYMBOL] * 4
            + [0x53, 0x04, 0x81, 0x0A]
        )
        return HuffmanTable.from_symbols(symbols)

    @classmethod
    def _walk_tables(cls, kind):
        """One flavour's walk tables: the two slot views and the strides."""
        from repro.codecs.huffman import _build_super_tables

        _, pairs64, pairbits, _ = _build_super_tables(cls._table()._encode_map, kind)
        interleaved = pairs64.view(np.int32)
        return interleaved[0::2], interleaved[1::2], pairbits

    def test_pair_table_shapes(self):
        """Either flavour: the interleaved pair table and the walk's strides, one block."""
        from repro.codecs.huffman import SUPER_BITS, _build_super_tables

        for kind in ("ac", "dc"):
            pair, pairs64, pairbits, long_codes = _build_super_tables(self._table()._encode_map, kind)
            assert np.shares_memory(pairs64, pair) and np.shares_memory(pairbits, pair)
            assert len(pair) * 4 == 9 << SUPER_BITS
            assert pairs64.dtype == np.int64 and pairbits.dtype == np.uint8
            assert len(pairs64) == len(pairbits) == 1 << SUPER_BITS
            assert len(long_codes) == 0
            assert np.array_equal(pairs64.view(np.int32), pair[: 2 << SUPER_BITS])
            # The views export the block, so it cannot move under them.
            with pytest.raises(BufferError):
                pair.append(0)

    def test_pairbits_is_sum_of_fitting_consumes(self):
        for kind in ("ac", "dc"):
            slots1, slots2, pairbits = self._walk_tables(kind)
            # Stride of one walk step == first consume + second consume (when
            # a second symbol fit); escape windows (invalid prefix / oversized
            # / long code) must have stride 0 so the walk stalls and the
            # escape takes over at exactly that bit offset.
            valid = slots1 > 0
            assert (~valid).any()
            expected = (slots1 & 31) + np.where(slots2 != 0, slots2 & 31, 0)
            assert np.array_equal(pairbits[valid], expected[valid])
            assert not pairbits[~valid].any()
            # A second symbol never appears without a committed first symbol.
            assert not slots2[~valid].any()

    def test_pair_windows_fit_in_window(self):
        from repro.codecs.huffman import SUPER_BITS

        for kind in ("ac", "dc"):
            _, _, pairbits = self._walk_tables(kind)
            # A committed pair always fits the probe window.
            assert int(pairbits.max()) <= SUPER_BITS

    def test_deep_code_table_builds_fallback_windows(self):
        import numpy as np

        from repro.codecs.huffman import (
            MAX_CODE_LENGTH,
            SUPER_BITS,
            _build_super_tables,
            _plain_entry,
            long_code_entry,
        )

        # A complete canonical code with 16-bit leaves: a window under a
        # code longer than itself carries the -1 sentinel, one whose first
        # code fits but whose code + magnitude do not carries that symbol's
        # negated plain entry — both with a zero stride and no second slot.
        lengths = {}
        symbols = iter(range(1, 250))
        for length in range(1, 15):
            lengths[next(symbols)] = length
        lengths[next(symbols)] = 15
        lengths[next(symbols)] = 16
        lengths[next(symbols)] = 16
        table = HuffmanTable(code_lengths=lengths)
        pair, pairs64, pairbits, long_codes = _build_super_tables(table._encode_map, "ac")
        slots = pairs64.view(np.int32)
        slots1, slots2 = slots[0::2], slots[1::2]
        escapes = slots1 < 0
        assert (slots1 == -1).any() and (slots1 < -1).any()
        assert not pairbits[escapes].any()
        assert not slots2[escapes].any()
        assert np.all(slots1[slots1 > 0] < (1 << 29))
        # Symbol SUPER_BITS (run 0, category SUPER_BITS) has the code of
        # SUPER_BITS - 1 ones and a zero, the whole window.
        code, length = table._encode_map[SUPER_BITS]
        assert length == SUPER_BITS
        assert slots1[code] == -_plain_entry(SUPER_BITS, SUPER_BITS, True)
        # The codes longer than the window — one at each length up to 15,
        # two at 16 — all sit under the all-ones window, and the helper
        # tells them apart by the next 16 bits.
        n_long = MAX_CODE_LENGTH - SUPER_BITS + 1
        assert len(long_codes) == n_long and (slots1 == -1).sum() == 1
        for symbol, (code, length) in table._encode_map.items():
            if length > SUPER_BITS:
                assert slots1[code >> (length - SUPER_BITS)] == -1
                for ac in (True, False):
                    assert long_code_entry(long_codes, code << (16 - length), ac) == -_plain_entry(
                        symbol, length, ac
                    )


@st.composite
def _prefix_codes(draw):
    """A prefix code over distinct byte symbols, often incomplete, often with long codes.

    Counts per length are drawn within the room the shorter lengths left
    (the Kraft sum), so every draw is a valid code; lengths above
    ``SUPER_BITS`` get room whenever the short lengths leave some.
    """
    counts, room = [], 1 << MAX_CODE_LENGTH
    for length in range(1, MAX_CODE_LENGTH + 1):
        weight = 1 << (MAX_CODE_LENGTH - length)
        count = draw(st.integers(0, min(room // weight, 12)))
        room -= count * weight
        counts.append(count)
    n_symbols = sum(counts)
    if not n_symbols:
        counts[0], n_symbols = 1, 1
    symbols = draw(
        st.lists(st.integers(0, 255), min_size=n_symbols, max_size=n_symbols, unique=True)
    )
    lengths, cursor = {}, 0
    for length, count in enumerate(counts, 1):
        for symbol in symbols[cursor : cursor + count]:
            lengths[symbol] = length
        cursor += count
    return lengths


class TestPiecewiseFill:
    """The piecewise window fill gives the per-code slice fill's bundles, byte for byte.

    ``tests/codec_reference.window_slots_reference`` is the fill as first
    written.  Drawn codes reach what real tables rarely do: long codes,
    wide magnitudes and incomplete spans, whose escape windows hold
    entries <= 0 with nonzero low bits, which a second slot must never
    pair with.
    """

    @staticmethod
    def _assert_matches_reference(encode_map):
        from repro.codecs.huffman import _build_super_tables
        from tests.codec_reference import super_tables_reference

        for kind in ("ac", "dc"):
            pair, _, _, long_codes = _build_super_tables(encode_map, kind)
            block, reference_long_codes = super_tables_reference(encode_map, kind)
            assert bytes(pair) == block, kind
            assert list(long_codes) == reference_long_codes, kind

    @given(_prefix_codes())
    # Code "0" only: the upper half of the windows is an invalid gap.
    @example(lengths={7: 1})
    # DC categories above SUPER_BITS (no window holds the magnitude) and
    # above 15 (too wide for the walk), beside ones that fit.
    @example(lengths={0: 2, 3: 2, 12: 3, 14: 4, 16: 4, 40: 5, 200: 6, 255: 6, 9: 5})
    # AC symbols 0x10 .. 0xE0 carry no coefficient and advance by their bare run.
    @example(lengths={0x00: 2, 0x10: 3, 0x20: 3, 0xE0: 4, 0xF0: 4, 0x11: 3, 0x31: 4, 0x0A: 4})
    @settings(max_examples=300, deadline=None)
    def test_prefix_codes(self, lengths):
        self._assert_matches_reference(RuntimeHuffmanTable(code_lengths=lengths)._encode_map)

    def test_every_table_of_the_corpus(self):
        from repro.codecs.huffman import _read_code
        from repro.codecs.markers import find_scan_segments
        from repro.codecs.progressive import ProgressiveCodec
        from repro.datasets.synthetic import SyntheticImageGenerator, SyntheticImageSpec

        generator = SyntheticImageGenerator(4, SyntheticImageSpec(image_size=224), seed=11)
        serialized = set()
        for _, image, _ in generator.generate_batch(16, seed=11):
            stream = ProgressiveCodec(quality=90).encode(image)
            for segment in find_scan_segments(stream):
                body = stream[segment.payload_start : segment.end]
                serialized.add(body[: 2 + MAX_CODE_LENGTH + int.from_bytes(body[:2], "little")])
        assert len(serialized) > 100
        for payload in serialized:
            encode_map, consumed = _read_code(payload)
            assert consumed == len(payload)
            # The canonical-order map of the payload is the table's own map.
            assert encode_map == RuntimeHuffmanTable.from_bytes(payload)[0]._encode_map
            self._assert_matches_reference(encode_map)

    def test_a_miss_checks_the_payload_as_from_bytes_does(self):
        import struct

        good = HuffmanTable.from_symbols([1, 1, 2, 2, 3]).to_bytes()
        mismatch = bytearray(good)
        mismatch[0] += 1
        duplicate = bytearray(good)
        duplicate[-1] = duplicate[-2]
        over = struct.pack("<H", 3) + bytes([3] + [0] * 15) + bytes([4, 5, 6])
        for payload, message in (
            (good[:10], "too short"),
            (good[:-1], "truncated"),
            (bytes(mismatch) + b"\x00", "disagree"),
            (bytes(duplicate), "duplicate"),
            (over, "over-subscribed at length 1"),
        ):
            for parse in (
                RuntimeHuffmanTable.from_bytes,
                lambda data: RuntimeHuffmanTable.cached_from_bytes(data, "ac"),
            ):
                with pytest.raises(ValueError, match=message):
                    parse(payload)

    def test_each_miss_observes_one_build(self):
        from repro.codecs.huffman import _BUILD_SECONDS_EDGES
        from repro.obs import get_registry

        # A table no other test serializes, so both flavours miss.
        payload = RuntimeHuffmanTable(code_lengths={0x05: 1, 0x16: 2, 0x27: 3, 0x38: 3}).to_bytes()
        builds = get_registry().histogram("codec.table_cache.build_seconds", _BUILD_SECONDS_EDGES)
        before = builds.count
        RuntimeHuffmanTable.cached_from_bytes(payload, "ac")
        RuntimeHuffmanTable.cached_from_bytes(payload, "ac")
        RuntimeHuffmanTable.cached_from_bytes(payload, "dc")
        assert builds.count == before + 2


def _decode_dc_then_ac(table_bytes: bytes):
    """Decode one DC-only and one AC-only scan that carry the same table.

    Returns the decoded luma plane of a 32-px image whose DC scan holds 16
    zero diffs but the first (+1) and whose AC scan (band 1..20) holds one
    coefficient per block, both coded with the table ``{0x00: 1, 0x01: 2}``
    serialized in ``table_bytes``.
    """
    import numpy as np

    from repro.codecs.fastpath import decode_streams_fast
    from repro.codecs.image import ImageBuffer
    from repro.codecs.markers import (
        SUBSAMPLING_420,
        ScanHeader,
        find_scan_segments,
        write_scan_segment,
    )
    from repro.codecs.progressive import empty_coefficients, image_to_coefficients

    header = image_to_coefficients(
        ImageBuffer.from_array(np.zeros((32, 32, 3), dtype=np.uint8)),
        quality=90,
        subsampling=SUBSAMPLING_420,
    ).header
    table, _ = HuffmanTable.from_bytes(table_bytes)
    dc_bits, ac_bits = BitWriter(), BitWriter()
    table.encode_symbol(0x01, dc_bits)  # category 1, magnitude bit 1: +1
    dc_bits.write_bits(1, 1)
    for _ in range(15):
        table.encode_symbol(0x00, dc_bits)  # category 0: diff 0
    for _ in range(16):
        table.encode_symbol(0x01, ac_bits)  # run 0, category 1, bit 0: -1
        ac_bits.write_bits(0, 1)
        table.encode_symbol(0x00, ac_bits)  # EOB
    stream = b"".join(
        [
            b"\xff\xd8",
            header.to_bytes(),
            write_scan_segment(ScanHeader((0,), 0, 0), table_bytes + dc_bits.getvalue()),
            write_scan_segment(ScanHeader((0,), 1, 20), table_bytes + ac_bits.getvalue()),
        ]
    )
    coefficients = empty_coefficients(header)
    assert decode_streams_fast([(stream, find_scan_segments(stream), coefficients)]) is None
    return coefficients.planes[0]


def _held_bytes(cache) -> int:
    """What the cache's entries pin, computed from the blocks they hold.

    Each block counts once: an entry's numpy arrays are views of its pair
    block, so only its ``array('i')`` blocks and its key hold bytes.
    """
    return sum(
        len(serialized)
        + sum(len(block) * block.itemsize for block in tables if isinstance(block, array))
        for (_, serialized), ((tables, _), _) in cache._entries.items()
    )


_WIDTH_DECODE = """
import json, sys, zlib
from pathlib import Path

import numpy as np

from repro.codecs import huffman

width, directory = int(sys.argv[1]), Path(sys.argv[2])
huffman.SUPER_BITS = width
huffman._WINDOWS = np.arange(1 << width, dtype=np.int32)
# Imported after the width is set: fastpath derives its probe constants from it.
from repro.codecs.progressive import decode_coefficients

results = []
for path in sorted(directory.glob("*.bin")):
    for max_scans in (None, 1):
        try:
            planes = decode_coefficients(path.read_bytes(), max_scans)[0].planes
            results.append(zlib.crc32(b"".join(plane.tobytes() for plane in planes)))
        except Exception as error:
            results.append(type(error).__name__)
print(json.dumps(results))
"""


class TestWindowWidths:
    """``SUPER_BITS`` is a tuning knob: any width in ``[2, MAX_CODE_LENGTH]``
    builds the reference fill's tables and decodes the same coefficients.

    A packed symbol's ``voff`` field sits at ``SUPER_VOFF_SHIFT`` whatever
    the width; the fill computes each signed value at bit ``SUPER_BITS``
    and moves it there.
    """

    #: A complete code with one symbol at every length: long codes at every
    #: width, and 0x0F's category 15 behind a 1-bit code (a 16-bit window
    #: holds code + magnitude, whose half-point is 2**31 at that width).
    CODES = [
        {0x0F: 1, **{symbol: length for length, symbol in enumerate(range(0x11, 0x1F), 2)}, 0x00: 16},
        {0x1F: 1, 0x00: 2, 0x01: 3, 0xF0: 4, 0x3A: 5, 0x0B: 5},
        {0: 2, 3: 2, 12: 3, 14: 4, 15: 4, 40: 5, 200: 6, 255: 6, 9: 5},
    ]

    @pytest.mark.parametrize("width", range(2, MAX_CODE_LENGTH + 1))
    def test_the_fill_matches_the_reference_at_every_width(self, width, monkeypatch):
        from repro.codecs import huffman
        from repro.codecs.markers import find_scan_segments
        from repro.codecs.progressive import ProgressiveCodec
        from tests.conftest import make_structured_image

        stream = ProgressiveCodec(quality=95).encode(make_structured_image(48, seed=3))
        real = [
            huffman._read_code(stream[segment.payload_start : segment.end])[0]
            for segment in find_scan_segments(stream)
        ]
        monkeypatch.setattr(huffman, "SUPER_BITS", width)
        monkeypatch.setattr(huffman, "_WINDOWS", np.arange(1 << width, dtype=np.int32))
        for lengths in self.CODES:
            TestPiecewiseFill._assert_matches_reference(RuntimeHuffmanTable(code_lengths=lengths)._encode_map)
        for encode_map in real:
            TestPiecewiseFill._assert_matches_reference(encode_map)

    def test_a_decode_at_other_widths_gives_the_same_coefficients(self, tmp_path):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.codecs.baseline import BaselineCodec
        from repro.codecs.huffman import SUPER_BITS
        from repro.codecs.image import ImageBuffer
        from repro.codecs.markers import find_scan_segments
        from repro.codecs.progressive import ProgressiveCodec
        from tests.conftest import make_structured_image

        noise = ImageBuffer.from_array(np.random.default_rng(5).integers(0, 256, (40, 40, 3)))
        streams = [
            ProgressiveCodec(quality=90).encode(make_structured_image(48, seed=1)),
            ProgressiveCodec(quality=100).encode(make_structured_image(37, seed=2, color=False)),
            ProgressiveCodec(quality=100).encode(noise),
            BaselineCodec(90).encode(make_structured_image(40, seed=4)),
        ]
        # Bit flips inside the first scan's payload: errors keep their class.
        for position in (0.2, 0.5, 0.9):
            segment = find_scan_segments(streams[0])[0]
            at = segment.payload_start + int(position * (segment.end - segment.payload_start))
            streams.append(streams[0][:at] + bytes([streams[0][at] ^ 0x5A]) + streams[0][at + 1 :])
        for index, stream in enumerate(streams):
            (tmp_path / f"{index:02d}.bin").write_bytes(stream)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))

        def decode_at(width: int) -> list:
            result = subprocess.run(
                [sys.executable, "-c", _WIDTH_DECODE, str(width), str(tmp_path)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            return json.loads(result.stdout)

        expected = decode_at(SUPER_BITS)
        assert len(expected) == 2 * len(streams)
        for width in {2, 8, 11, 12, 13, 14, 16} - {SUPER_BITS}:
            assert decode_at(width) == expected, width


class TestHuffmanTableCaches:
    """The one byte-bounded LRU table cache behind ``cached_from_bytes``."""

    def test_one_table_two_kinds_two_entries(self):
        import numpy as np

        from repro.codecs.huffman import SUPER_BITS, _TABLE_CACHE

        # A table no other test serializes (symbol order is part of the key).
        table_bytes = HuffmanTable(code_lengths={0x00: 1, 0x01: 2}).to_bytes()
        assert ("dc", table_bytes) not in _TABLE_CACHE._entries
        entries_before, bytes_before = len(_TABLE_CACHE), _TABLE_CACHE.resident_bytes
        luma = _decode_dc_then_ac(table_bytes)
        assert np.array_equal(luma[:, 0], np.ones(16)) and np.all(luma[:, 1] == -1)
        assert not luma[:, 2:].any()
        assert len(_TABLE_CACHE) == entries_before + 2
        dc_entry = _TABLE_CACHE._entries[("dc", table_bytes)]
        ac_entry = _TABLE_CACHE._entries[("ac", table_bytes)]
        # Each is charged at the miss, exactly its key and its own arrays.
        assert dc_entry[1] == len(table_bytes) + (9 << SUPER_BITS)
        assert ac_entry[1] == len(table_bytes) + (9 << SUPER_BITS)
        assert _TABLE_CACHE.resident_bytes == bytes_before + dc_entry[1] + ac_entry[1]
        # A second decode is two hits and builds nothing.
        _decode_dc_then_ac(table_bytes)
        assert _TABLE_CACHE._entries[("dc", table_bytes)] is dc_entry
        assert _TABLE_CACHE.resident_bytes == bytes_before + dc_entry[1] + ac_entry[1]

    def test_uncached_table_charges_nothing(self):
        """Parsing and scalar coding never touch the cache."""
        from repro.codecs.huffman import _TABLE_CACHE

        lengths = {0x00: 1, 0xA4: 2, 0xB8: 3, 0xCA: 4, 0xD2: 4}
        before = (_TABLE_CACHE.resident_bytes, len(_TABLE_CACHE))
        table = HuffmanTable(code_lengths=lengths)
        restored, _ = HuffmanTable.from_bytes(table.to_bytes())
        writer = BitWriter()
        table.encode_symbol(0xCA, writer)
        assert restored.decode_symbol(BitReader(writer.getvalue())) == 0xCA
        assert (_TABLE_CACHE.resident_bytes, len(_TABLE_CACHE)) == before

    def test_cached_from_bytes_hits_payload_cache(self):
        from repro.obs import get_registry

        table = HuffmanTable(
            code_lengths={0x00: 1, 0x15: 2, 0x2A: 3, 0x3F: 4, 0x4B: 4}
        )
        payload = table.to_bytes()
        hits = get_registry().counter("codec.table_cache.hits_total")
        misses = get_registry().counter("codec.table_cache.misses_total")
        misses_before = misses.value
        first, consumed = HuffmanTable.cached_from_bytes(payload + b"tail", "ac")
        assert misses.value == misses_before + 1
        hits_before = hits.value
        second, consumed2 = HuffmanTable.cached_from_bytes(payload, "ac")
        assert second is first
        assert consumed == consumed2 == len(payload)
        assert hits.value == hits_before + 1
        assert misses.value == misses_before + 1
        # Another kind of scan is another entry: a miss, and other arrays —
        # the same layout in the other flavour (a DC diff never advances).
        other, _ = HuffmanTable.cached_from_bytes(payload, "dc")
        assert misses.value == misses_before + 2
        assert len(other) == len(first) == 4
        dc_slots, ac_slots = other[1].view(np.int32), first[1].view(np.int32)
        dc_symbols, ac_symbols = dc_slots[dc_slots > 0], ac_slots[ac_slots > 0]
        assert not ((dc_symbols >> 5) & 0x7F).any() and ((ac_symbols >> 5) & 0x7F).any()

    @staticmethod
    def _noise_streams(seed: int, count: int, size: int = 24) -> list:
        import numpy as np

        from repro.codecs.image import ImageBuffer
        from repro.codecs.progressive import ProgressiveCodec

        rng = np.random.default_rng(seed)
        return [
            ProgressiveCodec(quality=90).encode(
                ImageBuffer.from_array(rng.integers(0, 256, (size, size, 3)).astype(np.uint8))
            )
            for _ in range(count)
        ]

    def test_cold_decode_charges_each_entry_exactly(self, monkeypatch):
        """A ten-scan colour stream: one entry per scan, each of one kind."""
        from repro.codecs.huffman import SUPER_BITS, _LRUByteCache
        from repro.codecs import huffman
        from repro.codecs.markers import find_scan_segments
        from repro.codecs.progressive import decode_coefficients

        cache = _LRUByteCache("testonly.cold", 64 << 20)
        monkeypatch.setattr(huffman, "_TABLE_CACHE", cache)
        (stream,) = self._noise_streams(43, 1, size=32)
        assert len(find_scan_segments(stream)) == 10
        decode_coefficients(stream)
        assert len(cache) == 10
        kinds = [kind for kind, _ in cache._entries]
        assert kinds.count("dc") == 1 and kinds.count("ac") == 9
        for (kind, serialized), ((tables, _), charge) in cache._entries.items():
            # Either kind: one block of its own flavour (the interleaved pair
            # table and the walk's strides), and the long codes.
            assert charge == len(serialized) + (9 << SUPER_BITS) + 4 * len(tables[-1])
        assert cache.resident_bytes == _held_bytes(cache)

    def test_long_codes_are_charged(self, monkeypatch):
        """An entry is charged its long codes too, 4 bytes each."""
        from repro.codecs import huffman
        from repro.codecs.huffman import MAX_CODE_LENGTH, SUPER_BITS, _LRUByteCache

        cache = _LRUByteCache("testonly.long", 64 << 20)
        monkeypatch.setattr(huffman, "_TABLE_CACHE", cache)
        # A complete code with one code at each length 1..15 and two at 16:
        # those longer than the window overflow it.
        lengths = {symbol: symbol for symbol in range(1, 16)}
        lengths[16] = lengths[17] = 16
        n_long = MAX_CODE_LENGTH - SUPER_BITS + 1
        serialized = RuntimeHuffmanTable(code_lengths=lengths).to_bytes()
        for kind in ("dc", "ac"):
            tables, _ = RuntimeHuffmanTable.cached_from_bytes(serialized, kind)
            assert len(tables[-1]) == n_long
            charge = len(serialized) + (9 << SUPER_BITS) + 4 * n_long
            assert cache._entries[(kind, serialized)][1] == charge
        assert cache.resident_bytes == _held_bytes(cache)

    def test_mixed_scans_read_both_flavours(self, monkeypatch):
        """A baseline colour stream: each mixed scan reads its table's two entries."""
        from repro.codecs import huffman
        from repro.codecs.baseline import BaselineCodec
        from repro.codecs.huffman import SUPER_BITS, _LRUByteCache
        from repro.codecs.image import ImageBuffer
        from repro.codecs.markers import find_scan_segments
        from repro.codecs.progressive import decode_coefficients
        from repro.obs import get_registry
        from tests.codec_reference import decode_coefficients_reference

        cache = _LRUByteCache("testonly.mixed", 64 << 20)
        monkeypatch.setattr(huffman, "_TABLE_CACHE", cache)
        image = np.random.default_rng(53).integers(0, 256, (32, 32, 3)).astype(np.uint8)
        stream = BaselineCodec(90).encode(ImageBuffer.from_array(image))
        segments = find_scan_segments(stream)
        assert len(segments) == 3
        serialized_tables = set()
        for segment in segments:
            assert segment.header.spectral_start == 0 < segment.header.spectral_end
            body = stream[segment.payload_start : segment.end]
            serialized_tables.add(body[: 18 + int.from_bytes(body[:2], "little")])
        coefficients, _ = decode_coefficients(stream)
        # Exactly one entry per flavour per distinct table, each one block.
        assert set(cache._entries) == {
            (kind, serialized) for serialized in serialized_tables for kind in ("dc", "ac")
        }
        for (_, serialized), ((tables, _), charge) in cache._entries.items():
            assert charge == len(serialized) + (9 << SUPER_BITS) + 4 * len(tables[-1])
        assert cache.resident_bytes == _held_bytes(cache)
        # A second decode is all hits: two lookups per mixed scan.
        hits = get_registry().counter("testonly.mixed.hits_total")
        misses = get_registry().counter("testonly.mixed.misses_total")
        hits_before, misses_before = hits.value, misses.value
        again, _ = decode_coefficients(stream)
        assert misses.value == misses_before
        assert hits.value == hits_before + 2 * len(segments)
        expected, _ = decode_coefficients_reference(stream)
        for decoded in (coefficients, again):
            for plane, want in zip(decoded.planes, expected.planes):
                assert np.array_equal(plane, want)

    def test_concurrent_misses_leave_an_exact_charge(self):
        """Four threads, the same streams, all cold: no over-count."""
        import sys
        import threading

        import numpy as np

        from repro.codecs.huffman import _TABLE_CACHE
        from repro.codecs.progressive import decode_coefficients
        from repro.obs import get_registry
        from tests.codec_reference import decode_coefficients_reference

        from repro.codecs.markers import find_scan_segments

        streams = self._noise_streams(47, 3)  # a seed no other test decodes
        keys = set()
        for stream in streams:
            for segment in find_scan_segments(stream):
                body = stream[segment.payload_start : segment.end]
                kind = "dc" if segment.header.spectral_end == 0 else "ac"
                keys.add((kind, body[: 18 + int.from_bytes(body[:2], "little")]))
        assert len(keys) >= 25 and len(keys - set(_TABLE_CACHE._entries)) >= 25  # cold
        expected = [decode_coefficients_reference(stream)[0] for stream in streams]
        results: dict = {}
        barrier = threading.Barrier(4)

        def work(slot: int) -> None:
            barrier.wait(timeout=30)
            results[slot] = [decode_coefficients(stream)[0] for stream in streams]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for decoded in results.values():
            for got, want in zip(decoded, expected):
                for got_plane, want_plane in zip(got.planes, want.planes):
                    assert np.array_equal(got_plane, want_plane)
        # However many threads built a key, one entry stands and is charged once.
        assert keys <= set(_TABLE_CACHE._entries)
        gauge = get_registry().gauge("codec.table_cache.bytes")
        assert gauge.value == _TABLE_CACHE.resident_bytes == _held_bytes(_TABLE_CACHE)

    def test_budget_bounds_what_the_cache_pins(self, monkeypatch):
        """The byte bound, checked from outside the cache's own accounting.

        Decoding streams that carry several budgets' worth of distinct
        tables must keep the charge under the budget, the charge must be
        what the held entries really pin — computed from their arrays —
        and an evicted entry's tables must be *collectable*: nothing else
        may keep them alive.
        """
        import gc
        import weakref

        from repro.codecs.huffman import SUPER_BITS, _TABLE_CACHE
        from repro.codecs.progressive import decode_coefficients
        from repro.obs import get_registry

        # Fourteen bundles' worth (≈ 1 MiB at 13-bit windows): the six
        # streams' sixty tables are several budgets at any width.
        budget = 14 * (9 << SUPER_BITS)
        monkeypatch.setattr(_TABLE_CACHE, "max_bytes", budget)
        registry = get_registry()
        gauge = registry.gauge("codec.table_cache.bytes")
        misses = registry.counter("codec.table_cache.misses_total")
        evictions = registry.counter("codec.table_cache.evictions_total")

        def watch_held() -> list:
            # Every entry's pair block, which its numpy views keep alive.
            return [weakref.ref(tables[0]) for (tables, _), _ in _TABLE_CACHE._entries.values()]

        misses_before, evictions_before = misses.value, evictions.value
        watched = []
        for stream in self._noise_streams(41, 6):
            decode_coefficients(stream)
            assert _TABLE_CACHE.resident_bytes <= budget
            assert gauge.value == _TABLE_CACHE.resident_bytes == _held_bytes(_TABLE_CACHE)
            # What the first decode left: every entry is evicted by the end.
            watched = watched or watch_held()
        distinct = misses.value - misses_before
        assert distinct * (8 << SUPER_BITS) >= 3 * budget
        assert evictions.value - evictions_before >= distinct - len(_TABLE_CACHE)
        assert watched
        gc.collect()
        assert [ref for ref in watched if ref() is not None] == []

    def test_lru_eviction_respects_byte_budget(self):
        from repro.codecs.huffman import _LRUByteCache

        cache = _LRUByteCache("testonly", max_bytes=100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        cache.put("c", 3, 40)
        assert cache.resident_bytes <= 100
        assert len(cache) == 2
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("c") == 3

    def test_lru_keeps_most_recent_even_over_budget(self):
        from repro.codecs.huffman import _LRUByteCache

        cache = _LRUByteCache("testonly", max_bytes=10)
        cache.put("big", 1, 500)
        assert len(cache) == 1
        assert cache.get("big") == 1

    def test_put_on_a_held_key_replaces_its_charge(self):
        from repro.codecs.huffman import _LRUByteCache

        cache = _LRUByteCache("testonly", max_bytes=100)
        cache.put("a", 1, 30)
        cache.put("b", 2, 30)
        cache.put("b", 3, 90)  # a second build of one key: replaced, not added
        assert cache.resident_bytes == 90
        assert cache.get("a") is None  # pushed out by the larger charge
        assert cache.get("b") == 3
        cache.put("b", 4, 20)
        assert cache.resident_bytes == 20 and len(cache) == 1

    def test_from_bytes_rejects_count_mismatch(self):
        table = HuffmanTable.from_symbols([1, 2, 3, 4])
        payload = bytearray(table.to_bytes())
        payload[0] += 1  # claim one more symbol than the counts describe
        with pytest.raises(ValueError):
            HuffmanTable.from_bytes(bytes(payload) + b"\x00")

    def test_from_bytes_rejects_duplicate_symbols(self):
        table = HuffmanTable.from_symbols([1, 1, 2, 2, 3])
        payload = bytearray(table.to_bytes())
        payload[-1] = payload[-2]  # repeat a symbol in the symbol list
        with pytest.raises(ValueError):
            HuffmanTable.from_bytes(bytes(payload))
