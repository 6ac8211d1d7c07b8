"""Tests for bit I/O, Huffman coding, and run-length symbol coding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.huffman import HuffmanTable
from repro.codecs.rle import (
    EOB_SYMBOL,
    ZRL_SYMBOL,
    ac_band_symbols,
    dc_symbols,
    decode_magnitude,
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

    def test_write_many_matches_write_bits(self):
        pairs = [(0b1, 1), (0b1011, 4), (0, 3), (0xFFFF, 16), (0b10, 2)]
        one_by_one = BitWriter()
        for value, width in pairs:
            one_by_one.write_bits(value, width)
        batched = BitWriter()
        batched.write_many(
            [value for value, _ in pairs], [width for _, width in pairs]
        )
        assert batched.getvalue() == one_by_one.getvalue()

    @given(st.lists(st.tuples(st.integers(0, 2**20 - 1), st.integers(1, 20)), max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_write_many_property(self, pairs):
        clipped = [(value % (1 << bits), bits) for value, bits in pairs]
        one_by_one = BitWriter()
        for value, width in clipped:
            one_by_one.write_bits(value, width)
        batched = BitWriter()
        batched.write_many(
            [value for value, _ in clipped], [width for _, width in clipped]
        )
        assert batched.getvalue() == one_by_one.getvalue()

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
        assert table.code_length(1) <= table.code_length(2) <= table.code_length(3)

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
        # A single-symbol table assigns only code "0" (length 1); every bit
        # pattern starting with "1" hits an unfilled primary slot and must
        # be rejected, exactly as the dict probe rejects it.
        table = HuffmanTable(code_lengths={7: 1})
        tables = table.scan_tables()
        assert tables.ac_primary[0xFF] == tables.dc_primary[0xFF] == 0
        with pytest.raises(ValueError, match="invalid Huffman code"):
            table.decode_symbol(BitReader(b"\xff\xff"))
        # A complete code (every prefix decodable) leaves no empty slots.
        complete = HuffmanTable.from_symbols([1, 1, 1, 2]).scan_tables()
        assert all(entry != 0 for entry in complete.ac_primary + complete.dc_primary)

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
        table = HuffmanTable.from_symbols([0, 0, 1, 1, 1, 2, 3, 3, 3, 3, 4])
        payload = table.to_bytes()
        first, consumed_first = HuffmanTable.cached_from_bytes(payload + b"tail")
        second, consumed_second = HuffmanTable.cached_from_bytes(payload + b"liat")
        assert consumed_first == consumed_second == len(payload)
        assert first.code_lengths == table.code_lengths
        assert first is second  # served from the table cache


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
    """Structural invariants of the lazily built superscalar pair/walk LUTs."""

    @staticmethod
    def _table():
        # Skewed AC-style symbol mix so the code has short and long codes.
        symbols = (
            [EOB_SYMBOL] * 120
            + [0x11] * 60
            + [0x21] * 25
            + [0x12] * 10
            + [ZRL_SYMBOL] * 4
            + [0x53, 0x04, 0x81]
        )
        return HuffmanTable.from_symbols(symbols)

    def test_pair_table_shapes(self):
        import numpy as np
        from repro.codecs.huffman import SUPER_BITS

        tables = self._table().scan_tables()
        ac_pair, dc_pair = tables.superscalar_tables()
        assert len(ac_pair) == 2 << SUPER_BITS
        assert len(dc_pair) == 2 << SUPER_BITS
        slots1, slots2, pairbits = tables.walk_tables()
        assert len(slots1) == len(slots2) == len(pairbits) == 1 << SUPER_BITS
        assert slots1.dtype == np.int32
        assert slots2.dtype == np.int32
        assert pairbits.dtype == np.uint8
        # The walk slots are the de-interleaved AC pair table.
        interleaved = np.frombuffer(bytes(ac_pair), dtype=np.int32)
        assert np.array_equal(slots1, interleaved[0::2])
        assert np.array_equal(slots2, interleaved[1::2])

    def test_pairbits_is_sum_of_fitting_consumes(self):
        import numpy as np

        slots1, slots2, pairbits = self._table().scan_tables().walk_tables()
        valid = slots1 > 0
        # Stride of one walk step == first consume + second consume (when a
        # second symbol fit); escape windows (invalid prefix / fallback)
        # must have stride 0 so the walk stalls and the scalar path takes
        # over at exactly that bit offset.
        expected = (slots1 & 31) + np.where(slots2 != 0, slots2 & 31, 0)
        assert np.array_equal(pairbits[valid], expected[valid].astype(np.uint8))
        assert not pairbits[~valid].any()
        # A second symbol never appears without a committed first symbol,
        # and a committed pair always fits the probe window.
        assert not slots2[~valid].any()

    def test_pair_windows_fit_in_window(self):
        from repro.codecs.huffman import SUPER_BITS

        slots1, slots2, pairbits = self._table().scan_tables().walk_tables()
        assert int(pairbits.max()) <= SUPER_BITS

    def test_deep_code_table_builds_fallback_windows(self):
        import numpy as np

        # A complete canonical code with 16-bit leaves: windows whose first
        # code + magnitude exceed the probe width must carry the -1
        # fallback sentinel with a zero stride, not crash the build.
        lengths = {}
        symbols = iter(range(1, 250))
        for length in range(1, 15):
            lengths[next(symbols)] = length
        lengths[next(symbols)] = 15
        lengths[next(symbols)] = 16
        lengths[next(symbols)] = 16
        table = HuffmanTable(code_lengths=lengths)
        slots1, slots2, pairbits = table.scan_tables().walk_tables()
        fallback = slots1 == -1
        assert fallback.any()
        assert not pairbits[fallback].any()
        assert not slots2[fallback].any()
        assert np.all(slots1[slots1 > 0] < (1 << 29))


class TestHuffmanTableCaches:
    """The one byte-bounded LRU table cache behind ``cached_from_bytes``."""

    def test_super_build_recharges_lut_cache(self):
        from repro.codecs.huffman import SUPER_TABLE_NBYTES, _TABLE_CACHE
        from repro.obs import get_registry

        # A code-length set no other test uses, so the first fetch is cold.
        payload = HuffmanTable(
            code_lengths={0x00: 1, 0xA3: 2, 0xB7: 3, 0xC9: 4, 0xD1: 4}
        ).to_bytes()
        gauge = get_registry().gauge("codec.table_cache.bytes")
        outside = _TABLE_CACHE.resident_bytes
        table, _ = HuffmanTable.cached_from_bytes(payload)
        tables = table.scan_tables()
        # Charged at insert: the key and the two-level LUTs.
        before = gauge.value
        assert before == _TABLE_CACHE.resident_bytes
        assert before == outside + len(payload) + tables.nbytes()
        tables.superscalar_tables()
        assert gauge.value == before + SUPER_TABLE_NBYTES
        # The lazy build runs once; further calls return the built arrays.
        tables.walk_tables()
        assert gauge.value == before + SUPER_TABLE_NBYTES

    def test_uncached_table_owns_its_set_and_charges_nothing(self):
        from repro.codecs.huffman import _TABLE_CACHE

        lengths = {0x00: 1, 0xA4: 2, 0xB8: 3, 0xCA: 4, 0xD2: 4}
        before = (_TABLE_CACHE.resident_bytes, len(_TABLE_CACHE))
        first, second = HuffmanTable(code_lengths=lengths), HuffmanTable(code_lengths=lengths)
        first.scan_tables().walk_tables()
        assert first.scan_tables() is first.scan_tables()
        assert first.scan_tables() is not second.scan_tables()
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
        first, consumed = HuffmanTable.cached_from_bytes(payload + b"tail")
        assert misses.value == misses_before + 1
        hits_before = hits.value
        second, consumed2 = HuffmanTable.cached_from_bytes(payload)
        assert second is first
        assert second.scan_tables() is first.scan_tables()
        assert consumed == consumed2 == len(payload)
        assert hits.value == hits_before + 1
        assert misses.value == misses_before + 1

    def test_budget_bounds_what_the_cache_pins(self, monkeypatch):
        """The byte bound, checked from outside the cache's own accounting.

        Decoding streams that carry several budgets' worth of distinct
        tables must keep the charge under the budget, the charge must be
        what the held entries really pin, and an evicted entry's tables
        must be *collectable* — nothing else may keep them alive.
        """
        import gc
        import weakref

        import numpy as np

        from repro.codecs import config
        from repro.codecs.huffman import SUPER_TABLE_NBYTES, _TABLE_CACHE
        from repro.codecs.image import ImageBuffer
        from repro.codecs.progressive import ProgressiveCodec, decode_coefficients
        from repro.obs import get_registry

        budget = 2 << 20
        monkeypatch.setattr(_TABLE_CACHE, "max_bytes", budget)
        registry = get_registry()
        gauge = registry.gauge("codec.table_cache.bytes")
        misses = registry.counter("codec.table_cache.misses_total")
        evictions = registry.counter("codec.table_cache.evictions_total")

        def held() -> int:
            total = 0
            for key, ((table, _), _) in _TABLE_CACHE._entries.items():
                tables = table.scan_tables()
                total += len(key) + tables.nbytes()
                total += SUPER_TABLE_NBYTES if tables._super is not None else 0
            return total

        rng = np.random.default_rng(41)
        streams = [
            ProgressiveCodec(quality=90).encode(
                ImageBuffer.from_array(rng.integers(0, 256, (24, 24, 3)).astype(np.uint8))
            )
            for _ in range(6)
        ]
        def watch_held() -> list:
            refs = []
            for (table, _), _ in _TABLE_CACHE._entries.values():
                tables = table.scan_tables()
                refs += [weakref.ref(tables), weakref.ref(tables.walk_tables()[0])]
            return refs

        misses_before, evictions_before = misses.value, evictions.value
        watched = []
        with config.use_fastpath(True):
            for stream in streams:
                decode_coefficients(stream)
                assert _TABLE_CACHE.resident_bytes <= budget
                assert gauge.value == _TABLE_CACHE.resident_bytes == held()
                # What the first decode left: every entry is evicted by the end.
                watched = watched or watch_held()
        distinct = misses.value - misses_before
        assert distinct * SUPER_TABLE_NBYTES >= 3 * budget
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

    def test_recharge_grows_accounting_and_can_evict(self):
        from repro.codecs.huffman import _LRUByteCache

        cache = _LRUByteCache("testonly", max_bytes=100)
        cache.put("a", 1, 30)
        cache.put("b", 2, 30)
        cache.recharge("b", 60)
        assert cache.resident_bytes <= 100
        assert cache.get("a") is None  # pushed out by the recharge
        assert cache.get("b") == 2
        cache.recharge("missing", 10)  # evicted/unknown keys are a no-op
        assert cache.resident_bytes == 90

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
