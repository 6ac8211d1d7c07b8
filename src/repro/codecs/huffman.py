"""Canonical Huffman coding with serializable tables.

Each scan in the PCR codec carries an optimized Huffman table for its symbol
alphabet (mirroring ``jpegtran -optimize``).  Tables are serialized in
canonical form: a list of code lengths followed by the symbols ordered by
(length, symbol value), which is the same structure as a JPEG DHT segment.

Decoding has two implementations over the same tables:

* ``decode_symbol`` — the scalar reference: one bit at a time, probing the
  ``(code, length)`` dict at each length.  Kept for differential testing.
* the *superscalar* pair LUT — a table indexed by the next ``SUPER_BITS``
  stream bits whose entries fully decode up to **two** complete
  ``(code, magnitude)`` symbols, including the signed coefficient value,
  since the magnitude bits are part of the window the table is indexed by.
  See :func:`_build_super_tables` for the entry packing and
  ``docs/performance.md`` for the decode loops built on it.  A symbol too
  wide for the window escapes to a two-level lookup table: the primary
  table is indexed by the next ``LUT_BITS`` (8) stream bits and resolves
  every code of length <= 8 in one probe; longer codes land in a per-prefix
  secondary table indexed by the following 8 bits (``MAX_CODE_LENGTH`` is
  16, so two levels always suffice).  See :class:`_TableSet` for the fused
  AC / DC entry packings.

A table a caller builds (``from_counts``, ``from_bytes``, the constructor)
builds and keeps its own decode tables; nothing else references them.  The
decode tiers instead fetch tables through :meth:`HuffmanTable.cached_from_bytes`,
the one cached route: a byte-bounded LRU keyed on the serialized table bytes
that is charged what an entry really pins (key + two-level LUTs at insert,
the pair/walk tables when they are lazily built), so an eviction frees the
memory and ``REPRO_HUFFMAN_TABLE_CACHE_BYTES`` is a true bound.  Every scan
of every image carries its own optimised table, so the cache only helps a
dataset whose tables fit the budget and are decoded again (later epochs);
it exports ``codec.table_cache.*`` hit/miss/evict/byte metrics on the
default :mod:`repro.obs` registry.
"""

from __future__ import annotations

import heapq
import os
import struct
import threading
from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass, field

from repro.codecs.bitio import BitReader, BitWriter
from repro.obs import get_registry

MAX_CODE_LENGTH = 16

#: Width of the primary decode LUT index.
LUT_BITS = 8

#: Width of the superscalar decode window: one probe of a ``1 << SUPER_BITS``
#: entry table resolves up to two complete (code + magnitude) symbols.
#: Tuned empirically: 13 keeps the whole working set (pair tables + walk
#: byte table) cache-resident while still pairing ~85% of real probes;
#: wider windows raise the pair rate a little but lose more to cache
#: misses and table-build cost.  Any value up to ``MAX_CODE_LENGTH`` works.
SUPER_BITS = 13

#: Offset added to the signed value field of a superscalar entry so it packs
#: as a non-negative bit field.  AC categories are a nibble (<= 15), so
#: ``|value| <= 32767`` and the offset field is always in ``[1, 65535]``
#: (0 is reserved for "no coefficient").  Fixed at ``1 << 15`` — it bounds
#: magnitudes, not windows, so it must not shrink with ``SUPER_BITS``.
SUPER_VALUE_OFFSET = 1 << 15

#: Nominal resident cost of one two-level-LUT slot (8-byte list slot plus an
#: amortized share of the int objects it references).  The cache budget
#: below is enforced against this estimate, not ``sys.getsizeof`` walks.
_BYTES_PER_SLOT = 44

#: Exact bytes of one full superscalar table build: the two interleaved
#: pair tables (AC and DC flavours, ``2 << SUPER_BITS`` int32 slots each)
#: plus the AC walk products (two ``1 << SUPER_BITS`` int32 slot arrays and
#: one ``1 << SUPER_BITS`` byte table): ``(8 + 8 + 4 + 4 + 1) << SUPER_BITS``.
SUPER_TABLE_NBYTES = 25 << SUPER_BITS


class _LRUByteCache:
    """A thread-safe LRU mapping bounded by a byte budget.

    Every operation updates the ``<metrics>.*`` family on the default obs
    registry: ``hits_total`` / ``misses_total`` / ``evictions_total``
    counters plus ``bytes`` and ``entries`` gauges.  Entries whose resident
    cost grows after insertion (lazily built superscalar tables) are
    re-accounted via :meth:`recharge`.

    The budget bounds memory only if an entry is charged everything it
    pins and the cache holds the last long-lived reference to it: eviction
    then frees the bytes as soon as in-flight users drop theirs.
    """

    def __init__(self, metrics: str, max_bytes: int) -> None:
        self.metrics = metrics
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0

    # Metrics are resolved per call rather than cached: registry lookups are
    # idempotent and this path runs once per scan, not per symbol.
    def _count(self, event: str, amount: int = 1) -> None:
        get_registry().counter(f"{self.metrics}.{event}_total").inc(amount)

    def _sync_gauges(self) -> None:
        registry = get_registry()
        registry.gauge(f"{self.metrics}.bytes").set(self._bytes)
        registry.gauge(f"{self.metrics}.entries").set(len(self._entries))

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("misses")
                return None
            self._entries.move_to_end(key)
        self._count("hits")
        return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        with self._lock:
            self._store(key, value, int(nbytes))

    def recharge(self, key, delta: int) -> None:
        """Grow an entry's accounted size in place (lazy superscalar build).

        A key evicted between the build and this call is simply ignored —
        the built tables live exactly as long as the in-flight decode that
        still holds the table, and are no longer the cache's to count.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._store(key, entry[0], entry[1] + int(delta))

    def _store(self, key, value, nbytes: int) -> None:
        """(Re)insert ``key`` as most recent, then evict from the cold end."""
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._bytes -= previous[1]
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        # Always keep the most recent entry, even when it alone exceeds the
        # budget: the caller is about to use it.
        evicted = 0
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, (_, freed) = self._entries.popitem(last=False)
            self._bytes -= freed
            evicted += 1
        if evicted:
            self._count("evictions", evicted)
        self._sync_gauges()

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)


#: Serialized-table-bytes key -> ``(HuffmanTable, bytes_consumed)``: the one
#: table cache (see :meth:`HuffmanTable.cached_from_bytes`).  The budget is
#: in real bytes — an entry is charged its key, its two-level LUTs and, once
#: built, its pair/walk tables (≈ 260 KB all told) — so the default holds
#: about a thousand tables, a hundred ten-scan images.
_TABLE_CACHE = _LRUByteCache(
    "codec.table_cache",
    int(os.environ.get("REPRO_HUFFMAN_TABLE_CACHE_BYTES", 256 << 20)),
)


@dataclass
class HuffmanTable:
    """A canonical Huffman code over integer symbols in ``[0, 255]``."""

    code_lengths: dict[int, int]
    _encode_map: dict[int, tuple[int, int]] = field(default_factory=dict, repr=False)
    _decode_map: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _tables: "_TableSet | None" = field(default=None, repr=False, compare=False)
    _encode_arrays: "tuple[list[int], list[int]] | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Canonical code assignment.  The maps are filled once, here, and
        # never mutated again: the lazily built table set reads them.
        ordered = sorted(self.code_lengths.items(), key=lambda kv: (kv[1], kv[0]))
        code = 0
        previous_length = 0
        for symbol, length in ordered:
            code <<= length - previous_length
            previous_length = length
            self._encode_map[symbol] = (code, length)
            self._decode_map[(code, length)] = symbol
            code += 1

    @classmethod
    def from_symbols(cls, symbols: list[int]) -> "HuffmanTable":
        """Build an optimal (length-limited) code from observed symbols."""
        return cls.from_counts(Counter(symbols))

    @classmethod
    def from_counts(cls, counts: Counter | dict[int, int]) -> "HuffmanTable":
        """Build an optimal code from a symbol-frequency mapping.

        Zero-count entries are ignored; produces the identical table to
        ``from_symbols`` on the underlying symbol sequence.
        """
        counts = Counter({s: c for s, c in counts.items() if c > 0})
        if not counts:
            # A table still needs at least one symbol to be serializable.
            return cls(code_lengths={0: 1})
        if len(counts) == 1:
            only = next(iter(counts))
            return cls(code_lengths={only: 1})
        lengths = _package_merge_lengths(counts, MAX_CODE_LENGTH)
        return cls(code_lengths=lengths)

    # -- scalar reference paths ------------------------------------------------

    def encode_symbol(self, symbol: int, writer: BitWriter) -> None:
        """Write the code for ``symbol`` to ``writer``."""
        try:
            code, length = self._encode_map[symbol]
        except KeyError as exc:
            raise KeyError(f"symbol {symbol} not present in Huffman table") from exc
        writer.write_bits(code, length)

    def decode_symbol(self, reader: BitReader) -> int:
        """Read one symbol from ``reader`` (scalar reference path)."""
        code = 0
        for length in range(1, MAX_CODE_LENGTH + 1):
            code = (code << 1) | reader.read_bit()
            symbol = self._decode_map.get((code, length))
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in bit stream")

    # -- table-driven fast paths -----------------------------------------------

    def scan_tables(self) -> "_TableSet":
        """Return the table set (fused AC/DC scan LUTs), built on first use."""
        if self._tables is None:
            self._tables = _build_table_set(self._encode_map)
        return self._tables

    def encode_arrays(self) -> tuple[list[int], list[int]]:
        """Return per-symbol ``(codes, lengths)`` arrays indexed by symbol.

        Absent symbols have length 0; callers encode only symbols that were
        counted into the table, so a 0 length is never hit on valid input.
        Built directly from the code map, not from the decode LUTs: encoding
        uses a fresh optimized table per scan, where paying the LUT fill cost
        would be pure waste.
        """
        if self._encode_arrays is None:
            codes = [0] * 256
            lengths = [0] * 256
            for symbol, (code, length) in self._encode_map.items():
                codes[symbol] = code
                lengths[symbol] = length
            self._encode_arrays = (codes, lengths)
        return self._encode_arrays

    # -- serialization ---------------------------------------------------------

    def code_length(self, symbol: int) -> int:
        """Return the code length of ``symbol`` in bits."""
        return self.code_lengths[symbol]

    def to_bytes(self) -> bytes:
        """Serialize as a DHT-style segment: 16 length counts + symbols."""
        ordered = sorted(self.code_lengths.items(), key=lambda kv: (kv[1], kv[0]))
        counts = [0] * MAX_CODE_LENGTH
        symbols = bytearray(len(ordered))
        for index, (symbol, length) in enumerate(ordered):
            counts[length - 1] += 1
            symbols[index] = symbol
        return struct.pack("<H", len(ordered)) + bytes(counts) + bytes(symbols)

    @classmethod
    def from_bytes(cls, payload: bytes) -> tuple["HuffmanTable", int]:
        """Deserialize a table; returns ``(table, bytes_consumed)``."""
        if len(payload) < 2 + MAX_CODE_LENGTH:
            raise ValueError("Huffman table payload too short")
        (n_symbols,) = struct.unpack("<H", payload[:2])
        counts = payload[2 : 2 + MAX_CODE_LENGTH]
        symbols_start = 2 + MAX_CODE_LENGTH
        symbols_end = symbols_start + n_symbols
        if len(payload) < symbols_end:
            raise ValueError("Huffman table payload truncated")
        symbols = payload[symbols_start:symbols_end]
        if sum(counts) != n_symbols:
            raise ValueError("Huffman table length counts disagree with symbol count")
        code_lengths: dict[int, int] = {}
        cursor = 0
        for length_minus_one, count in enumerate(counts):
            for _ in range(count):
                code_lengths[symbols[cursor]] = length_minus_one + 1
                cursor += 1
        if len(code_lengths) != n_symbols:
            raise ValueError("duplicate symbol in Huffman table payload")
        return cls(code_lengths=code_lengths), symbols_end

    @classmethod
    def cached_from_bytes(cls, payload: bytes) -> tuple["HuffmanTable", int]:
        """Like :meth:`from_bytes`, but cached on the serialized table bytes.

        The only cached route to a table.  A repeated decode of a scan
        (the same image in a later epoch) reuses the deserialized table
        *with its LUTs already built*; tables do not recur across scans or
        images, each scan carries its own optimised one.  The returned
        table must be treated as read-only.
        """
        if len(payload) < 2 + MAX_CODE_LENGTH:
            raise ValueError("Huffman table payload too short")
        (n_symbols,) = struct.unpack("<H", payload[:2])
        key = bytes(payload[: 2 + MAX_CODE_LENGTH + n_symbols])
        cached = _TABLE_CACHE.get(key)
        if cached is None:
            table, consumed = cls.from_bytes(payload)
            tables = table.scan_tables()
            # The pair/walk tables are built lazily on the first fast
            # decode; their cost joins this entry's charge then.  The
            # closure holds the key only, so the cache entry stays the one
            # long-lived reference to the table.  (Two threads missing on
            # one key at once both build and both recharge the surviving
            # entry: an over-count until it is evicted, never an under-count.)
            tables._on_super_built = lambda: _TABLE_CACHE.recharge(
                key, SUPER_TABLE_NBYTES
            )
            cached = (table, consumed)
            _TABLE_CACHE.put(key, cached, len(key) + tables.nbytes())
        return cached


class _TableSet:
    """All derived decode tables for one canonical Huffman code.

    Two packings of the same two-level (8-bit primary, 8-bit secondary)
    LUT coexist, one per symbol alphabet.  In both flavours, entry 0 marks
    an invalid prefix and a negative primary entry ``-(i + 1)`` points at
    secondary table ``i``:

    * ``ac_*`` — ``(run << 12) | (category << 6) | (code_length + category)``
      with EOB mapped to ``run = 64`` (jumps past any band and ends the
      block loop without a branch) and ZRL to ``run = 16``.  The low field
      is the *fused* bit consumption of the code plus its magnitude bits.
    * ``dc_*`` — ``(category << 12) | (code_length + category)`` where the
      category is the full symbol value (DC deltas have no run nibble).

    On top of these sit the lazily built *superscalar* pair tables
    (:meth:`superscalar_tables`, one AC and one DC flavour):
    ``SUPER_BITS``-bit-window LUTs whose entries fully decode up to two
    (code + magnitude) symbols — see :func:`_build_super_tables` for the
    packing — plus the de-interleaved AC *walk* products
    (:meth:`walk_tables`) that drive the vectorized batch walk in
    ``fastpath``.  They are built on the first superscalar decode of a
    given table, not at construction, so encode-only and scalar users
    never pay for them.
    """

    __slots__ = (
        "ac_primary",
        "ac_secondary",
        "dc_primary",
        "dc_secondary",
        "_encode_map",
        "_super",
        "_super_lock",
        "_on_super_built",
        "__weakref__",
    )

    def __init__(
        self,
        ac_primary: list[int],
        ac_secondary: list[list[int]],
        dc_primary: list[int],
        dc_secondary: list[list[int]],
        encode_map: dict[int, tuple[int, int]],
    ) -> None:
        self.ac_primary = ac_primary
        self.ac_secondary = ac_secondary
        self.dc_primary = dc_primary
        self.dc_secondary = dc_secondary
        self._encode_map = encode_map
        self._super = None
        self._super_lock = threading.Lock()
        self._on_super_built = None

    def nbytes(self) -> int:
        """Approximate resident bytes of the two-level LUTs (cache charge)."""
        n_tables = 1 + len(self.ac_secondary)
        return 2 * n_tables * (1 << LUT_BITS) * _BYTES_PER_SLOT

    def superscalar_tables(self):
        """Return ``(ac_pair, dc_pair)``, built lazily.

        Each is an interleaved ``array('i')`` of ``2 << SUPER_BITS`` packed
        entries: for a window ``w``, slot ``2 * w`` holds the first symbol
        and slot ``2 * w + 1`` the second — see :func:`_build_super_tables`.
        """
        return self._super_products()[:2]

    def walk_tables(self):
        """Return ``(slots1, slots2, pairbits)`` for the batched AC walk.

        ``slots1`` / ``slots2`` are ``numpy.int32`` arrays of ``1 << SUPER_BITS``
        entries holding the first and second packed symbol per window (the
        de-interleaved AC pair table; ``slots1`` keeps the 0 = invalid /
        ``-1`` = fallback sentinels).  ``pairbits`` is a ``numpy.uint8``
        array whose entry is the *total* bit consumption of every symbol
        that fully fits in the window — the stride of one walk step — and
        0 where the walk must escape to the two-level path (invalid prefix
        or oversized first code).  Built with, and kept alongside, the
        pair tables.
        """
        return self._super_products()[2:]

    def _super_products(self):
        tables = self._super
        if tables is None:
            with self._super_lock:
                tables = self._super
                if tables is None:
                    tables = _build_super_tables(self._encode_map)
                    self._super = tables
                    callback = self._on_super_built
                    if callback is not None:
                        callback()
        return tables


def _build_super_tables(encode_map: dict[int, tuple[int, int]]):
    """Build the wide-window superscalar pair LUTs (AC and DC flavours).

    Returns ``(ac_pair, dc_pair, slots1, slots2, pairbits)``.  The first two
    are *interleaved* tables of ``2 << SUPER_BITS`` entries, one per
    flavour.  For a window ``w`` of the next ``SUPER_BITS`` stream bits
    (MSB-first), slot ``2 * w`` fully decodes the first symbol in the
    window and slot ``2 * w + 1`` the symbol that follows it — nonzero only
    when that second symbol's code + magnitude also fit in the window.  One
    index computation (the decode loops probe ``pair[w2]`` then
    ``pair[w2 | 1]`` with ``w2 = 2 * w``) resolves up to two complete
    symbols, and interleaving keeps both slots on one cache line.

    ``slots1`` / ``slots2`` / ``pairbits`` are the de-interleaved AC-flavour
    walk products documented on :meth:`_TableSet.walk_tables`.

    First-slot entries: ``0`` — invalid prefix (``ValueError``); ``-1`` —
    the first symbol's code + magnitude exceed 16 bits and the decode loop
    must fall back to the two-level path; otherwise a packed symbol.
    Second-slot entries: ``0`` — no second symbol fit; otherwise a packed
    symbol.  A packed symbol is ``consume | (posdelta << 5) | (voff << 12)``:

    * ``consume`` (bits 0–4): fused code + magnitude bit consumption,
      *per symbol* — the second symbol's bits are only consumed if the
      decode loop commits it (it may belong to the next block, which the
      table cannot know).
    * ``posdelta`` (bits 5–11): how far the symbol advances the in-band
      position — the zero-run *plus one* when the symbol carries a
      coefficient.  EOB is mapped to 64 (jumps past any band) and ZRL to
      16; a zero-category symbol with a nonzero run (the documented
      invalid-stream divergence treatment) advances by its bare run.
      Storing the fused advance instead of the raw run makes position
      tracking a single unconditional add and — crucially — makes
      ``cumsum(posdelta)`` over a whole scan's entry stream reconstruct
      every coefficient position *after the fact*, which is what the
      batched scan decode in :mod:`repro.codecs.fastpath` exploits.
      Always 0 in the DC flavour.
    * ``voff`` (bits 12–28): the decoded *signed* coefficient (AC) or DC
      diff plus ``SUPER_VALUE_OFFSET``.  In the AC flavour 0 means "no
      coefficient to write" (pure run: EOB / ZRL / the zero-category
      treatment above); real values are in ``[1, 65535]`` because an
      in-window magnitude has category <= 15.  The DC flavour always
      stores ``diff + SUPER_VALUE_OFFSET``.

    Packed symbols stay under 2**29, so every unpacking operation in the
    decode loops runs on CPython compact (single-digit) ints — packing
    both symbols into one wide entry was measurably *slower* because all
    field extractions became multi-digit big-int arithmetic.  Storage is
    ``array('i')`` (4 bytes/slot): denser than a list of int objects
    (~512 KiB instead of ~4.6 MiB per pair table, which also keeps the
    probe's working set cache-resident) and faster to build (one memcpy
    from the NumPy int32 buffer instead of 131072 ``PyLong`` boxes).

    Pairing is resolved in-table: the window shifted left by the first
    symbol's consumption (zero-filled) is probed against the same table,
    and the hit is kept only when the second symbol's consumption fits in
    the remaining real bits — in that case the prefix property guarantees
    the zero-filled probe resolved the true next symbol.

    Built with NumPy slice fills per code (a few hundred range assignments
    instead of ~200k Python loop iterations per flavour).
    """
    import numpy as np

    size = 1 << SUPER_BITS
    window = np.arange(size, dtype=np.int64)
    tables: list[array] = []
    for flavour in ("ac", "dc"):
        consume = np.zeros(size, dtype=np.int64)
        posdelta = np.zeros(size, dtype=np.int64)
        value = np.zeros(size, dtype=np.int64)
        valid = np.zeros(size, dtype=bool)
        fallback = np.zeros(size, dtype=bool)
        for symbol, (code, length) in encode_map.items():
            if flavour == "ac":
                if symbol == 0x00:  # EOB: jump past any band
                    sym_run, category = 64, 0
                elif symbol == 0xF0:  # ZRL: skip 16 zeros
                    sym_run, category = 16, 0
                else:
                    sym_run, category = symbol >> 4, symbol & 0x0F
            else:
                sym_run, category = 0, symbol
            if length > SUPER_BITS:
                # The code itself overflows the window: every window whose
                # bits are a prefix of this code (exactly one, since the
                # code is longer) must escape to the two-level path.
                fallback[code >> (length - SUPER_BITS)] = True
                continue
            span = 1 << (SUPER_BITS - length)
            base = code << (SUPER_BITS - length)
            window_slice = slice(base, base + span)
            # Guard before any `1 << category` shift: DC categories are raw
            # symbol values (up to 255) and would overflow int64.
            if length + category > SUPER_BITS:
                fallback[window_slice] = True
                continue
            consume[window_slice] = length + category
            if flavour == "ac":
                posdelta[window_slice] = sym_run + (1 if category else 0)
            valid[window_slice] = True
            if category:
                shift = SUPER_BITS - length - category
                magnitude = (np.arange(span, dtype=np.int64) >> shift) & (
                    (1 << category) - 1
                )
                signed = np.where(
                    magnitude >= (1 << (category - 1)),
                    magnitude,
                    magnitude - ((1 << category) - 1),
                )
                value[window_slice] = signed + SUPER_VALUE_OFFSET
            elif flavour == "dc":
                value[window_slice] = SUPER_VALUE_OFFSET
        first = np.where(valid, consume | (posdelta << 5) | (value << 12), 0)
        shifted = (window << consume) & (size - 1)
        second = first[shifted]
        second_consume = second & 31
        pair = (
            valid
            & (second_consume > 0)
            & (consume + second_consume <= SUPER_BITS)
        )
        first_entries = np.where(
            valid, first, np.where(fallback, np.int64(-1), np.int64(0))
        )
        second_entries = np.where(pair, second, 0)
        interleaved = np.empty(2 * size, dtype=np.int32)
        interleaved[0::2] = first_entries.astype(np.int32)
        interleaved[1::2] = second_entries.astype(np.int32)
        tables.append(array("i", interleaved.tobytes()))
        if flavour == "ac":
            # Walk products: the stride of a walk step is the total bits of
            # every symbol that fit (0 = escape), and the de-interleaved
            # slots let the batched decode gather both symbols per probe.
            slots1 = first_entries.astype(np.int32)
            slots2 = second_entries.astype(np.int32)
            pairbits = np.where(
                pair,
                consume + second_consume,
                np.where(valid, consume, 0),
            ).astype(np.uint8)
    return tables[0], tables[1], slots1, slots2, pairbits


def _build_table_set(encode_map: dict[int, tuple[int, int]]) -> _TableSet:
    """Build both two-level decode LUT flavours from a code map.

    The prefix property of Huffman codes guarantees a primary slot is either
    filled by exactly one short code or is the 8-bit prefix of only long
    codes, so the fill ranges never collide.
    """
    secondary_width = 1 << (MAX_CODE_LENGTH - LUT_BITS)
    ac_primary = [0] * (1 << LUT_BITS)
    dc_primary = [0] * (1 << LUT_BITS)
    ac_secondary: list[list[int]] = []
    dc_secondary: list[list[int]] = []
    prefix_to_secondary: dict[int, int] = {}
    for symbol, (code, length) in encode_map.items():
        if symbol == 0x00:  # EOB: jump past any band
            ac_run, ac_category = 64, 0
        elif symbol == 0xF0:  # ZRL: skip 16 zeros
            ac_run, ac_category = 16, 0
        else:
            ac_run, ac_category = symbol >> 4, symbol & 0x0F
        ac_entry = (ac_run << 12) | (ac_category << 6) | (length + ac_category)
        dc_entry = (symbol << 12) | (length + symbol)
        if length <= LUT_BITS:
            base = code << (LUT_BITS - length)
            span = 1 << (LUT_BITS - length)
            for index in range(base, base + span):
                ac_primary[index] = ac_entry
                dc_primary[index] = dc_entry
        else:
            prefix = code >> (length - LUT_BITS)
            table_index = prefix_to_secondary.get(prefix)
            if table_index is None:
                table_index = len(ac_secondary)
                prefix_to_secondary[prefix] = table_index
                ac_secondary.append([0] * secondary_width)
                dc_secondary.append([0] * secondary_width)
                pointer = -(table_index + 1)
                ac_primary[prefix] = pointer
                dc_primary[prefix] = pointer
            tail = code & ((1 << (length - LUT_BITS)) - 1)
            base = tail << (MAX_CODE_LENGTH - length)
            span = 1 << (MAX_CODE_LENGTH - length)
            for index in range(base, base + span):
                ac_secondary[table_index][index] = ac_entry
                dc_secondary[table_index][index] = dc_entry
    return _TableSet(
        ac_primary=ac_primary,
        ac_secondary=ac_secondary,
        dc_primary=dc_primary,
        dc_secondary=dc_secondary,
        # The owning table's own map (a set has exactly one owner, which
        # never mutates it): the lazy superscalar build reads it.
        encode_map=encode_map,
    )


def _package_merge_lengths(counts: Counter, max_length: int) -> dict[int, int]:
    """Compute length-limited Huffman code lengths.

    Uses plain Huffman construction and, in the rare case the resulting code
    exceeds ``max_length`` (possible only with extremely skewed counts),
    flattens the deepest levels by re-running with damped frequencies.
    """
    lengths = _plain_huffman_lengths(counts)
    damping = 1
    while max(lengths.values()) > max_length:
        damping *= 2
        damped = Counter({s: (c + damping - 1) // damping + 1 for s, c in counts.items()})
        lengths = _plain_huffman_lengths(damped)
    return lengths


def _plain_huffman_lengths(counts: Counter) -> dict[int, int]:
    """Huffman code lengths via parent-pointer tree construction.

    Tie-breaking matches the original list-merging formulation (stable
    (count, insertion-order) heap keys), so the resulting lengths — and
    therefore the canonical tables — are unchanged.
    """
    ordered = sorted(counts.items())
    n_leaves = len(ordered)
    heap = [(count, node, node) for node, (_, count) in enumerate(ordered)]
    heapq.heapify(heap)
    parents: dict[int, int] = {}
    next_node = n_leaves
    while len(heap) > 1:
        count_a, _, node_a = heapq.heappop(heap)
        count_b, _, node_b = heapq.heappop(heap)
        parents[node_a] = next_node
        parents[node_b] = next_node
        heapq.heappush(heap, (count_a + count_b, next_node, next_node))
        next_node += 1
    lengths: dict[int, int] = {}
    for leaf, (symbol, _) in enumerate(ordered):
        depth = 0
        node = leaf
        while node in parents:
            node = parents[node]
            depth += 1
        lengths[symbol] = depth
    return lengths
