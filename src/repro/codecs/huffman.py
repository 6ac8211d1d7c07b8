"""Canonical Huffman coding with serializable tables.

Each scan in the PCR codec carries an optimized Huffman table for its symbol
alphabet (mirroring ``jpegtran -optimize``).  Tables are serialized in
canonical form: a list of code lengths followed by the symbols ordered by
(length, symbol value), which is the same structure as a JPEG DHT segment.

Decoding runs through the *superscalar* window tables — one table family,
indexed by the next ``SUPER_BITS`` stream bits, whose entries fully decode
up to **two** complete ``(code, magnitude)`` symbols, including the signed
coefficient value, since the magnitude bits are part of the window the
table is indexed by.  A window whose first code fits but whose magnitude
does not stores that symbol's negated *plain entry* (run, category, bit
consumption) in place, and a code longer than the window is resolved
against the table's few long codes (:func:`long_code_entry`) — there is no
second table for the escape.  See :func:`_build_super_tables` for the
entry packing and ``docs/performance.md`` for the decode loops built on
it.  The scalar bit-at-a-time decode the tables must agree with is the
test oracle in ``tests/codec_reference.py``.

The encoder builds each scan's code with :func:`canonical_code`, straight
from the scan's histogram row: code lengths by a two-queue merge, codes by
canonical assignment, and the DHT-style table bytes, with no table object.
A :class:`HuffmanTable` is a validated canonical code and its
serialisation, built from the same three pieces; the scalar oracle codes
through it and parses tables into it.  It holds no decode tables.  The fast decode tier fetches them through
:meth:`HuffmanTable.cached_from_bytes`,
the one cached route: a byte-bounded LRU keyed on ``(kind, serialized table
bytes)``, where *kind* is the flavour, ``"dc"`` or ``"ac"``.  Every entry
has one layout, a 36 KiB ``array('i')`` block holding the interleaved pair
table and the walk's strides (:func:`_build_super_tables`): a DC-only or
AC-only scan reads one entry, a mixed scan reads its table's two.  An entry
is built whole at the miss, straight from the serialized canonical form,
and charged once with its real bytes plus the key, so an eviction frees
the memory and ``REPRO_HUFFMAN_TABLE_CACHE_BYTES`` is a true bound.  Every scan of every
image carries its own optimised table, so the cache only helps a dataset
whose tables fit the budget and are decoded again (later epochs); it
exports ``codec.table_cache.*`` hit/miss/evict/byte metrics and a build
time histogram on the default :mod:`repro.obs` registry.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_registry

MAX_CODE_LENGTH = 16

#: Width of the superscalar decode window: one probe of a ``1 << SUPER_BITS``
#: entry table resolves up to two complete (code + magnitude) symbols.
#: The width sets the size of every cached table, ``9 << SUPER_BITS``
#: bytes (36 KiB at 12), and a PCR's tables do not recur across images,
#: so the table cache is the decode memory that grows with the dataset.
#: On ``train_local_g10`` (2 vCPUs, ten pairs against 13) 12 cut
#: ``peak_rss_mb`` 136.7 → 110.4 MB, and ``items_per_s`` read 244 → 240,
#: inside 13's own spread: a group-10 image takes ≈ 4 % more walk probes
#: and ≈ 130 instead of ≈ 50 escapes.  11 cut memory further but cost
#: ≈ 6 % of ``items_per_s`` (three pairs).  Wider windows pair a few more
#: probes but double the table at each step.  Any value in
#: ``[2, MAX_CODE_LENGTH]`` decodes the same coefficients
#: (``TestWindowWidths`` checks every one), and the escape-route tests
#: derive their crafted codes from the width.
SUPER_BITS = 12

#: Bit position of the ``voff`` field in a packed symbol
#: (:func:`_build_super_tables`): ``consume`` takes bits 0–4 and
#: ``posdelta`` bits 5–11, whatever the window width.
SUPER_VOFF_SHIFT = 12

#: Offset added to the signed value field of a superscalar entry so it packs
#: as a non-negative bit field.  AC categories are a nibble (<= 15), so
#: ``|value| <= 32767`` and the offset field is always in ``[1, 65535]``
#: (0 is reserved for "no coefficient").  Fixed at ``1 << 15`` — it bounds
#: magnitudes, not windows, so it must not shrink with ``SUPER_BITS``.
SUPER_VALUE_OFFSET = 1 << 15

#: Shift of the code in a packed long code, ``(code << LONG_CODE_SHIFT) |
#: (length << 8) | symbol``: 8 symbol bits plus 5 length bits.  It packs
#: fields, it is not the window width.
LONG_CODE_SHIFT = 13

#: Every window index, the lane the piecewise fill of :func:`_window_slots`
#: computes on.
_WINDOWS = np.arange(1 << SUPER_BITS, dtype=np.int32)
_WINDOWS.flags.writeable = False

#: Upper bucket edges (inclusive) of ``codec.table_cache.build_seconds``: one
#: bundle builds in 0.1–0.5 ms, so decades would put every build in one bucket.
_BUILD_SECONDS_EDGES = (2.5e-5, 5e-5, 1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3, 1e-2, 0.1)


class _LRUByteCache:
    """A thread-safe LRU mapping bounded by a byte budget.

    Every operation updates the ``<metrics>.*`` family on the default obs
    registry: ``hits_total`` / ``misses_total`` / ``evictions_total``
    counters plus ``bytes`` and ``entries`` gauges.

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
        """(Re)insert ``key`` as most recent, then evict from the cold end.

        A ``put`` on a held key replaces the entry and its charge (two
        threads that miss on one key both build; the second's entry stands).
        """
        nbytes = int(nbytes)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous[1]
            self._entries[key] = (value, nbytes)
            self._bytes += nbytes
            # Always keep the most recent entry, even when it alone exceeds
            # the budget: the caller is about to use it.
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
        """The bytes charged against ``max_bytes`` now, read off the cache itself.

        API, not a test hook: the ``<metrics>.bytes`` gauge is only set on
        a ``put`` and reads 0 after any registry reset (a forked pool
        worker's registry is reset while its inherited cache still holds
        every table), so this is the reading of the charge that a reset
        cannot stale.
        """
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)


def _cache_budget_bytes() -> int:
    """``REPRO_HUFFMAN_TABLE_CACHE_BYTES`` (default 256 MiB), read once at import."""
    raw = os.environ.get("REPRO_HUFFMAN_TABLE_CACHE_BYTES", str(256 << 20))
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"REPRO_HUFFMAN_TABLE_CACHE_BYTES must be a non-negative integer "
            f"number of bytes, got {raw!r}"
        ) from None
    return value


#: ``(kind, serialized table bytes)`` -> ``(decode tables, bytes_consumed)``:
#: the one table cache (see :meth:`HuffmanTable.cached_from_bytes`).  The
#: budget is in real bytes — an entry is charged its key and the arrays it
#: holds, 36 KiB per flavour — so the default holds about 7 200 tables, 720
#: ten-scan images.
_TABLE_CACHE = _LRUByteCache("codec.table_cache", _cache_budget_bytes())


@dataclass
class HuffmanTable:
    """A canonical Huffman code over integer symbols in ``[0, 255]``.

    Construction validates the code: every symbol in ``[0, 255]``, every
    length in ``[1, MAX_CODE_LENGTH]``, and no more codes than the lengths
    have room for (the Kraft sum), each failure a ``ValueError`` naming the
    symbol or length at fault, so a table that builds always serializes.
    """

    code_lengths: dict[int, int]
    _encode_map: dict[int, tuple[int, int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # Canonical code assignment.  The map is filled once, here, and
        # never mutated again.
        symbols = sorted(self.code_lengths)
        lengths = [self.code_lengths[symbol] for symbol in symbols]
        _check_code(symbols, lengths)
        codes, _ = _canonical_codes(lengths)
        self._encode_map.update(zip(symbols, zip(codes, lengths)))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "HuffmanTable":
        """Build an optimal code from a symbol-frequency mapping.

        Zero-count entries are ignored.  The lengths are the ones
        :func:`canonical_code` gives the encoder, which needs no table
        object; this is the table the scalar oracle codes through.
        """
        symbols = sorted(symbol for symbol, count in counts.items() if count > 0)
        if not symbols:
            # A table still needs at least one symbol to be serializable.
            return cls(code_lengths={0: 1})
        _check_symbols(symbols)
        lengths = _package_merge_lengths([counts[symbol] for symbol in symbols], MAX_CODE_LENGTH)
        return cls(code_lengths=dict(zip(symbols, lengths)))

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as a DHT-style segment: 16 length counts + symbols."""
        symbols = sorted(self.code_lengths)
        lengths = [self.code_lengths[symbol] for symbol in symbols]
        return _table_bytes(symbols, lengths, _canonical_codes(lengths)[1])

    @classmethod
    def from_bytes(cls, payload: bytes) -> tuple["HuffmanTable", int]:
        """Deserialize a table; returns ``(table, bytes_consumed)``."""
        encode_map, consumed = _read_code(payload)
        code_lengths = {symbol: length for symbol, (_, length) in encode_map.items()}
        return cls(code_lengths=code_lengths), consumed

    @classmethod
    def cached_from_bytes(cls, payload: bytes, kind: str) -> tuple[tuple, int]:
        """Decode tables of a serialized table, in one flavour, cached.

        Returns ``(tables, bytes_consumed)`` where ``tables`` is what
        :func:`_build_super_tables` builds for ``kind`` (``"dc"`` or
        ``"ac"``).  The only cached route, keyed on ``(kind, serialized
        table bytes)``: a repeated decode of a scan (the same image in a
        later epoch) reuses the built arrays; tables do not recur across
        scans or images, each scan carries its own optimised one.  The
        arrays are shared and must be treated as read-only.  A miss
        observes its parse and build time on the
        ``codec.table_cache.build_seconds`` histogram.
        """
        if len(payload) < 2 + MAX_CODE_LENGTH:
            raise ValueError("Huffman table payload too short")
        (n_symbols,) = struct.unpack("<H", payload[:2])
        serialized = bytes(payload[: 2 + MAX_CODE_LENGTH + n_symbols])
        key = (kind, serialized)
        cached = _TABLE_CACHE.get(key)
        if cached is None:
            started = time.perf_counter()
            # Straight from the canonical form, with no table object.
            encode_map, consumed = _read_code(payload)
            tables = _build_super_tables(encode_map, kind)
            builds = get_registry().histogram("codec.table_cache.build_seconds", _BUILD_SECONDS_EDGES)
            builds.observe(time.perf_counter() - started)
            cached = (tables, consumed)
            # Charged once, exactly: the key's bytes and the two blocks (the
            # numpy arrays are views of the first).
            pair, _, _, long_codes = tables
            nbytes = (len(pair) + len(long_codes)) * pair.itemsize
            _TABLE_CACHE.put(key, cached, len(serialized) + nbytes)
        return cached


def _read_code(payload: bytes) -> tuple[dict[int, tuple[int, int]], int]:
    """Parse a serialized table into ``symbol -> (code, length)``, in canonical order.

    Returns the map and the bytes consumed.  The serialization lists the
    symbols in canonical order, so codes are assigned by counting up as
    they are read, with no sort.  Raises ``ValueError`` for a payload that
    is short or truncated, whose counts disagree with its symbol count,
    that repeats a symbol, or whose lengths are over-subscribed (the
    Kraft check of :func:`_check_code`: the codes of each length must fit
    the room the shorter ones left).
    """
    if len(payload) < 2 + MAX_CODE_LENGTH:
        raise ValueError("Huffman table payload too short")
    (n_symbols,) = struct.unpack("<H", payload[:2])
    counts = payload[2 : 2 + MAX_CODE_LENGTH]
    end = 2 + MAX_CODE_LENGTH + n_symbols
    if len(payload) < end:
        raise ValueError("Huffman table payload truncated")
    if sum(counts) != n_symbols:
        raise ValueError("Huffman table length counts disagree with symbol count")
    symbols = payload[2 + MAX_CODE_LENGTH : end]
    if len(set(symbols)) != n_symbols:
        raise ValueError("duplicate symbol in Huffman table payload")
    encode_map: dict[int, tuple[int, int]] = {}
    code = cursor = 0
    for length, count in enumerate(counts, 1):
        if code + count > 1 << length:
            raise ValueError(f"Huffman code lengths are over-subscribed at length {length}")
        for symbol in symbols[cursor : cursor + count]:
            encode_map[symbol] = (code, length)
            code += 1
        cursor += count
        code <<= 1
    return encode_map, end


def _run_and_category(symbol: int, ac: bool) -> tuple[int, int]:
    """Split a coded symbol into (position advance, magnitude category).

    An AC symbol is a run/size byte, with EOB mapped to ``run = 64`` (jumps
    past any band and ends the block loop without a branch) and ZRL to
    ``run = 16``; a DC symbol is its category (DC diffs have no run nibble).
    """
    if not ac:
        return 0, symbol
    if symbol == 0x00:
        return 64, 0
    if symbol == 0xF0:
        return 16, 0
    return symbol >> 4, symbol & 0x0F


def _plain_entry(symbol: int, length: int, ac: bool) -> int:
    """``consume | (category << 12) | (run << 20)`` for one coded symbol.

    What a decode loop needs to finish a symbol whose magnitude bits the
    window does not hold: ``consume`` is the *fused* bit consumption of
    the code plus its magnitude bits (up to 16 + 255 for a pathological
    DC category, hence 12 bits), and the magnitude is read from the
    stream.  It is stored negated, and only where ``consume`` exceeds
    ``SUPER_BITS``, so it never collides with the ``0`` / ``-1`` first-slot
    sentinels.
    """
    run, category = _run_and_category(symbol, ac)
    return (length + category) | (category << 12) | (run << 20)


def long_code_entry(long_codes, bits16: int, ac: bool) -> int:
    """Resolve a ``-1`` window: a code longer than ``SUPER_BITS`` (cold).

    ``long_codes`` is the bundle's packed ``(code << LONG_CODE_SHIFT) |
    (length << 8) | symbol`` array and ``bits16`` the next 16 stream
    bits.  Returns the negated plain entry of the code that prefixes them
    — what the window table itself stores for an oversized magnitude — or
    ``0`` when none does (invalid prefix).
    """
    for packed in long_codes:
        length = (packed >> 8) & 31
        if bits16 >> (MAX_CODE_LENGTH - length) == packed >> LONG_CODE_SHIFT:
            return -_plain_entry(packed & 0xFF, length, ac)
    return 0


def _build_super_tables(encode_map: dict[int, tuple[int, int]], kind: str) -> tuple:
    """Build the wide-window superscalar decode tables of one flavour.

    ``kind`` is ``"ac"`` or ``"dc"``, the flavour's symbols: run/size AC
    symbols or DC diff categories.  Returns ``(pair, pairs64, pairbits,
    long_codes)``, two blocks and two views of the first:

    * ``pair`` — one ``array('i')`` of ``(9 << SUPER_BITS) / 4`` entries,
      36 KiB at ``SUPER_BITS = 12``.  Its first ``2 << SUPER_BITS`` entries
      are the *interleaved pair table*: for a window ``w`` of the next
      ``SUPER_BITS`` stream bits (MSB-first), slot ``2 * w`` is the first
      symbol the window fully decodes and slot ``2 * w + 1`` the symbol
      that follows it — nonzero only when that second symbol's code +
      magnitude also fit in the window.  One index computation
      (``pair[w2]`` then ``pair[w2 | 1]`` with ``w2 = 2 * w``) resolves up
      to two complete symbols, and both slots share a cache line; the
      in-place loop in ``fastpath`` probes it, and so does the stride
      walk's escape.  The last ``1 << SUPER_BITS`` bytes are the walk's
      strides.
    * ``pairs64`` — an ``int64`` view of the pair half, one element per
      window holding both slots, so the stride walk gathers a probe's two
      slots with one ``np.take``, and the gather's ``.view(np.int32)`` is
      the interleaved entry stream.
    * ``pairbits`` — a ``uint8`` view of the tail: per window, the *total*
      bit consumption of every symbol that fully fits in it — the stride of
      one walk step — and 0 where the walk must escape (first slot <= 0).
      A DC diff, like an AC entry, carries its own bit consumption, so both
      flavours walk.
    * ``long_codes`` — an ``array('i')`` of the code's few (usually no)
      codes longer than ``SUPER_BITS``, packed for :func:`long_code_entry`.

    The views export ``pair``'s buffer, so it cannot be resized while the
    bundle lives.

    First-slot entries: ``0`` — invalid prefix (``ValueError``); ``-1`` —
    the window is a prefix of codes longer than itself, resolved by
    :func:`long_code_entry`; ``< -1`` — the first code fits the window but
    its code + magnitude do not: the negated :func:`_plain_entry` of that
    symbol, from which the decode loop reads the magnitude off the stream;
    otherwise a packed symbol.  Second-slot entries: ``0`` — no second
    symbol fit; otherwise a packed symbol.  A packed symbol is
    ``consume | (posdelta << 5) | (voff << SUPER_VOFF_SHIFT)``:

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
    * ``voff`` (bits 12–28, from ``SUPER_VOFF_SHIFT``): the decoded
      *signed* coefficient (AC) or DC diff plus ``SUPER_VALUE_OFFSET``.
      In the AC flavour 0 means "no coefficient to write" (pure run: EOB
      / ZRL / the zero-category treatment above); real values are in
      ``[1, 65535]`` because an in-window magnitude has category <= 15.
      The DC flavour always stores ``diff + SUPER_VALUE_OFFSET``.

    Packed symbols stay under 2**29, so every unpacking operation in the
    decode loops runs on CPython compact (single-digit) ints — packing
    both symbols into one wide entry was measurably *slower* because all
    field extractions became multi-digit big-int arithmetic.  Storage is
    4 bytes/slot: denser than a list of int objects (~512 KiB instead of
    ~4.6 MiB per pair table, which also keeps the probe's working set
    cache-resident).

    Only one flavour is built per bundle: every scan of every image brings
    its own table, so a structure no scan reads is pure build time and
    resident memory (docs/performance.md has the numbers).  A mixed scan
    reads its table's two bundles.  The slots come from the piecewise fill
    of :func:`_window_slots`; a cold read builds one bundle per scan, so
    this is the largest cost of a cold group-10 read.
    """
    long_codes = array(
        "i",
        sorted(
            (code << LONG_CODE_SHIFT) | (length << 8) | symbol
            for symbol, (code, length) in encode_map.items()
            if length > SUPER_BITS
        ),
    )
    size = 1 << SUPER_BITS
    first, second, strides = _window_slots(encode_map, kind == "ac")
    # One 36 KiB block per bundle, filled in place, not separate arrays or
    # a ``tobytes`` copy: interleaved in the malloc heap with the build's
    # temporaries, separate arrays (32 / 32 / 8 KiB at 13-bit windows) cost
    # 31 % more resident memory than the cache charges (measured over
    # 2 300 entries, with the slice-fill build's 64 KiB temporaries); one
    # block costs 3 %.
    pair = array("i", [0]) * ((9 * size) >> 2)
    pairs64 = np.frombuffer(pair, dtype=np.int64, count=size)
    pairbits = np.frombuffer(pair, dtype=np.uint8, offset=8 * size)
    interleaved = pairs64.view(np.int32)
    interleaved[0::2] = first
    interleaved[1::2] = second
    pairbits[:] = strides
    return pair, pairs64, pairbits, long_codes


def _window_slots(encode_map: dict[int, tuple[int, int]], ac: bool):
    """First slots, second slots and walk strides of one flavour, per window.

    A piecewise fill, three ``int32`` arrays of ``1 << SUPER_BITS``.  One
    Python walk over the code in canonical order cuts the windows into
    pieces, in window order: a short code's span, a long code's one prefix
    window (``-1``; long codes that share it are one piece), a span whose
    code fits but whose code + magnitude do not (the negated
    :func:`_plain_entry`) and an invalid gap (``0``).  Each piece has three
    constants: its packed entry without the magnitude, the magnitude's
    mask shifted left by ``SUPER_BITS``, and its consumption, 0 where the
    window escapes.  One ``np.repeat`` expands them to every window; the
    rest is elementwise ``int32`` arithmetic:

    * ``_WINDOWS << consume`` puts a window's magnitude bits at bit
      ``SUPER_BITS``, so masking gives ``m = magnitude << SUPER_BITS``;
      with ``half = (mask + (1 << SUPER_BITS)) >> 1``, the magnitude's top
      bit, ``m - (((m - half) >> 31) & mask)`` is the signed value there
      (a magnitude below half is negative, ``magnitude - mask``), shifted
      from bit ``SUPER_BITS`` to the ``voff`` field at
      ``SUPER_VOFF_SHIFT``;
    * the same ``_WINDOWS << consume``, masked to ``SUPER_BITS`` bits, is the
      window after the first symbol: one ``take`` gives the second slot;
    * a second slot stands only if it is a packed symbol (``> 0``; an
      escape's negative entry has nonzero low bits too) and both symbols'
      consumptions fit the window, and the stride is the consumption of
      what stood.

    Pairing is resolved in-table: the window shifted left by the first
    symbol's consumption (zero-filled) is probed against the same table,
    and the hit is kept only when the second symbol's consumption fits in
    the remaining real bits — in that case the prefix property guarantees
    the zero-filled probe resolved the true next symbol.

    Per-window work is what the pieces keep cheap: a shift or an ``and``
    over 4 096 windows is ≈ 1 µs, while a gather from a per-symbol table
    or an ``np.where`` costs 10–27 µs, and slice fills per symbol cost
    4–6 NumPy calls each (docs/performance.md has the numbers).
    """
    size = 1 << SUPER_BITS
    offset = SUPER_VALUE_OFFSET << SUPER_VOFF_SHIFT
    pieces = []
    spans = []
    at = 0
    canonical = sorted((length, code, symbol) for symbol, (code, length) in encode_map.items())
    for length, code, symbol in canonical:
        if length > SUPER_BITS:
            base = code >> (length - SUPER_BITS)
            if base < at:  # a long code under the prefix window already cut
                continue
            span = 1
            piece = (-1, 0, 0)
        else:
            base = code << (SUPER_BITS - length)
            span = 1 << (SUPER_BITS - length)
            run, category = _run_and_category(symbol, ac)
            consume = length + category
            # A DC category is a raw symbol value, up to 255: its mask
            # would not fit an int32, and no window holds its magnitude.
            if consume > SUPER_BITS:
                piece = (-_plain_entry(symbol, length, ac), 0, 0)
            elif category:
                mask = (1 << category) - 1
                packed = consume | ((run + 1) << 5 if ac else 0) | offset
                piece = (packed, mask << SUPER_BITS, consume)
            else:
                piece = (consume | run << 5 | (0 if ac else offset), 0, consume)
        if base > at:
            pieces.append((0, 0, 0))
            spans.append(base - at)
        pieces.append(piece)
        spans.append(span)
        at = base + span
    if at < size:
        pieces.append((0, 0, 0))
        spans.append(size - at)
    first, mask, consume = np.array(pieces, dtype=np.int32).T.repeat(spans, axis=1)
    wide = _WINDOWS << consume
    shifted = wide & (size - 1)
    wide &= mask
    # ``(mask + (1 << SUPER_BITS)) >> 1``, without the sum: at 16-bit
    # windows a 15-bit magnitude's sum is 2**31, past int32.
    half = mask >> 1
    half += 1 << (SUPER_BITS - 1)
    below = np.subtract(wide, half, out=half)
    below >>= 31
    below &= mask
    wide -= below
    if SUPER_BITS > SUPER_VOFF_SHIFT:
        wide >>= SUPER_BITS - SUPER_VOFF_SHIFT
    else:
        wide <<= SUPER_VOFF_SHIFT - SUPER_BITS
    first += wide
    second = first.take(shifted)
    strides = second & 31
    strides += consume
    keep = second > 0
    keep &= strides <= SUPER_BITS
    second *= keep
    np.bitwise_and(second, 31, out=strides)
    strides += consume
    return first, second, strides


def canonical_code(symbols: list[int], counts: list[int]) -> tuple[list[int], list[int], bytes]:
    """The optimal length-limited canonical code of one histogram.

    ``symbols`` ascending in ``[0, 255]`` and their positive ``counts`` —
    one scan's ``bincount`` row, read at its nonzero bins — give each
    symbol's code length and code, in the order given, and the table's
    serialization (what :meth:`HuffmanTable.to_bytes` writes for it).  The
    one builder: :meth:`HuffmanTable.from_counts` takes its lengths from
    the same :func:`_package_merge_lengths`, and the constructor assigns
    codes with the same :func:`_canonical_codes`.
    """
    lengths = _package_merge_lengths(counts, MAX_CODE_LENGTH)
    codes, order = _canonical_codes(lengths)
    return lengths, codes, _table_bytes(symbols, lengths, order)


def _check_symbols(symbols: list[int]) -> None:
    for symbol in symbols:
        if not 0 <= symbol <= 255:
            raise ValueError(f"Huffman symbol {symbol} is outside [0, 255]")


def _check_code(symbols: list[int], lengths: list[int]) -> None:
    """Raise ``ValueError`` unless the lengths form a prefix code over byte symbols."""
    _check_symbols(symbols)
    per_length = [0] * (MAX_CODE_LENGTH + 1)
    for symbol, length in zip(symbols, lengths):
        if not 1 <= length <= MAX_CODE_LENGTH:
            raise ValueError(
                f"Huffman symbol {symbol} has code length {length}, outside [1, {MAX_CODE_LENGTH}]"
            )
        per_length[length] += 1
    # Kraft: the codes of each length and shorter must leave room >= 0; more
    # codes than that is no prefix code (canonical assignment would overflow
    # a length), whatever it decodes.
    room = 1
    for length in range(1, MAX_CODE_LENGTH + 1):
        room = 2 * room - per_length[length]
        if room < 0:
            raise ValueError(f"Huffman code lengths are over-subscribed at length {length}")


def _canonical_codes(lengths: list[int]) -> tuple[list[int], list[int]]:
    """Canonical codes of ascending symbols with ``lengths``.

    Returns each symbol's code, in the order given, and the canonical order
    (indices sorted by length, then symbol — a stable sort of ascending
    symbols), in which consecutive codes count up and shift left as the
    length grows.
    """
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    codes = [0] * len(lengths)
    code = previous_length = 0
    for index in order:
        length = lengths[index]
        code <<= length - previous_length
        previous_length = length
        codes[index] = code
        code += 1
    return codes, order


def _table_bytes(symbols: list[int], lengths: list[int], order: list[int]) -> bytes:
    """The DHT-style serialization: symbol count, 16 length counts, symbols in canonical order."""
    per_length = [0] * MAX_CODE_LENGTH
    for length in lengths:
        per_length[length - 1] += 1
    ordered = bytes([symbols[index] for index in order])
    return struct.pack("<H", len(ordered)) + bytes(per_length) + ordered


def _package_merge_lengths(counts: list[int], max_length: int) -> list[int]:
    """Compute length-limited Huffman code lengths, one per count.

    Uses plain Huffman construction and, in the rare case the resulting code
    exceeds ``max_length`` (possible only with extremely skewed counts),
    flattens the deepest levels by re-running with damped frequencies.  A
    lone symbol gets a 1-bit code.
    """
    if len(counts) == 1:
        return [1]
    lengths = _plain_huffman_lengths(counts)
    damping = 1
    while max(lengths) > max_length:
        damping *= 2
        lengths = _plain_huffman_lengths([(c + damping - 1) // damping + 1 for c in counts])
    return lengths


def _plain_huffman_lengths(counts: list[int]) -> list[int]:
    """Huffman code lengths by a two-queue merge, one per count (at least two).

    Node ids are the leaves in the order given (ascending symbols), then
    each merged node in the order it is made.  Every pop takes the smaller
    ``(count, node id)`` of the two queue heads: the leaves sorted by that
    key, and the merged nodes, which are made in that order already (a
    merged count is never below the one before it, and ids grow).  That is
    exactly the order a heap keyed on ``(count, node id)`` pops, so the
    lengths — and the canonical tables — are the ones the heap construction
    gives.  A key is packed as ``count << 9 | node id`` (ids stay below
    511), so the queue heads compare as plain ints, and a drained queue's
    head is a key above any real one.
    """
    n_leaves = len(counts)
    drained = (sum(counts) + 1) << 9
    leaves = sorted([count << 9 | node for node, count in enumerate(counts)])
    leaves.append(drained)
    merged = [drained] * n_leaves
    parents = [0] * (2 * n_leaves - 1)
    next_leaf = next_merged = 0
    for node in range(n_leaves, 2 * n_leaves - 1):
        first, other = leaves[next_leaf], merged[next_merged]
        if first < other:
            next_leaf += 1
        else:
            first = other
            next_merged += 1
        second, other = leaves[next_leaf], merged[next_merged]
        if second < other:
            next_leaf += 1
        else:
            second = other
            next_merged += 1
        parents[first & 511] = parents[second & 511] = node
        merged[node - n_leaves] = ((first >> 9) + (second >> 9)) << 9 | node
    # A parent's id is above its children's: fill depths from the root down.
    depths = [0] * (2 * n_leaves - 1)
    for node in range(2 * n_leaves - 3, -1, -1):
        depths[node] = depths[parents[node]] + 1
    return depths[:n_leaves]
