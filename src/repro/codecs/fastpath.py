"""Table-driven fast path for scan-level entropy coding.

This module is the vectorized counterpart of the scalar scan coder in
:mod:`repro.codecs.progressive`:

* Encoding turns a whole coefficient plane into ``(symbol, bits, width)``
  arrays with NumPy (see :mod:`repro.codecs.rle`), builds the scan's
  optimized Huffman table from a single ``bincount``, fuses each symbol's
  code with its magnitude bits, and hands the batch to
  ``BitWriter.write_many``.
* Decoding probes the wide-window pair LUTs
  (:func:`repro.codecs.huffman._build_super_tables`) — one index
  computation resolves up to two complete (code + magnitude) symbols with
  their signed values already decoded, so the common case costs no
  mask/shift magnitude work at all.  For AC-only scans (the bulk of a
  progressive stream's symbols) the decode is *batched*: a vectorized
  phase-0 precompute turns every bit offset of a batch of scan payloads
  into its pair-LUT window and the window's walk *stride* (the total bit
  length of all symbols the window resolves — symbol boundaries are
  context-free, each entry's consumption depends only on the bits), so
  the phase-1 Python loop is just ``cursor += strides[cursor]`` per
  symbol pair; the packed entries themselves are gathered afterwards at
  the recorded offsets, and block segmentation, band checks, positions,
  and values are all reconstructed by one vectorized phase-2 epilogue
  shared across every AC scan of a stream (``decode_scan_bodies_fast``).
  DC-only and mixed scans keep specialized in-place pair-probe loops; the
  stride walk is the one AC symbol chase, whatever the scan's size.  An
  oversized symbol (code + magnitude wider than the window) escapes to the
  fused two-level ``ac_*`` / ``dc_*`` LUTs for that one symbol.  All
  coefficient-plane writes are deferred to one vectorized scatter per
  component instead of a Python slice assignment per block.

Both directions produce byte-identical streams / identical coefficients to
the scalar reference — the one differential oracle, enforced by
``tests/test_codecs_fastpath.py``.  The dispatch lives in
:mod:`repro.codecs.progressive`, gated by :mod:`repro.codecs.config`.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.codecs.bitio import BitWriter
from repro.codecs.huffman import SUPER_BITS, SUPER_VALUE_OFFSET, HuffmanTable
from repro.codecs.rle import (
    ac_symbol_arrays,
    dc_symbol_arrays,
    mixed_symbol_arrays,
)

__all__ = [
    "encode_scan_body_fast",
    "decode_scan_bodies_fast",
]


def _scan_symbol_arrays(plane: np.ndarray, spectral_start: int, spectral_end: int):
    if spectral_start == 0 and spectral_end == 0:
        return dc_symbol_arrays(plane[:, 0])
    if spectral_start == 0:
        return mixed_symbol_arrays(plane, spectral_end)
    return ac_symbol_arrays(plane[:, spectral_start : spectral_end + 1])


def encode_scan_body_fast(coefficients, scan) -> bytes:
    """Entropy-code one scan (table + bits), byte-identical to the scalar path."""
    per_component = []
    symbol_counts = np.zeros(256, dtype=np.int64)
    for component in scan.component_ids:
        plane = coefficients.planes[component]
        arrays = _scan_symbol_arrays(plane, scan.spectral_start, scan.spectral_end)
        per_component.append(arrays)
        if arrays[0].size:
            symbol_counts += np.bincount(arrays[0], minlength=256)
    present = np.nonzero(symbol_counts)[0]
    table = HuffmanTable.from_counts(
        dict(zip(present.tolist(), symbol_counts[present].tolist()))
    )
    codes, lengths = table.encode_arrays()
    code_array = np.asarray(codes, dtype=np.int64)
    length_array = np.asarray(lengths, dtype=np.int64)
    writer = BitWriter()
    for symbols, bits, n_bits in per_component:
        values = (code_array[symbols] << n_bits) | bits
        widths = length_array[symbols] + n_bits
        # Fuse adjacent (value, width) pairs so the writer loop runs half as
        # many iterations.  Safe whenever a single item is at most 31 bits
        # (always true for AC symbols; only pathological DC magnitudes can
        # exceed it), since two fused items then fit in an int64.
        n_items = values.shape[0]
        if n_items > 1 and int(widths.max()) <= 31:
            head = n_items & ~1
            fused_values = (values[0:head:2] << widths[1:head:2]) | values[1:head:2]
            fused_widths = widths[0:head:2] + widths[1:head:2]
            if head != n_items:
                fused_values = np.append(fused_values, values[-1])
                fused_widths = np.append(fused_widths, widths[-1])
            values, widths = fused_values, fused_widths
        # Large runs take the fully vectorized bit packer (per-bit expand +
        # np.packbits); below the threshold numpy's fixed costs lose to the
        # plain loop.  Both emit identical bits.  The packer caps items at
        # 62 bits, which fused pairs satisfy; unfused runs (pathological DC
        # magnitudes > 31 bits) keep the loop.
        if values.shape[0] >= 256 and int(widths.max()) <= 62:
            writer.write_many_array(values, widths)
        else:
            writer.write_many(values.tolist(), widths.tolist())
    return table.to_bytes() + writer.getvalue()


#: Low-bit masks indexed by width.  Sized generously: the refill guard masks
#: at ``bitcnt`` (which can reach ``consume + 63`` while buffering an
#: oversized DC magnitude, ``consume <= 271``) and magnitude extraction
#: indexes by category (<= 255 for pathological DC tables).
_MASKS = tuple((1 << n) - 1 for n in range(1024))

#: ``1 << (category - 1)`` — the positive/negative threshold of a magnitude
#: field, indexed by category (0 unused).
_HALVES = (0,) + tuple(1 << (n - 1) for n in range(1, 1024))

#: Bytes of 1-padding appended to a scan payload before it is carved into
#: 64-bit refill words.  On a valid stream the reader never consumes more
#: than ~5 words past the true payload (32-bit guard + one oversized-DC
#: refill), so 64 pad bytes (>= 7 whole words after truncation) make every
#: in-range refill a plain list index without per-refill bounds checks.
#: The 1-bits match the writer's end-of-stream padding.  A corrupt stream
#: that decodes into the padding is caught by the consumed-bits check after
#: the scan, or -- if garbage outruns the padding entirely -- by the refill
#: IndexError guard, both surfacing as ``EOFError``.
_PAD = b"\xff" * 64

#: Superscalar window addressing, derived from the table geometry: a probe
#: reads the top ``SUPER_BITS`` of the bit buffer and doubles them into the
#: interleaved pair table (even slot = first symbol, odd = second).
_SUPER_SHIFT = SUPER_BITS + 1
_SUPER_MASK = ((1 << SUPER_BITS) - 1) << 1


def _invalid_code_error(consumed_before: int, n_payload_bits: int) -> Exception:
    """Classify an invalid Huffman prefix the way the scalar reference would.

    The scalar decoder reads an unresolvable code bit-by-bit and declares
    ``ValueError`` only after a full ``MAX_CODE_LENGTH``-bit probe; a probe
    that would cross the payload end exhausts the reader first and raises
    ``EOFError``.  The fast tier decodes the 1-padding as data, so at the
    (cold) raise site it classifies by the offending symbol's bit offset to
    keep error classes identical to the reference.
    """
    if consumed_before + 16 > n_payload_bits:
        return EOFError("bit stream exhausted")
    return ValueError("invalid Huffman code in bit stream")


def _overflow_error(consumed_after: int, n_payload_bits: int) -> Exception:
    """Classify a band overflow the way the scalar reference would.

    The scalar decoder reads the symbol's code *and* magnitude bits before
    its band check, so an overflowing symbol that crosses the payload end
    surfaces as ``EOFError``, not ``ValueError``.  ``consumed_after`` is
    the bit offset just past the offending symbol (code + magnitude).
    """
    if consumed_after > n_payload_bits:
        return EOFError("bit stream exhausted")
    return ValueError("AC run overflows band length")


def _scan_defect(entries, band_length: int, blocks, n_payload_bits: int) -> Exception:
    """Replay a defective AC scan's packed entries to find its *first* defect.

    Cold path.  The batched decode's walk checks only establish *that* a scan
    is defective (entries exhausted, invalid-window sentinel, or more bits
    consumed than the payload holds); when one scan contains several
    defects the class must come from whichever the scalar reference hits
    first in stream order.  This entry-granular replay walks the packed
    entry stream with the scalar decoder's check order — code + magnitude
    bits are read (EOFError past the payload end) before the band-overflow
    check — and returns the first defect's error.
    """
    bit_offset = 0
    index = 0
    entry_list = entries.tolist()
    total = len(entry_list)
    for n_blocks in blocks:
        for _ in range(n_blocks):
            position = 0
            while position < band_length:
                if index >= total:
                    return EOFError("bit stream exhausted")
                entry = entry_list[index]
                index += 1
                if entry == -1:
                    return _invalid_code_error(bit_offset, n_payload_bits)
                bit_offset += entry & 31
                if bit_offset > n_payload_bits:
                    return EOFError("bit stream exhausted")
                position += (entry >> 5) & 0x7F
                if (entry >> 12) and position > band_length:
                    return _overflow_error(bit_offset, n_payload_bits)
    return EOFError("bit stream exhausted")


def decode_scan_bodies_fast(data: bytes, segments, coefficients) -> None:
    """Decode a sequence of scan segments into ``coefficients`` (in place).

    The whole-stream entry point: ``decode_coefficients`` hands every
    selected segment over at once, and a single scan is a one-element
    sequence.  Valid scan scripts touch disjoint coefficient regions and
    each scan's payload is decoded independently, but the AC-only scans are
    collected and decoded together (:func:`_decode_ac_scans_super`) so one
    vectorized phase-2 epilogue is amortized across *all* of them, which is
    where per-scan NumPy fixed costs would otherwise dominate (a progressive
    stream has ~8 AC scans, several of them only a few hundred symbols).

    Contract: the in-band coefficients of the target planes must be zero
    (as produced by ``empty_coefficients``) — zero coefficients are never
    written, only the nonzero scatter.  Every caller decodes into fresh
    planes, and valid scan scripts cover each coefficient exactly once.

    Divergence from the scalar reference, on *invalid* streams only: a
    symbol with a zero category and a nonzero run (never emitted by either
    encoder) is treated as a pure zero-run rather than a zero coefficient
    after the run, and errors may surface after the whole scan is chased
    rather than at the offending bit.  The error *class* still matches the
    scalar reference on all three defect families — truncation mid-symbol,
    invalid prefix, band overflow — because every raise site classifies by
    the offending symbol's bit offset (``_invalid_code_error`` /
    ``_overflow_error``) and the batched AC decode replays a defective
    scan's entries to find its first defect in stream order
    (``_scan_defect``).  Identical classes are asserted by the fuzz tests
    in ``tests/test_codecs_fastpath.py``; the one remaining relaxation is
    *cross-scan* ordering: when several scans of one stream are defective,
    which scan's error surfaces first may differ from the scalar reference
    (AC scans are deferred behind DC and mixed ones).

    Entry handling per pair-table probe (see ``_build_super_tables`` for
    the packing; ``w2 = 2 * window`` indexes the interleaved table, whose
    even slot holds the first symbol and odd slot the one that follows):

    * ``entry > 0`` — the first symbol is fully decoded in the entry
      (consume / position advance / signed value); a nonzero odd-slot entry
      holds a complete second symbol, committed only when the scan still
      has room (the table pairs speculatively across what may be a block
      boundary, and each entry carries its own bit consumption so an
      uncommitted second symbol consumes nothing).  Probing with
      ``bitcnt >= 32`` guarantees a full pair (<= 32 bits) never underruns
      the buffer.
    * ``entry == -1`` — the first symbol's code + magnitude exceed the
      window (oversized magnitude); decode that one symbol through the
      fused two-level ``ac_*`` / ``dc_*`` LUTs.
    * ``entry == 0`` — invalid prefix: ``ValueError``, same as the scalar
      reference.

    DC-only and mixed scans decode in place — their symbol streams are
    either trivially positioned (one diff per block) or context-dependent
    (the DC/AC table alternation depends on block structure), so the
    context-free chase does not apply.
    """
    ac_jobs = []
    for segment in segments:
        scan = segment.header
        table, consumed = HuffmanTable.cached_from_bytes(
            data[segment.payload_start : segment.end]
        )
        payload = data[segment.payload_start + consumed : segment.end]
        n_payload_bits = len(payload) * 8
        tables = table.scan_tables()
        if scan.spectral_end == 0 or scan.spectral_start == 0:
            padded = payload + _PAD
            words = np.frombuffer(
                padded, dtype=">u8", count=len(padded) >> 3
            ).tolist()
            if scan.spectral_end == 0:
                _decode_dc_scan_super(
                    words, tables, scan, coefficients, n_payload_bits
                )
            else:
                _decode_mixed_scan_super(
                    words, tables, scan, coefficients, n_payload_bits
                )
        else:
            ac_jobs.append((scan, payload, tables, n_payload_bits))
    if ac_jobs:
        _decode_ac_scans_super(ac_jobs, coefficients)


#: Upper bound on the total payload bytes vectorized into one walk batch.
#: The phase-0 precompute materializes ~40 transient bytes per payload byte
#: (the per-bit window array and its gathers), so the cap bounds peak batch
#: memory at ~10 MiB.  A single scan larger than the cap is walked as a
#: batch of its own: the image that owns such a scan already holds
#: coefficient planes far larger than that scan's walk transient.
_WALK_BATCH_BYTES = 1 << 18


def _decode_ac_scans_super(jobs, coefficients) -> None:
    """Decode all AC-only scans of a stream through the batched pipeline.

    ``jobs`` holds ``(scan, payload, tables, n_payload_bits)`` in stream
    order (at least one).  Scans are grouped into walk batches bounded by
    ``_WALK_BATCH_BYTES`` and symbol-chased by :func:`_walk_ac_batch`;
    every scan contributes one raw entry stream, and a single
    :func:`_finish_ac_scans` call reconstructs all of them — order is
    preserved so multi-scan error surfacing stays deterministic.
    """
    pending = []
    batch = []
    batch_bytes = 0
    for job in jobs:
        payload = job[1]
        # Close the open batch before a scan that cannot join it (a scan
        # over the cap on its own then opens, and is, the next batch).
        if batch and batch_bytes + len(payload) > _WALK_BATCH_BYTES:
            pending.extend(_walk_ac_batch(batch))
            batch = []
            batch_bytes = 0
        batch.append(job)
        batch_bytes += len(payload) + len(_WALK_PAD)
    pending.extend(_walk_ac_batch(batch))
    _finish_ac_scans(pending, coefficients)


#: Padding appended per scan inside a walk batch blob.  16 bytes cover the
#: widest read past a scan's true payload: the walk probes up to 64 bits
#: into the padding, and a two-level escape there reads at most 6 bytes
#: from bit ``n_payload_bits + 64`` — byte ``len(payload) + 8 + 6``, still
#: inside this scan's padding.  The 1-bits match the writer's end-of-stream
#: padding, like ``_PAD``.
_WALK_PAD = b"\xff" * 16

#: Per-byte window extraction constants: byte triple ``b, b+1, b+2`` holds
#: the 8 windows starting at bits ``8b .. 8b + 7``; window ``k`` is
#: ``(u24 >> (24 - k - SUPER_BITS)) & _WINDOW_MASK``.
_WINDOW_SHIFTS = np.arange(24 - SUPER_BITS, 16 - SUPER_BITS, -1, dtype=np.int32)
_WINDOW_MASK = (1 << SUPER_BITS) - 1


def _stacked_walk_tables(table_sets):
    """``(slots1, slots2, pairbits)`` stacks for one walk batch.

    Scan ``i`` of the batch owns the ``[i << SUPER_BITS, (i + 1) <<
    SUPER_BITS)`` range of each stack, so adding ``i << SUPER_BITS`` to a
    window turns every per-scan table lookup of the batch into one global
    gather.  Not memoized: a batch's table sets recur only when its image
    is decoded again, and the concatenate costs ≈ 0.07 ms.
    """
    walks = [table_set.walk_tables() for table_set in table_sets]
    if len(walks) == 1:
        return walks[0]
    return tuple(np.concatenate(stack) for stack in zip(*walks))


def _walk_ac_batch(jobs) -> list:
    """Chase a batch of AC-only scans via the precomputed stride walk.

    An in-place symbol chase spends most of its time on bit-buffer
    bookkeeping: refills, shift/mask window extraction, and per-symbol
    entry appends.  Symbol boundaries in an AC-only scan are context-free
    (every entry carries its own bit consumption), so this pipeline
    vectorizes all of that away and defers block tracking, positions and
    values to :func:`_finish_ac_scans`.  Phase 0 computes, for
    *every bit offset* of every payload in the batch, the ``SUPER_BITS``-bit
    window starting there (one broadcast shift over byte triples) and
    gathers each window's walk stride — the total bit length of every
    symbol pair-resolved at that offset — into one bytes object.  Phase 1
    is then the leanest possible Python loop (:func:`_walk_ac_one`): index
    a byte, add it to the cursor — one step per *probe* (two symbols ~85%
    of the time), with no buffer state at all.  Phase 2 reconstructs the
    actual packed entries by gathering the slot tables at the recorded
    probe offsets and compacting out empty second slots, patching in the
    (rare) two-level escape results recorded by the walk.

    Returns ``(scan, entries, n_payload_bits)`` per job, in order, with
    ``entries`` as an ``int32`` array of packed symbols in the posdelta
    format of ``_build_super_tables`` — what :func:`_finish_ac_scans` reads.
    """
    size = 1 << SUPER_BITS
    slots1, slots2, pairbits = _stacked_walk_tables([job[2] for job in jobs])
    parts = []
    for _, payload, _, _ in jobs:
        parts.append(payload)
        parts.append(_WALK_PAD)
    blob = b"".join(parts)
    blob_bytes = np.frombuffer(blob, dtype=np.uint8).astype(np.int32)
    u24 = (blob_bytes[:-2] << 16) | (blob_bytes[1:-1] << 8) | blob_bytes[2:]
    windows = ((u24[:, None] >> _WINDOW_SHIFTS) & _WINDOW_MASK).reshape(-1)
    byte_lengths = np.asarray(
        [len(job[1]) + len(_WALK_PAD) for job in jobs], dtype=np.int32
    )
    scan_offsets = np.repeat(
        np.arange(len(jobs), dtype=np.int32) * size, byte_lengths << 3
    )[: windows.shape[0]]
    windows += scan_offsets
    strides = pairbits[windows].tobytes()
    # Phase 1: walk each scan's stride bytes.
    probe_parts = []
    fallback_entries: list[int] = []
    bit_base = 0
    byte_base = 0
    for scan, payload, tables, n_payload_bits in jobs:
        probes = _walk_ac_one(
            strides[bit_base : bit_base + n_payload_bits + 64],
            blob,
            byte_base,
            tables,
            fallback_entries,
        )
        probe_parts.append(np.frombuffer(probes, dtype=np.int32) + bit_base)
        bit_base += int(byte_lengths[len(probe_parts) - 1]) << 3
        byte_base += int(byte_lengths[len(probe_parts) - 1])
    # Phase 2: reconstruct packed entries at the probed offsets.
    probe_counts = np.asarray([p.shape[0] for p in probe_parts], dtype=np.int64)
    all_probes = (
        probe_parts[0] if len(probe_parts) == 1 else np.concatenate(probe_parts)
    )
    probed_windows = windows[all_probes]
    first = slots1[probed_windows]
    second = slots2[probed_windows]
    if fallback_entries:
        escape_mask = first <= 0
        first[escape_mask] = np.asarray(fallback_entries, dtype=np.int32)
        second[escape_mask] = 0
    interleaved = np.empty(2 * first.shape[0], dtype=np.int32)
    interleaved[0::2] = first
    interleaved[1::2] = second
    occupied = interleaved != 0
    flat = interleaved[occupied]
    # Per-scan entry counts: prefix-sum the occupancy at each scan's last
    # interleaved slot (every scan records at least one probe).
    occupied_cum = np.cumsum(occupied)
    entry_bounds = occupied_cum[(np.cumsum(probe_counts) << 1) - 1].tolist()
    pending = []
    lower = 0
    for job, upper in zip(jobs, entry_bounds):
        pending.append((job[0], flat[lower:upper], job[3]))
        lower = upper
    return pending


def _walk_ac_one(
    strides: bytes, blob: bytes, byte_base: int, tables, fallback_entries: list
) -> array:
    """Phase-1 stride walk over one scan: record probe bit offsets.

    ``strides[p]`` is the precomputed total bit length of every symbol the
    superscalar window at bit ``p`` resolves, so the hot loop is a bytes
    index and an add per probe — ``bytes`` indexing returns interned small
    ints, so the loop allocates nothing.  A zero stride means the window
    cannot be walked through (invalid prefix or oversized first symbol):
    the symbol is resolved through the two-level path directly on the blob
    bytes and its packed entry (or a ``-1`` invalid sentinel, which ends
    the walk) is appended to ``fallback_entries``; phase 2 patches these
    into the gathered entry stream, so the walk stays branch-lean.  The
    walk ends when the cursor runs off the stride bytes, which cover the
    payload plus 64 bits of padding.  It cannot classify errors (it does
    not know where blocks end): the epilogue ignores entries beyond the
    last block's end and classifies what is missing or invalid.
    """
    ac1 = tables.ac_primary
    ac2 = tables.ac_secondary
    masks = _MASKS
    halves = _HALVES
    offset = SUPER_VALUE_OFFSET
    probes = array("i")
    record = probes.append
    escape = fallback_entries.append
    cursor = 0
    try:
        while True:
            stride = strides[cursor]
            if stride:
                record(cursor)
                cursor += stride
            else:
                byte = byte_base + (cursor >> 3)
                phase = cursor & 7
                prefix = int.from_bytes(blob[byte : byte + 3], "big")
                entry = ac1[(prefix >> (16 - phase)) & 0xFF]
                if entry <= 0:
                    if entry == 0:
                        record(cursor)
                        escape(-1)
                        break
                    entry = ac2[-entry - 1][(prefix >> (8 - phase)) & 0xFF]
                    if entry == 0:
                        record(cursor)
                        escape(-1)
                        break
                consume = entry & 0x3F
                run = entry >> 12
                category = (entry >> 6) & 0x3F
                record(cursor)
                if category:
                    # Code + magnitude span at most 31 bits, so 6 bytes
                    # starting at the cursor's byte always cover them.
                    wide = int.from_bytes(blob[byte : byte + 6], "big")
                    mask = masks[category]
                    bits = (wide >> (48 - phase - consume)) & mask
                    value = bits if bits >= halves[category] else bits - mask
                    escape(
                        (consume | ((run + 1) << 5)) | ((value + offset) << 12)
                    )
                else:  # unreachable on real tables (cat 0 never oversizes)
                    escape(consume | (run << 5))
                cursor += consume
    except IndexError:
        pass
    return probes


#: Scan-shape key -> flat block-base offsets for the batched epilogue.
#: Entries are 4 bytes/block and shapes recur heavily within a dataset; the
#: cap only guards callers that decode thousands of distinct geometries.
_GEOMETRY_CACHE: dict = {}
_GEOMETRY_LIMIT = 256


def _scan_geometry(band_start: int, blocks: tuple):
    """Memoized flat block-base offsets for the batched epilogue.

    Returns, for every block of the scan (components concatenated in scan
    order), the flat plane offset of the band's first slot.
    """
    key = (band_start, blocks)
    geometry = _GEOMETRY_CACHE.get(key)
    if geometry is None:
        bases = [
            band_start + (np.arange(n_blocks, dtype=np.int32) << 6)
            for n_blocks in blocks
        ]
        geometry = bases[0] if len(bases) == 1 else np.concatenate(bases)
        if len(_GEOMETRY_CACHE) >= _GEOMETRY_LIMIT:
            _GEOMETRY_CACHE.clear()
        _GEOMETRY_CACHE[key] = geometry
    return geometry


def _finish_ac_scans(pending, coefficients) -> None:
    """Phase 2 of the batched AC decode: reconstruct scans from raw entries.

    ``pending`` holds ``(scan, entries, n_payload_bits)`` per AC-only scan,
    where ``entries`` is the packed posdelta stream collected by
    :func:`_walk_ac_batch`.  Reconstruction is vectorized over the
    concatenation of every pending scan's entries (amortizing NumPy fixed
    costs across the whole stream):

    1.  ``cumsum(posdelta)`` gives each entry's in-band end position, and
        one ``searchsorted`` finds, for every potential block start, the
        entry that finishes that block (the first whose cumulative advance
        covers the band).
    2.  A Python loop walks those links — one iteration per *block*, not
        per symbol — recording each block's first entry and each
        component's entry bound, and flagging defective scans: a chase
        that stopped on an invalid window (``-1`` sentinel), one that ran
        out of entries, or one whose needed entries consumed more bits
        than the payload holds (garbage decoded from the 1-padding).  A
        flagged scan is handed to :func:`_scan_defect`, which replays its
        entries to surface the same error class, for the same first
        defect, as the scalar reference.
    3.  One vectorized pass expands block starts into per-entry
        block-relative positions, validates every coefficient against the
        band length, and scatters the nonzero coefficients into each
        component's plane, split per (scan, component) by one
        ``searchsorted`` over the recorded bounds.
    """
    planes = coefficients.planes
    entry_parts = []
    lengths = []
    band_lengths = []
    blocks_per_scan = []
    geometries = []
    for scan, entries, _ in pending:
        entry_parts.append(entries)
        lengths.append(len(entries))
        band_lengths.append(scan.spectral_end - scan.spectral_start + 1)
        blocks = tuple(planes[c].shape[0] for c in scan.component_ids)
        blocks_per_scan.append(blocks)
        geometries.append(_scan_geometry(scan.spectral_start, blocks))
    entry_array = (
        entry_parts[0] if len(entry_parts) == 1 else np.concatenate(entry_parts)
    )
    n_entries = entry_array.shape[0]
    # int32 throughout while the cumulative sums provably fit (an entry
    # advances <= 127 positions and consumes <= 31 bits); NumPy would
    # otherwise silently promote int32 cumsums to int64.
    cum_dtype = np.int32 if n_entries < (1 << 24) else np.int64
    advance = (entry_array >> 5) & 0x7F
    end_position = np.cumsum(advance, dtype=cum_dtype)
    bit_cum = np.cumsum(entry_array & 31, dtype=cum_dtype)
    if len(pending) == 1:
        band_length_per_entry = band_lengths[0]
    else:
        band_length_per_entry = np.repeat(
            np.asarray(band_lengths, dtype=np.int32),
            np.asarray(lengths),
        )
    thresholds = end_position - advance + band_length_per_entry
    # For entry i taken as a block start, the block ends at the first entry
    # whose cumulative advance reaches start + band_length.  Valid because
    # every entry advances by >= 1, so end_position is strictly increasing.
    block_end = np.searchsorted(end_position, thresholds, side="left")
    block_end_list = block_end.tolist()
    block_starts = array("i")
    record_start = block_starts.append
    component_bounds = array("i")
    record_bound = component_bounds.append
    scan_cursors = []
    base = 0
    for scan_index, (scan, entries, n_payload_bits) in enumerate(pending):
        end_limit = base + lengths[scan_index]
        sentinel = lengths[scan_index] > 0 and entries[-1] == -1
        cursor = base
        complete = True
        for n_blocks in blocks_per_scan[scan_index]:
            for _ in range(n_blocks):
                if cursor >= end_limit:
                    complete = False
                    break
                record_start(cursor)
                cursor = block_end_list[cursor] + 1
            if not complete:
                break
            record_bound(cursor)
        if not complete or cursor > end_limit:
            raise _scan_defect(
                entries,
                band_lengths[scan_index],
                blocks_per_scan[scan_index],
                n_payload_bits,
            )
        if sentinel and cursor > end_limit - 1:
            # The chase "finished" only by consuming the invalid-window
            # sentinel entry itself.
            raise _scan_defect(
                entries,
                band_lengths[scan_index],
                blocks_per_scan[scan_index],
                n_payload_bits,
            )
        consumed = (
            int(bit_cum[cursor - 1]) - (int(bit_cum[base - 1]) if base else 0)
            if cursor > base
            else 0
        )
        if consumed > n_payload_bits:
            raise _scan_defect(
                entries,
                band_lengths[scan_index],
                blocks_per_scan[scan_index],
                n_payload_bits,
            )
        scan_cursors.append(cursor)
        base = end_limit
    starts = np.frombuffer(block_starts, dtype=np.int32)
    if starts.shape[0] == 0:
        return
    # Blocks tile each scan's entry range contiguously (the walk above sets
    # every next start to the previous block's end + 1, and scan s + 1
    # starts exactly at scan s's end limit), so per-block entry counts are
    # just next-start differences — with the last block absorbing the final
    # scan's unused tail so the counts sum to n_entries and every
    # block-constant can be broadcast over the *full* entry array by one
    # np.repeat, no row-index gathers.  Tail entries (decoded from the
    # padding past each scan's needed symbols) are excluded from both the
    # band check and the scatter by clearing their coefficient flag below.
    counts = np.empty(starts.shape[0], dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = n_entries - int(starts[-1])
    start_position_per_entry = np.repeat(
        end_position[starts] - advance[starts], counts
    )
    relative = end_position - start_position_per_entry - 1
    value_offsets = entry_array >> 12
    is_coefficient = value_offsets > 0
    base = 0
    for cursor, length in zip(scan_cursors, lengths):
        end_limit = base + length
        if cursor < end_limit:
            is_coefficient[cursor:end_limit] = False
        base = end_limit
    # Pure-run entries (EOB/ZRL) legitimately advance past the band end;
    # only entries that carry a coefficient are band-checked.
    if np.any((relative >= band_length_per_entry) & is_coefficient):
        raise ValueError("AC run overflows band length")
    block_base = (
        geometries[0] if len(geometries) == 1 else np.concatenate(geometries)
    )
    flat_positions = (np.repeat(block_base, counts) + relative)[is_coefficient]
    flat_values = value_offsets[is_coefficient] - SUPER_VALUE_OFFSET
    # A component's coefficient count is the coefficient-flag prefix sum at
    # its recorded entry bound.
    coefficient_cum = np.concatenate(
        ([0], np.cumsum(is_coefficient, dtype=np.int64))
    )
    bounds = coefficient_cum[
        np.frombuffer(component_bounds, dtype=np.int32)
    ].tolist()
    lower = 0
    bound_index = 0
    for scan, _, _ in pending:
        for component in scan.component_ids:
            upper = bounds[bound_index]
            bound_index += 1
            if upper > lower:
                plane = planes[component]
                position_array = flat_positions[lower:upper]
                value_array = flat_values[lower:upper]
                if plane.flags.c_contiguous:
                    plane.reshape(-1)[position_array] = value_array
                else:
                    plane[position_array >> 6, position_array & 63] = value_array
            lower = upper


def _decode_dc_scan_super(
    words: list, tables, scan, coefficients, n_payload_bits: int
) -> None:
    """DC-only scan: in-place pair-probe loop, up to two diffs per probe."""
    sup = tables.superscalar_tables()[1]
    dc1 = tables.dc_primary
    dc2 = tables.dc_secondary
    masks = _MASKS
    halves = _HALVES
    offset = SUPER_VALUE_OFFSET
    shift = _SUPER_SHIFT
    window_mask = _SUPER_MASK
    word_index = 0
    bitbuf = 0
    bitcnt = 0
    try:
        for component in scan.component_ids:
            plane = coefficients.planes[component]
            dc_diffs: list[int] = []
            append_diff = dc_diffs.append
            remaining = plane.shape[0]
            while remaining:
                if bitcnt < 32:
                    bitbuf = ((bitbuf & masks[bitcnt]) << 64) | words[word_index]
                    word_index += 1
                    bitcnt += 64
                w2 = (bitbuf >> (bitcnt - shift)) & window_mask
                entry = sup[w2]
                if entry > 0:
                    bitcnt -= entry & 31
                    append_diff((entry >> 12) - offset)
                    remaining -= 1
                    second = sup[w2 | 1]
                    if second and remaining:
                        bitcnt -= second & 31
                        append_diff((second >> 12) - offset)
                        remaining -= 1
                elif entry == 0:
                    raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                else:  # oversized magnitude: two-level fallback
                    entry = dc1[(bitbuf >> (bitcnt - 8)) & 0xFF]
                    if entry <= 0:
                        if entry == 0:
                            raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                        entry = dc2[-entry - 1][(bitbuf >> (bitcnt - 16)) & 0xFF]
                        if entry == 0:
                            raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                    consume = entry & 0xFFF
                    while consume > bitcnt:  # oversized DC magnitude (rare)
                        bitbuf = ((bitbuf & masks[bitcnt]) << 64) | words[word_index]
                        word_index += 1
                        bitcnt += 64
                    bitcnt -= consume
                    category = entry >> 12
                    if category:
                        mask = masks[category]
                        bits = (bitbuf >> bitcnt) & mask
                        append_diff(bits if bits >= halves[category] else bits - mask)
                    else:
                        append_diff(0)
                    remaining -= 1
            plane[:, 0] = np.cumsum(np.asarray(dc_diffs, dtype=np.int64))
    except IndexError:
        raise EOFError("bit stream exhausted") from None
    if (word_index << 6) - bitcnt > n_payload_bits:
        raise EOFError("bit stream exhausted")


def _decode_mixed_scan_super(
    words: list, tables, scan, coefficients, n_payload_bits: int
) -> None:
    """Mixed scan: DC delta then the AC band, per block, in place.

    The DC probe uses the pair table but commits only its first symbol —
    the symbol after a mixed-scan DC delta is an AC symbol, which the
    DC-flavour pairing cannot know.  The AC inner loop commits pairs with
    posdelta position tracking: ``index`` holds the band position *after*
    the symbol, so a coefficient lands at ``index - 1`` and overflow is
    ``index > band_length``.
    """
    sup_ac, sup_dc = tables.superscalar_tables()
    ac1 = tables.ac_primary
    ac2 = tables.ac_secondary
    dc1 = tables.dc_primary
    dc2 = tables.dc_secondary
    masks = _MASKS
    halves = _HALVES
    offset = SUPER_VALUE_OFFSET
    shift = _SUPER_SHIFT
    window_mask = _SUPER_MASK
    word_index = 0
    bitbuf = 0
    bitcnt = 0
    band_length = scan.spectral_end  # the AC band starts at slot 1
    try:
        for component in scan.component_ids:
            plane = coefficients.planes[component]
            n_blocks = plane.shape[0]
            dc_diffs: list[int] = []
            positions: list[int] = []
            values: list[int] = []
            append_diff = dc_diffs.append
            append_position = positions.append
            append_value = values.append
            for block_base in range(1, 1 + (n_blocks << 6), 64):
                if bitcnt < 32:
                    bitbuf = ((bitbuf & masks[bitcnt]) << 64) | words[word_index]
                    word_index += 1
                    bitcnt += 64
                entry = sup_dc[(bitbuf >> (bitcnt - shift)) & window_mask]
                if entry > 0:
                    bitcnt -= entry & 31
                    append_diff((entry >> 12) - offset)
                elif entry == 0:
                    raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                else:  # oversized magnitude: two-level fallback
                    entry = dc1[(bitbuf >> (bitcnt - 8)) & 0xFF]
                    if entry <= 0:
                        if entry == 0:
                            raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                        entry = dc2[-entry - 1][(bitbuf >> (bitcnt - 16)) & 0xFF]
                        if entry == 0:
                            raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                    consume = entry & 0xFFF
                    while consume > bitcnt:
                        bitbuf = ((bitbuf & masks[bitcnt]) << 64) | words[word_index]
                        word_index += 1
                        bitcnt += 64
                    bitcnt -= consume
                    category = entry >> 12
                    if category:
                        mask = masks[category]
                        bits = (bitbuf >> bitcnt) & mask
                        append_diff(bits if bits >= halves[category] else bits - mask)
                    else:
                        append_diff(0)
                index = 0
                while index < band_length:
                    if bitcnt < 32:
                        bitbuf = ((bitbuf & masks[bitcnt]) << 64) | words[word_index]
                        word_index += 1
                        bitcnt += 64
                    w2 = (bitbuf >> (bitcnt - shift)) & window_mask
                    entry = sup_ac[w2]
                    if entry > 0:
                        bitcnt -= entry & 31
                        index += (entry >> 5) & 0x7F
                        voff = entry >> 12
                        if voff:
                            if index > band_length:
                                raise _overflow_error((word_index << 6) - bitcnt, n_payload_bits)
                            append_position(block_base + index - 1)
                            append_value(voff - offset)
                        entry = sup_ac[w2 | 1]
                        if entry and index < band_length:
                            bitcnt -= entry & 31
                            index += (entry >> 5) & 0x7F
                            voff = entry >> 12
                            if voff:
                                if index > band_length:
                                    raise _overflow_error((word_index << 6) - bitcnt, n_payload_bits)
                                append_position(block_base + index - 1)
                                append_value(voff - offset)
                    elif entry == 0:
                        raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                    else:  # oversized magnitude: two-level fallback
                        entry = ac1[(bitbuf >> (bitcnt - 8)) & 0xFF]
                        if entry <= 0:
                            if entry == 0:
                                raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                            entry = ac2[-entry - 1][(bitbuf >> (bitcnt - 16)) & 0xFF]
                            if entry == 0:
                                raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                        bitcnt -= entry & 0x3F
                        index += entry >> 12
                        category = (entry >> 6) & 0x3F
                        if category:
                            mask = masks[category]
                            bits = (bitbuf >> bitcnt) & mask
                            if index >= band_length:
                                raise _overflow_error((word_index << 6) - bitcnt, n_payload_bits)
                            append_position(block_base + index)
                            append_value(bits if bits >= halves[category] else bits - mask)
                            index += 1
            plane[:, 0] = np.cumsum(np.asarray(dc_diffs, dtype=np.int64))
            if positions:
                position_array = np.asarray(positions, dtype=np.intp)
                value_array = np.asarray(values, dtype=np.int64)
                if plane.flags.c_contiguous:
                    plane.reshape(-1)[position_array] = value_array
                else:
                    plane[position_array >> 6, position_array & 63] = value_array
    except IndexError:
        raise EOFError("bit stream exhausted") from None
    if (word_index << 6) - bitcnt > n_payload_bits:
        raise EOFError("bit stream exhausted")
