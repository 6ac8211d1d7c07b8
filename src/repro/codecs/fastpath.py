"""Table-driven fast path for scan-level entropy coding.

This module is the vectorized counterpart of the scalar scan coder in
``tests/codec_reference.py``:

* Encoding is per image, not per scan: one pass turns every scan of the
  image into ``(symbol, bits, width)`` arrays (see :mod:`repro.codecs.rle`),
  one ``bincount`` gives every scan's histogram, each scan's optimized
  canonical code is built straight from its row
  (:func:`repro.codecs.huffman.canonical_code`), and each symbol's code,
  fused with its magnitude bits, goes into one word-level bit pack
  (:func:`repro.codecs.bitio.pack_bits`) whose bytes are cut into the
  scan payloads (``encode_scan_bodies_fast``).  Every per-item array is a
  slice of the calling thread's scratch buffers (the role table in
  :mod:`repro.codecs.rle`), so a steady stream of images allocates no
  large array per image.
* Decoding probes the wide-window pair LUTs
  (:func:`repro.codecs.huffman._build_super_tables`) — one index
  computation resolves up to two complete (code + magnitude) symbols with
  their signed values already decoded — in one of two symbol loops:

  - The *stride walk* (:func:`_walk_one`) chases the DC-only and AC-only
    scans (every scan of a progressive stream), batched.  Their symbol
    boundaries are context-free (each entry carries its own bit
    consumption), so a vectorized phase-0 precompute turns every bit
    offset of a batch of payloads into its walk *stride* — the total bit
    length of all symbols its window resolves — and the Python loop is
    ``cursor += strides[cursor]`` per symbol pair.  The packed entries are
    gathered afterwards at the recorded offsets: a DC scan's first entries
    are its diffs, one ``cumsum`` per component, and one vectorized
    epilogue segments, checks and scatters every AC scan of a stream.
  - The *in-place loop* (:func:`_decode_in_place`) decodes one scan block
    by block off a bit buffer: a DC diff when the band starts at 0, then
    the AC band.  Mixed scans (sequential / baseline scripts, whose DC/AC
    table alternation depends on block structure) always take it; a
    walked scan takes it only when its finisher flags it, to finish it or
    to raise the scalar reference's error class for its first defect.

  Both read one table layout, the interleaved pair table with the walk's
  strides in one block.  In both, an oversized symbol (code + magnitude
  wider than the window) is finished from the same table: its window
  holds the symbol's negated plain entry (run, category, consumption) and
  the magnitude is read off the stream; a code longer than the window is
  matched against the table's few long codes.  A DC-only or AC-only scan
  fetches the bundle of its flavour, a mixed scan both of its table's,
  and coefficient-plane writes are one vectorized scatter per component.

Both directions produce byte-identical streams / identical coefficients to
the scalar reference (``encode_scan_body_reference`` /
``decode_scan_body_reference`` in ``tests/codec_reference.py``) — the one
differential oracle, which only the tests run.  This module is the only
entropy coder at run time.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.codecs.bitio import pack_bits
from repro.codecs.huffman import (
    SUPER_BITS,
    SUPER_VALUE_OFFSET,
    SUPER_VOFF_SHIFT,
    HuffmanTable,
    canonical_code,
    long_code_entry,
)
from repro.codecs.pixelpath import _thread_scratch
from repro.codecs.rle import symbol_stream

__all__ = [
    "encode_scan_bodies_fast",
    "decode_streams_fast",
    "record_passes",
]


def encode_scan_bodies_fast(coefficients, script) -> list[bytes]:
    """Entropy-code every scan of one image: each body is its table + its bits.

    Byte-identical to the scalar ``encode_scan_body_reference`` per scan.
    One symbol pass over the image (:func:`repro.codecs.rle.symbol_stream`),
    one ``bincount`` for every scan's histogram, one canonical code per scan
    straight from its row (:func:`repro.codecs.huffman.canonical_code`),
    then one bit pack for the whole image: each scan's 1-bit padding rides
    on its last item, so every scan ends on a byte and its payload is a
    slice of the packed bytes.  Every per-item array is in the calling
    thread's :class:`~repro.codecs.pixelpath.PixelScratch`.
    """
    scans = tuple(script)
    n_scans = len(scans)
    keys, bits, n_bits, scan_ends = symbol_stream(coefficients.planes, scans)
    total = keys.shape[0]
    bounds = [0, *scan_ends.tolist()]
    for scan in range(1, n_scans):  # a key is scan * 256 + symbol
        keys[bounds[scan] : bounds[scan + 1]] += scan << 8
    counts = np.bincount(keys, minlength=n_scans << 8)
    present = np.flatnonzero(counts)
    present_keys, present_counts = present.tolist(), counts[present].tolist()
    key_codes, key_lengths, headers = [], [], []
    first = 0
    for scan in range(n_scans):
        stop = bisect_left(present_keys, (scan + 1) << 8, first)
        if stop > first:
            symbols = [key & 0xFF for key in present_keys[first:stop]]
            scan_lengths, scan_codes, header = canonical_code(symbols, present_counts[first:stop])
            key_codes += scan_codes
            key_lengths += scan_lengths
        else:  # an empty scan's table still needs a symbol to be serializable
            header = canonical_code([0], [0])[2]
        headers.append(header)
        first = stop
    scratch = _thread_scratch()
    codes = scratch.array("codes", n_scans << 8, np.int64)
    lengths = scratch.array("lengths", n_scans << 8, np.int64)
    codes[present] = key_codes
    lengths[present] = key_lengths

    # Item i is the code of its symbol, then its magnitude bits.  The pair
    # fusion below reads one item past an odd count: a zero-width zero.
    # Scratch roles as in the table of :mod:`repro.codecs.rle`.
    all_values = scratch.array("encode_a", total + 1, np.int64)
    all_widths = scratch.array("encode_b", total + 1, np.int64)
    all_values[total] = all_widths[total] = 0
    values = np.take(codes, keys, mode="clip", out=all_values[:total])
    values <<= n_bits
    values |= bits
    widths = np.take(lengths, keys, mode="clip", out=all_widths[:total])
    widths += n_bits
    # Close every scan on a byte with a run of 1 bits, as JPEG pads: the
    # pad is appended to the scan's last item.
    byte_ends = []
    n_bytes = 0
    for start, end in zip(bounds, bounds[1:]):
        if end > start:
            scan_bits = int(widths[start:end].sum())
            pad = -scan_bits & 7
            values[end - 1] = (int(values[end - 1]) << pad) | ((1 << pad) - 1)
            widths[end - 1] += pad
            n_bytes += (scan_bits + pad) >> 3
        byte_ends.append(n_bytes)
    # Fuse adjacent pairs: two items whose widths sum to at most 63 bits fit
    # one int64, and the packer's cost scales with items.  Only
    # pathological DC magnitudes make a wider pair; such an image packs
    # unfused.
    n_pairs = (total + 1) >> 1
    firsts, seconds = slice(0, 2 * n_pairs, 2), slice(1, 2 * n_pairs, 2)
    pair_widths = np.add(
        all_widths[firsts], all_widths[seconds], out=scratch.array("encode_d", n_pairs, np.int64)
    )
    if n_pairs and int(pair_widths.max()) <= 63:
        pair_values = np.left_shift(
            all_values[firsts], all_widths[seconds], out=scratch.array("encode_c", n_pairs, np.int64)
        )
        pair_values |= all_values[seconds]
        payload = pack_bits(pair_values, pair_widths)
    else:  # the pack works in encode_a / encode_b: hand it copies
        payload = pack_bits(values.copy(), widths.copy())
    return [
        header + payload[start:end]
        for header, start, end in zip(headers, [0] + byte_ends, byte_ends)
    ]


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


def _scatter(plane, positions, values) -> None:
    """Write ``values`` at flat (block-major) ``positions`` of one plane."""
    if plane.flags.c_contiguous:
        plane.reshape(-1)[positions] = values
    else:
        plane[positions >> 6, positions & 63] = values


def decode_streams_fast(streams):
    """Decode the scans of several streams, each into its own planes, in one pass.

    ``streams`` holds ``(data, segments, coefficients)`` per stream: the
    stream's bytes, the scan segments to apply and the planes they write.
    Each scan goes to one of the two symbol loops:

    * DC-only and AC-only scans of *every* stream are collected, in stream
      order, and chased by one sequence of stride walks
      (:func:`_walk_batch`, batches capped at ``_WALK_BATCH_BYTES``), so
      one phase-0 window pass and one compaction serve many scans and
      many streams — at scan group 1 a whole record — where per-scan
      NumPy fixed costs would otherwise dominate.  Each stream's walked
      entries are then finished into its own planes
      (:func:`_finish_walked_scans`), streams in order.
    * Mixed scans are decoded by the in-place loop
      (:func:`_decode_in_place`) before the walk: their DC/AC table
      alternation depends on block structure, so the context-free walk
      does not apply.  A walked scan that its finisher flags is decoded
      again by the same loop.

    Returns ``None`` when every stream decoded, else ``(index, error)``
    for the lowest-index stream that cannot be: ``error`` is the
    ``ValueError`` or ``EOFError`` that stream raises decoded alone (the
    walk raises nothing, and a stream's own steps run in the order they
    would alone; any other exception propagates at once), the streams
    before it are decoded and the planes of the streams from it on are
    partial.  A stream whose tables or mixed scans fail ends the
    collection, since no later stream's error can win; the earlier ones
    are still walked and finished, and their own error wins if they have
    one.

    Contract: the AC coefficients in each scan's band must be zero in the
    target planes (as ``empty_coefficients`` makes them) — zero AC
    coefficients are never written, only the nonzero scatter, while a DC
    scan writes column 0 whole.  Every caller decodes into fresh planes,
    and valid scan scripts cover each coefficient exactly once.  A stream
    whose scans are all DC-only may carry ``(n_blocks, 1)`` planes
    (``empty_coefficients(header, dc_only=True)``): its scans touch
    column 0 alone.

    Divergence from the scalar reference, on *invalid* streams only: a
    symbol with a zero category and a nonzero run (never emitted by either
    encoder) is treated as a pure zero-run rather than a zero coefficient
    after the run, and errors may surface after the whole scan is chased
    rather than at the offending bit.  The error *class* still matches the
    scalar reference on all three defect families — truncation mid-symbol,
    invalid prefix, band overflow — because the walk raises nothing: a scan
    it cannot stand for is flagged and decoded in place, where every raise
    site classifies by the offending symbol's bit offset
    (``_invalid_code_error`` / ``_overflow_error``) at its first defect in
    stream order.  Identical classes are asserted by the fuzz tests in
    ``tests/test_codecs_fastpath.py``; the one relaxation is *cross-scan*
    ordering: when several scans of one stream are defective, which scan's
    error surfaces first may differ from the scalar reference (DC-only
    scans are deferred behind mixed ones, and AC scans behind both).

    Entry handling per pair-table probe of the in-place loop (see
    ``_build_super_tables`` for the packing; ``w2 = 2 * window`` indexes
    the interleaved table, whose even slot holds the first symbol and odd
    slot the one that follows):

    * ``entry > 0`` — the first symbol is fully decoded in the entry
      (consume / position advance / signed value); a nonzero odd-slot entry
      holds a complete second symbol, committed only when the block still
      has room (the table pairs speculatively across what may be a block
      boundary, and each entry carries its own bit consumption so an
      uncommitted second symbol consumes nothing).  Probing with
      ``bitcnt >= 32`` guarantees a full pair (<= 32 bits) never underruns
      the buffer.
    * ``entry < -1`` — the first symbol's code fits the window but its
      magnitude does not: ``-entry`` is the symbol's plain entry (run,
      category, consumption) and the magnitude is read off the stream.
    * ``entry == -1`` — the window is a prefix of codes longer than itself:
      :func:`~repro.codecs.huffman.long_code_entry` matches the next 16
      bits against them and returns an entry of the two other kinds.
    * ``entry == 0`` — invalid prefix: ``ValueError``, same as the scalar
      reference.
    """
    jobs = []
    counts = []
    failure = None
    for index, (data, segments, coefficients) in enumerate(streams):
        try:
            stream_jobs = _walk_jobs(data, segments, coefficients)
        except (ValueError, EOFError) as error:
            failure = index, error
            break
        jobs += stream_jobs
        counts.append(len(stream_jobs))
    parts = []
    start = batch_bytes = 0
    for stop, job in enumerate(jobs):
        # Close the open batch before a scan that cannot join it (a scan
        # over the cap on its own then opens, and is, the next batch).
        if stop > start and batch_bytes + len(job[1]) > _WALK_BATCH_BYTES:
            parts += _walk_batch(jobs[start:stop])
            start, batch_bytes = stop, 0
        batch_bytes += len(job[1]) + len(_WALK_PAD)
    if jobs:
        parts += _walk_batch(jobs[start:])
    start = 0
    for index, ((_, _, coefficients), count) in enumerate(zip(streams, counts)):
        stop = start + count
        try:
            _finish_walked_scans(jobs[start:stop], parts[start:stop], coefficients)
        except (ValueError, EOFError) as error:
            return index, error
        start = stop
    return failure


def _walk_jobs(data: bytes, segments, coefficients) -> list:
    """Fetch one stream's tables, decode its mixed scans; returns its walk jobs.

    A walk job is ``(scan, payload, tables, n_payload_bits)`` for a DC-only
    or AC-only scan, in stream order.
    """
    jobs = []
    for segment in segments:
        scan = segment.header
        body = data[segment.payload_start : segment.end]
        tables, consumed = HuffmanTable.cached_from_bytes(
            body, "ac" if scan.spectral_end else "dc"
        )
        payload = body[consumed:]
        n_payload_bits = len(payload) * 8
        if scan.spectral_start == 0 < scan.spectral_end:  # mixed: both flavours
            dc_tables, _ = HuffmanTable.cached_from_bytes(body, "dc")
            _decode_in_place(
                payload, tables[0], dc_tables[0], tables[3], scan, coefficients, n_payload_bits
            )
        else:
            jobs.append((scan, payload, tables, n_payload_bits))
    return jobs


#: Upper bound on the total payload bytes vectorized into one walk batch.
#: Phase 0 materializes ≈ 24 transient bytes per payload byte (the int32
#: byte triples and the per-bit uint16 window array, 16 of them), plus up
#: to 80 for the scan being gathered (``np.take``'s intp index copy, the
#: strides and their bytes).  The cap also sizes a batch decode's passes
#: (:func:`record_passes`).  At scan group 1 a 224-px record's eight DC
#: scans are ≈ 11 KB: one batch under any cap tried.  At group 10 a record
#: is ≈ 139 KB (≈ 17 KB per stream).  Walking the 12 corpus records whole
#: in one process, caps alternating run by run (one thread, 2 shared
#: vCPUs), 32 KiB (a ≈ 0.5 MB window array) was faster than 256 KiB (the
#: whole record in one batch, ≈ 2.2 MB) in 36 of 50 runs, with medians
#: 5.27 and 5.66 against 5.46 and 5.92 ms/image in two sets of 25, and
#: even with 16 KiB and 64 KiB (26 and 30 of 50): past the core's cache, a
#: wider batch costs more than the calls it saves.  A single scan larger
#: than the cap is walked as a batch of its own: the image that owns such
#: a scan already holds coefficient planes far larger than that scan's
#: walk transient.
_WALK_BATCH_BYTES = 1 << 15


def record_passes(payloads) -> list[tuple[int, int]]:
    """Cut a batch of streams into passes, as ``(first, stop)`` index ranges.

    A pass is a run of consecutive streams whose bytes fit one walk batch
    (``_WALK_BATCH_BYTES``), at least one stream.  A batch decode takes
    one pass at a time, entropy then pixels, so the planes and walk
    entries of at most one pass are live together: a 224-px group-1
    record (≈ 11 KB) is one pass and shares one walk and one colour pass,
    while each group-10 stream (≈ 17 KB) is a pass of its own.  A whole
    group-10 record in one pass held ≈ 2 MB more at its peak (traced) and
    read +4.7 % ``peak_rss_mb`` on ``train_local_g10``, for no speed-up.
    """
    passes = []
    first = size = 0
    for index, data in enumerate(payloads):
        if index > first and size + len(data) > _WALK_BATCH_BYTES:
            passes.append((first, index))
            first, size = index, 0
        size += len(data)
    if payloads:
        passes.append((first, len(payloads)))
    return passes


def _finish_walked_scans(jobs, parts, coefficients) -> None:
    """Phase 2 of one stream's walked scans, into its own planes.

    ``jobs`` are the stream's walk jobs in stream order and ``parts`` each
    one's entries from :func:`_walk_batch`.  The DC scans are finished
    first, in order (:func:`_finish_dc_scan`), then one
    :func:`_finish_ac_scans` call reconstructs every AC scan — order is
    preserved within each kind so multi-scan error surfacing stays
    deterministic.
    """
    ac_jobs, ac_parts = [], []
    for job, entries in zip(jobs, parts):
        if job[0].spectral_end == 0:
            _finish_dc_scan(job, entries, coefficients)
        else:
            ac_jobs.append(job)
            ac_parts.append(entries)
    if ac_jobs:
        entry_array = ac_parts[0] if len(ac_parts) == 1 else np.concatenate(ac_parts)
        lengths = [part.shape[0] for part in ac_parts]
        _finish_ac_scans(ac_jobs, entry_array, lengths, coefficients)


def _finish_dc_scan(job, entries, coefficients) -> None:
    """Phase 2 of a walked DC-only scan: its first entries are its diffs.

    One entry per block, in component order; the walk decodes the
    1-padding as data too, so entries past the last block are ignored.
    The scan is flagged — and decoded by :func:`_decode_in_place`, which
    finishes it or raises the scalar reference's error class — when it has
    fewer entries than blocks, when the invalid sentinel is among the
    needed ones (an invalid prefix, or a diff outside +-32767, which a
    packed entry cannot hold), or when they consume more bits than the
    payload holds.
    """
    scan, payload, tables, n_payload_bits = job
    planes = coefficients.planes
    n_blocks = sum(planes[component].shape[0] for component in scan.component_ids)
    needed = entries[:n_blocks]
    if (
        needed.shape[0] < n_blocks
        or int(needed.min(initial=0)) < 0
        or int(np.add.reduce(needed & 31, dtype=np.int64)) > n_payload_bits
    ):
        pair, _, _, long_codes = tables
        _decode_in_place(payload, pair, pair, long_codes, scan, coefficients, n_payload_bits)
        return
    diffs = needed >> SUPER_VOFF_SHIFT
    diffs -= SUPER_VALUE_OFFSET
    start = 0
    for component in scan.component_ids:
        plane = planes[component]
        stop = start + plane.shape[0]
        # Accumulated in the plane's dtype, which holds every DC value.
        np.cumsum(diffs[start:stop], out=plane[:, 0])
        start = stop


#: Padding appended per scan inside a walk batch blob.  16 bytes cover the
#: widest read past a scan's true payload: the walk probes up to 64 bits
#: into the padding, and an escape there reads at most 6 bytes
#: from bit ``n_payload_bits + 64`` — byte ``len(payload) + 8 + 6``, still
#: inside this scan's padding.  The 1-bits match the writer's end-of-stream
#: padding, like ``_PAD``.
_WALK_PAD = b"\xff" * 16

#: Per-byte window extraction constants: byte triple ``b, b+1, b+2`` holds
#: the 8 windows starting at bits ``8b .. 8b + 7``; window ``k`` is
#: ``(u24 >> (24 - k - SUPER_BITS)) & _WINDOW_MASK`` (and fits a uint16).
_WINDOW_SHIFTS = tuple(range(24 - SUPER_BITS, 16 - SUPER_BITS, -1))
_WINDOW_MASK = (1 << SUPER_BITS) - 1


def _walk_batch(jobs):
    """Chase a batch of DC-only and AC-only scans via the precomputed stride walk.

    An in-place symbol chase spends most of its time on bit-buffer
    bookkeeping: refills, shift/mask window extraction, and per-symbol
    entry appends.  Symbol boundaries in a DC-only or AC-only scan are
    context-free (every entry carries its own bit consumption), so this
    pipeline vectorizes all of that away and defers block tracking,
    positions and values to :func:`_finish_dc_scan` /
    :func:`_finish_ac_scans`.  Phase 0 computes, for *every bit
    offset* of the batch blob, the ``SUPER_BITS``-bit window starting there
    (one strided shift per bit phase into a uint16 array — the batch's
    largest transient, so its width is paid in page faults) and, per scan,
    gathers each window's walk stride — the total bit length of every
    symbol pair-resolved at that offset — from the scan's own table into
    one bytes object.  Phase 1 is then the leanest possible Python
    loop (:func:`_walk_one`): index a byte, record it, add it to the
    cursor — one step per *probe* (two symbols ~85% of the time), with no
    buffer state at all.  Phase 2 reconstructs the actual packed entries
    with one gather per scan — both slots of every recorded probe at once,
    off the bundle's ``int64`` view of its pair table, so the gathered
    stream is already interleaved — then patches in the (rare) escape
    results recorded by the walk and compacts out the empty second slots.

    Every gather is ``np.take``: fancy indexing with an int32 index array
    first casts it to intp through a generic path that costs 3x the gather
    itself (docs/performance.md has the numbers).

    Returns one ``int32`` array per job, in job order: the scan's packed
    symbols in the posdelta format of ``_build_super_tables``, views of
    one compacted array — what the finishers read.
    """
    blob = b"".join([job[1] + _WALK_PAD for job in jobs])
    blob_bytes = np.frombuffer(blob, dtype=np.uint8).astype(np.int32)
    u24 = blob_bytes[:-2] << 16
    u24 |= blob_bytes[1:-1] << 8
    u24 |= blob_bytes[2:]
    windows = np.empty((u24.shape[0], 8), dtype=np.uint16)
    for column, shift in enumerate(_WINDOW_SHIFTS):
        np.right_shift(u24, shift, out=windows[:, column], casting="unsafe")
    windows &= _WINDOW_MASK
    windows = windows.reshape(-1)
    # Phases 1 and 2, per scan: walk its stride bytes, gather its slot pairs.
    pairs = []
    fallback_entries: list[int] = []
    bit_base = 0
    for scan, payload, tables, n_payload_bits in jobs:
        pair, pairs64, pairbits, long_codes = tables
        scan_windows = windows[bit_base : bit_base + n_payload_bits + 64]
        probes = _walk_one(
            np.take(pairbits, scan_windows).tobytes(),
            scan_windows,
            pair,
            long_codes,
            blob,
            bit_base >> 3,
            fallback_entries,
            scan.spectral_end > 0,
        )
        probed = np.take(scan_windows, probes)
        pairs.append(np.take(pairs64, probed).view(np.int32))
        bit_base += (len(payload) + len(_WALK_PAD)) << 3
    interleaved = np.concatenate(pairs)
    if fallback_entries:
        first = interleaved[0::2]
        first[first <= 0] = np.asarray(fallback_entries, dtype=np.int32)
    # A probe's first slot is never empty (a packed symbol, or an escape
    # patched just above) and an escape probe's second slot always is (the
    # tables pair only behind an in-window first symbol), so compaction
    # keeps every nonzero interleaved slot and a scan's entry count is its
    # probes plus its occupied second slots.
    entries = np.take(interleaved, np.flatnonzero(interleaved))
    parts = []
    base = 0
    for part in pairs:
        length = (part.shape[0] >> 1) + int(np.count_nonzero(part[1::2]))
        parts.append(entries[base : base + length])
        base += length
    return parts


def _walk_one(
    strides: bytes,
    windows,
    pair,
    long_codes,
    blob: bytes,
    byte_base: int,
    fallback_entries: list,
    ac: bool,
) -> np.ndarray:
    """Phase-1 stride walk over one scan: returns its probe bit offsets.

    ``strides[p]`` is the precomputed total bit length of every symbol the
    superscalar window at bit ``p`` resolves, so a probe is a bytes index,
    an add and one ``bytearray.append`` of that step; one ``cumsum`` turns
    the steps into the probe offsets (an ``intp`` array, the gather's own
    index type).  Cursors above 256 are fresh ints, so the loop does
    allocate; what it avoids is ``array('i').append``, which converts each
    int through ``PyArg_Parse`` and made a probe ≈ 1.5× as dear
    (docs/performance.md has the numbers).  A zero stride means the window
    cannot be walked through (invalid prefix, oversized first symbol or a
    code longer than the window): ``escape`` finishes the symbol from its
    window's own first slot (``pair[2 * windows[p]]``) and the blob bytes,
    appends its packed entry to ``fallback_entries`` and returns its bit
    consumption as the step; phase 2 patches these into the gathered entry
    stream, so the walk stays branch-lean.  The walk ends when the cursor
    runs off the stride bytes, which cover the payload plus 64 bits of
    padding; the step that ran off is dropped, so every probe is in range.
    It cannot classify errors (it does not know where blocks end): the
    epilogue ignores entries beyond the last block's end and classifies
    what is missing or invalid.

    ``ac`` names the table's flavour, which only an escape reads: an AC
    entry advances the in-band position, a DC diff (``ac`` false) never
    does and always carries a value, ``SUPER_VALUE_OFFSET`` for a zero
    diff.  An invalid window, or a DC diff outside +-32767 (category 16
    and up), which does not fit a packed entry, appends the ``-1``
    sentinel and returns the step 256, which no byte holds: its append
    raises and the walk stops with the escape's own probe last.  The DC
    finisher then decodes the scan in place.
    """
    masks = _MASKS
    halves = _HALVES
    offset = SUPER_VALUE_OFFSET
    append = fallback_entries.append

    def escape(cursor: int) -> int:
        byte = byte_base + (cursor >> 3)
        phase = cursor & 7
        # Code + magnitude span at most 31 bits, so 6 bytes starting at
        # the cursor's byte always cover them.
        wide = int.from_bytes(blob[byte : byte + 6], "big")
        entry = pair[int(windows[cursor]) << 1]
        if entry == -1:
            entry = long_code_entry(long_codes, (wide >> (32 - phase)) & 0xFFFF, ac)
        entry = -entry
        consume = entry & 0xFFF
        category = (entry >> 12) & 0xFF
        if not entry or category > 15:  # invalid, or a DC diff too wide
            append(-1)
            return 256
        if category:
            mask = masks[category]
            bits = (wide >> (48 - phase - consume)) & mask
            value = bits if bits >= halves[category] else bits - mask
            posdelta = (entry >> 20) + 1 if ac else 0
            append(consume | (posdelta << 5) | ((value + offset) << SUPER_VOFF_SHIFT))
        elif ac:  # an EOB or ZRL whose code is longer than the window
            append(consume | ((entry >> 20) << 5))
        else:  # a zero DC diff whose code + magnitude exceed the window
            append(consume | (offset << SUPER_VOFF_SHIFT))
        return consume

    steps = bytearray(1)  # the first probe is at bit 0
    record = steps.append
    cursor = 0
    try:
        while True:
            step = strides[cursor] or escape(cursor)
            record(step)
            cursor += step
    except IndexError:  # the last step ran off the stride bytes
        del steps[-1]
    except ValueError:  # an escape's 256: the walk stops at its probe
        pass
    return np.cumsum(np.frombuffer(steps, dtype=np.uint8), dtype=np.intp)


def _finish_ac_scans(jobs, entry_array, lengths, coefficients) -> None:
    """Phase 2 of the batched AC decode: reconstruct scans from raw entries.

    ``entry_array`` is the packed posdelta stream of every AC-only scan of
    ``jobs`` back to back, ``lengths`` each scan's entry count (both from
    :func:`_walk_batch`, with the DC scans' cut out).  A scan's entries run
    past the symbols it needs — the walk decodes the 1-padding as data — so
    the first job is to find where each block, component and scan ends.  All of it is vector
    passes over the whole stream's entries (amortizing NumPy fixed costs
    across its ~9 AC scans), with no per-block work in Python:

    1.  *In-block slots.*  The in-band position restarts at a scan start
        and after an EOB, and otherwise runs on through blocks that fill
        their band exactly (those have no EOB): ``cumsum`` of the non-EOB
        advances, minus a ``maximum.accumulate`` of its value at the last
        restart.  Modulo the band length that is the slot an entry's
        coefficient lands on, and an entry ends a block iff the slot is the
        band's last (an EOB, at position 0, lands there by the same
        arithmetic).  ``cumsum`` of those flags numbers the blocks.
    2.  *Ends and checks.*  One ``searchsorted`` over the ~17 block counts
        finds the entry completing each (scan, component).  A scan is
        flagged when it has no such entry, when that entry is the
        invalid-window sentinel, when the entries up to it consumed more
        bits than the payload holds (garbage decoded from the padding), or
        when one of them *crosses* a block end — advances further than its
        slot, so it started in the previous block and step 1 mis-numbered
        what follows; only invalid streams do.  A flagged scan is decoded
        again by :func:`_decode_in_place`, which raises the reference's
        error class for its first defect — or finishes the scan, when its
        only flag was a pure run crossing the band end.
    3.  *Scatter.*  A coefficient's flat plane offset is its block number
        ``<< 6`` plus its slot plus a per-(scan, component) constant, so
        the nonzero coefficients of each component are one slice of one
        compacted array, scattered into the plane in one assignment.
    """
    planes = coefficients.planes
    scans = [job[0] for job in jobs]
    n_entries = entry_array.shape[0]
    # int32 throughout while the cumulative sums provably fit (an entry
    # advances <= 63 positions here and a block number is shifted by 6);
    # NumPy would otherwise silently promote int32 cumsums to int64.
    cum_dtype = np.int32 if n_entries < (1 << 24) else np.int64
    limits = np.cumsum(lengths)
    bases = limits - lengths
    band_lengths = np.asarray([scan.band_length for scan in scans], dtype=np.int32)
    band = band_lengths[0] if len(scans) == 1 else np.repeat(band_lengths, lengths)
    # Six bits of the 7-bit advance: EOB (64) becomes 0, the symbols' 1..16
    # are kept, and the -1 sentinel's 127 becomes 63 (checked by name below).
    advance = (entry_array >> 5) & 63
    is_eob = advance == 0
    slot = np.cumsum(advance, dtype=cum_dtype)
    restarts = slot * is_eob
    restarts[bases] = slot[bases] - advance[bases]
    np.maximum.accumulate(restarts, out=restarts)
    slot -= restarts
    slot -= 1
    slot %= band
    ends = slot == band - 1
    block_cum = np.cumsum(ends, dtype=cum_dtype)
    # The entry completing each (scan, component): the first whose block
    # count reaches the blocks before the scan plus the scan's so far.
    targets = []
    for scan, done in zip(scans, (block_cum[bases] - ends[bases]).tolist()):
        for component in scan.component_ids:
            done += planes[component].shape[0]
            targets.append(done)
    last = np.searchsorted(block_cum, np.asarray(targets, dtype=cum_dtype))
    scan_last = last[np.cumsum([len(scan.component_ids) for scan in scans]) - 1]
    needed = np.minimum(scan_last + 1, limits)
    # Bits consumed by each scan's needed entries: the even segments of one
    # reduceat over [base, needed) pairs (a final bound of n_entries is the
    # array's end, which reduceat sums to anyway).
    bounds = np.stack((bases, needed), axis=1).reshape(-1)
    if bounds[-1] == n_entries:
        bounds = bounds[:-1]
    consumed = np.add.reduceat(entry_array & 31, bounds, dtype=cum_dtype)[0::2]
    # An entry that advances further than the slot it lands on (plus one)
    # began in the previous block: it crosses a block end.
    crossing = np.flatnonzero(advance - slot > 1)
    flagged = (
        (scan_last >= limits)
        | ((needed == limits) & (entry_array[limits - 1] == -1))
        | (consumed > [job[3] for job in jobs])
        | (np.searchsorted(crossing, needed) > np.searchsorted(crossing, bases))
    ).tolist()
    for (scan, payload, (pair, _, _, long_codes), n_payload_bits), defective in zip(jobs, flagged):
        if defective:
            _decode_in_place(payload, pair, pair, long_codes, scan, coefficients, n_payload_bits)
    value_offsets = entry_array >> SUPER_VOFF_SHIFT
    coefficient_at = np.flatnonzero(value_offsets > 0)
    flat_values = np.take(value_offsets, coefficient_at)
    flat_values -= SUPER_VALUE_OFFSET
    # Block number (blocks complete *before* the entry) << 6, plus the slot.
    block_cum -= ends
    block_cum <<= 6
    block_cum += slot
    flat_positions = np.take(block_cum, coefficient_at)
    uppers = np.searchsorted(coefficient_at, last + 1).tolist()
    scan_lowers = np.searchsorted(coefficient_at, bases).tolist()
    index = 0
    for scan, lower, defective in zip(scans, scan_lowers, flagged):
        for component in scan.component_ids:
            plane = planes[component]
            upper = uppers[index]
            if upper > lower and not defective:
                positions = flat_positions[lower:upper]
                # Rebase from stream-wide block numbers to this plane's.
                positions += scan.spectral_start - (
                    (targets[index] - plane.shape[0]) << 6
                )
                _scatter(plane, positions, flat_values[lower:upper])
            lower = upper
            index += 1


def _escape_dc(
    entry: int, long_codes, words: list, word_index: int, bitbuf: int, bitcnt: int, n_payload_bits: int
):
    """Finish one DC diff its window could not (cold): ``entry <= 0``.

    The window holds the negated plain entry of an oversized diff (the code
    fit, the magnitude did not), ``-1`` for a code longer than the window,
    or ``0`` for an invalid prefix.  Returns ``(diff, word_index, bitbuf,
    bitcnt)`` — the reader state past the symbol's code and magnitude.
    """
    if entry == -1:
        entry = long_code_entry(long_codes, (bitbuf >> (bitcnt - 16)) & 0xFFFF, False)
    if entry == 0:
        raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
    consume = -entry & 0xFFF
    category = -entry >> 12
    while consume > bitcnt:  # oversized DC magnitude (rare)
        bitbuf = ((bitbuf & _MASKS[bitcnt]) << 64) | words[word_index]
        word_index += 1
        bitcnt += 64
    bitcnt -= consume
    diff = 0
    if category:
        mask = _MASKS[category]
        bits = (bitbuf >> bitcnt) & mask
        diff = bits if bits >= _HALVES[category] else bits - mask
    return diff, word_index, bitbuf, bitcnt


def _decode_in_place(
    payload: bytes, sup_ac, sup_dc, long_codes, scan, coefficients, n_payload_bits: int
) -> None:
    """Decode one scan block by block off a bit buffer, in place.

    Each block takes a DC diff when the scan's band starts at 0, then the
    AC band ``[max(ss, 1), se]``: a DC-only scan's band is empty and an
    AC-only scan has no DC step.  Mixed scans always come here; a walked
    scan comes here when its finisher flags it, and the loop either
    finishes it (a DC diff outside +-32767 is valid, up to the format's
    +-2**30; a pure run crossing the band end ends its block, like the
    reference ``read_ac_band``'s ``index += 16``) or raises the scalar
    reference's error class for its first defect.  ``sup_ac`` / ``sup_dc``
    are the interleaved pair tables of the two flavours (the same one for
    a walked scan, which reads one flavour) and ``long_codes`` the table's
    long codes, which serve both.

    The DC probe commits only its first symbol — in a mixed scan the symbol
    after a DC diff is an AC symbol, which the DC-flavour pairing cannot
    know.  The AC inner loop commits pairs with posdelta position
    tracking: ``index`` holds the band position *after* the symbol, so a
    coefficient lands at ``index - 1`` and overflow is
    ``index > band_length``.
    """
    padded = payload + _PAD
    words = np.frombuffer(padded, dtype=">u8", count=len(padded) >> 3).tolist()
    masks = _MASKS
    halves = _HALVES
    offset = SUPER_VALUE_OFFSET
    voff_shift = SUPER_VOFF_SHIFT
    shift = _SUPER_SHIFT
    window_mask = _SUPER_MASK
    word_index = 0
    bitbuf = 0
    bitcnt = 0
    has_dc = scan.spectral_start == 0
    band_start = max(scan.spectral_start, 1)
    band_length = scan.spectral_end - band_start + 1  # 0 for a DC-only scan
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
            for block_base in range(band_start, band_start + (n_blocks << 6), 64):
                if has_dc:
                    if bitcnt < 32:
                        bitbuf = ((bitbuf & masks[bitcnt]) << 64) | words[word_index]
                        word_index += 1
                        bitcnt += 64
                    entry = sup_dc[(bitbuf >> (bitcnt - shift)) & window_mask]
                    if entry > 0:
                        bitcnt -= entry & 31
                        append_diff((entry >> voff_shift) - offset)
                    else:
                        diff, word_index, bitbuf, bitcnt = _escape_dc(
                            entry, long_codes, words, word_index, bitbuf, bitcnt, n_payload_bits
                        )
                        append_diff(diff)
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
                        voff = entry >> voff_shift
                        if voff:
                            if index > band_length:
                                raise _overflow_error((word_index << 6) - bitcnt, n_payload_bits)
                            append_position(block_base + index - 1)
                            append_value(voff - offset)
                        entry = sup_ac[w2 | 1]
                        if entry and index < band_length:
                            bitcnt -= entry & 31
                            index += (entry >> 5) & 0x7F
                            voff = entry >> voff_shift
                            if voff:
                                if index > band_length:
                                    raise _overflow_error((word_index << 6) - bitcnt, n_payload_bits)
                                append_position(block_base + index - 1)
                                append_value(voff - offset)
                    else:  # oversized magnitude or a long code (cold)
                        if entry == -1:
                            entry = long_code_entry(
                                long_codes, (bitbuf >> (bitcnt - 16)) & 0xFFFF, True
                            )
                        if entry == 0:
                            raise _invalid_code_error((word_index << 6) - bitcnt, n_payload_bits)
                        entry = -entry
                        bitcnt -= entry & 0xFFF
                        index += entry >> 20
                        category = (entry >> 12) & 0xFF
                        if category:
                            mask = masks[category]
                            bits = (bitbuf >> bitcnt) & mask
                            if index >= band_length:
                                raise _overflow_error((word_index << 6) - bitcnt, n_payload_bits)
                            append_position(block_base + index)
                            append_value(bits if bits >= halves[category] else bits - mask)
                            index += 1
            if has_dc:
                plane[:, 0] = np.cumsum(np.asarray(dc_diffs, dtype=np.int64))
            if positions:
                _scatter(plane, np.asarray(positions, dtype=np.intp), values)
    except IndexError:  # a refill past the padding: headers are validated at parse
        raise EOFError("bit stream exhausted") from None
    if (word_index << 6) - bitcnt > n_payload_bits:
        raise EOFError("bit stream exhausted")
