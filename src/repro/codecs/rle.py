"""Run-length / magnitude-category symbol coding for DCT coefficients.

JPEG entropy coding expresses each non-zero coefficient as a (zero-run,
magnitude-category) symbol followed by raw magnitude bits.  The same scheme is
used here for both baseline and progressive (spectral-selection) scans:

* DC coefficients are delta-coded against the previous block of the same
  component, with the symbol being the magnitude category.
* AC coefficients in a band ``[ss, se]`` use symbols ``(run << 4) | size``
  with the special symbols ``EOB`` (0x00, rest of band is zero) and ``ZRL``
  (0xF0, a run of 16 zeros).

The encoder is :func:`symbol_stream`, which emits the symbol stream of every
scan of an image at once — zero runs, ZRL expansion, and end-of-band markers
are all computed with array ops over one pass of the image's nonzero
entries.  What depends only on the plane shapes and the scan script — where
each AC coefficient sits in its band, and how many items the stream holds
before it whatever the coefficients — is a :class:`BlockLayout`, built once
per (shapes, script) pair and cached.  Every per-image array lives in the
calling thread's :class:`~repro.codecs.pixelpath.PixelScratch`, so after the
first image the pass allocates nothing that scales with the image but the
index of its nonzero coefficients.  Its per-block scalar twin, and the
scalar decoder, are the test oracle in ``tests/codec_reference.py``.

The entropy encode's scratch roles
----------------------------------

Arrays that are never live at the same time share a role, so the five wide
roles hold every per-item and per-entry array of the symbol pass, of the
scan-body assembly (:func:`repro.codecs.fastpath.encode_scan_bodies_fast`)
and of the bit pack (:func:`repro.codecs.bitio.pack_bits`), in that order:

============  =============================  ==============  ===========
role          symbol pass                    scan bodies     bit pack
============  =============================  ==============  ===========
``encode_a``  flat AC coefficients, runs     item values     item ends
``encode_b``  magnitude-table index          item widths     word index
``encode_c``  entry weights, stream offsets  pair values     (input)
``encode_d``  item symbols                   keys, widths    (input)
``encode_e``  item magnitude bits            (read)          word heads
============  =============================  ==============  ===========

plus narrow ones: ``nonzero`` (the nonzero mask, then in-band positions,
then the pack's word-start flags), ``values`` (entry values, then layout
bases, then DC diffs), ``flags`` (end-of-band flags, then long runs),
``categories`` / ``bits`` (magnitude codes), ``n_bits``, ``codes`` /
``lengths`` and ``pack_words``.  At 224 px colour they hold
1.4 MiB per thread, and the cached layout 0.37 MiB.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.codecs.pixelpath import _thread_scratch

EOB_SYMBOL = 0x00
ZRL_SYMBOL = 0xF0
MAX_RUN = 15

#: The largest AC magnitude: its category, 15, is the last that fits the
#: symbol's size nibble.
MAX_AC_MAGNITUDE = (1 << 15) - 1

#: The magnitude category (bit length of ``|v|``) and the raw bits that
#: encode ``v`` (a negative value is stored as ``v - 1`` in its low
#: ``category`` bits) of every ``v`` in ``+-MAX_AC_MAGNITUDE``, indexed by
#: ``v + MAX_AC_MAGNITUDE``: 192 KiB, shared by every thread.
_SIGNED = np.arange(-MAX_AC_MAGNITUDE, MAX_AC_MAGNITUDE + 1, dtype=np.int64)
_CATEGORY_OF = np.frexp(np.abs(_SIGNED).astype(np.float64))[1].astype(np.uint8)
_BITS_OF = (_SIGNED + (_SIGNED < 0) * ((1 << _CATEGORY_OF.astype(np.int64)) - 1)).astype(np.uint16)
del _SIGNED

#: Bit set in a :class:`BlockLayout` tag when the coefficient ends its band.
_ENDS_BAND = 0x80


@dataclass(frozen=True)
class BlockLayout:
    """Where every AC coefficient of one (plane shapes, scan script) pair lands.

    A *group* is one component of one scan and a *segment* one block of a
    group: a delta-coded DC item when the scan starts at index 0, then the
    RLE items of the block's AC band.  The AC bands of every segment, laid
    end to end in stream order, are the *flat* array the symbol pass scans.

    * ``bands``: ``(component, first, stop, flat start)`` of each group
      with an AC band — the slices that fill the flat array.
    * ``tags``: uint8 per flat coefficient, its in-band position, with
      ``_ENDS_BAND`` set on the band's last one.
    * ``bases``: int32 (int64 past 2**31 items) per flat coefficient.  The
      stream holds ``bases[n]`` items plus the weight of the earlier
      entries before the entry of coefficient ``n``: the DC items and
      end-of-band slots of the segments before it, its own DC item, minus
      one, plus one if it ends its band.  An entry's weight is its ZRLs
      plus itself, minus the end-of-band item it removes when it ends its
      band.
    * ``dc_components``: the component of each DC group, in stream order.
    * ``probe_starts`` / ``probe_items``: the flat start of each DC
      segment, then the flat end of each scan, and the items the layout
      alone puts before that point; adding the weight of the entries before
      it gives the DC items' and the scan ends' stream offsets.
    """

    bands: tuple[tuple[int, int, int, int], ...]
    dc_components: tuple[int, ...]
    tags: np.ndarray
    bases: np.ndarray
    probe_starts: np.ndarray
    probe_items: np.ndarray

    @property
    def nbytes(self) -> int:
        arrays = (self.tags, self.bases, self.probe_starts, self.probe_items)
        return sum(array.nbytes for array in arrays)


#: ``(plane shapes, scan fields)`` -> :class:`BlockLayout`.  FIFO bounded by
#: bytes rather than entries, since a layout scales with the image (370 KiB
#: at 224 px colour, 7.7 MiB at 1024 px): a stream of distinct image sizes
#: must not pin one per size, and a miss costs only a rebuild (0.6 ms at
#: 224 px).  Same idiom as the basis caches: reads are GIL-atomic dict
#: lookups, the evict+insert takes the lock, and concurrent builders are
#: benign.
_LAYOUT_CACHE: dict[tuple, BlockLayout] = {}
_LAYOUT_CACHE_BYTES = 8 << 20
_LAYOUT_LOCK = threading.Lock()


def block_layout(shapes: tuple, scans) -> BlockLayout:
    """The cached :class:`BlockLayout` of planes of ``shapes`` under ``scans``."""
    key = (shapes, tuple((s.component_ids, s.spectral_start, s.spectral_end) for s in scans))
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        layout = _build_layout(shapes, key[1])
        with _LAYOUT_LOCK:
            held = sum(entry.nbytes for entry in _LAYOUT_CACHE.values())
            while _LAYOUT_CACHE and held + layout.nbytes > _LAYOUT_CACHE_BYTES:
                held -= _LAYOUT_CACHE.pop(next(iter(_LAYOUT_CACHE))).nbytes
            _LAYOUT_CACHE[key] = layout
    return layout


def _build_layout(shapes: tuple, scans: tuple) -> BlockLayout:
    bands, dc_components = [], []
    tags, bases, dc_starts, dc_items, scan_ends, scan_items = [], [], [], [], [], []
    flat = items = 0  # flat coefficients, and items the layout fixes, so far
    for components, spectral_start, spectral_end in scans:
        first = max(spectral_start, 1)
        length = spectral_end + 1 - first
        has_dc = spectral_start == 0
        per_block = int(has_dc) + int(length > 0)  # a DC item, an end-of-band slot
        for component in components:
            n_blocks = shapes[component][0]
            before = items + per_block * np.arange(n_blocks, dtype=np.int64)
            if has_dc:
                dc_components.append(component)
                dc_starts.append(flat + length * np.arange(n_blocks, dtype=np.int64))
                dc_items.append(before)
            if length:
                bands.append((component, first, first + length, flat))
                position = np.arange(length, dtype=np.uint8)
                position[-1] |= _ENDS_BAND
                tags.append(np.tile(position, n_blocks))
                bases.append(np.repeat(before + has_dc - 1, length) + (tags[-1] >> 7))
            flat += n_blocks * length
            items += n_blocks * per_block
        scan_ends.append(flat)
        scan_items.append(items)
    return BlockLayout(
        bands=tuple(bands),
        dc_components=tuple(dc_components),
        tags=np.concatenate(tags or [np.empty(0, np.uint8)]).astype(np.uint8),
        bases=np.concatenate(bases or [np.empty(0, np.int64)]).astype(
            np.int32 if items < 1 << 31 else np.int64
        ),
        probe_starts=np.concatenate([*dc_starts, scan_ends]).astype(np.intp),
        probe_items=np.concatenate([*dc_items, scan_items]).astype(np.intp),
    )


def _magnitude_codes(values: np.ndarray, scratch) -> tuple[np.ndarray, np.ndarray]:
    """Every value's magnitude category (uint8) and the raw bits that encode it.

    Two table lookups into the scratch roles ``categories`` and ``bits``
    (uint16), indexed through ``encode_b``.  A value beyond
    ``+-MAX_AC_MAGNITUDE`` — only a DC diff is valid there — sends the
    whole array down an allocating float path, whose bits are int64.
    """
    n = values.shape[0]
    index = np.add(values, MAX_AC_MAGNITUDE, dtype=np.intp, out=scratch.array("encode_b", n, np.intp))
    if n and int(index.view(np.uint64).max()) > 2 * MAX_AC_MAGNITUDE:
        wide = values.astype(np.int64)
        categories = np.frexp(np.abs(wide).astype(np.float64))[1].astype(np.uint8)
        masks = np.left_shift(1, categories, dtype=np.int64) - 1
        return categories, wide + (wide < 0) * masks
    categories = np.take(_CATEGORY_OF, index, mode="clip", out=scratch.array("categories", n, np.uint8))
    bits = np.take(_BITS_OF, index, mode="clip", out=scratch.array("bits", n, np.uint16))
    return categories, bits


def symbol_stream(planes, scans):
    """Every scan's ``(symbol, bits, n_bits)`` items for one image, in stream order.

    The vectorized twin of running the per-block DC / AC-band symbol coders
    of ``tests/codec_reference.py`` over each scan of ``scans``
    (``ScanHeader``-like: ``component_ids``, ``spectral_start``,
    ``spectral_end``), component by component, block by block.  The AC
    bands of every segment are copied once, in stream order, into one flat
    array (:class:`BlockLayout`), and a single ``np.flatnonzero`` over it
    yields every coefficient; its in-band position and its place in the
    stream come from the layout, and runs, ZRLs and EOBs follow from the
    gaps between entries.  DC-only, AC-only, mixed and multi-component
    scans take the same code.

    Returns ``(symbols, bits, n_bits, scan_ends)``: intp / int64 / uint8
    arrays over all items, and the end offset of each scan's items.  The
    three item arrays are views into the calling thread's scratch, valid
    until its next call; the caller may overwrite them.  Raises
    ``ValueError`` naming the component when an AC coefficient is outside
    +-32767: its category would overflow the symbol's 4-bit size nibble.
    """
    layout = block_layout(tuple(plane.shape for plane in planes), scans)
    scratch = _thread_scratch()
    n_flat = layout.tags.shape[0]
    flat = scratch.array("encode_a", n_flat, np.result_type(*planes))
    for component, first, stop, start in layout.bands:
        band = planes[component][:, first:stop]
        flat[start : start + band.size].reshape(band.shape)[:] = band
    nonzero = np.not_equal(flat, 0, out=scratch.array("nonzero", n_flat, np.bool_))

    # Every nonzero AC coefficient, in stream order: its value's codes, its
    # run (the gap to the previous entry when that is in the same segment —
    # the gap is then below the position — else the position itself).
    index = np.flatnonzero(nonzero)
    n = index.shape[0]
    values = np.take(flat, index, mode="clip", out=scratch.array("values", n, flat.dtype))
    categories, bits = _magnitude_codes(values, scratch)
    if n and int(categories.max()) > 15:
        at = int(index[np.argmax(categories > 15)])
        band = int(np.searchsorted([b[3] for b in layout.bands], at, side="right")) - 1
        raise ValueError(
            f"component {layout.bands[band][0]}: AC coefficient {int(flat[at])} is "
            f"outside +-32767, whose category does not fit the symbol's size nibble"
        )
    # From here on ``encode_a`` (the flat coefficients), ``nonzero`` and
    # ``values`` are dead, and reused.
    positions = np.take(layout.tags, index, mode="clip", out=scratch.array("nonzero", n, np.uint8))
    ends = np.right_shift(positions, 7, out=scratch.array("flags", n, np.uint8))
    positions &= _ENDS_BAND - 1
    runs = scratch.array("encode_a", n, np.intp)
    if n:
        np.subtract(index[1:], index[:-1], out=runs[1:])
        runs[1:] -= 1
        runs[0] = index[0]
        np.minimum(runs, positions, out=runs)

    # weight[k] = the weight of the first k entries: their ZRLs and
    # themselves, minus the end-of-band items they remove.
    weight = scratch.array("encode_c", n + 1, np.intp)
    weight[0] = 0
    np.right_shift(runs, 4, out=weight[1:])
    weight[1:] += 1
    weight[1:] -= ends
    np.cumsum(weight, out=weight)
    starts = layout.probe_items + weight[np.searchsorted(index, layout.probe_starts)]
    n_dc = sum(planes[component].shape[0] for component in layout.dc_components)
    total = int(starts[-1])
    at = weight[1:]
    at += np.take(layout.bases, index, mode="clip", out=scratch.array("values", n, layout.bases.dtype))

    symbols = scratch.array("encode_d", total, np.intp)
    item_bits = scratch.array("encode_e", total, np.int64)
    n_bits = scratch.array("n_bits", total, np.uint8)
    symbols.fill(EOB_SYMBOL)
    item_bits.fill(0)
    n_bits.fill(0)
    # ZRLs sit just before their entry; a band of at most 63 needs at most 3.
    long_runs = np.flatnonzero(np.greater(runs, MAX_RUN, out=scratch.array("flags", n, np.bool_)))
    zrl_at, zrl_count = at[long_runs], runs[long_runs] >> 4
    for distance in range(1, int(zrl_count.max(initial=0)) + 1):
        symbols[zrl_at[zrl_count >= distance] - distance] = ZRL_SYMBOL
    runs &= MAX_RUN
    runs <<= 4
    runs |= categories
    symbols[at] = runs
    item_bits[at] = bits
    n_bits[at] = categories

    if n_dc:  # delta-coded per (scan, component), starting from 0
        diffs = scratch.array("values", n_dc, np.int64)
        offset = 0
        for component in layout.dc_components:
            column = planes[component][:, 0]
            if column.shape[0]:
                diffs[offset] = column[0]
                rest = diffs[offset + 1 : offset + column.shape[0]]
                np.subtract(column[1:], column[:-1], out=rest, dtype=np.int64)
            offset += column.shape[0]
        categories, bits = _magnitude_codes(diffs, scratch)
        at = starts[:n_dc]
        symbols[at] = categories
        item_bits[at] = bits
        n_bits[at] = categories
    return symbols, item_bits, n_bits, starts[n_dc:]
