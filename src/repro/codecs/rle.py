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
entries.  Its per-block scalar twin, and the scalar decoder, are the test
oracle in ``tests/codec_reference.py``.
"""

from __future__ import annotations

import numpy as np

EOB_SYMBOL = 0x00
ZRL_SYMBOL = 0xF0
MAX_RUN = 15


def magnitude_categories(values: np.ndarray) -> np.ndarray:
    """The JPEG magnitude category (bit length of ``|v|``) of every value."""
    _, exponents = np.frexp(np.abs(values).astype(np.float64))
    return exponents.astype(np.int64)


def magnitude_bits_array(values: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """The raw bits that encode every value within its category."""
    # A negative value is stored as ``value - 1`` in its low ``category`` bits.
    return (values + (values >> 63)) & ~(-1 << categories)


def symbol_stream(planes, scans):
    """Every scan's ``(symbol, bits, n_bits)`` items for one image, in stream order.

    The vectorized twin of running the per-block DC / AC-band symbol coders
    of ``tests/codec_reference.py`` over each scan of ``scans``
    (``ScanHeader``-like: ``component_ids``, ``spectral_start``,
    ``spectral_end``), component by component, block by block.  A
    *segment* is one block of one component in one scan: a delta-coded DC
    item first when the scan starts at index 0, then the RLE items of the
    block's AC band.  The AC bands of every segment are copied
    once, in stream order, into one flat array, and a single
    ``np.flatnonzero`` over it yields every coefficient; its segment and
    in-band position come back from the band offsets, and runs, ZRLs and
    EOBs follow per segment.  DC-only, AC-only, mixed and multi-component
    scans take the same code.

    Returns ``(symbols, bits, n_bits, scan_ends)``: int64 arrays over all
    items, and the end offset of each scan's items.  Raises ``ValueError``
    naming the component when an AC coefficient is outside +-32767: its
    category would overflow the symbol's 4-bit size nibble.
    """
    # One group per (scan, component): its band slice of every block.
    bands, components, dc_groups, scan_segments_end = [], [], [], []
    n_segments = 0
    for scan in scans:
        first = max(scan.spectral_start, 1)
        for component in scan.component_ids:
            if scan.spectral_start == 0:
                dc_groups.append(len(bands))
            bands.append(planes[component][:, first : scan.spectral_end + 1])
            components.append(component)
            n_segments += bands[-1].shape[0]
        scan_segments_end.append(n_segments)
    n_blocks = np.array([band.shape[0] for band in bands], dtype=np.int64)
    band_length = np.array([band.shape[1] for band in bands], dtype=np.int64)
    band_start = np.cumsum(n_blocks * band_length) - n_blocks * band_length
    flat = np.empty(int((n_blocks * band_length).sum()), dtype=np.result_type(*planes))
    for band, start in zip(bands, band_start.tolist()):
        flat[start : start + band.size].reshape(band.shape)[:] = band
    seg_start = np.cumsum(n_blocks) - n_blocks

    # Every nonzero AC coefficient, in stream order, and its group's fields.
    flat_index = np.flatnonzero(flat != 0)
    per_group = np.diff(np.searchsorted(flat_index, np.append(band_start, flat.size)))
    length = np.repeat(band_length, per_group)
    local = flat_index - np.repeat(band_start, per_group)
    block = local // length
    position = local - block * length
    segment = np.repeat(seg_start, per_group) + block
    ends_on_coefficient = segment[position == length - 1]
    del local, block, length
    values = flat[flat_index].astype(np.int64)
    categories = magnitude_categories(values)
    if categories.size and int(categories.max()) > 15:
        bad = int(np.argmax(categories > 15))
        group = int(np.searchsorted(band_start, flat_index[bad], side="right")) - 1
        raise ValueError(
            f"component {components[group]}: AC coefficient {int(values[bad])} is "
            f"outside +-32767, whose category does not fit the symbol's size nibble"
        )
    # The zero run before an entry: the gap to the previous entry when that
    # is in the same segment (the gap is then below the position), else
    # the position itself.
    runs = np.minimum(np.diff(flat_index, prepend=-1) - 1, position)
    n_zrl = runs >> 4
    del flat, flat_index, position

    # Per segment: a DC item first, an EOB last unless the band ends on a
    # coefficient or is empty (DC-only scans).
    has_dc = np.zeros(n_segments, dtype=np.int64)
    for index in dc_groups:
        has_dc[seg_start[index] : seg_start[index] + n_blocks[index]] = 1
    has_eob = (np.repeat(band_length, n_blocks) > 0).astype(np.int64)
    has_eob[ends_on_coefficient] = 0
    entry_weight = np.cumsum(n_zrl + 1)
    entries_upto = np.cumsum(np.bincount(segment, minlength=n_segments))
    dc_upto = np.cumsum(has_dc)
    eob_upto = np.cumsum(has_eob)
    seg_end = np.concatenate(([0], entry_weight))[entries_upto] + dc_upto + eob_upto
    total = int(seg_end[-1]) if n_segments else 0

    symbols = np.zeros(total, dtype=np.int64)  # EOB_SYMBOL is 0
    bits = np.zeros(total, dtype=np.int64)
    n_bits = np.zeros(total, dtype=np.int64)
    entry_out = entry_weight - 1 + (dc_upto + eob_upto - has_eob)[segment]
    symbols[entry_out] = ((runs & MAX_RUN) << 4) | categories
    bits[entry_out] = magnitude_bits_array(values, categories)
    n_bits[entry_out] = categories
    # ZRLs sit just before their entry; a band of at most 63 needs at most 3.
    with_zrl = np.flatnonzero(runs > MAX_RUN)
    zrl_out, zrl_count = entry_out[with_zrl], n_zrl[with_zrl]
    for distance in range(1, int(zrl_count.max(initial=0)) + 1):
        symbols[zrl_out[zrl_count >= distance] - distance] = ZRL_SYMBOL
    if dc_groups:
        # Delta-coded per (scan, component), starting from 0.
        diffs = np.concatenate(
            [np.diff(planes[components[i]][:, 0].astype(np.int64), prepend=0) for i in dc_groups]
        )
        dc_categories = magnitude_categories(diffs)
        dc_out = np.concatenate(([0], seg_end[:-1]))[has_dc.astype(bool)]
        symbols[dc_out] = dc_categories
        bits[dc_out] = magnitude_bits_array(diffs, dc_categories)
        n_bits[dc_out] = dc_categories
    scan_ends = np.concatenate(([0], seg_end))[scan_segments_end]
    return symbols, bits, n_bits, scan_ends

