"""The scalar codec: the differential oracle the vectorized runtime codec is tested against.

The runtime entry points (``image_to_coefficients``, ``coefficients_to_image``,
``encode_coefficients``, ``decode_coefficients`` in
:mod:`repro.codecs.progressive`) run the vectorized stages only.  This
module keeps the float64, one-coefficient-at-a-time implementation of
every stage they replace, so the tests can pin what the fast stages must
reproduce:

* the four ``*_reference`` stages — forward transform, inverse transform,
  scan encode and scan decode — and the primitives only they use (colour
  conversion, chroma resampling, block split/merge, ``scipy`` DCT, zigzag
  reorder, quantization, per-block symbol coding, bit-at-a-time Huffman
  coding and the bit writer and reader);
* whole-stream loops that compose those stages the way the runtime entry
  points (``encode_coefficients``, ``decode_coefficients``,
  ``ProgressiveCodec.encode`` / ``.decode``) compose the vectorized ones;
* the stride walk's probe loop as it was written first, recording each
  probe with ``array('i').append`` (``walk_one_reference``), which the
  runtime walk ``fastpath._walk_one`` must match probe for probe;
* the decode tables' window fill as it was written first, NumPy slice
  fills per code (``window_slots_reference``), whose bundle block
  (``super_tables_reference``) the piecewise fill
  ``huffman._build_super_tables`` must match byte for byte;
* the forward colour stage as first written, pixel-major with a
  broadcast level-shift bias (``encode_to_planes_reference``), whose planes
  the planar ``encodepath.encode_to_planes`` must match bit for bit;
* the heap construction of Huffman code lengths the two-queue merge in
  :mod:`repro.codecs.huffman` must reproduce.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter

import numpy as np

from repro.codecs import huffman
from repro.codecs.blocks import BLOCK_SIZE, block_grid_shape, split_into_blocks_view
from repro.codecs.color import _CB_TO_B, _CB_TO_G, _CR_TO_G, _CR_TO_R, _RGB_TO_YCBCR
from repro.codecs.encodepath import _channel_to_plane, _subsample_420_into
from repro.codecs.fastpath import _HALVES, _MASKS
from repro.codecs.huffman import SUPER_VALUE_OFFSET, long_code_entry
from repro.codecs.image import ImageBuffer
from repro.codecs.markers import (
    EOI,
    SOI,
    SUBSAMPLING_420,
    SUBSAMPLING_NONE,
    FrameHeader,
    ScanHeader,
    ScanSegment,
    find_scan_segments,
    parse_frame_header,
    write_scan_segment,
)
from repro.codecs.pixelpath import PixelScratch, _thread_scratch
from repro.codecs.progressive import (
    DEFAULT_QUALITY,
    CoefficientPlanes,
    ScanScript,
    empty_coefficients,
)
from repro.codecs.quantization import QuantizationTables
from repro.codecs.rle import EOB_SYMBOL, MAX_RUN, ZRL_SYMBOL
from repro.codecs.zigzag import N_COEFFICIENTS, ZIGZAG_ORDER

# --------------------------------------------------------------------------
# Colour conversion and chroma resampling
# --------------------------------------------------------------------------

# The exact analytic inverse of the BT.601 forward matrix, from the chroma
# weights in :mod:`repro.codecs.color`.
_YCBCR_TO_RGB = np.array(
    [
        [1.0, 0.0, _CR_TO_R],
        [1.0, _CB_TO_G, _CR_TO_G],
        [1.0, _CB_TO_B, 0.0],
    ]
)

#: Per-channel constant that folds the Cb/Cr -128 centering into the inverse
#: matmul: ``(ycc - [0, 128, 128]) @ M.T == ycc @ M.T + _YCBCR_TO_RGB_BIAS``.
_YCBCR_TO_RGB_BIAS = -128.0 * (_YCBCR_TO_RGB[:, 1] + _YCBCR_TO_RGB[:, 2])


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an ``(H, W, 3)`` RGB array (any float/int) to YCbCr floats.

    Output channels are Y in ``[0, 255]`` and Cb/Cr centred at 128.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) array, got shape {rgb.shape}")
    ycc = rgb @ _RGB_TO_YCBCR.T
    ycc[..., 1] += 128.0
    ycc[..., 2] += 128.0
    return ycc


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Convert a YCbCr float array back to RGB floats (not clipped).

    The -128 chroma centering is folded into a per-channel bias added after
    the matmul, so the input is neither copied nor mutated and the whole
    conversion is one matmul plus an in-place offset on the result.
    """
    ycc = np.asarray(ycc, dtype=np.float64)
    if ycc.ndim != 3 or ycc.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) array, got shape {ycc.shape}")
    rgb = ycc @ _YCBCR_TO_RGB.T
    rgb += _YCBCR_TO_RGB_BIAS
    return rgb


def subsample_420(channel: np.ndarray) -> np.ndarray:
    """Downsample a chroma channel by 2x in each dimension (box filter).

    Odd dimensions are handled by edge replication before averaging, which is
    how libjpeg treats partial sampling blocks.
    """
    channel = np.asarray(channel, dtype=np.float64)
    h, w = channel.shape
    padded = np.pad(channel, ((0, h % 2), (0, w % 2)), mode="edge")
    ph, pw = padded.shape
    blocks = padded.reshape(ph // 2, 2, pw // 2, 2)
    return blocks.mean(axis=(1, 3))


def upsample_420(channel: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Nearest-neighbour upsample of a subsampled chroma channel."""
    channel = np.asarray(channel, dtype=np.float64)
    up = np.repeat(np.repeat(channel, 2, axis=0), 2, axis=1)
    return up[:out_height, :out_width]


# --------------------------------------------------------------------------
# Blocks, DCT, zigzag, quantization
# --------------------------------------------------------------------------


def split_into_blocks(channel: np.ndarray) -> np.ndarray:
    """Split a 2-D channel into an array of 8x8 blocks.

    Returns a contiguous array of shape ``(n_blocks_v, n_blocks_h, 8, 8)``.
    The input is padded to a block multiple first.
    """
    return np.ascontiguousarray(split_into_blocks_view(channel))


def merge_blocks(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Merge an ``(nv, nh, 8, 8)`` block array into an ``(height, width)`` channel."""
    blocks = np.asarray(blocks)
    nv, nh = blocks.shape[:2]
    merged = blocks.swapaxes(1, 2).reshape(nv * BLOCK_SIZE, nh * BLOCK_SIZE)
    return merged[:height, :width]


def forward_dct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Apply the 2-D DCT-II to every 8x8 block of an ``(..., 8, 8)`` array.

    The pixel values are level-shifted by 128 first, as in JPEG.
    """
    from scipy.fft import dctn

    blocks = np.asarray(blocks, dtype=np.float64)
    _check_block_shape(blocks)
    return dctn(blocks - 128.0, type=2, norm="ortho", axes=(-2, -1))


def inverse_dct_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Apply the 2-D inverse DCT (DCT-III) and undo the level shift."""
    from scipy.fft import idctn

    coeffs = np.asarray(coeffs, dtype=np.float64)
    _check_block_shape(coeffs)
    return idctn(coeffs, type=2, norm="ortho", axes=(-2, -1)) + 128.0


def _check_block_shape(array: np.ndarray) -> None:
    if array.shape[-2:] != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(
            f"expected trailing dimensions ({BLOCK_SIZE}, {BLOCK_SIZE}), "
            f"got shape {array.shape}"
        )


INVERSE_ZIGZAG_ORDER = np.argsort(ZIGZAG_ORDER)


def blocks_to_zigzag(blocks: np.ndarray) -> np.ndarray:
    """Convert ``(..., 8, 8)`` blocks to ``(..., 64)`` zigzag vectors."""
    blocks = np.asarray(blocks)
    if blocks.shape[-2:] != (BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(f"expected trailing (8, 8), got {blocks.shape}")
    flat = np.ascontiguousarray(blocks).reshape(*blocks.shape[:-2], N_COEFFICIENTS)
    return np.take(flat, ZIGZAG_ORDER, axis=-1)


def zigzag_to_blocks(zigzag: np.ndarray) -> np.ndarray:
    """Convert ``(..., 64)`` zigzag vectors back to ``(..., 8, 8)`` blocks."""
    zigzag = np.asarray(zigzag)
    if zigzag.shape[-1] != N_COEFFICIENTS:
        raise ValueError(f"expected trailing dimension 64, got {zigzag.shape}")
    flat = np.take(zigzag, INVERSE_ZIGZAG_ORDER, axis=-1)
    return flat.reshape(*zigzag.shape[:-1], BLOCK_SIZE, BLOCK_SIZE)


def quantize(coeff_blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantize DCT coefficient blocks to integers using ``table``."""
    coeff_blocks = np.asarray(coeff_blocks, dtype=np.float64)
    return np.round(coeff_blocks / table).astype(np.int32)


def dequantize(quantized_blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Invert :func:`quantize` (up to rounding loss).

    Integer coefficients times the float64 table promote exactly, so the
    input is not copied first.
    """
    return np.asarray(quantized_blocks) * table


# --------------------------------------------------------------------------
# Bit I/O, scalar Huffman coding, per-block symbol coding
# --------------------------------------------------------------------------

#: Flush the writer's accumulator to bytes once it holds this many bits.
#: Large enough that big-int shifts amortize well, small enough that the
#: accumulator stays a few machine words.
_FLUSH_BITS = 4096

#: Number of bytes the reader loads per refill.
_REFILL_BYTES = 8


class BitWriter:
    """Accumulates bits most-significant-first into a byte string.

    Writes the bytes :func:`repro.codecs.bitio.pack_bits` writes for the
    same items: MSB-first, the final partial byte padded with 1 bits (as in
    JPEG).  At most ``_FLUSH_BITS + 63`` bits are pending in the
    accumulator; whole bytes are flushed eagerly.
    """

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


class BitReader:
    """Reads bits most-significant-first from a byte string.

    ``_bitbuf`` always holds exactly ``_bitcnt`` valid bits (the next bit
    to be read is its most significant bit), refilled ``_REFILL_BYTES`` at
    a time.  Reading past the end raises ``EOFError``.
    """

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


class HuffmanTable(huffman.HuffmanTable):
    """The runtime canonical code plus scalar, one-symbol-at-a-time encode and decode.

    Every constructor of :class:`repro.codecs.huffman.HuffmanTable`
    (``from_counts``, ``from_bytes``, direct ``code_lengths``) builds this
    class when called on it, so the oracle and the tests read and write
    through exactly the code the runtime serializes.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._decode_map = {code: symbol for symbol, code in self._encode_map.items()}

    @classmethod
    def from_symbols(cls, symbols: list[int]) -> "HuffmanTable":
        """Build an optimal (length-limited) code from observed symbols."""
        return cls.from_counts(Counter(symbols))

    def encode_symbol(self, symbol: int, writer: BitWriter) -> None:
        """Write the code for ``symbol`` to ``writer``."""
        try:
            code, length = self._encode_map[symbol]
        except KeyError as exc:
            raise KeyError(f"symbol {symbol} not present in Huffman table") from exc
        writer.write_bits(code, length)

    def decode_symbol(self, reader: BitReader) -> int:
        """Read one symbol from ``reader``, one bit at a time, probing each length."""
        code = 0
        for length in range(1, huffman.MAX_CODE_LENGTH + 1):
            code = (code << 1) | reader.read_bit()
            symbol = self._decode_map.get((code, length))
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in bit stream")


def magnitude_category(value: int) -> int:
    """Return the JPEG magnitude category (number of bits) of ``value``."""
    return int(abs(value)).bit_length()


def magnitude_bits(value: int, category: int) -> int:
    """Return the raw bits that encode ``value`` within its category.

    Negative values use the one's-complement style representation JPEG uses:
    value ``v < 0`` is stored as ``v + 2**category - 1``.
    """
    if category == 0:
        return 0
    if value >= 0:
        return value
    return value + (1 << category) - 1


def decode_magnitude(bits: int, category: int) -> int:
    """Invert :func:`magnitude_bits`."""
    if category == 0:
        return 0
    if bits >= (1 << (category - 1)):
        return bits
    return bits - (1 << category) + 1


def dc_symbols(dc_values: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Delta-code a sequence of DC values into (symbols, extra-bit pairs)."""
    symbols: list[int] = []
    extras: list[tuple[int, int]] = []
    previous = 0
    for value in dc_values:
        diff = value - previous
        previous = value
        category = magnitude_category(diff)
        symbols.append(category)
        extras.append((magnitude_bits(diff, category), category))
    return symbols, extras


def ac_band_symbols(
    coefficients: list[int],
) -> tuple[list[int], list[tuple[int, int]]]:
    """Run-length code a single block's AC band into symbols and extra bits."""
    symbols: list[int] = []
    extras: list[tuple[int, int]] = []
    run = 0
    for value in coefficients:
        if value == 0:
            run += 1
            continue
        while run > MAX_RUN:
            symbols.append(ZRL_SYMBOL)
            extras.append((0, 0))
            run -= 16
        category = magnitude_category(value)
        symbols.append((run << 4) | category)
        extras.append((magnitude_bits(value, category), category))
        run = 0
    if run > 0:
        symbols.append(EOB_SYMBOL)
        extras.append((0, 0))
    return symbols, extras


def write_symbols(
    symbols: list[int],
    extras: list[tuple[int, int]],
    table: HuffmanTable,
    writer: BitWriter,
) -> None:
    """Huffman-encode symbols with their extra magnitude bits."""
    for symbol, (bits, n_bits) in zip(symbols, extras):
        table.encode_symbol(symbol, writer)
        writer.write_bits(bits, n_bits)


def read_dc_values(reader: BitReader, table: HuffmanTable, n_blocks: int) -> list[int]:
    """Decode ``n_blocks`` delta-coded DC values."""
    values: list[int] = []
    previous = 0
    for _ in range(n_blocks):
        category = table.decode_symbol(reader)
        bits = reader.read_bits(category)
        previous += decode_magnitude(bits, category)
        values.append(previous)
    return values


def read_ac_band(reader: BitReader, table: HuffmanTable, band_length: int) -> list[int]:
    """Decode one block's AC band of ``band_length`` coefficients."""
    coefficients = [0] * band_length
    index = 0
    while index < band_length:
        symbol = table.decode_symbol(reader)
        if symbol == EOB_SYMBOL:
            break
        if symbol == ZRL_SYMBOL:
            index += 16
            continue
        run = symbol >> 4
        category = symbol & 0x0F
        index += run
        bits = reader.read_bits(category)
        if index >= band_length:
            raise ValueError("AC run overflows band length")
        coefficients[index] = decode_magnitude(bits, category)
        index += 1
    return coefficients


# --------------------------------------------------------------------------
# The four reference stages
# --------------------------------------------------------------------------


def image_to_coefficients_reference(
    image: ImageBuffer,
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
) -> CoefficientPlanes:
    """Reference for ``image_to_coefficients``: float64 colour / subsample / DCT / quantize."""
    tables = QuantizationTables.for_quality(quality)
    if image.is_color:
        ycc = rgb_to_ycbcr(image.as_float())
        if subsampling == SUBSAMPLING_420:
            channels = [ycc[..., 0], subsample_420(ycc[..., 1]), subsample_420(ycc[..., 2])]
        else:
            channels = [ycc[..., 0], ycc[..., 1], ycc[..., 2]]
        n_components = 3
    else:
        channels = [image.as_float()]
        n_components = 1
        subsampling = SUBSAMPLING_NONE
    header = FrameHeader(
        height=image.height,
        width=image.width,
        n_components=n_components,
        subsampling=subsampling,
        quant_tables=tables,
    )
    planes: list[np.ndarray] = []
    for index, channel in enumerate(channels):
        blocks = split_into_blocks(channel)
        coefficients = forward_dct_blocks(blocks)
        quantized = quantize(coefficients, tables.table_for_component(index))
        zigzag = blocks_to_zigzag(quantized)
        planes.append(zigzag.reshape(-1, N_COEFFICIENTS).astype(np.int32))
    return CoefficientPlanes(header=header, planes=planes)


def coefficients_to_image_reference(coefficients: CoefficientPlanes) -> ImageBuffer:
    """Reference for ``coefficients_to_image``: float64 dequantize / IDCT / merge / colour."""
    header = coefficients.header
    tables = header.quant_tables
    channels: list[np.ndarray] = []
    for index, plane in enumerate(coefficients.planes):
        comp_h, comp_w = header.component_shape(index)
        nv, nh = block_grid_shape(comp_h, comp_w)
        blocks_zz = plane.reshape(nv, nh, N_COEFFICIENTS)
        blocks = zigzag_to_blocks(blocks_zz)
        dequantized = dequantize(blocks, tables.table_for_component(index))
        spatial = inverse_dct_blocks(dequantized)
        channels.append(merge_blocks(spatial, comp_h, comp_w))
    if header.n_components == 1:
        return ImageBuffer.from_array(channels[0])
    if header.subsampling == SUBSAMPLING_420:
        cb = upsample_420(channels[1], header.height, header.width)
        cr = upsample_420(channels[2], header.height, header.width)
    else:
        cb, cr = channels[1], channels[2]
    ycc = np.stack([channels[0], cb, cr], axis=-1)
    return ImageBuffer.from_array(ycbcr_to_rgb(ycc))


def encode_scan_body_reference(coefficients: CoefficientPlanes, scan: ScanHeader) -> bytes:
    """Reference scan encoder: optimised Huffman table, then per-coefficient Python loops.

    Byte-identical to the scan's body from
    :func:`~repro.codecs.fastpath.encode_scan_bodies_fast`, and like it raises
    ``ValueError`` naming the component for an AC coefficient outside +-32767.
    """
    all_symbols: list[int] = []
    per_component: list[tuple[list[int], list[tuple[int, int]]]] = []
    for component in scan.component_ids:
        plane = coefficients.planes[component]
        band = plane[:, max(scan.spectral_start, 1) : scan.spectral_end + 1].astype(np.int64)
        if band.size and int(np.abs(band).max()) > 32767:
            raise ValueError(
                f"component {component}: AC coefficient outside +-32767, whose category "
                f"does not fit the symbol's size nibble"
            )
        symbols: list[int] = []
        extras: list[tuple[int, int]] = []
        if scan.spectral_start == 0 and scan.spectral_end == 0:
            dc_syms, dc_extras = dc_symbols([int(v) for v in plane[:, 0]])
            symbols.extend(dc_syms)
            extras.extend(dc_extras)
        elif scan.spectral_start == 0:
            # Full/mixed band: per block, DC delta followed by the AC band.
            previous_dc = 0
            for block in plane:
                dc_value = int(block[0])
                diff = dc_value - previous_dc
                previous_dc = dc_value
                dc_syms, dc_extras = dc_symbols([diff])
                # dc_symbols delta-codes against 0, so a single diff round-trips.
                symbols.extend(dc_syms)
                extras.extend(dc_extras)
                band = [int(v) for v in block[1 : scan.spectral_end + 1]]
                ac_syms, ac_extras = ac_band_symbols(band)
                symbols.extend(ac_syms)
                extras.extend(ac_extras)
        else:
            for block in plane:
                band = [int(v) for v in block[scan.spectral_start : scan.spectral_end + 1]]
                ac_syms, ac_extras = ac_band_symbols(band)
                symbols.extend(ac_syms)
                extras.extend(ac_extras)
        per_component.append((symbols, extras))
        all_symbols.extend(symbols)
    table = HuffmanTable.from_symbols(all_symbols)
    writer = BitWriter()
    for symbols, extras in per_component:
        write_symbols(symbols, extras, table, writer)
    return table.to_bytes() + writer.getvalue()


def decode_scan_body_reference(
    data: bytes,
    segment: ScanSegment,
    coefficients: CoefficientPlanes,
) -> None:
    """Reference scan decoder (bit-at-a-time Huffman probing) into ``coefficients``.

    Coefficients and error classes match
    :func:`~repro.codecs.fastpath.decode_streams_fast`.
    """
    scan = segment.header
    table, consumed = HuffmanTable.from_bytes(data[segment.payload_start : segment.end])
    reader = BitReader(data[segment.payload_start + consumed : segment.end])
    for component in scan.component_ids:
        plane = coefficients.planes[component]
        n_blocks = plane.shape[0]
        if scan.spectral_start == 0 and scan.spectral_end == 0:
            previous = 0
            for block_index in range(n_blocks):
                category = table.decode_symbol(reader)
                bits = reader.read_bits(category)
                previous += decode_magnitude(bits, category)
                plane[block_index, 0] = previous
        elif scan.spectral_start == 0:
            previous = 0
            band_length = scan.spectral_end
            for block_index in range(n_blocks):
                category = table.decode_symbol(reader)
                bits = reader.read_bits(category)
                previous += decode_magnitude(bits, category)
                plane[block_index, 0] = previous
                band = read_ac_band(reader, table, band_length)
                plane[block_index, 1 : scan.spectral_end + 1] = band
        else:
            band_length = scan.band_length
            for block_index in range(n_blocks):
                band = read_ac_band(reader, table, band_length)
                plane[block_index, scan.spectral_start : scan.spectral_end + 1] = band


# --------------------------------------------------------------------------
# The stride walk's probe loop
# --------------------------------------------------------------------------


def walk_one_reference(
    strides: bytes,
    windows,
    pair,
    long_codes,
    blob: bytes,
    byte_base: int,
    fallback_entries: list,
    ac: bool,
) -> array:
    """Reference phase-1 stride walk: the probe bit offsets of one scan, as ``array('i')``.

    Takes the arguments of :func:`repro.codecs.fastpath._walk_one` and
    must give the same probes and append the same ``fallback_entries``:
    one escape per zero stride, finished inline, and a ``-1`` sentinel
    that ends the walk at its own probe for an invalid window or a DC diff
    of category 16 and up.
    """
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
            record(cursor)
            if stride:
                cursor += stride
            else:
                byte = byte_base + (cursor >> 3)
                phase = cursor & 7
                # Code + magnitude span at most 31 bits, so 6 bytes
                # starting at the cursor's byte always cover them.
                wide = int.from_bytes(blob[byte : byte + 6], "big")
                entry = pair[int(windows[cursor]) << 1]
                if entry == -1:
                    entry = long_code_entry(
                        long_codes, (wide >> (32 - phase)) & 0xFFFF, ac
                    )
                entry = -entry
                consume = entry & 0xFFF
                category = (entry >> 12) & 0xFF
                if not entry or category > 15:  # invalid, or a DC diff too wide
                    escape(-1)
                    break
                if category:
                    mask = masks[category]
                    bits = (wide >> (48 - phase - consume)) & mask
                    value = bits if bits >= halves[category] else bits - mask
                    posdelta = (entry >> 20) + 1 if ac else 0
                    escape(consume | (posdelta << 5) | ((value + offset) << 12))
                elif ac:  # an EOB or ZRL whose code is longer than the window
                    escape(consume | ((entry >> 20) << 5))
                else:  # a zero DC diff whose code + magnitude exceed the window
                    escape(consume | (offset << 12))
                cursor += consume
    except IndexError:
        pass
    return probes


# --------------------------------------------------------------------------
# The decode tables' window slots
# --------------------------------------------------------------------------


def window_slots_reference(encode_map: dict[int, tuple[int, int]], ac: bool):
    """First slots, second slots and walk strides of one flavour, per window.

    The fill as first written: NumPy slice fills per code, each symbol's
    properties set over its span of windows, then the pairing over whole
    tables.  :func:`repro.codecs.huffman._window_slots` must give the same
    three arrays (returned here as ``int64``) for every code.

    Pairing is resolved in-table: the window shifted left by the first
    symbol's consumption (zero-filled) is probed against the same table,
    and the hit is kept only when the second symbol's consumption fits in
    the remaining real bits — in that case the prefix property guarantees
    the zero-filled probe resolved the true next symbol.
    """
    super_bits = huffman.SUPER_BITS
    size = 1 << super_bits
    consume = np.zeros(size, dtype=np.int64)
    posdelta = np.zeros(size, dtype=np.int64)
    value = np.zeros(size, dtype=np.int64)
    valid = np.zeros(size, dtype=bool)
    escape = np.zeros(size, dtype=np.int64)
    for symbol, (code, length) in encode_map.items():
        if length > super_bits:
            # The code itself overflows the window: the one window whose
            # bits are a prefix of it goes to the long-code helper.
            escape[code >> (length - super_bits)] = -1
            continue
        run, category = huffman._run_and_category(symbol, ac)
        span = 1 << (super_bits - length)
        base = code << (super_bits - length)
        window_slice = slice(base, base + span)
        # Guard before any `1 << category` shift: DC categories are raw
        # symbol values (up to 255) and would overflow int64.
        if length + category > super_bits:
            escape[window_slice] = -huffman._plain_entry(symbol, length, ac)
            continue
        consume[window_slice] = length + category
        if ac:
            posdelta[window_slice] = run + (1 if category else 0)
        valid[window_slice] = True
        if category:
            shift = super_bits - length - category
            magnitude = (np.arange(span, dtype=np.int64) >> shift) & ((1 << category) - 1)
            signed = np.where(
                magnitude >= (1 << (category - 1)),
                magnitude,
                magnitude - ((1 << category) - 1),
            )
            value[window_slice] = signed + SUPER_VALUE_OFFSET
        elif not ac:
            value[window_slice] = SUPER_VALUE_OFFSET
    first = np.where(valid, consume | (posdelta << 5) | (value << 12), 0)
    shifted = (np.arange(size, dtype=np.int64) << consume) & (size - 1)
    second = first[shifted]
    second_consume = second & 31
    pair = valid & (second_consume > 0) & (consume + second_consume <= super_bits)
    # The stride of a walk step is the total bits of every symbol that fit
    # (0 = escape).
    pairbits = np.where(pair, consume + second_consume, np.where(valid, consume, 0))
    return np.where(valid, first, escape), np.where(pair, second, 0), pairbits


def super_tables_reference(
    encode_map: dict[int, tuple[int, int]], kind: str
) -> tuple[bytes, list[int]]:
    """The bytes of one flavour's bundle block and its packed long codes.

    What :func:`repro.codecs.huffman._build_super_tables` must return as
    ``bytes(pair)`` and ``list(long_codes)``: the interleaved pair table
    then one stride byte per window, from :func:`window_slots_reference`.
    """
    first, second, strides = window_slots_reference(encode_map, kind == "ac")
    slots = np.stack([first, second], axis=1).astype(np.int32)
    long_codes = sorted(
        (code << huffman.LONG_CODE_SHIFT) | (length << 8) | symbol
        for symbol, (code, length) in encode_map.items()
        if length > huffman.SUPER_BITS
    )
    return slots.tobytes() + strides.astype(np.uint8).tobytes(), long_codes


# --------------------------------------------------------------------------
# The forward colour stage, pixel-major
# --------------------------------------------------------------------------

#: Transposed float32 RGB→YCbCr matrix (``rgb_rows @ _YCC_MATRIX_T``) and
#: the bias folding the DCT level shift into the conversion: the scalar
#: path computes ``ycc + (0, 128, 128)`` then subtracts 128 from every
#: channel before the DCT, so the net shift is ``(-128, 0, 0)``.
_YCC_MATRIX_T = np.ascontiguousarray(_RGB_TO_YCBCR.T, dtype=np.float32)
_YCC_LEVEL_BIAS = np.array([-128.0, 0.0, 0.0], dtype=np.float32)


def encode_to_planes_reference(
    image, tables, subsampling: int, scratch: PixelScratch | None = None
) -> list[np.ndarray]:
    """Forward-transform an image into quantized int32 zigzag planes.

    ``encodepath.encode_to_planes`` as first written: pixel-major
    ``(H*W, 3)`` colour conversion, then the level shift as a broadcast
    bias add over every pixel.  The planar runtime stage must give
    bitwise-equal planes.
    """
    if scratch is None:
        scratch = _thread_scratch()
    height, width = image.height, image.width
    if not image.is_color:
        chan = scratch.get(("fwd_gray",), (height, width))
        np.copyto(chan, image.pixels, casting="unsafe")
        chan -= 128.0
        return [_channel_to_plane(chan, tables.table_for_component(0), 0, scratch)]

    n_pixels = height * width
    rgb = scratch.get(("fwd_rgb",), (n_pixels, 3))
    np.copyto(rgb, image.pixels.reshape(n_pixels, 3), casting="unsafe")
    ycc = scratch.get(("fwd_ycc",), (n_pixels, 3))
    np.matmul(rgb, _YCC_MATRIX_T, out=ycc)
    ycc += _YCC_LEVEL_BIAS
    ycc = ycc.reshape(height, width, 3)

    luma = scratch.get(("fwd_luma",), (height, width))
    luma[:] = ycc[..., 0]
    planes = [_channel_to_plane(luma, tables.table_for_component(0), 0, scratch)]
    if subsampling == SUBSAMPLING_420:
        ch, cw = (height + 1) // 2, (width + 1) // 2
        for index in (1, 2):
            sub = scratch.get(("fwd_sub", index), (ch, cw))
            _subsample_420_into(ycc[..., index], sub)
            planes.append(
                _channel_to_plane(sub, tables.table_for_component(index), index, scratch)
            )
    else:
        for index in (1, 2):
            chroma = scratch.get(("fwd_chroma", index), (height, width))
            chroma[:] = ycc[..., index]
            planes.append(
                _channel_to_plane(chroma, tables.table_for_component(index), index, scratch)
            )
    return planes


# --------------------------------------------------------------------------
# Whole-stream loops over the reference stages
# --------------------------------------------------------------------------


def encode_coefficients_reference(coefficients: CoefficientPlanes, script: ScanScript) -> bytes:
    """SOI + SOF + reference-coded scans + EOI."""
    script.validate(coefficients.header.n_components)
    parts = [SOI, coefficients.header.to_bytes()]
    for scan in script:
        parts.append(write_scan_segment(scan, encode_scan_body_reference(coefficients, scan)))
    parts.append(EOI)
    return b"".join(parts)


def decode_coefficients_reference(
    data: bytes, max_scans: int | None = None
) -> tuple[CoefficientPlanes, int]:
    """Decode up to ``max_scans`` scans one reference scan at a time."""
    header, _ = parse_frame_header(data)
    coefficients = empty_coefficients(header)
    segments = find_scan_segments(data)[:max_scans]
    for segment in segments:
        decode_scan_body_reference(data, segment, coefficients)
    return coefficients, len(segments)


def encode_reference(
    image: ImageBuffer,
    quality: int = DEFAULT_QUALITY,
    subsampling: int = SUBSAMPLING_420,
    sequential: bool = False,
) -> bytes:
    """The reference twin of ``ProgressiveCodec.encode`` (``BaselineCodec`` if ``sequential``)."""
    coefficients = image_to_coefficients_reference(image, quality, subsampling)
    n_components = coefficients.header.n_components
    script = ScanScript.sequential(n_components) if sequential else ScanScript.default_for(n_components)
    return encode_coefficients_reference(coefficients, script)


def decode_reference(data: bytes, max_scans: int | None = None) -> ImageBuffer:
    """The reference twin of ``ProgressiveCodec.decode``."""
    coefficients, _ = decode_coefficients_reference(data, max_scans)
    return coefficients_to_image_reference(coefficients)


# --------------------------------------------------------------------------
# Huffman code lengths by heap
# --------------------------------------------------------------------------


def heap_huffman_lengths(counts: dict[int, int]) -> dict[int, int]:
    """Huffman code lengths from a heap keyed ``(count, node id)``, leaves in symbol order."""
    ordered = sorted(counts.items())
    heap = [(count, node) for node, (_, count) in enumerate(ordered)]
    heapq.heapify(heap)
    parents: dict[int, int] = {}
    next_node = len(ordered)
    while len(heap) > 1:
        count_a, node_a = heapq.heappop(heap)
        count_b, node_b = heapq.heappop(heap)
        parents[node_a] = parents[node_b] = next_node
        heapq.heappush(heap, (count_a + count_b, next_node))
        next_node += 1
    lengths: dict[int, int] = {}
    for leaf, (symbol, _) in enumerate(ordered):
        depth, node = 0, leaf
        while node in parents:
            node = parents[node]
            depth += 1
        lengths[symbol] = depth
    return lengths


def limited_heap_huffman_lengths(counts: dict[int, int], max_length: int) -> dict[int, int]:
    """:func:`heap_huffman_lengths`, re-run on damped counts until no code exceeds ``max_length``."""
    lengths = heap_huffman_lengths(counts)
    damping = 1
    while max(lengths.values()) > max_length:
        damping *= 2
        damped = Counter({s: (c + damping - 1) // damping + 1 for s, c in counts.items()})
        lengths = heap_huffman_lengths(damped)
    return lengths
