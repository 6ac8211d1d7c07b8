"""Stream markers, frame headers, and scan headers for the PCR codec.

The on-disk structure mirrors JPEG:

* ``SOI`` (start of image) and ``EOI`` (end of image) two-byte markers.
* One ``SOF`` (start of frame) segment carrying image dimensions, the number
  of components, the chroma subsampling mode, and the quantization tables.
* One ``SOS`` (start of scan) segment per scan.  Each scan header names the
  components it covers, the spectral-selection band ``[ss, se]``, and carries
  the scan's optimized Huffman table followed by the entropy-coded data.

Because each ``SOS`` segment records its own length, scan boundaries can be
located with a single linear pass (`find_scan_segments`), which is how the
PCR encoder carves a progressive stream into scan groups — the role that
"searching for the markers that designate the end of a scan" plays in the
paper (Section 3.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.codecs.quantization import QuantizationTables

SOI = b"\xff\xd8"
EOI = b"\xff\xd9"
SOF_MARKER = b"\xff\xc0"
SOS_MARKER = b"\xff\xda"

SUBSAMPLING_NONE = 0
SUBSAMPLING_420 = 1


class CodecFormatError(ValueError):
    """Raised when a byte stream is not a valid PCR-codec stream."""


@dataclass(frozen=True)
class FrameHeader:
    """Image-level parameters shared by every scan."""

    height: int
    width: int
    n_components: int
    subsampling: int
    quant_tables: QuantizationTables

    def component_shape(self, component_index: int) -> tuple[int, int]:
        """Pixel dimensions of a component (chroma may be subsampled)."""
        if component_index == 0 or self.subsampling == SUBSAMPLING_NONE:
            return self.height, self.width
        return (self.height + 1) // 2, (self.width + 1) // 2

    def to_bytes(self) -> bytes:
        payload = (
            struct.pack("<HHBB", self.height, self.width, self.n_components, self.subsampling)
            + self.quant_tables.to_bytes()
        )
        return SOF_MARKER + struct.pack("<H", len(payload)) + payload

    @classmethod
    def parse(cls, data: bytes, offset: int) -> tuple["FrameHeader", int]:
        """Parse a frame header at ``offset``; returns (header, next_offset).

        Raises :class:`CodecFormatError` for a truncated segment and for a
        component count or subsampling mode the codec does not define.
        """
        if data[offset : offset + 2] != SOF_MARKER:
            raise CodecFormatError("expected SOF marker")
        payload_start = offset + 4
        if len(data) < payload_start:
            raise CodecFormatError("truncated SOF segment")
        (length,) = struct.unpack_from("<H", data, offset + 2)
        payload = data[payload_start : payload_start + length]
        if len(payload) != length or length < 6:
            raise CodecFormatError("truncated SOF segment")
        height, width, n_components, subsampling = struct.unpack_from("<HHBB", payload, 0)
        if n_components not in (1, 3):
            raise CodecFormatError(f"unsupported component count {n_components}")
        if subsampling not in (SUBSAMPLING_NONE, SUBSAMPLING_420):
            raise CodecFormatError(f"unknown subsampling mode {subsampling}")
        try:
            quant = QuantizationTables.from_bytes(payload[6:])
        except ValueError as error:
            raise CodecFormatError(str(error)) from None
        header = cls(
            height=height,
            width=width,
            n_components=n_components,
            subsampling=subsampling,
            quant_tables=quant,
        )
        return header, payload_start + length


@dataclass(frozen=True)
class ScanHeader:
    """Per-scan parameters: components covered and spectral band."""

    component_ids: tuple[int, ...]
    spectral_start: int
    spectral_end: int

    @property
    def band_length(self) -> int:
        """Number of zigzag coefficients covered by the scan."""
        return self.spectral_end - self.spectral_start + 1

    def to_bytes(self) -> bytes:
        return struct.pack(
            "<B" + "B" * len(self.component_ids) + "BB",
            len(self.component_ids),
            *self.component_ids,
            self.spectral_start,
            self.spectral_end,
        )

    @classmethod
    def parse(cls, payload: bytes, offset: int) -> tuple["ScanHeader", int]:
        n_components = payload[offset]
        ids = tuple(payload[offset + 1 : offset + 1 + n_components])
        ss = payload[offset + 1 + n_components]
        se = payload[offset + 2 + n_components]
        return cls(component_ids=ids, spectral_start=ss, spectral_end=se), offset + 3 + n_components


@dataclass(frozen=True)
class ScanSegment:
    """A located scan within an encoded stream."""

    header: ScanHeader
    start: int
    end: int
    payload_start: int


def write_scan_segment(header: ScanHeader, body: bytes) -> bytes:
    """Frame a scan header + entropy body as an SOS segment."""
    payload = header.to_bytes() + body
    return SOS_MARKER + struct.pack("<I", len(payload)) + payload


def find_scan_segments(
    data: bytes, frame: tuple[FrameHeader, int] | None = None
) -> list[ScanSegment]:
    """Locate every SOS segment in an encoded stream.

    The stream must begin with SOI followed by an SOF segment.  Scanning
    stops at EOI or at the end of the available bytes, so this also works on
    truncated (partially read) streams.  A complete scan whose header runs
    past its segment, names no component, a repeated one or one the frame
    lacks, or whose band is not within ``[0, 63]`` in order, raises
    :class:`CodecFormatError`.  ``frame`` is what
    :func:`parse_frame_header` returns for ``data``, for a caller that has
    it already; without it the header is parsed here.
    """
    frame, offset = parse_frame_header(data) if frame is None else frame
    segments: list[ScanSegment] = []
    while offset + 2 <= len(data):
        marker = data[offset : offset + 2]
        if marker == EOI:
            break
        if marker != SOS_MARKER:
            raise CodecFormatError(f"unexpected marker {marker!r} at offset {offset}")
        if offset + 6 > len(data):
            break  # truncated length field
        (length,) = struct.unpack_from("<I", data, offset + 2)
        payload_start = offset + 6
        end = payload_start + length
        if end > len(data):
            break  # truncated scan; ignore the partial tail
        if payload_start == end or payload_start + 3 + data[payload_start] > end:
            raise CodecFormatError(f"scan header at offset {offset} runs past its segment")
        header, body_start = ScanHeader.parse(data, payload_start)
        ids = header.component_ids
        if not ids or len(set(ids)) < len(ids) or max(ids) >= frame.n_components:
            raise CodecFormatError(
                f"scan at offset {offset} names components {ids} of a "
                f"{frame.n_components}-component frame"
            )
        if not header.spectral_start <= header.spectral_end <= 63:
            raise CodecFormatError(
                f"scan at offset {offset} has band "
                f"[{header.spectral_start}, {header.spectral_end}]"
            )
        segments.append(
            ScanSegment(header=header, start=offset, end=end, payload_start=body_start)
        )
        offset = end
    return segments


def parse_frame_header(data: bytes) -> tuple[FrameHeader, int]:
    """Parse SOI + SOF at the start of a stream; returns (header, offset)."""
    if data[:2] != SOI:
        raise CodecFormatError("stream does not start with SOI")
    return FrameHeader.parse(data, 2)
