"""Versioned length-prefixed binary wire format for the PCR record server.

Every message on the wire is one *frame*::

    +-------+---------+------+----------------+---------------+
    | magic | version | type | payload length |    payload    |
    | 2 B   | 1 B     | 1 B  | 4 B (LE)       | <length> B    |
    +-------+---------+------+----------------+---------------+

Requests carry structured binary payloads (``struct``-packed, names UTF-8);
responses carry either raw record bytes (``RECORD_DATA``), UTF-8 JSON
(``INDEX_DATA`` / ``STAT_DATA`` / ``META_DATA`` / ``METRICS_DATA``), or a
structured error frame (``ERROR``: error code + UTF-8 message).
``GET_RECORD`` — one record prefix at one scan group — is the only read
verb: the record is the batching unit (docs/serving.md, "Why there is no
batch op").

The payload length is bounded (:data:`DEFAULT_MAX_PAYLOAD_BYTES`); both
sides reject oversized frames before allocating, so a corrupt or hostile
peer cannot force a multi-gigabyte read.
"""

from __future__ import annotations

import json
import socket
import struct
from collections.abc import Sequence
from dataclasses import dataclass

PROTOCOL_MAGIC = b"PR"
PROTOCOL_VERSION = 1

_HEADER_STRUCT = "<2sBBI"
HEADER_SIZE = struct.calcsize(_HEADER_STRUCT)

DEFAULT_MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

# -- message types ------------------------------------------------------------

MSG_GET_RECORD = 0x01
MSG_GET_INDEX = 0x02
MSG_STAT = 0x03
MSG_DATASET_META = 0x04
# 0x05 / 0x85 were BATCH / BATCH_DATA and 0x07 / 0x87 were REPORT_TELEMETRY /
# TELEMETRY_ACK: retired, never reused.  Such a frame gets the
# ``unsupported`` reply any unknown type gets.
MSG_GET_METRICS = 0x06

MSG_RECORD_DATA = 0x81
MSG_INDEX_DATA = 0x82
MSG_STAT_DATA = 0x83
MSG_META_DATA = 0x84
MSG_METRICS_DATA = 0x86
MSG_ERROR = 0xFF

#: Mnemonic names for request types — also the suffixes of the server's
#: ``serving.requests.<name>_total`` registry counters.
MESSAGE_NAMES = {
    MSG_GET_RECORD: "get_record",
    MSG_GET_INDEX: "get_index",
    MSG_STAT: "stat",
    MSG_DATASET_META: "dataset_meta",
    MSG_GET_METRICS: "get_metrics",
}

# -- error codes --------------------------------------------------------------

ERR_MALFORMED = 1
ERR_UNSUPPORTED = 2
ERR_NOT_FOUND = 3
ERR_BAD_SCAN_GROUP = 4
ERR_OVERSIZED = 5
ERR_INTERNAL = 6

ERROR_NAMES = {
    ERR_MALFORMED: "malformed",
    ERR_UNSUPPORTED: "unsupported",
    ERR_NOT_FOUND: "not-found",
    ERR_BAD_SCAN_GROUP: "bad-scan-group",
    ERR_OVERSIZED: "oversized",
    ERR_INTERNAL: "internal",
}


class ProtocolError(Exception):
    """A malformed, truncated, or version-incompatible frame."""

    #: The frames :meth:`FrameAssembler.feed` completed before the bad one.
    frames: Sequence[tuple[int, bytes]] = ()


class FrameTooLargeError(ProtocolError):
    """A frame whose payload exceeds the negotiated maximum."""


class RemoteError(Exception):
    """A structured error frame returned by the server."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"[{ERROR_NAMES.get(code, code)}] {message}")
        self.code = code
        self.message = message


# -- frame encoding / decoding ------------------------------------------------


def encode_header(
    msg_type: int, payload_length: int, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES
) -> bytes:
    """Serialize one frame *header* for a payload of ``payload_length`` bytes.

    The zero-copy send path pairs this 8-byte header with the payload's own
    buffer (e.g. a cache ``memoryview``) in a ``sendmsg`` gather list, so
    the payload bytes are never concatenated into a new frame object.
    """
    if payload_length > max_payload:
        raise FrameTooLargeError(
            f"payload of {payload_length} bytes exceeds the {max_payload}-byte frame limit"
        )
    return struct.pack(
        _HEADER_STRUCT, PROTOCOL_MAGIC, PROTOCOL_VERSION, msg_type, payload_length
    )


def encode_frame(
    msg_type: int, payload: bytes = b"", max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES
) -> bytes:
    """Serialize one frame (header + payload)."""
    return encode_header(msg_type, len(payload), max_payload) + payload


def parse_header(
    header: bytes, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES
) -> tuple[int, int]:
    """Validate a frame header; returns ``(msg_type, payload_length)``."""
    if len(header) != HEADER_SIZE:
        raise ProtocolError(f"frame header must be {HEADER_SIZE} bytes, got {len(header)}")
    magic, version, msg_type, length = struct.unpack(_HEADER_STRUCT, header)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > max_payload:
        raise FrameTooLargeError(
            f"frame announces a {length}-byte payload, over the {max_payload}-byte limit"
        )
    return msg_type, length


def recv_exactly(sock: socket.socket, n_bytes: int) -> bytes | None:
    """Read exactly ``n_bytes`` from a socket.

    Returns ``None`` on a clean EOF before the first byte; raises
    :class:`ProtocolError` if the connection drops mid-read.  The one
    receive routine: a ``recv_into`` loop, which is right with or without a
    socket timeout (the pooled client's sockets always carry one).
    """
    buffer = bytearray(n_bytes)
    view = memoryview(buffer)
    received = 0
    while received < n_bytes:
        n = sock.recv_into(view[received:])
        if n == 0:
            if received == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({received} of {n_bytes} bytes)"
            )
        received += n
    return bytes(buffer)


class FrameAssembler:
    """Incremental frame parser for a non-blocking connection.

    Bytes arrive in arbitrary splits (a slow client may deliver one byte at
    a time, a fast one several frames per ``recv``); :meth:`feed` appends
    them and returns every frame completed so far.  The header is validated
    as soon as its 8 bytes are available — a bad magic/version or an
    oversized announced payload raises :class:`ProtocolError` *before* any
    payload is buffered, so a hostile peer cannot make the server allocate
    the announced size.  The frames completed ahead of the bad header ride
    on the exception as ``exc.frames`` (as ``asyncio.IncompleteReadError``
    carries ``partial``): a caller can answer them, in order, before it
    reports the error — what a blocking :func:`read_frame` loop would do.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES) -> None:
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._pending: tuple[int, int] | None = None  # validated (type, length)

    def __len__(self) -> int:
        """Bytes buffered but not yet returned as part of a complete frame."""
        return len(self._buffer)

    @property
    def mid_frame(self) -> bool:
        """True when the stream ends inside an unfinished frame."""
        return self._pending is not None or len(self._buffer) > 0

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Append received bytes; return the frames they completed, in order."""
        self._buffer += data
        frames: list[tuple[int, bytes]] = []
        offset = 0
        buffer = self._buffer
        try:
            while True:
                if self._pending is None:
                    if len(buffer) - offset < HEADER_SIZE:
                        break
                    self._pending = parse_header(
                        bytes(buffer[offset : offset + HEADER_SIZE]), self.max_payload
                    )
                    offset += HEADER_SIZE
                msg_type, length = self._pending
                if len(buffer) - offset < length:
                    break
                frames.append((msg_type, bytes(buffer[offset : offset + length])))
                offset += length
                self._pending = None
        except ProtocolError as exc:
            exc.frames = frames
            raise
        finally:
            # Also on error: the bad header stays at the front, so the
            # frames handed out are never parsed (and answered) twice.
            del buffer[:offset]
        return frames


def read_frame(
    sock: socket.socket, max_payload: int = DEFAULT_MAX_PAYLOAD_BYTES
) -> tuple[int, bytes] | None:
    """Read one complete frame from a socket.

    Returns ``(msg_type, payload)``, or ``None`` if the peer closed the
    connection cleanly at a frame boundary.  A close inside a frame, a bad
    magic/version, or an oversized payload raises :class:`ProtocolError`.
    """
    header = recv_exactly(sock, HEADER_SIZE)
    if header is None:
        return None
    msg_type, length = parse_header(header, max_payload)
    if length == 0:
        return msg_type, b""
    payload = recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between frame header and payload")
    return msg_type, payload


# -- request / response payloads ----------------------------------------------

_RECORD_REQ_NAME = "<H"  # name length; name bytes follow, then the group
_RECORD_REQ_GROUP = "<H"


@dataclass(frozen=True)
class RecordRequest:
    """One ``GET_RECORD``: a record name and the scan group to serve it at."""

    record_name: str
    scan_group: int


def pack_record_request(request: RecordRequest) -> bytes:
    name = request.record_name.encode("utf-8")
    return struct.pack(_RECORD_REQ_NAME, len(name)) + name + struct.pack(
        _RECORD_REQ_GROUP, request.scan_group
    )


def unpack_record_request(payload: bytes) -> RecordRequest:
    if len(payload) < 2:
        raise ProtocolError("record request truncated before the name length")
    (name_length,) = struct.unpack_from(_RECORD_REQ_NAME, payload, 0)
    group_at = 2 + name_length
    trailing = len(payload) - (group_at + 2)
    if trailing < 0:
        raise ProtocolError("record request truncated inside the name or group")
    name = payload[2:group_at].decode("utf-8")
    (group,) = struct.unpack_from(_RECORD_REQ_GROUP, payload, group_at)
    if trailing:
        raise ProtocolError(f"{trailing} trailing bytes after record request")
    return RecordRequest(record_name=name, scan_group=group)


def pack_error(code: int, message: str) -> bytes:
    text = message.encode("utf-8")
    return struct.pack("<H", code) + text


def unpack_error(payload: bytes) -> RemoteError:
    if len(payload) < 2:
        raise ProtocolError("error frame shorter than its code field")
    (code,) = struct.unpack_from("<H", payload, 0)
    return RemoteError(code, payload[2:].decode("utf-8", errors="replace"))


def error_frame(code: int, message: str) -> bytes:
    """A complete, ready-to-send ``ERROR`` frame."""
    return encode_frame(MSG_ERROR, pack_error(code, message))


def pack_json(obj: object) -> bytes:
    return json.dumps(obj).encode("utf-8")


def unpack_json(payload: bytes) -> dict:
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON payload: {exc}") from exc
