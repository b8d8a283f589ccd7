"""Binary wire format for protocol messages.

Each frame is ``<u32 length><u8 kind><body>``, big endian, and one
table, :data:`_LAYOUTS`, lays out every body: per message type, its
kind byte, its int64 fields in wire order, and whether a tagged value
follows them.  A value is tag 0 and an int64 (a ``bool`` is an int), or
tag 1, a u32 length and the bytes.  A
:class:`~repro.transport.messages.Counted` frame is kind 9 and an int64
count, then the body of the message it wraps.  :func:`encode` and
:func:`decode` each have one path, driven by the table, and every link
charges its counters the length of the encoded frame.

The format is deliberately simple — the paper's contribution is the
synchronization protocol, not the encoding — but it is a real codec
with full round-trip tests, used verbatim by the TCP transport.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Tuple

from repro.errors import TransportError
from repro.transport.messages import (
    ClockGrant,
    Counted,
    DataRead,
    DataReply,
    DataWrite,
    Interrupt,
    Message,
    TimeReport,
)

# Kinds 7 and 8 are retired: they decode as unknown frame kinds.
_T_COUNTED = 9
_V_INT = 0
_V_BYTES = 1

LENGTH_PREFIX_SIZE = 4
MAX_FRAME_SIZE = 1 << 20
#: Bytes a :class:`~repro.transport.messages.Counted` wrapper adds to
#: the frame it wraps: its kind byte and its count.
COUNTED_OVERHEAD = 9

_COUNT = struct.Struct(">q")


class _Layout:
    """One message type's body, with its structs precompiled.

    The encoding structs start at the length prefix: the kind byte, or
    kind 9, the count and the wrapped kind byte, then the fields.  The
    decoding structs start after the kind byte.  Value tag 0 (an int)
    is a pad byte, so an int value packs and unpacks with the fields.
    """

    def __init__(self, kind: int, cls: type, fields: Tuple[str, ...],
                 value: bool = False) -> None:
        self.kind, self.cls, self.value = kind, cls, value
        self.read = attrgetter(*fields, *(("value",) if value else ()))
        ints = "q" * len(fields)
        #: Offset of the value tag after the kind byte.
        self.tag_at = 8 * len(fields)
        #: Body size with an int value (or none).
        self.size = 1 + self.tag_at + (9 if value else 0)
        tail = "xq" if value else ""
        self.frame = struct.Struct(">IB" + ints + tail)
        self.counted_frame = struct.Struct(">IBqB" + ints + tail)
        self.bytes_head = struct.Struct(">IB" + ints + "BI")
        self.counted_bytes_head = struct.Struct(">IBqB" + ints + "BI")
        self.body = struct.Struct(">" + ints + tail)
        self.bytes_body = struct.Struct(">" + ints + "xI")


#: The wire format: kind byte, message type, int64 fields in wire
#: order, and whether a tagged value follows.
_LAYOUTS = (
    _Layout(1, ClockGrant, ("seq", "ticks")),
    _Layout(2, TimeReport, ("seq", "board_ticks")),
    _Layout(3, Interrupt, ("vector", "master_cycle")),
    _Layout(4, DataRead, ("seq", "address")),
    _Layout(5, DataWrite, ("seq", "address"), value=True),
    _Layout(6, DataReply, ("seq",), value=True),
)
_BY_TYPE = {layout.cls: layout for layout in _LAYOUTS}
_BY_KIND = {layout.kind: layout for layout in _LAYOUTS}


def encode(message: Message) -> bytes:
    """Serialize *message* to a length-prefixed frame."""
    counted = type(message) is Counted
    inner = message.message if counted else message
    layout = _BY_TYPE.get(type(inner))
    if layout is None:
        raise TransportError(f"cannot encode {message!r}")
    fields = layout.read(inner)
    try:
        if not layout.value or isinstance(fields[-1], int):
            if counted:
                return layout.counted_frame.pack(
                    layout.size + COUNTED_OVERHEAD, _T_COUNTED,
                    message.count, layout.kind, *fields)
            return layout.frame.pack(layout.size, layout.kind, *fields)
        *fields, value = fields
        if not isinstance(value, (bytes, bytearray)):
            raise TransportError(
                f"cannot encode value of type {type(value).__name__}")
        size = layout.size - 4 + len(value)
        if counted:
            size += COUNTED_OVERHEAD
            head = layout.counted_bytes_head.pack(
                size, _T_COUNTED, message.count, layout.kind, *fields,
                _V_BYTES, len(value))
        else:
            head = layout.bytes_head.pack(size, layout.kind, *fields,
                                          _V_BYTES, len(value))
        if size > MAX_FRAME_SIZE:
            raise TransportError(f"frame too large: {size} bytes")
        return head + value
    except struct.error as exc:
        # Field outside the wire format's 64-bit range: surface the
        # codec's own error type, not a bare struct.error.
        raise TransportError(f"cannot encode {message!r}: {exc}") from exc


def decode(body: bytes) -> Message:
    """Deserialize one frame body (without the length prefix).

    Bytes after a complete body are ignored.
    """
    if not body:
        raise TransportError("empty frame")
    kind, start, count = body[0], 1, None
    try:
        if kind == _T_COUNTED:
            (count,) = _COUNT.unpack_from(body, 1)
            if len(body) == COUNTED_OVERHEAD:
                raise TransportError("empty frame")
            kind, start = body[COUNTED_OVERHEAD], COUNTED_OVERHEAD + 1
            if kind == _T_COUNTED:
                raise TransportError("nested counted frame")
        layout = _BY_KIND.get(kind)
        if layout is None:
            raise TransportError(f"unknown frame kind {kind}")
        if layout.value and body[start + layout.tag_at] != _V_INT:
            tag = body[start + layout.tag_at]
            if tag != _V_BYTES:
                raise TransportError(f"unknown value kind {tag}")
            *fields, length = layout.bytes_body.unpack_from(body, start)
            begin = start + layout.tag_at + 5
            if begin + length > len(body):
                # Python slicing would silently shorten the value; a
                # frame whose declared length overruns it is corrupt.
                raise TransportError(
                    f"truncated bytes value: declared {length} bytes, "
                    f"{len(body) - begin} available")
            message = layout.cls(*fields, body[begin:begin + length])
        else:
            message = layout.cls(*layout.body.unpack_from(body, start))
    except (struct.error, IndexError) as exc:
        raise TransportError(
            f"truncated frame of kind {kind}: {exc}") from exc
    return message if count is None else Counted(count, message)
