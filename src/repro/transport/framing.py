"""Binary wire format for protocol messages.

Each frame is ``<u32 length><u8 type><payload>`` (big endian).  Integer
values are encoded as signed 64-bit; byte-string values carry their own
length.  The format is deliberately simple — the paper's contribution is
the synchronization protocol, not the encoding — but it is a real codec
with full round-trip tests, used verbatim by the TCP transport.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Optional, Tuple

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
    Value,
)

_T_CLOCK_GRANT = 1
_T_TIME_REPORT = 2
_T_INTERRUPT = 3
_T_DATA_READ = 4
_T_DATA_WRITE = 5
_T_DATA_REPLY = 6
# Kinds 7 and 8 are retired: they decode as unknown frame kinds.
_T_COUNTED = 9

_V_INT = 0
_V_BYTES = 1

_U64 = struct.Struct(">q")
_U32 = struct.Struct(">I")

LENGTH_PREFIX_SIZE = 4
MAX_FRAME_SIZE = 1 << 20
#: Bytes a :class:`~repro.transport.messages.Counted` wrapper adds to
#: the frame it wraps: its kind byte and its count.
COUNTED_OVERHEAD = 9


def _encode_value(value: Value) -> bytes:
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return bytes([_V_INT]) + _U64.pack(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes([_V_BYTES]) + _U32.pack(len(value)) + bytes(value)
    raise TransportError(f"cannot encode value of type {type(value).__name__}")


def _decode_value(payload: bytes, offset: int) -> Tuple[Value, int]:
    kind = payload[offset]
    offset += 1
    if kind == _V_INT:
        (value,) = _U64.unpack_from(payload, offset)
        return value, offset + 8
    if kind == _V_BYTES:
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        if offset + length > len(payload):
            # Python slicing would silently shorten the value; a frame
            # whose declared length overruns the payload is corrupt.
            raise TransportError(
                f"truncated bytes value: declared {length} bytes, "
                f"{len(payload) - offset} available"
            )
        return payload[offset:offset + length], offset + length
    raise TransportError(f"unknown value kind {kind}")


#: Kind byte and field reader of each frame that carries two int64
#: fields, by exact message type.
_PAIRS = {
    ClockGrant: (_T_CLOCK_GRANT, attrgetter("seq", "ticks")),
    TimeReport: (_T_TIME_REPORT, attrgetter("seq", "board_ticks")),
    Interrupt: (_T_INTERRUPT, attrgetter("vector", "master_cycle")),
    DataRead: (_T_DATA_READ, attrgetter("seq", "address")),
}
#: The message type of each two-int64 kind byte (constructed
#: positionally, in wire order).
_PAIR_TYPES = {kind: cls for cls, (kind, _) in _PAIRS.items()}

# One precompiled layout per frame shape, length prefix included.  The
# bodies are 17, 26, 26 and 18 bytes long.
_PAIR_FRAME = struct.Struct(">IBqq")
_COUNTED_PAIR_FRAME = struct.Struct(">IBqBqq")
_WRITE_INT_FRAME = struct.Struct(">IBqqBq")
_REPLY_INT_FRAME = struct.Struct(">IBqBq")


def encode(message: Message) -> bytes:
    """Serialize *message* to a length-prefixed frame.

    Exact message types with ``int`` values are packed by one
    precompiled :class:`struct.Struct` each; everything else (bytes
    values, subclasses, messages the codec refuses) takes the generic
    path, which yields the same bytes and the same errors.
    """
    try:
        kind = type(message)
        pair = _PAIRS.get(kind)
        if pair is not None:
            code, fields = pair
            return _PAIR_FRAME.pack(17, code, *fields(message))
        if kind is Counted:
            pair = _PAIRS.get(type(message.message))
            if pair is not None:
                code, fields = pair
                return _COUNTED_PAIR_FRAME.pack(
                    26, _T_COUNTED, message.count, code,
                    *fields(message.message))
        elif kind is DataWrite and type(message.value) is int:
            return _WRITE_INT_FRAME.pack(26, _T_DATA_WRITE, message.seq,
                                         message.address, _V_INT,
                                         message.value)
        elif kind is DataReply and type(message.value) is int:
            return _REPLY_INT_FRAME.pack(18, _T_DATA_REPLY, message.seq,
                                         _V_INT, message.value)
        return _encode(message)
    except struct.error as exc:
        # Field outside the wire format's 64-bit range: surface the
        # codec's own error type, not a bare struct.error.
        raise TransportError(f"cannot encode {message!r}: {exc}") from exc


def _encode(message: Message) -> bytes:
    if isinstance(message, ClockGrant):
        body = bytes([_T_CLOCK_GRANT]) + _U64.pack(message.seq) + _U64.pack(message.ticks)
    elif isinstance(message, TimeReport):
        body = bytes([_T_TIME_REPORT]) + _U64.pack(message.seq) + _U64.pack(message.board_ticks)
    elif isinstance(message, Interrupt):
        body = bytes([_T_INTERRUPT]) + _U64.pack(message.vector) + _U64.pack(message.master_cycle)
    elif isinstance(message, DataRead):
        body = bytes([_T_DATA_READ]) + _U64.pack(message.seq) + _U64.pack(message.address)
    elif isinstance(message, DataWrite):
        body = (bytes([_T_DATA_WRITE]) + _U64.pack(message.seq)
                + _U64.pack(message.address) + _encode_value(message.value))
    elif isinstance(message, DataReply):
        body = bytes([_T_DATA_REPLY]) + _U64.pack(message.seq) + _encode_value(message.value)
    elif isinstance(message, Counted) \
            and not isinstance(message.message, Counted):
        body = (bytes([_T_COUNTED]) + _U64.pack(message.count)
                + _encode(message.message)[4:])
    else:
        raise TransportError(f"cannot encode {message!r}")
    if len(body) > MAX_FRAME_SIZE:
        raise TransportError(f"frame too large: {len(body)} bytes")
    return _U32.pack(len(body)) + body


_PAIR_BODY = struct.Struct(">qq")
_COUNTED_PAIR_BODY = struct.Struct(">qBqq")
_WRITE_INT_BODY = struct.Struct(">qqBq")
_REPLY_INT_BODY = struct.Struct(">qBq")


def decode(body: bytes) -> Message:
    """Deserialize one frame body (without the length prefix).

    The layouts :func:`encode` packs in one step are unpacked in one
    step; every other body (bytes values, short or corrupt frames)
    takes the generic path, which raises the codec's errors.
    """
    size = len(body)
    if size >= 17:
        kind = body[0]
        cls = _PAIR_TYPES.get(kind)
        if cls is not None:
            return cls(*_PAIR_BODY.unpack_from(body, 1))
        if kind == _T_COUNTED:
            if size >= 26:
                cls = _PAIR_TYPES.get(body[9])
                if cls is not None:
                    count, _, first, second = \
                        _COUNTED_PAIR_BODY.unpack_from(body, 1)
                    return Counted(count, cls(first, second))
        elif kind == _T_DATA_REPLY:
            if size >= 18 and body[9] == _V_INT:
                seq, _, value = _REPLY_INT_BODY.unpack_from(body, 1)
                return DataReply(seq, value)
        elif kind == _T_DATA_WRITE:
            if size >= 26 and body[17] == _V_INT:
                seq, address, _, value = _WRITE_INT_BODY.unpack_from(body, 1)
                return DataWrite(seq, address, value)
    return _decode(body)


def _decode(body: bytes) -> Message:
    if not body:
        raise TransportError("empty frame")
    kind = body[0]
    try:
        if kind == _T_CLOCK_GRANT:
            seq, ticks = _U64.unpack_from(body, 1)[0], _U64.unpack_from(body, 9)[0]
            return ClockGrant(seq=seq, ticks=ticks)
        if kind == _T_TIME_REPORT:
            seq, board = _U64.unpack_from(body, 1)[0], _U64.unpack_from(body, 9)[0]
            return TimeReport(seq=seq, board_ticks=board)
        if kind == _T_INTERRUPT:
            vector = _U64.unpack_from(body, 1)[0]
            cycle = _U64.unpack_from(body, 9)[0]
            return Interrupt(vector=vector, master_cycle=cycle)
        if kind == _T_DATA_READ:
            seq, addr = _U64.unpack_from(body, 1)[0], _U64.unpack_from(body, 9)[0]
            return DataRead(seq=seq, address=addr)
        if kind == _T_DATA_WRITE:
            seq = _U64.unpack_from(body, 1)[0]
            addr = _U64.unpack_from(body, 9)[0]
            value, _ = _decode_value(body, 17)
            return DataWrite(seq=seq, address=addr, value=value)
        if kind == _T_DATA_REPLY:
            seq = _U64.unpack_from(body, 1)[0]
            value, _ = _decode_value(body, 9)
            return DataReply(seq=seq, value=value)
        if kind == _T_COUNTED:
            if body[9:10] == bytes([_T_COUNTED]):
                raise TransportError("nested counted frame")
            return Counted(count=_U64.unpack_from(body, 1)[0],
                           message=_decode(body[9:]))
    except (struct.error, IndexError) as exc:
        raise TransportError(f"truncated frame of kind {kind}: {exc}") from exc
    raise TransportError(f"unknown frame kind {kind}")


#: The signed 64-bit range of integer fields.
_INT64_MIN, _INT64_END = -(1 << 63), 1 << 63


def frame_size(message: Message) -> int:
    """Wire size of *message* in bytes, including the length prefix.

    Counted from the field types without building the frame.  A message
    the arithmetic does not vouch for is handed to :func:`encode`, so
    both functions refuse the same messages with the same error.
    """
    size = _body_size(message)
    if size is None or size > MAX_FRAME_SIZE:
        return len(encode(message))
    return LENGTH_PREFIX_SIZE + size


def _body_size(message: Message) -> Optional[int]:
    """Frame body size of *message*, or None to leave it to the codec.

    Mirrors :func:`_encode`: a kind byte, 8 bytes per integer field and
    a tagged value; a counted frame wraps its inner body.  Only exact
    message types with plain ``int`` fields in range and ``int`` or
    ``bytes`` values are counted; anything else (bools, bytearrays,
    subclasses, values the codec refuses) returns None.
    """
    kind = type(message)
    if kind is ClockGrant:
        fixed = _int64(message.seq) and _int64(message.ticks)
    elif kind is TimeReport:
        fixed = _int64(message.seq) and _int64(message.board_ticks)
    elif kind is Interrupt:
        fixed = _int64(message.vector) and _int64(message.master_cycle)
    elif kind is DataRead:
        fixed = _int64(message.seq) and _int64(message.address)
    elif kind is DataWrite:
        value = _value_size(message.value)
        if value is None or not (_int64(message.seq)
                                 and _int64(message.address)):
            return None
        return 17 + value
    elif kind is DataReply:
        value = _value_size(message.value)
        if value is None or not _int64(message.seq):
            return None
        return 9 + value
    elif kind is Counted and type(message.message) is not Counted:
        inner = _body_size(message.message)
        if inner is None or not _int64(message.count):
            return None
        return 9 + inner
    else:
        return None
    return 17 if fixed else None


def _int64(value) -> bool:
    return type(value) is int and _INT64_MIN <= value < _INT64_END


def _value_size(value: Value) -> Optional[int]:
    if type(value) is int:
        return 9 if _INT64_MIN <= value < _INT64_END else None
    if type(value) is bytes:
        return 5 + len(value)
    return None
