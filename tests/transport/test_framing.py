"""Tests for the wire codec, including hypothesis round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TransportError
from repro.transport import (
    ClockGrant,
    DataRead,
    DataReply,
    DataWrite,
    Interrupt,
    TimeReport,
    decode,
    encode,
)
from repro.transport.framing import LENGTH_PREFIX_SIZE
from repro.transport.messages import Counted

seqs = st.integers(min_value=0, max_value=2**40)
values = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.binary(min_size=0, max_size=512),
)

messages = st.one_of(
    st.builds(ClockGrant, seq=seqs, ticks=seqs),
    st.builds(TimeReport, seq=seqs, board_ticks=seqs),
    st.builds(Interrupt, vector=st.integers(0, 255), master_cycle=seqs),
    st.builds(DataRead, seq=seqs, address=st.integers(0, 2**30)),
    st.builds(DataWrite, seq=seqs, address=st.integers(0, 2**30),
              value=values),
    st.builds(DataReply, seq=seqs, value=values),
)


counted = st.builds(
    Counted,
    count=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    message=st.one_of(
        st.builds(ClockGrant, seq=seqs, ticks=seqs),
        st.builds(TimeReport, seq=seqs, board_ticks=seqs),
        st.builds(Interrupt, vector=st.integers(0, 255), master_cycle=seqs),
    ),
)

INT64_MAX, INT64_MIN = 2**63 - 1, -(2**63)


def roundtrip(message):
    frame = encode(message)
    (length,) = __import__("struct").unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return decode(frame[4:])


class TestRoundTrip:
    @given(messages)
    def test_encode_decode_roundtrip(self, message):
        assert roundtrip(message) == message

    def test_int_and_bytes_values(self):
        assert roundtrip(DataWrite(1, 2, -42)).value == -42
        assert roundtrip(DataWrite(1, 2, b"\x00\xff")).value == b"\x00\xff"
        assert roundtrip(DataReply(1, b"")).value == b""

    def test_bool_value_encodes_as_int(self):
        assert roundtrip(DataReply(1, True)).value == 1

    def test_frame_size_includes_prefix(self):
        # A kind byte and two int64s, after the u32 length prefix.
        frame = encode(ClockGrant(seq=1, ticks=100))
        assert len(frame) == LENGTH_PREFIX_SIZE + 17
        assert frame[:LENGTH_PREFIX_SIZE] == (17).to_bytes(4, "big")


class TestErrors:
    def test_empty_frame(self):
        with pytest.raises(TransportError):
            decode(b"")

    def test_unknown_kind(self):
        with pytest.raises(TransportError, match="unknown frame kind"):
            decode(b"\x7f")

    def test_truncated_frame(self):
        frame = encode(ClockGrant(seq=1, ticks=2))[4:]
        with pytest.raises(TransportError, match="truncated"):
            decode(frame[:-3])

    def test_unencodable_value(self):
        with pytest.raises(TransportError):
            encode(DataWrite(1, 2, value=object()))

    def test_unencodable_message(self):
        with pytest.raises(TransportError):
            encode("not a message")

    def test_unknown_value_kind(self):
        frame = bytearray(encode(DataReply(1, 5))[4:])
        frame[9] = 0x7F  # corrupt the value-kind byte
        with pytest.raises(TransportError, match="unknown value kind"):
            decode(bytes(frame))

    # Regressions found by the differential fuzzer (repro.difftest) ----
    def test_truncated_bytes_value_raises_not_shortens(self):
        # A frame whose bytes-value is cut short used to decode to a
        # silently *wrong* shorter value (b"abcdef" -> b"abc").
        frame = encode(DataWrite(seq=1, address=2, value=b"abcdef"))[4:]
        with pytest.raises(TransportError, match="truncated bytes value"):
            decode(frame[:-3])

    def test_truncated_bytes_reply_raises_not_shortens(self):
        frame = encode(DataReply(seq=1, value=b"payload"))[4:]
        with pytest.raises(TransportError, match="truncated bytes value"):
            decode(frame[:-1])

    def test_bytes_length_overrunning_payload_raises(self):
        frame = bytearray(encode(DataReply(1, b"abcd"))[4:])
        # Inflate the declared value length far past the payload end.
        frame[10:14] = (1 << 20).to_bytes(4, "big")
        with pytest.raises(TransportError, match="truncated bytes value"):
            decode(bytes(frame))

    def test_out_of_range_int_value_raises_transport_error(self):
        # Used to leak a bare struct.error.
        with pytest.raises(TransportError, match="cannot encode"):
            encode(DataWrite(seq=1, address=2, value=1 << 70))

    def test_out_of_range_seq_raises_transport_error(self):
        with pytest.raises(TransportError, match="cannot encode"):
            encode(ClockGrant(seq=1 << 70, ticks=1))


class TestWireFormat:
    """One literal frame per layout, as ``<u32 length> <u8 kind>
    <fields>``: the bytes on the wire are the protocol, so no codec
    change may move them."""

    @pytest.mark.parametrize("message,wire", [
        (ClockGrant(seq=1, ticks=200),
         "00000011 01 0000000000000001 00000000000000c8"),
        (TimeReport(seq=2, board_ticks=400),
         "00000011 02 0000000000000002 0000000000000190"),
        (Interrupt(vector=3, master_cycle=150),
         "00000011 03 0000000000000003 0000000000000096"),
        (DataRead(seq=4, address=0x10),
         "00000011 04 0000000000000004 0000000000000010"),
        # Counted: kind 9, the count, then the wrapped body.
        (Counted(5, ClockGrant(seq=7, ticks=300)),
         "0000001a 09 0000000000000005 01 0000000000000007 000000000000012c"),
        (Counted(6, TimeReport(seq=7, board_ticks=2100)),
         "0000001a 09 0000000000000006 02 0000000000000007 0000000000000834"),
        (Counted(1, Interrupt(vector=3, master_cycle=1234)),
         "0000001a 09 0000000000000001 03 0000000000000003 00000000000004d2"),
        # Values: kind 0 and an int64, or kind 1, a u32 length and bytes.
        (DataWrite(seq=8, address=0x20, value=-2),
         "0000001a 05 0000000000000008 0000000000000020 00 fffffffffffffffe"),
        (DataWrite(seq=9, address=0x24, value=b"\x01\x02\xff"),
         "00000019 05 0000000000000009 0000000000000024 01 00000003 0102ff"),
        (DataReply(seq=10, value=0xBEEF),
         "00000012 06 000000000000000a 00 000000000000beef"),
        (DataReply(seq=11, value=b"abc"),
         "00000011 06 000000000000000b 01 00000003 616263"),
        (DataWrite(seq=INT64_MAX, address=INT64_MIN, value=INT64_MIN),
         "0000001a 05 7fffffffffffffff 8000000000000000 00 8000000000000000"),
        (Counted(INT64_MIN, ClockGrant(seq=INT64_MAX, ticks=INT64_MIN)),
         "0000001a 09 8000000000000000 01 7fffffffffffffff 8000000000000000"),
    ])
    def test_frame_bytes(self, message, wire):
        frame = bytes.fromhex(wire)
        assert encode(message) == frame
        assert decode(frame[4:]) == message

    def test_bool_value_is_an_int64(self):
        frame = bytes.fromhex("00000012 06 000000000000000c 00 0000000000000001")
        assert encode(DataReply(seq=12, value=True)) == frame
        assert decode(frame[4:]) == DataReply(seq=12, value=1)

    @given(counted)
    def test_counted_round_trip(self, message):
        frame = encode(message)
        assert len(frame) == 4 + 9 + 17
        assert decode(frame[4:]) == message
