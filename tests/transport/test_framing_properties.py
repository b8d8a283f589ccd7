"""Property-based tests for the wire codec (requires hypothesis)."""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import TransportError  # noqa: E402
from repro.transport.framing import (  # noqa: E402
    COUNTED_OVERHEAD,
    LENGTH_PREFIX_SIZE,
    MAX_FRAME_SIZE,
    decode,
    encode,
)
from repro.transport.messages import (  # noqa: E402
    ClockGrant,
    Counted,
    DataRead,
    DataReply,
    DataWrite,
    Interrupt,
    Message,
    TimeReport,
)

# Signed 64-bit, the codec's integer field width.
i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
values = st.one_of(i64, st.binary(max_size=512))

messages = st.one_of(
    st.builds(ClockGrant, seq=i64, ticks=i64),
    st.builds(TimeReport, seq=i64, board_ticks=i64),
    st.builds(Interrupt, vector=i64, master_cycle=i64),
    st.builds(DataRead, seq=i64, address=i64),
    st.builds(DataWrite, seq=i64, address=i64, value=values),
    st.builds(DataReply, seq=i64, value=values),
)
#: Every layout bare, and wrapped in a counted frame as TCP sends it.
framed = st.one_of(messages, st.builds(Counted, count=i64, message=messages))


def body_of(frame: bytes) -> bytes:
    """Strip the u32 length prefix off an encoded frame."""
    return frame[LENGTH_PREFIX_SIZE:]


class TestRoundTrip:
    @given(message=framed)
    def test_encode_decode_round_trips(self, message):
        assert decode(body_of(encode(message))) == message

    @given(message=framed)
    def test_length_prefix_matches_body(self, message):
        frame = encode(message)
        (length,) = struct.unpack(">I", frame[:LENGTH_PREFIX_SIZE])
        assert length == len(frame) - LENGTH_PREFIX_SIZE
        assert length <= MAX_FRAME_SIZE

    @given(message=messages, count=i64)
    def test_counted_frame_is_its_head_and_the_wrapped_body(self, message,
                                                           count):
        bare, wrapped = encode(message), encode(Counted(count, message))
        assert len(wrapped) == len(bare) + COUNTED_OVERHEAD
        assert body_of(wrapped)[COUNTED_OVERHEAD:] == body_of(bare)

    @given(message=framed)
    def test_encoding_is_deterministic(self, message):
        assert encode(message) == encode(message)


class TestAdversarialInput:
    @given(blob=st.binary(max_size=256))
    def test_decode_never_raises_anything_but_transport_error(self, blob):
        # Arbitrary bytes either decode to some message or fail with
        # the codec's own error type — never IndexError/struct.error.
        try:
            result = decode(blob)
        except TransportError:
            return
        assert isinstance(result, Message)

    def test_empty_frame_rejected(self):
        with pytest.raises(TransportError):
            decode(b"")

    @given(kind=st.integers(min_value=9, max_value=255))
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(TransportError):
            decode(bytes([kind]) + b"\x00" * 16)

    @given(kind=st.sampled_from([7, 8]), seq=i64)
    def test_retired_probe_kinds_are_unknown(self, kind, seq):
        # Kinds 7 and 8 once framed a liveness probe and its answer (a
        # u64 sequence number); a peer still sending them gets the
        # codec's typed error, on its own or inside a counted frame.
        body = bytes([kind]) + struct.pack(">q", seq)
        with pytest.raises(TransportError, match="unknown frame kind"):
            decode(body)
        with pytest.raises(TransportError, match="unknown frame kind"):
            decode(bytes([9]) + struct.pack(">q", 1) + body)

    @given(
        message=st.one_of(
            st.builds(ClockGrant, seq=i64, ticks=i64),
            st.builds(TimeReport, seq=i64, board_ticks=i64),
            st.builds(Interrupt, vector=i64, master_cycle=i64),
            st.builds(DataRead, seq=i64, address=i64),
        ),
        drop=st.integers(min_value=1, max_value=8),
    )
    def test_truncated_fixed_size_frames_rejected(self, message, drop):
        # Fixed-layout bodies are all u64 fields; losing trailing bytes
        # must surface as a TransportError, not a short unpack.
        body = body_of(encode(message))
        with pytest.raises(TransportError):
            decode(body[:-drop])

    @settings(max_examples=50)
    @given(message=messages, extra=st.binary(min_size=1, max_size=16))
    def test_trailing_garbage_is_ignored_or_rejected(self, message, extra):
        # The codec reads fixed offsets, so appended garbage must never
        # change the decoded fields.
        body = body_of(encode(message))
        try:
            result = decode(body + extra)
        except TransportError:
            return
        assert result == message

    @given(value=st.binary(max_size=64), drop=st.integers(min_value=1,
                                                          max_value=8))
    def test_truncated_byte_value_never_round_trips_silently(self, value,
                                                             drop):
        # Chopping inside a bytes payload shortens the decoded value
        # (Python slicing) — it must never equal the original message.
        message = DataReply(seq=1, value=value)
        body = body_of(encode(message))
        try:
            result = decode(body[:-drop])
        except TransportError:
            return
        assert result != message


# Any field value at all: in and out of the 64-bit range, and types the
# codec refuses.
anything = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70), st.booleans(),
    st.binary(max_size=64), st.binary(max_size=8).map(bytearray),
    st.floats(allow_nan=False), st.text(max_size=4),
    st.none(), st.just([1]),
)
loose_messages = st.one_of(
    st.builds(ClockGrant, seq=anything, ticks=anything),
    st.builds(TimeReport, seq=anything, board_ticks=anything),
    st.builds(Interrupt, vector=anything, master_cycle=anything),
    st.builds(DataRead, seq=anything, address=anything),
    st.builds(DataWrite, seq=anything, address=anything, value=anything),
    st.builds(DataReply, seq=anything, value=anything),
)


class TestFrameSize:
    """``encode`` refuses a frame over ``MAX_FRAME_SIZE`` and a message
    the wire cannot carry, always with the codec's own error type."""

    @pytest.mark.parametrize("size", [MAX_FRAME_SIZE - 10, MAX_FRAME_SIZE])
    def test_frame_size_limit(self, size):
        # A DataReply body is 1 + 8 + 5 bytes around the value.
        message = DataReply(seq=0, value=bytes(size - 14))
        assert len(encode(message)) == LENGTH_PREFIX_SIZE + size
        wrapped = Counted(count=1, message=message)
        if size + COUNTED_OVERHEAD <= MAX_FRAME_SIZE:
            assert len(encode(wrapped)) \
                == LENGTH_PREFIX_SIZE + COUNTED_OVERHEAD + size
        else:
            with pytest.raises(TransportError, match="frame too large"):
                encode(wrapped)

    def test_one_byte_over_the_limit(self):
        # A DataWrite body is 1 + 8 + 8 + 5 bytes around the value.
        message = DataWrite(seq=0, address=0,
                            value=bytearray(MAX_FRAME_SIZE - 21))
        with pytest.raises(TransportError, match="frame too large"):
            encode(message)

    @given(message=st.one_of(
        loose_messages,
        st.builds(Counted, count=anything, message=loose_messages),
    ))
    def test_loose_fields_encode_or_raise_transport_error(self, message):
        try:
            frame = encode(message)
        except TransportError as exc:
            assert str(exc).startswith("cannot encode")
            return
        assert decode(body_of(frame)) is not None

    def test_unencodable_values_raise_transport_error(self):
        for message, text in (
                (ClockGrant(seq=1 << 63, ticks=0), "cannot encode"),
                (DataReply(seq=0, value="text"),
                 "cannot encode value of type str"),
                (Counted(count=0, message=Counted(
                    count=0, message=ClockGrant(0, 0))), "cannot encode"),
                (DataReply, "cannot encode"),
                (TimeReport(seq=0, board_ticks=0.5), "cannot encode")):
            with pytest.raises(TransportError, match=text):
                encode(message)
