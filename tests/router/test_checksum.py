"""Tests (incl. property-based) for the 16-bit checksum."""

from hypothesis import given
from hypothesis import strategies as st

from repro.router.checksum import IncrementalChecksum, checksum16, verify16


def reference_checksum16(data):
    """The per-byte-pair loop the word-sum implementation replaced."""
    total = 0
    for i in range(0, len(data) - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if len(data) % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksum16:
    def test_empty(self):
        assert checksum16(b"") == 0xFFFF

    def test_known_vector(self):
        # RFC 1071 worked example (words 0x0001, 0xf203, 0xf4f5, 0xf6f7).
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        total = 0x0001 + 0xF203 + 0xF4F5 + 0xF6F7
        total = (total & 0xFFFF) + (total >> 16)
        assert checksum16(data) == (~total) & 0xFFFF

    def test_odd_length_padding(self):
        assert checksum16(b"\xAB") == (~0xAB00) & 0xFFFF

    @given(st.binary(max_size=3000))
    def test_matches_per_byte_reference(self, data):
        assert checksum16(data) == reference_checksum16(data)
        assert checksum16(bytearray(data)) == reference_checksum16(data)

    @given(st.binary(max_size=300))
    def test_verify_accepts_own_checksum(self, data):
        assert verify16(data, checksum16(data))

    @given(st.binary(min_size=1, max_size=300), st.integers(0, 7))
    def test_detects_single_bit_flips(self, data, bit):
        """Ones'-complement sums detect any single-bit error."""
        checksum = checksum16(data)
        corrupted = bytearray(data)
        corrupted[0] ^= 1 << bit
        if bytes(corrupted) != data:
            assert checksum16(bytes(corrupted)) != checksum

    @given(st.binary(max_size=300))
    def test_result_fits_16_bits(self, data):
        assert 0 <= checksum16(data) <= 0xFFFF


class TestIncremental:
    @given(st.binary(max_size=300),
           st.integers(min_value=1, max_value=17))
    def test_chunking_invariance(self, data, chunk):
        incremental = IncrementalChecksum()
        for start in range(0, len(data), chunk):
            incremental.update(data[start:start + chunk])
        assert incremental.value == checksum16(data)

    @given(st.lists(st.binary(max_size=40), max_size=12))
    def test_any_split_matches_per_byte_reference(self, chunks):
        incremental = IncrementalChecksum()
        for chunk in chunks:
            incremental.update(chunk)
        assert incremental.value == reference_checksum16(b"".join(chunks))

    def test_empty_updates(self):
        inc = IncrementalChecksum()
        inc.update(b"").update(b"").update(b"ab").update(b"")
        assert inc.value == checksum16(b"ab")

    def test_value_readable_mid_stream(self):
        inc = IncrementalChecksum()
        inc.update(b"abc")
        assert inc.value == checksum16(b"abc")
        inc.update(b"def")
        assert inc.value == checksum16(b"abcdef")
