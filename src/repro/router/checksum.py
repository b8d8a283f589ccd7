"""16-bit Internet-style checksum (RFC 1071 flavour).

"checked for errors by a checksum algorithm ... a 16 bit field used for
error detection" (Section 6).  The same function is used by the hardware
producers (to stamp packets), by the board's C-application substitute
(to verify them, with an explicit cycle cost), and by the bundled ISS
assembly program.
"""

from __future__ import annotations

import struct


def _word_sum(data: bytes, start: int = 0) -> int:
    """Sum of the big-endian 16-bit words of ``data[start:]``; a
    trailing odd byte is left out."""
    words = (len(data) - start) // 2
    return sum(struct.unpack_from(f">{words}H", data, start))


def _fold(total: int) -> int:
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum16(data: bytes) -> int:
    """Ones'-complement 16-bit checksum of *data* (odd length padded)."""
    total = _word_sum(data)
    if len(data) % 2:
        total += data[-1] << 8
    return _fold(total)


def verify16(data: bytes, checksum: int) -> bool:
    """True if *checksum* matches :func:`checksum16` of *data*."""
    return checksum16(data) == (checksum & 0xFFFF)


class IncrementalChecksum:
    """Streaming variant: feed chunks, then read :attr:`value`.

    Matches :func:`checksum16` for any chunking of the same byte
    stream (a property the test-suite checks with hypothesis).
    """

    def __init__(self) -> None:
        self._total = 0
        self._pending: int = -1  # odd leftover byte, or -1

    def update(self, chunk: bytes) -> "IncrementalChecksum":
        start = 0
        if self._pending >= 0 and chunk:
            self._total += (self._pending << 8) | chunk[0]
            start = 1
            self._pending = -1
        self._total += _word_sum(chunk, start)
        if (len(chunk) - start) % 2:
            self._pending = chunk[-1]
        return self

    @property
    def value(self) -> int:
        total = self._total
        if self._pending >= 0:
            total += self._pending << 8
        return _fold(total)
