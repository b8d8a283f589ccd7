"""Board RAM model."""

from __future__ import annotations

from repro.errors import ReproError


class MemoryError_(ReproError):
    """Out-of-range or misaligned memory access."""


class Memory:
    """A flat little-endian byte-addressable RAM."""

    def __init__(self, size: int, base: int = 0) -> None:
        if size <= 0:
            raise MemoryError_("memory size must be positive")
        self.size = size
        self.base = base
        self._data = bytearray(size)
        #: Access counters (diagnostics).
        self.reads = 0
        self.writes = 0

    @property
    def data(self) -> bytearray:
        """The live RAM bytes, for code that indexes them directly.

        Such code keeps :meth:`load`/:meth:`store`'s bounds check
        (through :meth:`_offset`) and ``reads``/``writes`` counts itself,
        as the ISS's generated blocks do.
        """
        return self._data

    def _offset(self, address: int, width: int) -> int:
        offset = address - self.base
        if offset < 0 or offset + width > self.size:
            raise MemoryError_(
                f"access of {width} bytes at {address:#x} outside "
                f"[{self.base:#x},{self.base + self.size:#x})"
            )
        return offset

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------
    def load(self, address: int, width: int = 4) -> int:
        # Bounds check inlined: this is the ISS's ld/ldh/ldb hot path.
        offset = address - self.base
        if offset < 0 or offset + width > self.size:
            self._offset(address, width)
        self.reads += 1
        if width == 1:
            return self._data[offset]
        return int.from_bytes(self._data[offset:offset + width], "little")

    def store(self, address: int, value: int, width: int = 4) -> None:
        offset = address - self.base
        if offset < 0 or offset + width > self.size:
            self._offset(address, width)
        self.writes += 1
        if width == 1:
            self._data[offset] = value & 0xFF
            return
        self._data[offset:offset + width] = (value & ((1 << (8 * width)) - 1)) \
            .to_bytes(width, "little")

    def load_bytes(self, address: int, length: int) -> bytes:
        offset = self._offset(address, length)
        self.reads += 1
        return bytes(self._data[offset:offset + length])

    def store_bytes(self, address: int, data: bytes) -> None:
        offset = self._offset(address, len(data))
        self.writes += 1
        self._data[offset:offset + len(data)] = data

    def fill(self, value: int = 0) -> None:
        self._data[:] = bytes([value & 0xFF]) * self.size

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full RAM image plus access counters (bytes compress well)."""
        return {"data": bytes(self._data), "reads": self.reads,
                "writes": self.writes}

    def restore(self, state: dict) -> None:
        for key in ("data", "reads", "writes"):
            if key not in state:
                raise MemoryError_(f"memory snapshot missing {key!r}")
        data = state["data"]
        if len(data) != self.size:
            raise MemoryError_(
                f"memory snapshot is {len(data)} bytes, RAM is {self.size}"
            )
        self._data[:] = data
        self.reads = state["reads"]
        self.writes = state["writes"]

    def __len__(self) -> int:
        return self.size
