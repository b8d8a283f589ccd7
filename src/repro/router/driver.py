"""The eCos device driver for the remote router.

"we have created a special device driver for the router and embedded it
into eCos; the C source code calls the appropriate driver interface
functions to communicate with the module" (Section 6).

The driver is an RTOS :class:`~repro.rtos.devices.Device`:

* it attaches an ISR/DSR pair to the remote-device interrupt vector;
  the DSR posts a semaphore the application waits on (eCos idiom);
* its ``read``/``write`` entry points perform register transactions on
  the remote DATA port, charging the configured virtual bus latency for
  each access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.board.board import REMOTE_DEVICE_VECTOR
from repro.errors import ProtocolError
from repro.router.packet import Packet
from repro.router.router import REG_PACKET, REG_STATS, REG_STATUS, REG_VERDICT
from repro.rtos.devices import Device
from repro.rtos.interrupts import ISR_CALL_DSR
from repro.rtos.sync import Semaphore
from repro.rtos.syscalls import CpuWork
from repro.transport.channel import BoardEndpoint
from repro.transport.latency import CycleLatencyModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtos.kernel import RtosKernel


class RouterDriver(Device):
    """Device driver for the virtual router."""

    def __init__(
        self,
        kernel: "RtosKernel",
        endpoint: BoardEndpoint,
        latency: CycleLatencyModel,
        vector: int = REMOTE_DEVICE_VECTOR,
        name: str = "/dev/router",
    ) -> None:
        super().__init__(kernel, name)
        self.endpoint = endpoint
        self.latency = latency
        self.vector = vector
        #: Posted by the DSR; the application blocks on it.
        self.irq_sem = Semaphore(kernel, f"{name}.irq", initial=0)
        self.isr_count = 0
        self.transactions = 0
        kernel.interrupts.attach(vector, self._isr, self._dsr,
                                 name="router-irq")
        kernel.devices.register(self)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Driver counters plus the interrupt semaphore it owns."""
        return {
            "isr_count": self.isr_count,
            "transactions": self.transactions,
            "irq_sem": self.irq_sem.snapshot(),
        }

    def restore(self, state: dict) -> None:
        for key in ("isr_count", "transactions", "irq_sem"):
            if key not in state:
                raise ValueError(f"router driver snapshot missing {key!r}")
        self.isr_count = state["isr_count"]
        self.transactions = state["transactions"]
        self.irq_sem.restore(state["irq_sem"])

    # ------------------------------------------------------------------
    # Interrupt path
    # ------------------------------------------------------------------
    def _isr(self, vector: int) -> int:
        self.isr_count += 1
        return ISR_CALL_DSR

    def _dsr(self, vector: int, count: int) -> None:
        for _ in range(count):
            self.irq_sem.post()

    # ------------------------------------------------------------------
    # Register transactions (generator entry points)
    # ------------------------------------------------------------------
    def _access_cost(self):
        return CpuWork(self.latency.data_access_cycles)

    def _trace_data(self, op: str, address: int) -> None:
        obs = self.kernel.obs
        if obs.enabled:
            obs.event("board", f"data.{op}", sim=self.kernel.cycles,
                      address=address)

    def read_status(self):
        """Read STATUS: returns ``(packet_ready, buffer_level)``."""
        yield self._access_cost()
        self.transactions += 1
        self._trace_data("read", REG_STATUS)
        status = self.endpoint.data_read(REG_STATUS)
        if not isinstance(status, int):
            raise ProtocolError(f"STATUS read returned {status!r}")
        return (bool(status & 1), status >> 8)

    def read_packet_bytes(self):
        """Read the current packet's raw bytes."""
        yield self._access_cost()
        self.transactions += 1
        self._trace_data("read", REG_PACKET)
        raw = self.endpoint.data_read(REG_PACKET)
        if not isinstance(raw, (bytes, bytearray)):
            raise ProtocolError(f"PACKET read returned {raw!r}")
        return bytes(raw)

    def read(self):
        """Device read: the current packet, parsed."""
        raw = yield from self.read_packet_bytes()
        return Packet.from_bytes(raw)

    def write(self, verdict: int):
        """Device write: deliver the checksum verdict."""
        yield self._access_cost()
        self.transactions += 1
        self._trace_data("write", REG_VERDICT)
        self.endpoint.data_write(REG_VERDICT, int(verdict))

    def read_forwarded_count(self):
        """Diagnostics: the router's forwarded-packet counter."""
        yield self._access_cost()
        self.transactions += 1
        self._trace_data("read", REG_STATS)
        return self.endpoint.data_read(REG_STATS)

    def ioctl(self, request: str, *args, **kwargs):
        if request == "forwarded-count":
            value = yield from self.read_forwarded_count()
            return value
        if request == "status":
            value = yield from self.read_status()
            return value
        return (yield from super().ioctl(request, *args, **kwargs))
