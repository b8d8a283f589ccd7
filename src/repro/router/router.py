"""The 4-port packet router hardware model (Section 6).

An extension of the Multicast Helix Packet Switch example shipped with
SystemC, rebuilt on :mod:`repro.simkernel`:

* packets arriving on the input ports are stored in a finite internal
  buffer (drop on full);
* the main process presents the head packet to the *checksum
  application running on the board* through driver registers and raises
  the interrupt signal;
* when the board writes its verdict, a valid packet's destination is
  looked up in the embedded routing table and the packet is forwarded
  to the corresponding output port; invalid packets are dropped.

Register map (driver addresses):

======  =========  ==========================================
0x0     STATUS     DriverOut: bit0 = packet ready; bits 8+ = buffer level
0x1     PACKET     DriverOut: serialized current packet
0x2     VERDICT    DriverIn: 1 = checksum ok, 0 = corrupt
0x3     STATS      DriverOut: forwarded count (diagnostics)
======  =========  ==========================================
"""

from __future__ import annotations

from typing import List, Optional

from repro.router.buffer import PacketBuffer
from repro.router.packet import Packet
from repro.router.routing_table import RoutingTable
from repro.router.stats import WorkloadStats
from repro.simkernel.clock import Clock
from repro.simkernel.driver_ext import DriverIn, DriverOut, driver_process
from repro.simkernel.module import Module
from repro.simkernel.primitives import SimFifo
from repro.simkernel.signals import Signal

#: Driver register addresses.
REG_STATUS = 0x0
REG_PACKET = 0x1
REG_VERDICT = 0x2
REG_STATS = 0x3

VERDICT_OK = 1
VERDICT_BAD = 0

NUM_PORTS = 4


class Router(Module):
    """The 4-port router."""

    def __init__(
        self,
        sim,
        name: str,
        clock: Clock,
        table: RoutingTable,
        stats: WorkloadStats,
        buffer_capacity: int = 20,
        num_ports: int = NUM_PORTS,
        input_fifo_capacity: int = 4,
        output_fifo_capacity: int = 1024,
    ) -> None:
        super().__init__(sim, name)
        self.clock = clock
        self.table = table
        self.stats = stats
        self.num_ports = num_ports

        #: Producers push packets here (one FIFO per input port).
        self.input_fifos: List[SimFifo] = [
            SimFifo(sim, f"{name}.in{i}", capacity=input_fifo_capacity)
            for i in range(num_ports)
        ]
        #: Consumers pop forwarded packets here.
        self.output_fifos: List[SimFifo] = [
            SimFifo(sim, f"{name}.out{i}", capacity=output_fifo_capacity)
            for i in range(num_ports)
        ]
        self.buffer = PacketBuffer(buffer_capacity)
        self._current: Optional[Packet] = None

        # Driver-visible registers.
        self.reg_status = DriverOut(self, "status", init=0)
        self.reg_packet = DriverOut(self, "packet", init=b"")
        self.reg_verdict = DriverIn(self, "verdict", init=VERDICT_BAD)
        self.reg_stats = DriverOut(self, "stats", init=0)

        #: Interrupt request to the board (pulsed when a packet becomes
        #: available after the register file was empty).
        self.irq = Signal(sim, f"{name}.irq", init=False)

        # Processes.  The per-port input movers and the main
        # packet-presentation logic all act once per clock cycle, in a
        # fixed order (inputs 0..n-1, then main); running them as a
        # single clocked method keeps that order while costing one
        # kernel dispatch per cycle instead of five thread resumes.
        self._main_proc = self.method(self._on_posedge,
                                      sensitive=[clock.posedge],
                                      dont_initialize=True, name="main")
        # While fully idle the method parks on the input FIFOs' write
        # events instead of the clock (see _on_posedge).
        self._wake_events = [fifo.data_written for fifo in self.input_fifos]
        self._parked = False
        driver_process(self, self._on_verdict, self.reg_verdict,
                       name="verdict")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Buffer, in-flight packet and FIFO contents, in wire form."""
        return {
            "buffer": self.buffer.snapshot(),
            "current": (self._current.to_bytes()
                        if self._current is not None else None),
            "input_fifos": [[p.to_bytes() for p in fifo.items()]
                            for fifo in self.input_fifos],
            "output_fifos": [[p.to_bytes() for p in fifo.items()]
                             for fifo in self.output_fifos],
            "parked": self._parked,
        }

    def restore(self, state: dict) -> None:
        for key in ("buffer", "current", "input_fifos", "output_fifos",
                    "parked"):
            if key not in state:
                raise ValueError(f"router snapshot missing {key!r}")
        self.buffer.restore(state["buffer"])
        raw = state["current"]
        self._current = Packet.from_bytes(raw) if raw is not None else None
        for fifo, packets in zip(self.input_fifos, state["input_fifos"]):
            fifo.load_items([Packet.from_bytes(p) for p in packets])
        for fifo, packets in zip(self.output_fifos, state["output_fifos"]):
            fifo.load_items([Packet.from_bytes(p) for p in packets])
        # The flag must round-trip exactly — a restored session
        # replays the same delta schedule as the original.
        parked = state["parked"]
        if parked != self._parked:
            self._parked = parked
            self._main_proc.set_static_sensitivity(
                self._wake_events if parked else [self.clock.posedge])

    # ------------------------------------------------------------------
    # Clocked behaviour: inputs into the buffer, then the main logic
    # ------------------------------------------------------------------
    def _on_posedge(self) -> None:
        if self._parked:
            # Woken by a FIFO write while parked.  The packet landed
            # mid-cycle (its data_written delta), so it must be taken
            # at the *next* rising edge, exactly as when clocked: just
            # re-arm on the clock and return.
            self._parked = False
            self._main_proc.set_static_sensitivity([self.clock.posedge])
            return
        # Input side: move arriving packets into the internal buffer.
        buffer = self.buffer
        idle = True
        for fifo in self.input_fifos:
            packet = fifo.try_get()
            if packet is not None:
                idle = False
                if not buffer.offer(packet):
                    self.stats.dropped_overflow += 1
        # Main logic: present buffered packets to the board.
        if self.irq.read():
            self.irq.write(False)  # end of the one-cycle pulse
        elif self._current is None and not buffer.is_empty:
            self._load_next()
            self.irq.write(True)
            idle = False
        if idle and (self._current is not None or buffer.is_empty):
            # Nothing arrived, no pulse in flight, and the next edge
            # would be a no-op too (a verdict chains combinationally
            # without involving this method).  Park on the FIFO write
            # events so idle clock cycles cost nothing here.
            self._parked = True
            self._main_proc.set_static_sensitivity(self._wake_events)

    def _load_next(self) -> None:
        packet = self.buffer.pop()
        assert packet is not None
        self._current = packet
        self.reg_packet.write(packet.to_bytes())
        self._write_status()

    def _write_status(self) -> None:
        ready = 1 if self._current is not None else 0
        self.reg_status.write(ready | (len(self.buffer) << 8))

    # ------------------------------------------------------------------
    # Verdict driver process: forward or drop, then chain the next packet
    # ------------------------------------------------------------------
    def _on_verdict(self) -> None:
        packet = self._current
        if packet is None:
            return  # spurious verdict; nothing in the register file
        self._current = None
        verdict = self.reg_verdict.read()
        self.stats.checked_by_sw += 1
        if verdict == VERDICT_OK:
            port = self.table.lookup(packet.dst)
            if port is None:
                self.stats.dropped_unroutable += 1
            elif self.output_fifos[port].try_put(packet):
                self.stats.forwarded += 1
                self.reg_stats.write(self.stats.forwarded)
            else:
                self.stats.dropped_overflow += 1
        else:
            self.stats.dropped_checksum += 1
        # Chain the next buffered packet combinationally so the board
        # can drain the backlog within one synchronization window.
        if not self.buffer.is_empty:
            self._load_next()
        else:
            self._write_status()
