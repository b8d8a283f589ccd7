"""The paper's SystemC kernel extension (Section 5.2).

The DATE'05 methodology modifies the SystemC kernel with:

* two new port classes, ``driver_in`` and ``driver_out``, "devoted
  exclusively to the communication between a module and the OS running
  on the board" — here :class:`DriverIn` and :class:`DriverOut`;
* a special process kind, ``driver_process``, "triggered when a new
  data is present on a driver_in port" — here :func:`driver_process`;
* a modified simulation entry point, ``driver_simulate``, which opens
  the communication channels and interleaves DATA-port servicing,
  regular simulation cycles and interrupt forwarding — here the one
  window loop, :meth:`repro.cosim.session.CosimSession.run`, driving a
  :class:`repro.cosim.master.CosimMaster` that serves DATA, simulates
  and forwards interrupts on this simulator.

The simulator keeps no interrupt state of its own: the master observes
each bound request signal and forwards its rising edges
(:meth:`repro.cosim.master.CosimMaster.bind_interrupt`).

Driver ports are addressed by small integer *register addresses* so the
remote DATA protocol can name them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.errors import ElaborationError, SimulationError
from repro.simkernel.events import Event
from repro.simkernel.kernel import Simulator
from repro.simkernel.module import Module
from repro.simkernel.signals import Signal


class DriverIn:
    """A register the remote software *writes* into the hardware model.

    Unlike a plain signal, every external write raises ``data_written``
    even when the value is unchanged: "a driver process will be
    triggered when a new data is present on a driver_in port", and two
    identical commands are still two commands.
    """

    def __init__(self, module: Module, name: str, init: Any = None) -> None:
        self.module = module
        self.name = name
        self.signal = Signal(module.sim, f"{module.full_name}.{name}", init)
        self.data_written = Event(module.sim,
                                  f"{module.full_name}.{name}.data_written")
        #: Number of external writes received.
        self.write_count = 0

    def read(self) -> Any:
        """Committed value, as seen by the hardware model."""
        return self.signal.read()

    @property
    def value(self) -> Any:
        return self.signal.read()

    def external_write(self, value: Any) -> None:
        """Called by the kernel on behalf of the remote board."""
        self.signal.write(value)
        self.write_count += 1
        self.data_written.notify_delta()


class DriverOut:
    """A register the remote software *reads* from the hardware model."""

    def __init__(self, module: Module, name: str, init: Any = None) -> None:
        self.module = module
        self.name = name
        self.signal = Signal(module.sim, f"{module.full_name}.{name}", init)
        #: Number of external reads served.
        self.read_count = 0

    def write(self, value: Any) -> None:
        """Called by the hardware model's own processes."""
        self.signal.write(value)

    def read(self) -> Any:
        return self.signal.read()

    @property
    def value(self) -> Any:
        return self.signal.read()

    def external_read(self) -> Any:
        """Called by the kernel on behalf of the remote board."""
        self.read_count += 1
        return self.signal.read()


DriverPort = Union[DriverIn, DriverOut]


def driver_process(module: Module, fn: Callable[[], None],
                   *ports: DriverIn, name: Optional[str] = None):
    """Register *fn* as a driver process sensitive to DriverIn writes.

    Mirrors the paper's ``driver_process``: "similarly to a sc_method, a
    driver process will be triggered when a new data is present on a
    driver_in port to which the process is sensitive".
    """
    if not ports:
        raise ElaborationError("driver_process needs at least one DriverIn")
    for port in ports:
        if not isinstance(port, DriverIn):
            raise ElaborationError(
                f"driver_process is sensitive to DriverIn ports only, "
                f"got {port!r}"
            )
    events = [p.data_written for p in ports]
    process = module.method(fn, sensitive=events, dont_initialize=True,
                            name=name or getattr(fn, "__name__", "driver"))
    # Tag the process so the static checker (rule SIM004) can verify
    # that every driver process hangs off a *mapped* register.
    process.driver_ports = tuple(ports)
    return process


class DriverSimulator(Simulator):
    """A simulator with the paper's remote-driver register file.

    Driver ports are registered at integer addresses; the co-simulation
    master services remote DATA requests through :meth:`external_write`
    and :meth:`external_read`, each followed by zero-time settlement so
    driver processes and downstream combinational logic react before the
    reply is sent — the paper's "advancing the driver process".
    """

    def __init__(self, name: str = "driver_sim",
                 max_deltas: int = 10_000) -> None:
        super().__init__(name, max_deltas)
        self._driver_ports: Dict[int, DriverPort] = {}

    # ------------------------------------------------------------------
    # Register file
    # ------------------------------------------------------------------
    def map_port(self, address: int, port: DriverPort) -> None:
        """Expose *port* to the remote board at *address*."""
        if address in self._driver_ports:
            raise ElaborationError(
                f"driver address {address:#x} is already mapped"
            )
        if not isinstance(port, (DriverIn, DriverOut)):
            raise ElaborationError(f"not a driver port: {port!r}")
        self._driver_ports[address] = port

    def port_at(self, address: int) -> DriverPort:
        try:
            return self._driver_ports[address]
        except KeyError:
            raise SimulationError(
                f"no driver port mapped at address {address:#x}"
            ) from None

    @property
    def mapped_addresses(self):
        return sorted(self._driver_ports)

    # ------------------------------------------------------------------
    # Remote access (DATA port servicing)
    # ------------------------------------------------------------------
    def external_write(self, address: int, value: Any) -> None:
        """Service a remote write: commit it and settle driver processes."""
        port = self.port_at(address)
        if not isinstance(port, DriverIn):
            raise SimulationError(
                f"driver address {address:#x} is read-only (DriverOut)"
            )
        port.external_write(value)
        self.settle()

    def external_read(self, address: int) -> Any:
        """Service a remote read against the settled model state."""
        self.settle()
        port = self.port_at(address)
        if not isinstance(port, DriverOut):
            raise SimulationError(
                f"driver address {address:#x} is write-only (DriverIn)"
            )
        return port.external_read()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        state = super().snapshot()
        state["driver"] = {
            "port_counts": {
                str(address): [getattr(port, "write_count", 0),
                               getattr(port, "read_count", 0)]
                for address, port in sorted(self._driver_ports.items())
            },
        }
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        if "port_counts" not in state.get("driver", {}):
            raise SimulationError(
                f"{self.name}: snapshot missing 'driver.port_counts'")
        for address, (writes, reads) in state["driver"]["port_counts"].items():
            port = self.port_at(int(address))
            if hasattr(port, "write_count"):
                port.write_count = writes
            if hasattr(port, "read_count"):
                port.read_count = reads
