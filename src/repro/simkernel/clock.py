"""Clock generator module (SystemC ``sc_clock`` analogue)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.simkernel.events import Event
from repro.simkernel.module import Module
from repro.simkernel.signals import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator


class Clock(Module):
    """A free-running clock driving a boolean signal.

    The first posedge occurs at ``start_time`` (default: time 0 is low,
    the first rising edge lands after ``start_time`` ps).  ``cycles``
    counts committed rising edges — the paper's simulated-cycle count.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        period: int,
        duty: float = 0.5,
        start_time: int = 0,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        if period <= 0:
            raise SimulationError(f"clock {name}: period must be positive")
        high = int(period * duty)
        if not 0 < high < period:
            raise SimulationError(f"clock {name}: invalid duty cycle {duty}")
        self.period = period
        #: Delay from an edge that commits level ``L`` to the next edge,
        #: indexed by ``L``; the one table the toggle process, the
        #: kernel's runs of inline edges and its leap read.
        self._gaps = (period - high, high)
        self.signal = Signal(sim, f"{name}.sig", init=False)
        #: Number of rising edges that have occurred.
        self.cycles = 0
        self._tick = Event(sim, f"{name}.tick")
        # The kernel applies free-running edges itself (a run of them
        # inline, or a whole quiet stretch by leaping); the
        # back-reference lets it find the clock from the tick it pops.
        self._tick._clock = self
        self._toggle_proc = self.method(
            self._toggle, sensitive=[self._tick], dont_initialize=True)
        # Schedule the first rising edge.
        if start_time == 0:
            self._tick.notify_delta()
        else:
            self._tick.notify(start_time)

    @property
    def posedge(self) -> Event:
        return self.signal.posedge

    @property
    def negedge(self) -> Event:
        return self.signal.negedge

    def read(self) -> bool:
        return bool(self.signal.read())

    def snapshot(self) -> dict:
        """Checkpoint state: the committed edge count.

        The waveform itself (signal level, next toggle time) lives in
        the kernel's signal/timed-event snapshot.
        """
        return {"cycles": self.cycles}

    def restore(self, state: dict) -> None:
        if "cycles" not in state:
            raise SimulationError(f"clock {self.name}: snapshot missing "
                                  "'cycles'")
        self.cycles = state["cycles"]

    def _free_running(self) -> bool:
        """True when firing the tick can only run the toggle process:
        no dynamic waiters, no other static consumer, toggle alive.
        The kernel may then apply an edge without scheduling it."""
        tick = self._tick
        if tick.dynamic_waiters or len(tick.static_sensitive) != 1:
            return False
        proc = tick.static_sensitive[0]
        return proc is self._toggle_proc and not proc.terminated

    def _toggle(self) -> None:
        """The edge leaving the committed level: count it when rising,
        write the new level and arm the tick for the edge after it.
        The kernel applies the same edge inline
        (:meth:`~repro.simkernel.kernel.Simulator._clock_edges`)."""
        level = not self.signal._current
        if level:
            self.cycles += 1
        self.signal.write(level)
        self._tick.notify(self._gaps[level])
