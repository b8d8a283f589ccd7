"""The full Section 6 HW/SW configuration, assembled.

"The overall HW/SW configuration consists of the following entities:
model of the router; model of the packet generator (producer) ...;
model of the packet destination (consumer) ...; C application computing
the checksum, executing on a SCM220 Ultimodule board running the eCos
operating system."

:func:`build_router_cosim` wires all of it to a chosen transport and
returns a :class:`RouterCosim` handle with ``run()`` and the paper's
metrics.  The hardware side is the router netlist, or any conforming
plugin (:mod:`repro.fmi`) mounted in its place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.board.board import Board, BoardConfig
from repro.cosim.board_runtime import CosimBoardRuntime
from repro.cosim.config import CosimConfig
from repro.cosim.master import CosimMaster, build_driver_sim
from repro.cosim.metrics import CosimMetrics
from repro.cosim.session import BoardSlot, CosimSession
from repro.errors import ProtocolError, WorkloadError
from repro.router.app import ChecksumApp, install_checksum_app
from repro.router.consumer import Consumer
from repro.router.driver import RouterDriver
from repro.router.packet import MAX_PAYLOAD
from repro.router.producer import Producer
from repro.router.router import (
    REG_PACKET,
    REG_STATS,
    REG_STATUS,
    REG_VERDICT,
    Router,
)
from repro.router.routing_table import RoutingTable
from repro.router.stats import WorkloadStats
from repro.simkernel.clock import Clock
from repro.simkernel.driver_ext import DriverSimulator
from repro.transport.inproc import InprocLink

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.faults import FaultPlan

INPROC = "inproc"
TCP = "tcp"

#: The name of the case study's one board, in sessions and recordings.
ROUTER_BOARD = "board"


def check_value(name: str, value: Any, kind: type,
                low: Any = None, high: Any = None) -> Any:
    """*value* as a *kind* within ``[low, high]`` (None: unbounded), or
    :class:`WorkloadError`.  A bool is not a number, and an int is
    taken where a float is expected."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (
            isinstance(value, bool) and kind is not bool):
        raise WorkloadError(
            f"{name} must be {kind.__name__}, got {value!r}")
    if kind is float:
        value = float(value)
    # Written so that NaN fails both comparisons.
    if (low is not None and not value >= low) or (
            high is not None and not value <= high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise WorkloadError(f"{name} must be {bounds}, got {value!r}")
    return value


def check_keys(doc: Any, known, what: str) -> None:
    """Raise :class:`WorkloadError` unless *doc* is a dict whose keys
    are all in *known*; *what* names them in the message."""
    if not isinstance(doc, dict):
        raise WorkloadError(
            f"expected an object of {what}, got {type(doc).__name__}")
    unknown = sorted(map(str, set(doc) - set(known)))
    if unknown:
        raise WorkloadError(f"unknown {what}: {unknown}")


def read_keys(doc: Any, schema: dict, what: str) -> dict:
    """*doc* read against *schema* (key -> ``(default, type, bounds...)``)
    with the defaults filled in; see :func:`check_keys` and
    :func:`check_value` for what is refused."""
    check_keys(doc, schema, what)
    return {key: check_value(key, doc.get(key, default), *spec)
            for key, (default, *spec) in schema.items()}


@dataclass
class RouterWorkload:
    """Workload knobs for the router case study.

    Defaults reproduce the regime of the paper's plots: four producers
    injecting one packet per ``interval_cycles`` each, a 20-packet
    internal buffer — which puts the Figure 7 accuracy knee near
    ``T_sync = buffer_capacity * interval_cycles / num_ports = 5000``.

    Each field's default fixes its type and its metadata its bounds,
    checked on construction (:class:`WorkloadError`).  :meth:`to_dict`
    and :meth:`from_dict` are the one plain-data form that recordings,
    checkpoints, plugin configs, farm jobs and fuzz specs carry.
    """

    packets_per_producer: int = field(default=25, metadata={"min": 0})
    interval_cycles: int = field(default=1000, metadata={"min": 1})
    payload_size: int = field(default=32,
                              metadata={"min": 0, "max": MAX_PAYLOAD})
    corrupt_rate: float = field(default=0.05,
                                metadata={"min": 0.0, "max": 1.0})
    buffer_capacity: int = field(default=20, metadata={"min": 1})
    #: The 8-bit address space is split evenly over the ports.
    num_ports: int = field(default=4, metadata={"min": 1, "max": 256})
    seed: int = 2005
    #: Bursty traffic: packets per burst and idle gap between bursts.
    burst_size: int = field(default=1, metadata={"min": 1})
    burst_gap_cycles: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        for f in fields(self):
            setattr(self, f.name, check_value(
                f.name, getattr(self, f.name), type(f.default),
                f.metadata.get("min"), f.metadata.get("max")))

    @property
    def total_packets(self) -> int:
        return self.packets_per_producer * self.num_ports

    def estimated_cycles(self) -> int:
        """Generous master-cycle bound for the whole run."""
        generation = self.packets_per_producer * self.interval_cycles
        if self.burst_gap_cycles:
            bursts = -(-self.packets_per_producer // self.burst_size)
            generation += bursts * self.burst_gap_cycles
        return generation + 20 * self.interval_cycles + 10_000

    def to_dict(self) -> dict:
        """Every field, flat, in declaration order."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Any) -> "RouterWorkload":
        """The strict inverse of :meth:`to_dict`; missing keys take
        their defaults."""
        check_keys(doc, {f.name for f in fields(cls)}, "workload keys")
        return cls(**doc)

    @classmethod
    def split(cls, doc: dict) -> Tuple["RouterWorkload", dict]:
        """:meth:`from_dict` over *doc*'s workload keys, and the rest of
        *doc* for the caller to check."""
        ours = {f.name for f in fields(cls)}
        return (cls.from_dict({k: v for k, v in doc.items() if k in ours}),
                {k: v for k, v in doc.items() if k not in ours})


@dataclass
class RouterNetlist:
    """The router hardware, elaborated on its own simulator: router,
    producers and consumers sharing one :class:`WorkloadStats`."""

    sim: DriverSimulator
    clock: Clock
    router: Router
    producers: List[Producer]
    consumers: List[Consumer]
    stats: WorkloadStats


def build_router_netlist(name: str, workload: RouterWorkload,
                         config: CosimConfig,
                         stats: Optional[WorkloadStats] = None
                         ) -> RouterNetlist:
    """Elaborate the case study's hardware for *workload*: the router
    with its registers mapped on the simulator's DATA port, one
    producer and one consumer per port, all recording into *stats* (a
    fresh :class:`WorkloadStats` by default).  The co-simulated
    testbench, the netlist plugin and both baselines all build it
    here."""
    sim, clock = build_driver_sim(name, config=config)
    if stats is None:
        stats = WorkloadStats()
    table = RoutingTable.uniform(workload.num_ports,
                                 addresses_per_port=256 // workload.num_ports)
    router = Router(sim, "router", clock, table, stats,
                    buffer_capacity=workload.buffer_capacity,
                    num_ports=workload.num_ports)
    sim.map_port(REG_STATUS, router.reg_status)
    sim.map_port(REG_PACKET, router.reg_packet)
    sim.map_port(REG_VERDICT, router.reg_verdict)
    sim.map_port(REG_STATS, router.reg_stats)
    producers = [
        Producer(sim, f"producer{i}", router, i, clock, stats, workload)
        for i in range(workload.num_ports)
    ]
    consumers = [
        Consumer(sim, f"consumer{i}", router, i, clock, stats)
        for i in range(workload.num_ports)
    ]
    return RouterNetlist(sim, clock, router, producers, consumers, stats)


def packets_drained(producers: List[Producer], stats: WorkloadStats) -> bool:
    """Every producer is done and every generated packet has reached a
    terminal outcome (forwarded or dropped)."""
    if not all(p.done for p in producers):
        return False
    terminal = (stats.forwarded + stats.dropped_overflow
                + stats.dropped_checksum + stats.dropped_unroutable)
    return terminal >= stats.generated


class RouterCosim:
    """One fully wired co-simulation of the router case study."""

    def __init__(self, session, master: CosimMaster,
                 runtime: CosimBoardRuntime, router: Optional[Router],
                 producers: List[Producer], consumers: List[Consumer],
                 app: ChecksumApp, driver: RouterDriver,
                 stats: WorkloadStats, workload: RouterWorkload) -> None:
        self.session = session
        self.master = master
        self.runtime = runtime
        self.router = router
        self.producers = producers
        self.consumers = consumers
        self.app = app
        self.driver = driver
        self.stats = stats
        self.workload = workload

    def drained(self) -> bool:
        """All packets generated and accounted for (terminal outcomes)."""
        return packets_drained(self.producers, self.stats)

    def run(self, max_cycles: Optional[int] = None,
            await_drain: bool = True) -> CosimMetrics:
        """Run to completion; returns the co-simulation metrics.

        With ``await_drain=False`` the session runs for exactly
        *max_cycles* regardless of workload progress — useful when two
        runs must cover an identical number of windows (e.g. comparing
        a faulted run against a fault-free one).
        """
        bound = max_cycles or (4 * self.workload.estimated_cycles())
        done = self.drained if await_drain else None
        try:
            return self.session.run(max_cycles=bound, done=done)
        finally:
            self.close()

    def close(self) -> None:
        """Release the link (sockets, in TCP mode)."""
        self.session.close()

    def accuracy(self) -> float:
        """Figure 7's metric: fraction of packets handled."""
        return self.stats.handled_fraction()


def build_router_board_side(board_ep, config: CosimConfig,
                            board_config: BoardConfig,
                            iss_timing: bool = False):
    """The board half of the case study: eCos kernel, router driver,
    checksum application.  Shared by the live testbench and the replay
    harness (which substitutes a recorded endpoint for *board_ep*)."""
    board = Board(board_config)
    driver = RouterDriver(board.kernel, board_ep, config.latency,
                          vector=config.remote_vector)
    verifier = None
    if iss_timing:
        from repro.iss.rtos_bridge import IssChecksumVerifier

        verifier = IssChecksumVerifier()
    app = install_checksum_app(board.kernel, driver, board_config.work,
                               verifier=verifier)
    return board, driver, app


def build_router_cosim(
    config: Optional[CosimConfig] = None,
    workload: Optional[RouterWorkload] = None,
    board_config: Optional[BoardConfig] = None,
    mode: str = INPROC,
    adaptive=None,
    iss_timing: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    recorder=None,
    plugin=None,
) -> RouterCosim:
    """Assemble the complete case study on the chosen transport.

    *mode* names the link: ``"inproc"`` or ``"tcp"``.  Pass
    an :class:`repro.cosim.adaptive.AdaptivePolicy` as *adaptive* (any
    link) to run with the feedback-controlled window size instead of a
    fixed ``T_sync``.  With ``iss_timing`` the
    checksum application *executes* its routine on the bundled ISS
    instead of charging the coarse work-model cost.  A *fault_plan*
    wraps the board endpoint in a saboteur
    (:class:`~repro.transport.faults.FaultyBoardEndpoint`); in TCP mode
    this exercises disconnect recovery end to end.  A *recorder* (a
    :class:`repro.replay.SessionRecording`) wraps the board endpoint
    outermost — outside any fault injector — so the board's rows hold
    the exact message stream it consumed, fault effects included.

    A *plugin* (see :mod:`repro.fmi`) replaces the router netlist on
    the hardware side, on any transport: ``init`` is called here with
    the router config and the workload seed, and ``terminate`` when the
    run ends (:meth:`RouterCosim.close`).
    """
    config = config or CosimConfig()
    workload = workload or RouterWorkload()
    board_config = board_config or BoardConfig()

    # ------------------------------------------------------------------
    # Transport (an optional feature's module is imported where it is
    # configured, so a run compiles only what it executes)
    # ------------------------------------------------------------------
    if mode == INPROC:
        link = InprocLink()
    elif mode == TCP:
        from repro.transport.tcp import TcpLink

        link = TcpLink()
    else:
        raise ProtocolError(f"unknown transport mode {mode!r}")
    try:
        return _assemble(link, config, workload, board_config, mode,
                         adaptive, iss_timing, fault_plan, recorder, plugin)
    except BaseException:
        link.close()
        raise


def _assemble(link, config: CosimConfig, workload: RouterWorkload,
              board_config: BoardConfig, mode: str, adaptive,
              iss_timing: bool, fault_plan: Optional[FaultPlan], recorder,
              plugin) -> RouterCosim:
    """The rest of :func:`build_router_cosim`, over an open *link*."""
    board_ep = link.board
    if fault_plan is not None:
        from repro.transport.faults import FaultyBoardEndpoint

        board_ep = FaultyBoardEndpoint(board_ep, fault_plan)

    if recorder is not None:
        from repro.replay import RecordingBoardEndpoint

        recorder.meta.update(
            router_run_meta(config, workload, mode=mode,
                            iss_timing=iss_timing))
        board_ep = RecordingBoardEndpoint(board_ep, recorder, ROUTER_BOARD)

    # ------------------------------------------------------------------
    # Hardware side (the master: the netlist, or a plugin)
    # ------------------------------------------------------------------
    if plugin is None:
        hw = build_router_netlist("router_hw", workload, config)
        master = CosimMaster(hw.sim, hw.clock, link.master, config,
                             interrupt_signal=hw.router.irq)
    else:
        from repro.fmi.adapter import FmuRouterCosim, mount_router_plugin

        master, plugin_stats = mount_router_plugin(plugin, link.master,
                                                   config, workload)

    # ------------------------------------------------------------------
    # Software side (the board)
    # ------------------------------------------------------------------
    board, driver, app = build_router_board_side(
        board_ep, config, board_config, iss_timing=iss_timing)
    runtime = CosimBoardRuntime(board, board_ep, config)

    # ------------------------------------------------------------------
    # Session
    # ------------------------------------------------------------------
    session = CosimSession(master,
                           [BoardSlot(ROUTER_BOARD, link, runtime)], config)
    if adaptive is not None:
        session.attach_adaptive(adaptive)

    # Workload-level state that lives outside the master/board trees
    # joins the checkpoint under extra/.  Sides matter to speculation:
    # the workload stats are mutated by the hardware model, the
    # checksum app by board software.  A plugin's stats are part of
    # its own snapshot, inside the master's.
    if plugin is None:
        session.register_snapshotable("workload_stats", hw.stats,
                                      side="master")
    session.register_snapshotable("checksum_app", app, side="board")

    if app.verifier is not None:
        app.verifier.obs = session.obs

    if plugin is None:
        return RouterCosim(session, master, runtime, hw.router,
                           hw.producers, hw.consumers, app, driver,
                           hw.stats, workload)
    return FmuRouterCosim(session, master, runtime, None, [], [], app,
                          driver, plugin_stats, workload)


#: The run keys :func:`router_run_meta` stamps beside the workload's
#: (default, type, bounds).
_RUN_META = {"scenario": (None, str), "mode": (INPROC, str),
             "threaded": (False, bool), "t_sync": (1000, int, 1),
             "iss_timing": (False, bool)}


def router_run_meta(config: CosimConfig, workload: RouterWorkload,
                    mode: str = INPROC,
                    iss_timing: bool = False) -> dict:
    """The knobs needed to rebuild an identical router run — stamped
    into recordings and checkpoints so replay/restore can reconstruct
    the session without out-of-band information.  The workload's keys
    sit flat beside the run keys; :func:`router_run_from_meta` inverts
    it."""
    return {
        "scenario": "router",
        "mode": mode,
        "threaded": mode != INPROC,
        "t_sync": config.t_sync,
        **workload.to_dict(),
        "iss_timing": iss_timing,
    }


def router_run_from_meta(
        meta: dict) -> Tuple[CosimConfig, RouterWorkload, bool]:
    """The inverse of :func:`router_run_meta`: the config, workload and
    ``iss_timing`` of the stamped run.  Meta read from a file is outside
    input (a checkpoint's digest does not cover it), so any malformed
    key raises :class:`WorkloadError` before anything is built."""
    workload, rest = RouterWorkload.split(meta)
    run = read_keys(rest, _RUN_META, "run meta keys")
    if run["scenario"] != "router":
        raise WorkloadError(f"cannot rebuild scenario "
                            f"{run['scenario']!r} (only 'router')")
    return CosimConfig(t_sync=run["t_sync"]), workload, run["iss_timing"]


def finalize_router_recording(recording, cosim: RouterCosim,
                              metrics: CosimMetrics) -> None:
    """Stamp end-of-run ground truth into *recording* after a recorded
    run completes: the board's counters, workload stats and metrics."""
    recording.finish(cosim.session)
    recording.final["stats"] = cosim.stats.snapshot()
    recording.final["metrics"] = {
        "windows": metrics.windows,
        "master_cycles": metrics.master_cycles,
        "board_ticks": metrics.board_ticks,
        "int_packets": metrics.int_packets,
        "data_messages": metrics.data_messages,
    }


def replay_router_recording(recording, strict: bool = True,
                            config: Optional[CosimConfig] = None,
                            board_config: Optional[BoardConfig] = None):
    """Replay a recorded router co-simulation: rebuild the board side
    from ``recording.meta``, feed it the recorded message stream, and
    return the :class:`repro.replay.ReplayResult`.

    No sockets are opened, no threads are started and no wall clock is
    read — the recording fully determines the board's inputs.  Malformed
    meta raises :class:`WorkloadError` (see :func:`router_run_from_meta`),
    and so does a recording of any boards but the one router board.
    """
    from repro.replay import replay_recording

    if list(recording.boards) != [ROUTER_BOARD]:
        raise WorkloadError(
            f"recording holds boards {sorted(recording.boards)}, not the "
            f"router case study's one board {ROUTER_BOARD!r}: replay each "
            f"board through repro.replay.replay_recording")
    run_config, _workload, iss_timing = router_run_from_meta(
        recording.meta)
    config = config or run_config
    board_config = board_config or BoardConfig()

    obs_targets = []

    def factory(endpoint):
        board, _driver, app = build_router_board_side(
            endpoint, config, board_config, iss_timing=iss_timing)
        if app.verifier is not None:
            obs_targets.append(app.verifier)
        return board

    return replay_recording(recording, factory, ROUTER_BOARD,
                            config=config, strict=strict,
                            obs_targets=obs_targets)
