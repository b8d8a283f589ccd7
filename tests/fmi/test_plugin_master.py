"""A plugin master is a :class:`~repro.cosim.master.CosimMaster`.

Every session feature runs on a plugin mount exactly as on the
netlist, adaptive windows included: the adapter ends a reactive window
at the first interrupt edge through the contract's step and
snapshot/restore.
"""

import pytest

from repro.board.board import BoardConfig
from repro.cosim import (
    BoardSlot,
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    CosimSession,
    ProtocolTrace,
    TracingConfig,
)
from repro.cosim.adaptive import AdaptivePolicy
from repro.fmi import FmuMasterAdapter, router_plugin_config
from repro.fmi.behavioral import BehavioralRouterModel
from repro.fmi.netlist import NetlistRouterModel
from repro.replay import (
    SessionRecording,
    board_state_summary,
    find_divergence,
)
from repro.replay.snapshot import state_digest
from repro.router.testbench import (
    RouterWorkload,
    build_router_board_side,
    build_router_cosim,
    finalize_router_recording,
    replay_router_recording,
)
from repro.staticcheck.replay_rules import check_snapshotability
from repro.transport.tcp import TcpLink

#: Sparse traffic: busy windows early, then a long idle tail in which
#: the board is quiescent and speculation has windows to run ahead on.
WORKLOAD = dict(packets_per_producer=2, interval_cycles=1500,
                payload_size=16, corrupt_rate=0.0, seed=11)
MAX_CYCLES = 14_000


def _cosim(**config):
    return build_router_cosim(CosimConfig(t_sync=1000, **config),
                              RouterWorkload(**WORKLOAD),
                              plugin=BehavioralRouterModel())


def _run(**config):
    cosim = _cosim(**config)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run(max_cycles=MAX_CYCLES, await_drain=False)
    return {
        "rows": [record.as_row() for record in trace.records],
        "board": board_state_summary(cosim.runtime.board),
        "stats": cosim.stats.snapshot(),
        "speculated": metrics.windows_speculated,
    }


def test_adapter_is_the_one_master():
    cosim = _cosim()
    assert isinstance(cosim.master, CosimMaster)
    # The plugin layout: the master's counters, then the plugin subtree.
    assert list(cosim.master.snapshot()) == [
        "protocol", "interrupts_sent", "data_reads_served",
        "data_writes_served", "cycles", "plugin"]


#: A policy whose windows shrink to 10 ticks around interrupts and
#: grow to 800 over the idle tail.
ADAPTIVE = AdaptivePolicy(min_t_sync=10, initial_t_sync=100,
                          max_t_sync=800)
ADAPTIVE_CYCLES = 6000


def _adaptive_run(plugin=None, mode="inproc"):
    cosim = build_router_cosim(CosimConfig(t_sync=1000, report_timeout_s=5.0),
                               RouterWorkload(**WORKLOAD), mode=mode,
                               adaptive=ADAPTIVE, plugin=plugin)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run(max_cycles=ADAPTIVE_CYCLES, await_drain=False)
    return {
        "rows": [record.as_row() for record in trace.records],
        "board": state_digest(board_state_summary(cosim.runtime.board)),
        "stats": cosim.stats.snapshot(),
        "windows": list(cosim.session.controller.trace),
        "cycles": metrics.master_cycles,
    }


class TestAdaptive:
    """An adaptive plugin session runs bit-identically to the netlist
    master's adaptive run."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _adaptive_run()

    @pytest.mark.parametrize("mode", ["inproc", "tcp"])
    @pytest.mark.parametrize("model", [BehavioralRouterModel,
                                       NetlistRouterModel])
    def test_matches_the_netlist_master_run(self, reference, model, mode):
        run = _adaptive_run(model(), mode)
        # The run has early windows to get right, and long idle ones.
        assert min(reference["windows"]) < 100
        assert max(reference["windows"]) == 800
        assert any(row[4] for row in reference["rows"])
        for key in ("rows", "board", "stats", "windows", "cycles"):
            assert run[key] == reference[key], key

    def test_cosim005_is_clean(self):
        session = _cosim().session
        session.attach_adaptive(ADAPTIVE)
        assert [d for d in check_snapshotability(session)
                if d.severity == "error"] == []


def test_netlist_plugin_stats_stay_live_across_restore():
    # The netlist plugin restores by rebuilding its netlist; the stats
    # the mount handed out must follow the rebuilt netlist.
    cosim = build_router_cosim(
        CosimConfig(t_sync=100),
        RouterWorkload(packets_per_producer=20, interval_cycles=200,
                       payload_size=8, seed=3),
        plugin=NetlistRouterModel())
    session = cosim.session
    session.run(max_windows=5)
    state = session.snapshot()
    at_five = cosim.stats.snapshot()
    session.run(max_windows=10)
    assert cosim.stats.generated > at_five["generated"]
    session.restore(state)
    assert cosim.stats.snapshot() == at_five
    session.run(max_windows=12)
    assert cosim.stats.generated > at_five["generated"]
    assert cosim.stats is cosim.master.plugin.stats


class TestSpeculation:
    @pytest.mark.parametrize("tracing", [False, True])
    def test_matches_the_conservative_plugin_run(self, tracing):
        tracing = TracingConfig(enabled=tracing)
        reference = _run(tracing=tracing)
        speculative = _run(tracing=tracing, speculation_depth=4)
        assert speculative["speculated"] > 0
        assert reference["speculated"] == 0
        for key in ("rows", "board", "stats"):
            assert speculative[key] == reference[key], key


def test_threaded_plugin_session_runs():
    # The master's threaded window steps the plugin like the netlist.
    config = CosimConfig(t_sync=200, report_timeout_s=5.0)
    workload = RouterWorkload(**WORKLOAD)
    link = TcpLink()
    plugin = BehavioralRouterModel()
    plugin.init(router_plugin_config(config, workload), workload.seed)
    master = FmuMasterAdapter(plugin, link.master, config)
    board, _driver, _app = build_router_board_side(link.board, config,
                                                   BoardConfig())
    runtime = CosimBoardRuntime(board, link.board, config)
    session = CosimSession(master, [BoardSlot("board", link, runtime)],
                           config)
    try:
        metrics = session.run(max_cycles=6000)
    finally:
        session.close()
    assert metrics.master_cycles == metrics.board_ticks == 6000
    assert session.aligned()
    assert metrics.int_packets == master.interrupts_sent > 0
    assert master.data_reads_served > 0


@pytest.mark.parametrize("mode", ["tcp"])
def test_builder_mounts_a_plugin_on_threaded_links(mode):
    cosim = build_router_cosim(CosimConfig(t_sync=200),
                               RouterWorkload(**WORKLOAD), mode=mode,
                               plugin=BehavioralRouterModel())
    assert cosim.session.threaded
    metrics = cosim.run()
    assert cosim.drained()
    assert metrics.board_ticks == metrics.master_cycles > 0
    stats = cosim.stats.snapshot()
    assert stats["generated"] == 2 * RouterWorkload().num_ports
    assert (stats["forwarded"] + stats["dropped_overflow"]
            + stats["dropped_checksum"] + stats["dropped_unroutable"]
            == stats["generated"])


def test_inproc_plugin_recording_replays_bit_identically():
    recording = SessionRecording()
    cosim = build_router_cosim(CosimConfig(t_sync=1000),
                               RouterWorkload(**WORKLOAD), mode="inproc",
                               plugin=BehavioralRouterModel(),
                               recorder=recording)
    cosim.session.attach_trace(ProtocolTrace())
    metrics = cosim.run(max_cycles=MAX_CYCLES, await_drain=False)
    finalize_router_recording(recording, cosim, metrics)
    assert recording.meta["threaded"] is False
    loaded = SessionRecording.from_dict(recording.to_dict())
    result = replay_router_recording(loaded)
    assert find_divergence(loaded, result).clean
    assert [r.as_row() for r in result.trace.records] == \
        [r.as_row() for r in recording.trace("board").records]
    assert result.board_summary == recording.final["boards"]["board"]
