"""The behavioral-router plugin is bit-exact against the netlist.

Every comparison holds the fmu-mounted run (plugin behind the FMI-style
boundary) to the ``inproc`` reference run of the *same* workload: trace
rows and the final board+stats digest must match bit for bit.  Faulted
runs compare board-visible recordings; the netlist plugin proves the
boundary is transparent even for the event-driven kernel itself.
"""

import pytest

from repro.cosim import CosimConfig
from repro.fmi.behavioral import BehavioralRouterModel
from repro.fmi.netlist import NetlistRouterModel
from repro.fmi.subproc import SubprocessPlugin
from repro.replay import SessionRecording, board_state_summary
from repro.replay.snapshot import state_digest
from repro.router.testbench import (
    RouterWorkload,
    build_router_cosim,
    finalize_router_recording,
)
from repro.transport.faults import FaultPlan

WORKLOADS = {
    "default": RouterWorkload(packets_per_producer=3, interval_cycles=60,
                              payload_size=8, corrupt_rate=0.25,
                              buffer_capacity=8, num_ports=4, seed=2005),
    "bursty": RouterWorkload(packets_per_producer=4, interval_cycles=50,
                             payload_size=6, corrupt_rate=0.1,
                             buffer_capacity=4, num_ports=2, seed=99,
                             burst_size=2, burst_gap_cycles=120),
}
CONFIG = CosimConfig(t_sync=75)
MAX_CYCLES = 1200


def _digest(cosim) -> str:
    return state_digest({
        "board": board_state_summary(cosim.runtime.board),
        "stats": cosim.stats.snapshot(),
    })


def _rows(recording):
    return [record.as_row() for record in recording.trace("board").records]


def _run_inproc(workload, fault_plan=None):
    recording = SessionRecording()
    cosim = build_router_cosim(CONFIG, workload, mode="inproc",
                               fault_plan=fault_plan, recorder=recording)
    metrics = cosim.run(max_cycles=MAX_CYCLES, await_drain=False)
    finalize_router_recording(recording, cosim, metrics)
    return _rows(recording), _digest(cosim), metrics


def _run_fmu(workload, plugin=None, fault_plan=None):
    recording = SessionRecording()
    cosim = build_router_cosim(CONFIG, workload,
                               plugin=plugin or BehavioralRouterModel(),
                               fault_plan=fault_plan, recorder=recording)
    metrics = cosim.run(max_cycles=MAX_CYCLES, await_drain=False)
    finalize_router_recording(recording, cosim, metrics)
    return _rows(recording), _digest(cosim), metrics


class TestBehavioralEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_rows_and_digest_match_inproc(self, name):
        workload = WORKLOADS[name]
        ref_rows, ref_digest, ref_metrics = _run_inproc(workload)
        rows, digest, metrics = _run_fmu(workload)
        assert rows == ref_rows
        assert digest == ref_digest
        assert metrics.windows == ref_metrics.windows
        assert metrics.master_cycles == ref_metrics.master_cycles

    def test_faulted_run_matches_inproc(self):
        # FaultPlan objects are consumed as faults fire — each run gets
        # its own instance, never a shared one.
        workload = WORKLOADS["default"]
        ref = _run_inproc(workload,
                          fault_plan=FaultPlan(drop_interrupts={1}))
        got = _run_fmu(workload,
                       fault_plan=FaultPlan(drop_interrupts={1}))
        assert got[0] == ref[0]
        assert got[1] == ref[1]

    def test_drain_parity(self):
        # With await_drain the fmu session must stop on the plugin's
        # reported done-ness at the same window as the netlist run.
        workload = WORKLOADS["default"]
        ref = build_router_cosim(CONFIG, workload, mode="inproc")
        ref_metrics = ref.run(await_drain=True)
        got = build_router_cosim(CONFIG, workload,
                                 plugin=BehavioralRouterModel())
        got_metrics = got.run(await_drain=True)
        assert got_metrics.windows == ref_metrics.windows
        assert _digest(got) == _digest(ref)
        assert got.stats.snapshot() == ref.stats.snapshot()


class TestOtherMounts:
    def test_netlist_mount_matches_inproc(self):
        workload = WORKLOADS["default"]
        ref_rows, ref_digest, _ = _run_inproc(workload)
        rows, digest, _ = _run_fmu(workload, plugin=NetlistRouterModel())
        assert rows == ref_rows
        assert digest == ref_digest

    def test_subprocess_mount_matches_inproc(self):
        workload = WORKLOADS["default"]
        ref_rows, ref_digest, _ = _run_inproc(workload)
        plugin = SubprocessPlugin(
            "repro.fmi.behavioral:BehavioralRouterModel")
        rows, digest, _ = _run_fmu(workload, plugin=plugin)
        assert rows == ref_rows
        assert digest == ref_digest
