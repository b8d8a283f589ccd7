"""Speculation guard rails and wiring regressions.

The speculation machinery's *refusals* — every combination that holds
state outside the snapshot tree (a fault plan) or inspects live state
between windows (done() probe, adaptive policy, threaded transport)
must be rejected or degraded, never silently speculated over.  The happy-path equivalence lives in
``test_optimistic_properties.py``; the seeded-defect convictions in
``test_optimistic_defects.py``.
"""

import pytest

from repro.cosim import CosimConfig
from repro.errors import ProtocolError
from repro.router.testbench import RouterWorkload, build_router_cosim

IDLE = dict(packets_per_producer=0)
BUSY = dict(packets_per_producer=2, interval_cycles=1000,
            corrupt_rate=0.0)


def build(depth=2, workload=IDLE, **kwargs):
    return build_router_cosim(
        CosimConfig(t_sync=400, speculation_depth=depth),
        RouterWorkload(**workload), **kwargs)


class TestConfig:
    def test_negative_depth_rejected(self):
        with pytest.raises(ProtocolError, match="speculation_depth"):
            CosimConfig(speculation_depth=-1)

    def test_testbench_wires_optimistic_session(self):
        # Speculation is a window execution of the one session loop,
        # switched on by the depth alone.
        cosim = build(depth=3)
        metrics = cosim.run(max_cycles=4000, await_drain=False)
        assert metrics.windows_speculated > 0
        conservative = build(depth=0)
        metrics = conservative.run(max_cycles=4000, await_drain=False)
        assert metrics.windows_speculated == 0

    def test_metrics_summary_reports_speculation(self):
        cosim = build(depth=4)
        metrics = cosim.run(max_cycles=4000, await_drain=False)
        assert metrics.windows_speculated > 0
        summary = metrics.summary()
        assert "speculated=" in summary
        assert "rollbacks=0" in summary


class TestFaultExclusion:
    def test_run_refuses_fault_injected_link(self):
        from repro.transport.faults import FaultPlan

        cosim = build(depth=2, workload=BUSY,
                      fault_plan=FaultPlan(drop_interrupts={1}))
        with pytest.raises(ProtocolError, match="fault"):
            cosim.run(max_cycles=2000, await_drain=False)


class TestDegradation:
    def test_done_probe_degrades_to_conservative(self):
        # A drain condition inspects live state between windows, which
        # is meaningless while the board runs ahead: the session must
        # run conservatively (and therefore never speculate).
        cosim = build(depth=4, workload=BUSY)
        metrics = cosim.run(max_cycles=6000)  # await_drain=True
        assert metrics.windows > 0
        assert metrics.windows_speculated == 0
        assert metrics.rollbacks == 0

    def test_adaptive_plus_speculation_rejected(self):
        from repro.cosim.adaptive import AdaptivePolicy

        cosim = build(depth=2, adaptive=AdaptivePolicy())
        with pytest.raises(ProtocolError, match="adaptive"):
            cosim.run(max_cycles=2000, await_drain=False)
        assert cosim.master.clock.cycles == 0

    def test_threaded_transport_plus_speculation_rejected(self):
        cosim = build(depth=2, mode="tcp")
        with pytest.raises(ProtocolError, match="in-process"):
            cosim.run(max_cycles=2000, await_drain=False)
        assert cosim.master.clock.cycles == 0
