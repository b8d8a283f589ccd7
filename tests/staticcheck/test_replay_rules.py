"""COSIM005: checkpointing sessions must be fully snapshotable."""

import pytest

from repro.cosim import CosimConfig
from repro.replay import Checkpointer
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.staticcheck import check_snapshotability
from repro.staticcheck.diagnostics import RULES, WARNING


class NotSnapshotable:
    def __init__(self, name="bogus"):
        self.name = name


class HalfSnapshotable:
    name = "half"

    def snapshot(self):
        return {}


@pytest.fixture
def session():
    cosim = build_router_cosim(
        CosimConfig(t_sync=300),
        RouterWorkload(packets_per_producer=2, interval_cycles=300,
                       corrupt_rate=0.0, seed=3),
        mode="inproc")
    return cosim.session


class TestRuleCatalogue:
    def test_cosim005_registered_as_warning(self):
        rule = RULES["COSIM005"]
        assert rule.slug == "not-snapshotable"
        assert rule.severity == WARNING


class TestCheckSnapshotability:
    def test_router_design_is_clean(self, session):
        assert check_snapshotability(session, assume_enabled=True) == []

    def test_gap_silent_when_checkpointing_disabled(self, session):
        session.runtime.board.kernel.devices.register(NotSnapshotable())
        assert check_snapshotability(session) == []

    def test_gap_reported_when_checkpointer_attached(self, session):
        session.runtime.board.kernel.devices.register(NotSnapshotable())
        session.attach_checkpointer(Checkpointer(every=5))
        diagnostics = check_snapshotability(session)
        assert len(diagnostics) == 1
        diagnostic = diagnostics[0]
        assert diagnostic.rule == "COSIM005"
        assert diagnostic.severity == WARNING
        assert "bogus" in diagnostic.message
        assert "NotSnapshotable" in diagnostic.message

    def test_gap_reported_when_assume_enabled(self, session):
        session.runtime.board.kernel.devices.register(NotSnapshotable())
        diagnostics = check_snapshotability(session, assume_enabled=True)
        assert [d.rule for d in diagnostics] == ["COSIM005"]

    def test_half_implemented_always_reported(self, session):
        # A lone snapshot() without restore() is never intentional:
        # warn even when no checkpointer is in sight.
        session.runtime.board.kernel.devices.register(HalfSnapshotable())
        diagnostics = check_snapshotability(session)
        assert len(diagnostics) == 1
        assert "restore" in diagnostics[0].message

    def test_gap_on_the_second_board_reported(self):
        from tests.cosim.test_multiboard import Rig

        rig = Rig()
        rig.board_b.kernel.devices.register(NotSnapshotable())
        rig.session.attach_checkpointer(Checkpointer(every=5))
        diagnostics = check_snapshotability(rig.session)
        assert [d.rule for d in diagnostics] == ["COSIM005"]
        assert diagnostics[0].severity == WARNING
        assert "board 'b' device 'bogus'" in diagnostics[0].message

    def test_netlist_module_gap_reported(self, session):
        module = NotSnapshotable()
        session.master.sim.modules.append(module)
        diagnostics = check_snapshotability(session, assume_enabled=True)
        assert len(diagnostics) == 1
        assert "netlist module" in diagnostics[0].message

    def test_session_snapshotable_mutation_is_recheck(self, session):
        # register_snapshotable() validates, but the dict is mutable —
        # lint re-checks so a later mutation still surfaces.
        session.snapshotables["sneaky"] = NotSnapshotable()
        diagnostics = check_snapshotability(session, assume_enabled=True)
        assert len(diagnostics) == 1
        assert "sneaky" in diagnostics[0].message


def _speculating_session():
    cosim = build_router_cosim(
        CosimConfig(t_sync=300, speculation_depth=3),
        RouterWorkload(packets_per_producer=2, interval_cycles=300,
                       corrupt_rate=0.0, seed=3),
        mode="inproc")
    return cosim.session


def _inject_faults(session):
    from repro.transport.faults import FaultPlan, FaultyBoardEndpoint

    session.runtime.endpoint = FaultyBoardEndpoint(
        session.runtime.endpoint, FaultPlan(drop_grants={2}))


class TestMemoPlusSpeculation:
    """Speculation beside a fault injector, the refused pair left of the
    memo and speculation exclusions: run() refuses it before window 0
    and COSIM005 is the lint backstop for hand-assembled sessions."""

    def test_speculation_plus_fault_plan_is_an_error(self):
        session = _speculating_session()
        # Bypass the runtime guard the way a hand-assembled harness
        # could: the lint pass is the backstop for exactly this.
        _inject_faults(session)
        diagnostics = check_snapshotability(session, assume_enabled=True)
        assert len(diagnostics) == 1
        diagnostic = diagnostics[0]
        assert diagnostic.rule == "COSIM005"
        assert diagnostic.severity == "error"
        assert "speculation_depth=3" in diagnostic.message
        assert "fault injector" in diagnostic.message
        assert "FaultyBoardEndpoint" in diagnostic.message

    def test_every_refusal_is_reported(self):
        session = _speculating_session()
        _inject_faults(session)
        session.attach_adaptive()
        messages = [d.message for d in
                    check_snapshotability(session, assume_enabled=True)
                    if d.severity == "error"]
        assert len(messages) == 2
        assert "fault injector" in messages[0]
        assert "adaptive window controller" in messages[1]


class TestRefusedPairs:
    """Each half of a refused pair is clean on its own."""

    def test_fault_plan_alone_is_fine(self, session):
        _inject_faults(session)
        assert check_snapshotability(session, assume_enabled=True) == []

    def test_speculation_alone_is_fine(self):
        session = _speculating_session()
        assert check_snapshotability(session, assume_enabled=True) == []


class TestMountedPlugin:
    """FMI sessions carry the hardware behind the plugin boundary; the
    mounted plugin itself must be Snapshotable (COSIM005)."""

    def _fmu_session(self):
        from repro.fmi.behavioral import BehavioralRouterModel

        cosim = build_router_cosim(
            CosimConfig(t_sync=300),
            RouterWorkload(packets_per_producer=2, interval_cycles=300,
                           corrupt_rate=0.0, seed=3),
            plugin=BehavioralRouterModel())
        return cosim.session

    def test_conforming_plugin_is_clean(self):
        session = self._fmu_session()
        assert check_snapshotability(session, assume_enabled=True) == []

    def test_unsnapshotable_plugin_reported(self):
        session = self._fmu_session()
        plugin = session.master.plugin
        session.master.plugin = NotSnapshotable()
        try:
            diagnostics = check_snapshotability(session,
                                                assume_enabled=True)
        finally:
            session.master.plugin = plugin
        assert len(diagnostics) == 1
        assert diagnostics[0].rule == "COSIM005"
        assert "mounted plugin" in diagnostics[0].message
