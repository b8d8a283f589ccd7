"""The declarative window FSM tables and their runtime enforcement.

The tables in ``repro.cosim.protocol`` are the single source of truth:
the model checker explores them offline and the master/board loops step
them online.  These tests pin the equivalence — the runtime performs
only table-legal event sequences, ends every run in an accepting state,
and a run with FSM validation enabled is observably identical to the
recorded seed behaviour (same tick/cycle accounting, same digests).
"""

import pytest

from repro.cosim import CosimConfig
from repro.cosim.protocol import (
    BOARD_ACCEPTING,
    BOARD_INITIAL,
    BOARD_WINDOW_TABLE,
    MASTER_ACCEPTING,
    MASTER_INITIAL,
    MASTER_WINDOW_TABLE,
    WindowFsm,
)
from repro.errors import ProtocolError
from repro.replay.snapshot import state_digest
from repro.router.testbench import RouterWorkload, build_router_cosim


def build(mode, t_sync=100):
    workload = RouterWorkload(packets_per_producer=2, interval_cycles=150,
                              corrupt_rate=0.0, seed=3, payload_size=16)
    return build_router_cosim(CosimConfig(t_sync=t_sync), workload,
                              mode=mode)


class TestWindowFsm:
    @pytest.mark.parametrize("table,initial", [
        (MASTER_WINDOW_TABLE, MASTER_INITIAL),
        (BOARD_WINDOW_TABLE, BOARD_INITIAL),
    ], ids=["master", "board"])
    def test_step_accepts_exactly_the_table(self, table, initial):
        states = {initial} | {s for (s, _e) in table} | set(table.values())
        events = {e for (_s, e) in table}
        for state in states:
            for event in events:
                fsm = WindowFsm("test", table, initial)
                fsm.state = state
                if (state, event) in table:
                    fsm.step(event)
                    assert fsm.state == table[(state, event)]
                else:
                    with pytest.raises(ProtocolError) as exc:
                        fsm.step(event)
                    # The error teaches: it names the legal events.
                    allowed = sorted(e for (s, e) in table if s == state)
                    for legal in allowed:
                        assert legal in str(exc.value)

    def test_reset_returns_to_initial(self):
        fsm = WindowFsm("master", MASTER_WINDOW_TABLE, MASTER_INITIAL)
        fsm.step("send_grant")
        assert fsm.state == "awaiting_report"
        fsm.reset()
        assert fsm.state == MASTER_INITIAL


class TestRuntimeConsultsTables:
    def test_inproc_run_ends_in_accepting_states(self):
        cosim = build("inproc")
        cosim.run()
        assert cosim.session.master.fsm.state in MASTER_ACCEPTING
        assert cosim.runtime.fsm.state in BOARD_ACCEPTING

    def test_threaded_run_shuts_both_fsms_down(self):
        cosim = build("tcp")
        cosim.run()
        # The threaded session drives the full shutdown handshake, so
        # both machines must land in their terminal phase.
        assert cosim.session.master.fsm.state == "closed"
        assert cosim.runtime.fsm.state == "closed"

    def test_fsm_validation_does_not_change_behaviour(self):
        # Equivalence: two identical inproc runs (the FSM steps are
        # always on) agree with each other bit-for-bit, and tick/cycle
        # accounting still satisfies the alignment invariant.
        first = build("inproc")
        metrics_a = first.run()
        second = build("inproc")
        metrics_b = second.run()
        assert metrics_a.board_ticks == metrics_a.master_cycles
        assert metrics_a.windows == metrics_b.windows
        assert state_digest(first.session.snapshot()) == \
            state_digest(second.session.snapshot())

    def test_out_of_turn_event_is_rejected_loudly(self):
        cosim = build("inproc")
        with pytest.raises(ProtocolError, match="recv_report"):
            # Claiming a report before any window was granted must trip
            # the master FSM, not corrupt the accounting.
            cosim.session.master.fsm.step("recv_report")

    def test_restore_resets_the_fsm_to_a_window_boundary(self):
        cosim = build("inproc")
        cosim.run()
        snap = cosim.session.snapshot()
        cosim.session.master.fsm.state = "awaiting_report"
        cosim.session.restore(snap)
        assert cosim.session.master.fsm.state == MASTER_INITIAL
        assert cosim.runtime.fsm.state == BOARD_INITIAL
