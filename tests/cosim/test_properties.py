"""Property-based tests of the co-simulation protocol invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.board import Board
from repro.cosim import (
    CosimBoardRuntime,
    CosimConfig,
    CosimMaster,
    build_driver_sim,
)
from repro.cosim.protocol import BoardProtocol, MasterProtocol
from repro.transport import InprocLink


def make_pair(t_sync=10):
    """A minimal master/board pair with no hardware model."""
    config = CosimConfig(t_sync=t_sync)
    link = InprocLink()
    sim, clock = build_driver_sim("prop_hw", config=config)
    master = CosimMaster(sim, clock, link.master, config)
    link.data_server = master.serve_data
    board = Board()
    runtime = CosimBoardRuntime(board, link.board, config)
    return link, clock, master, board, runtime


grant_lists = st.lists(st.integers(min_value=1, max_value=300),
                       min_size=1, max_size=20)


class TestAlignmentInvariant:
    @given(grant_lists)
    @settings(max_examples=25, deadline=None)
    def test_board_and_master_agree_after_any_grant_sequence(self, grants):
        """Invariant 1: at every exchange master cycles == board ticks,
        no matter how the run is split into windows."""
        link, clock, master, board, runtime = make_pair()
        for ticks in grants:
            master.run_window_inproc(ticks)
            runtime.serve_window()
            report = link.master.recv_report()
            master.finish_window_inproc(report)
            assert clock.cycles == board.kernel.sw_ticks == \
                master.protocol.ticks_granted

    @given(grant_lists)
    @settings(max_examples=25, deadline=None)
    def test_total_time_independent_of_window_split(self, grants):
        """Invariant 2: splitting N cycles into windows never changes
        the total simulated time on either side."""
        total = sum(grants)
        link, clock, master, board, runtime = make_pair()
        for ticks in grants:
            master.run_window_inproc(ticks)
            runtime.serve_window()
            master.finish_window_inproc(link.master.recv_report())
        assert clock.cycles == total
        assert board.kernel.sw_ticks == total


class TestProtocolStateMachines:
    @given(grant_lists)
    @settings(max_examples=50, deadline=None)
    def test_master_board_protocol_pair_consistent(self, grants):
        master = MasterProtocol()
        board = BoardProtocol()
        ticks_total = 0
        for ticks in grants:
            grant = master.make_grant(ticks)
            board.accept_grant(grant)
            ticks_total += ticks
            report = board.make_report(ticks_total)
            master.check_report(report, master_cycles=ticks_total)
        assert master.exchanges == len(grants)
        assert board.ticks_run == ticks_total


class TestFreezeInvariant:
    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_board_never_runs_while_frozen(self, ticks, windows):
        """Invariant 3: between windows the board's tick counter and
        cycle counter are completely frozen."""
        link, clock, master, board, runtime = make_pair()
        for _ in range(windows):
            before_cycles = board.kernel.cycles
            before_ticks = board.kernel.sw_ticks
            master.run_window_inproc(ticks)
            # Master simulated; board is still frozen.
            assert board.kernel.cycles == before_cycles
            assert board.kernel.sw_ticks == before_ticks
            runtime.serve_window()
            master.finish_window_inproc(link.master.recv_report())
            assert board.kernel.sw_ticks == before_ticks + ticks
