"""One window order on every link: the master simulates, then grants.

In-process and TCP sessions run each window the same way, so
they must agree bit for bit: the same state digest, the same trace
rows, and the same behaviour under adaptive windows, restores and
repeated ``run()`` calls.
"""

import pytest

from repro.cosim import AdaptivePolicy, CosimConfig, ProtocolTrace
from repro.replay import Checkpointer, board_state_summary, restore_session
from repro.replay.snapshot import state_digest
from repro.router.testbench import RouterWorkload, build_router_cosim

LINKS = ("tcp",)

#: (T_sync, workload knobs, iss_timing): every seed the reference runs
#: use, T_sync from 50 to 10000, bursty traffic and ISS timing.
CASES = {
    "seed2005-t1000": (1000, dict(seed=2005, packets_per_producer=4),
                       False),
    # Where granting before simulating let a threaded run handle 48
    # packets against the in-process run's 42.
    "seed7-t10000": (10000, dict(seed=7), False),
    "seed11-t50": (50, dict(seed=11, packets_per_producer=3,
                            interval_cycles=300), False),
    "seed3-t500-bursty": (500, dict(seed=3, packets_per_producer=5,
                                    burst_size=4, burst_gap_cycles=3000),
                          False),
    "seed11-t300-iss": (300, dict(seed=11, packets_per_producer=2,
                                  interval_cycles=300, corrupt_rate=0.3),
                        True),
}


def outcome(mode, t_sync, workload, iss_timing=False, adaptive=None):
    """Digest and trace rows of one run to drain."""
    cosim = build_router_cosim(CosimConfig(t_sync=t_sync),
                               RouterWorkload(**workload), mode=mode,
                               iss_timing=iss_timing, adaptive=adaptive)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    cosim.run()
    digest = state_digest({
        "board": board_state_summary(cosim.runtime.board),
        "stats": cosim.stats.snapshot(),
    })
    return digest, [record.as_row() for record in trace.records]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_link_matches_the_inproc_run(case):
    t_sync, workload, iss_timing = CASES[case]
    reference = outcome("inproc", t_sync, workload, iss_timing)
    for mode in LINKS:
        assert outcome(mode, t_sync, workload, iss_timing) == reference, mode


@pytest.mark.parametrize("mode", LINKS)
def test_adaptive_session_matches_inproc(mode):
    workload = dict(packets_per_producer=4, interval_cycles=400,
                    burst_size=4, burst_gap_cycles=20000, seed=5,
                    corrupt_rate=0.0)
    policy = dict(min_t_sync=200, max_t_sync=8000, initial_t_sync=1000)
    reference = outcome("inproc", 1000, workload,
                        adaptive=AdaptivePolicy(**policy))
    assert outcome(mode, 1000, workload,
                   adaptive=AdaptivePolicy(**policy)) == reference


@pytest.mark.parametrize("mode", LINKS)
def test_a_session_runs_more_than_once(mode):
    # The first run must not end the board threads: the second one
    # reuses them, and close() sends the shutdown grant.
    cosim = build_router_cosim(
        CosimConfig(t_sync=500),
        RouterWorkload(seed=3, packets_per_producer=5), mode=mode)
    try:
        first = cosim.session.run(max_windows=3)
        second = cosim.session.run(max_windows=6)
    finally:
        cosim.close()
    assert (first.windows, second.windows) == (3, 3)
    assert second.master_cycles == second.board_ticks == 3000
    assert cosim.session.master.fsm.state == "closed"
    assert cosim.runtime.fsm.state == "closed"


@pytest.mark.parametrize("mode", LINKS)
def test_restore_resumes_a_threaded_session(mode):
    config = CosimConfig(t_sync=300)
    workload = RouterWorkload(packets_per_producer=5, interval_cycles=300,
                              corrupt_rate=0.2, seed=11)
    full = build_router_cosim(config, workload)
    full_trace = ProtocolTrace()
    full.session.attach_trace(full_trace)
    checkpointer = Checkpointer(every=2)
    full.session.attach_checkpointer(checkpointer)
    full.run()
    checkpoint = checkpointer.checkpoints[1]

    resumed = build_router_cosim(config, workload, mode=mode)
    trace = ProtocolTrace()
    resumed.session.attach_trace(trace)
    restore_session(resumed.session, checkpoint)
    assert resumed.session.windows_completed == checkpoint.window
    resumed.run()
    assert ([r.as_row() for r in trace.records]
            == [r.as_row() for r in full_trace.records])
    assert resumed.stats.snapshot() == full.stats.snapshot()
