"""Golden pins for every in-process session flavour.

The difftest matrix compares backends with one another, so a change
applied uniformly to every in-process path (a shifted trace column, an
extra sync exchange, a reordered after-window hook) would pass it.
These pins hold each flavour to fixed numbers instead: one small fixed
configuration per flavour, its window trace rows, the integer
:class:`~repro.cosim.metrics.CosimMetrics` counters and a digest of the
final state.
"""

import dataclasses

import pytest

from repro.cosim import CosimConfig, ProtocolTrace
from repro.cosim.adaptive import AdaptivePolicy
from repro.difftest import FuzzSpec
from repro.difftest.backends import run_backend
from repro.replay import board_state_summary
from repro.replay.snapshot import state_digest
from repro.router.testbench import RouterWorkload, build_router_cosim

#: Sparse router traffic: busy windows, idle gaps and a drained tail.
WORKLOAD = dict(packets_per_producer=2, interval_cycles=1500,
                payload_size=16, corrupt_rate=0.0, seed=11)


def int_counters(metrics) -> dict:
    return {f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(metrics)
            if type(getattr(metrics, f.name)) is int}


def _router(config, max_cycles, adaptive=None):
    cosim = build_router_cosim(config, RouterWorkload(**WORKLOAD),
                               adaptive=adaptive)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run(max_cycles=max_cycles, await_drain=False)
    return ([r.as_row() for r in trace.records], int_counters(metrics),
            state_digest(cosim.session.snapshot()))


def run_inproc():
    return _router(CosimConfig(t_sync=1000), 12_000)


def run_optimistic():
    return _router(CosimConfig(t_sync=1000, speculation_depth=3), 14_000)


def run_adaptive():
    return _router(CosimConfig(t_sync=1000), 12_000,
                   adaptive=AdaptivePolicy(min_t_sync=250,
                                           initial_t_sync=1000,
                                           max_t_sync=4000))


def run_fmu():
    from repro.fmi.behavioral import BehavioralRouterModel

    cosim = build_router_cosim(CosimConfig(t_sync=1000),
                               RouterWorkload(**WORKLOAD),
                               plugin=BehavioralRouterModel())
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    metrics = cosim.run(max_cycles=12_000, await_drain=False)
    return ([r.as_row() for r in trace.records], int_counters(metrics),
            state_digest({"board": board_state_summary(cosim.runtime.board),
                          "stats": cosim.stats.snapshot()}))


def run_multi_inproc():
    """Two boards over one accelerator, through the difftest backend:
    its outcome carries the per-board tick counters and the digest."""
    outcome = run_backend(FuzzSpec(scenario="multiboard", seed=5, t_sync=40,
                                   max_cycles=400, num_boards=2),
                          "multi-inproc")
    assert outcome.ok, outcome.error
    counters = {"windows": outcome.windows,
                "master_cycles": outcome.master_cycles,
                "board_ticks": outcome.board_ticks,
                "state_switches": outcome.state_switches,
                "board_ticks_each": outcome.extra["board_ticks_each"],
                "csum": outcome.extra["csum"]}
    return None, counters, outcome.digest


FLAVOURS = {
    "inproc": run_inproc,
    "optimistic": run_optimistic,
    "adaptive": run_adaptive,
    "multi-inproc": run_multi_inproc,
    "fmu": run_fmu,
}

GOLDEN = {
    "adaptive": {
        "rows": [
            [0, 2, 2, 2, 1, 7], [1, 250, 252, 252, 0, 0],
            [2, 125, 377, 377, 1, 7], [3, 250, 627, 627, 0, 0],
            [4, 125, 752, 752, 1, 7], [5, 250, 1002, 1002, 0, 0],
            [6, 125, 1127, 1127, 1, 7], [7, 250, 1377, 1377, 0, 0],
            [8, 125, 1502, 1502, 1, 7], [9, 250, 1752, 1752, 0, 0],
            [10, 125, 1877, 1877, 1, 7], [11, 250, 2127, 2127, 0, 0],
            [12, 125, 2252, 2252, 1, 7], [13, 250, 2502, 2502, 0, 0],
            [14, 125, 2627, 2627, 1, 7], [15, 250, 2877, 2877, 0, 0],
            [16, 250, 3127, 3127, 0, 0], [17, 500, 3627, 3627, 0, 0],
            [18, 500, 4127, 4127, 0, 0], [19, 1000, 5127, 5127, 0, 0],
            [20, 1000, 6127, 6127, 0, 0], [21, 2000, 8127, 8127, 0, 0],
            [22, 2000, 10127, 10127, 0, 0], [23, 1873, 12000, 12000, 0, 0],
        ],
        "counters": {
            "t_sync": 0, "windows": 24, "sync_exchanges": 24,
            "master_cycles": 12000, "board_ticks": 12000,
            "board_cycles": 12000020, "int_packets": 8, "data_messages": 56,
            "messages_total": 112, "bytes_total": 2624, "state_switches": 49,
            "checkpoints_taken": 0, "restores": 0, "windows_replayed": 0,
            "windows_speculated": 0, "rollbacks": 0,
            "rollback_depth_max": 0, "spans_recorded": 0, "span_events": 0,
            "spans_dropped": 0,
        },
        "digest": "0deffb08ad4dd4c868681ab01efd10edafd526a1396a70ee048356df10de7d9e",
    },
    "fmu": {
        "rows": [
            [0, 1000, 1000, 1000, 1, 17], [1, 1000, 2000, 2000, 1, 17],
            [2, 1000, 3000, 3000, 1, 12], [3, 1000, 4000, 4000, 0, 0],
            [4, 1000, 5000, 5000, 0, 0], [5, 1000, 6000, 6000, 0, 0],
            [6, 1000, 7000, 7000, 0, 0], [7, 1000, 8000, 8000, 0, 0],
            [8, 1000, 9000, 9000, 0, 0], [9, 1000, 10000, 10000, 0, 0],
            [10, 1000, 11000, 11000, 0, 0], [11, 1000, 12000, 12000, 0, 0],
        ],
        "counters": {
            "t_sync": 1000, "windows": 12, "sync_exchanges": 12,
            "master_cycles": 12000, "board_ticks": 12000,
            "board_cycles": 12000020, "int_packets": 3, "data_messages": 46,
            "messages_total": 73, "bytes_total": 1800, "state_switches": 25,
            "checkpoints_taken": 0, "restores": 0, "windows_replayed": 0,
            "windows_speculated": 0, "rollbacks": 0,
            "rollback_depth_max": 0, "spans_recorded": 0, "span_events": 0,
            "spans_dropped": 0,
        },
        "digest": "b47fb12a41805901bb2f3bd049ebd80ef3760b0779bf560ffd86f0376c797659",
    },
    "inproc": {
        "rows": [
            [0, 1000, 1000, 1000, 1, 17], [1, 1000, 2000, 2000, 1, 17],
            [2, 1000, 3000, 3000, 1, 12], [3, 1000, 4000, 4000, 0, 0],
            [4, 1000, 5000, 5000, 0, 0], [5, 1000, 6000, 6000, 0, 0],
            [6, 1000, 7000, 7000, 0, 0], [7, 1000, 8000, 8000, 0, 0],
            [8, 1000, 9000, 9000, 0, 0], [9, 1000, 10000, 10000, 0, 0],
            [10, 1000, 11000, 11000, 0, 0], [11, 1000, 12000, 12000, 0, 0],
        ],
        "counters": {
            "t_sync": 1000, "windows": 12, "sync_exchanges": 12,
            "master_cycles": 12000, "board_ticks": 12000,
            "board_cycles": 12000020, "int_packets": 3, "data_messages": 46,
            "messages_total": 73, "bytes_total": 1800, "state_switches": 25,
            "checkpoints_taken": 0, "restores": 0, "windows_replayed": 0,
            "windows_speculated": 0, "rollbacks": 0,
            "rollback_depth_max": 0, "spans_recorded": 0, "span_events": 0,
            "spans_dropped": 0,
        },
        "digest": "57136d301e1cef8fd4394b6ddb976d4945b82f8e01e176d9785397097c482acc",
    },
    "multi-inproc": {
        "rows": None,
        "counters": {
            "windows": 10, "master_cycles": 400, "board_ticks": 400,
            "state_switches": 42, "board_ticks_each": [400, 400],
            "csum": 26101,
        },
        "digest": "7e75c89f0b5b2b98b4e8316b5b254a01436393d1559c2e67d7510a04aacbf458",
    },
    "optimistic": {
        "rows": [
            [0, 1000, 1000, 1000, 1, 17], [1, 1000, 2000, 2000, 1, 17],
            [2, 1000, 3000, 3000, 1, 12], [3, 1000, 4000, 4000, 0, 0],
            [4, 1000, 5000, 5000, 0, 0], [5, 1000, 6000, 6000, 0, 0],
            [6, 1000, 7000, 7000, 0, 0], [7, 1000, 8000, 8000, 0, 0],
            [8, 1000, 9000, 9000, 0, 0], [9, 1000, 10000, 10000, 0, 0],
            [10, 1000, 11000, 11000, 0, 0], [11, 1000, 12000, 12000, 0, 0],
            [12, 1000, 13000, 13000, 0, 0], [13, 1000, 14000, 14000, 0, 0],
        ],
        "counters": {
            "t_sync": 1000, "windows": 14, "sync_exchanges": 14,
            "master_cycles": 14000, "board_ticks": 14000,
            "board_cycles": 14000020, "int_packets": 3, "data_messages": 46,
            "messages_total": 77, "bytes_total": 1884, "state_switches": 29,
            "checkpoints_taken": 0, "restores": 0, "windows_replayed": 0,
            "windows_speculated": 17, "rollbacks": 2,
            "rollback_depth_max": 3, "spans_recorded": 0, "span_events": 0,
            "spans_dropped": 0,
        },
        "digest": "385c0d1adbce44d16df3fdc3a6afe5c8f0c4439352b74f58010ba7c086f99190",
    },
}


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_flavour_matches_golden(flavour):
    rows, counters, digest = FLAVOURS[flavour]()
    expected = GOLDEN[flavour]
    if expected["rows"] is not None:
        assert rows == expected["rows"]
    assert counters == expected["counters"]
    assert digest == expected["digest"]
