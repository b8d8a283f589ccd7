"""Plugin-boundary overhead: FMI-style mounts vs the inproc netlist.

"FMI Meets SystemC" trades a fixed master/slave wiring for a neutral
plugin boundary; the question this harness answers is what that
boundary *costs* in the paper's lock-step regime.  Three mounts of the
same router workload:

* **inproc** — the reference: netlist elaborated directly into the
  master's simkernel (no boundary).
* **fmu-behavioral** — the clean-room behavioral router model behind
  the :mod:`repro.fmi` adapter.  An analytic model skips event-driven
  simulation entirely, so this mount is typically *faster* than the
  netlist — the boundary itself is cheap.
* **fmu-subprocess** — the same behavioral model hosted out of
  process: every grant/report/DATA transaction crosses a framed pipe,
  which is the honest upper bound on boundary cost.

Equivalence is asserted before any timing is recorded: all three
mounts must land on bit-identical trace rows and the same final
board+stats digest — a fast wrong answer is not an overhead number.
"""

from conftest import emit

from repro.analysis import format_table
from repro.cosim import CosimConfig, ProtocolTrace
from repro.fmi.behavioral import BehavioralRouterModel
from repro.fmi.subproc import SubprocessPlugin
from repro.replay import board_state_summary
from repro.replay.snapshot import state_digest
from repro.router.testbench import RouterWorkload, build_router_cosim


def _timed_run(builder, config, workload, max_cycles, bench):
    cosim = builder(config, workload)
    trace = ProtocolTrace()
    cosim.session.attach_trace(trace)
    box = {}

    def go():
        box["metrics"] = cosim.run(max_cycles=max_cycles,
                                   await_drain=False)

    bench.measure(go)
    return {
        "metrics": box["metrics"],
        "rows": [r.as_row() for r in trace.records],
        # The cross-mount digest: session snapshot *shapes* legitimately
        # differ across the boundary, the board + workload stats must
        # not (same formula as the difftest oracles).
        "digest": state_digest({
            "board": board_state_summary(cosim.runtime.board),
            "stats": cosim.stats.snapshot(),
        }),
        "wall": bench.last_seconds,
    }


def test_fmu_overhead(benchmark, quick, bench):
    t_sync = 200
    max_cycles = 4_000 if quick else 20_000
    workload = RouterWorkload(
        packets_per_producer=4 if quick else 12,
        interval_cycles=400, payload_size=16, corrupt_rate=0.1,
        buffer_capacity=8, seed=2005)
    config = CosimConfig(t_sync=t_sync)

    mounts = [
        ("inproc", lambda c, w: build_router_cosim(c, w, mode="inproc")),
        ("fmu-behavioral", lambda c, w: build_router_cosim(
            c, w, plugin=BehavioralRouterModel())),
        ("fmu-subprocess", lambda c, w: build_router_cosim(
            c, w, plugin=SubprocessPlugin(
                "repro.fmi.behavioral:BehavioralRouterModel"))),
    ]
    runs = {name: _timed_run(builder, config, workload, max_cycles,
                             bench)
            for name, builder in mounts}

    # Equivalence first: every mount is the same computation.
    reference = runs["inproc"]
    for name, run in runs.items():
        assert run["rows"] == reference["rows"], \
            f"{name}: trace diverged from inproc"
        assert run["digest"] == reference["digest"], \
            f"{name}: final state diverged from inproc"
        assert run["metrics"].windows == reference["metrics"].windows

    windows = reference["metrics"].windows
    table = []
    for name, run in runs.items():
        overhead = run["wall"] / reference["wall"]
        bench.series(f"windows_per_s_{name.replace('-', '_')}",
                     seconds=run["wall"], work=windows,
                     unit="windows", t_sync=t_sync,
                     tier1=(name != "fmu-subprocess"),
                     overhead_vs_inproc=round(overhead, 4))
        table.append([name, windows,
                      f"{run['wall']:.3f}",
                      f"{windows / run['wall']:.0f}",
                      f"{overhead:.2f}x"])

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    bench.config(t_sync=t_sync, max_cycles=max_cycles,
                 packets_per_producer=workload.packets_per_producer)

    emit("\n== FMI plugin boundary overhead (same workload, 3 mounts) ==")
    emit(format_table(
        ["mount", "windows", "wall [s]", "windows/s",
         "wall vs inproc"], table))
