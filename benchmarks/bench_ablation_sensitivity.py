"""Ablation B: sensitivity of the accuracy knee and measured overhead.

1. The accuracy knee moves with the buffer capacity and the packet
   inter-arrival, following the first-order prediction
   ``T_sync* ~= capacity * interval / num_ports``.
2. Interrupt-latency sensitivity: larger modelled IPC latency delays
   servicing and erodes accuracy near the knee.
3. Measured (threaded, real wall-clock) overhead: with an emulated
   network delay, the overhead-vs-T_sync decline of Figure 6 appears in
   *measured* time too, not only in the calibrated model.
"""

from conftest import emit

from repro.analysis import expected_knee, figure7_accuracy, format_table
from repro.board import BoardConfig, WorkModel
from repro.cosim import CosimConfig
from repro.router.testbench import RouterWorkload, build_router_cosim


def test_knee_tracks_buffer_capacity(macro_benchmark, benchmark, quick,
                                     bench):
    capacities = (5, 20) if quick else (5, 10, 20)
    packets = 10 if quick else 25
    sweep = ((250, 1000, 4000) if quick
             else (250, 500, 1000, 2000, 4000, 8000))

    def run():
        rows = []
        for capacity in capacities:
            workload = RouterWorkload(packets_per_producer=packets,
                                      interval_cycles=400,
                                      corrupt_rate=0.0,
                                      buffer_capacity=capacity)
            prediction = expected_knee(workload)
            result = figure7_accuracy(sweep, (100,), workload=workload)
            rows.append([capacity, int(prediction), result.knee(100)])
        return rows

    rows = macro_benchmark(run)
    bench.series("knee_vs_capacity", work=len(capacities) * len(sweep),
                 unit="runs")
    emit("\n== accuracy knee vs buffer capacity ==")
    emit(format_table(["capacity", "predicted knee", "measured knee"], rows))
    knees = [measured for _, _, measured in rows]
    assert knees == sorted(knees), "knee must grow with the buffer"
    if quick:
        return
    for _, predicted, measured in rows:
        assert measured <= 2 * predicted + 500


def test_software_service_rate_sensitivity(macro_benchmark, benchmark,
                                           quick, bench):
    """When the checksum code gets slower, the board can no longer
    drain a window's backlog within its granted ticks and accuracy
    collapses — an RTOS-timing effect the untimed and annotated
    baselines cannot exhibit, and the virtual tick captures."""

    costs = (8, 12_000) if quick else (8, 2000, 12_000)
    packets = 10 if quick else 25

    def run():
        accuracies = []
        for cycles_per_byte in costs:
            config = CosimConfig(t_sync=1000)
            workload = RouterWorkload(packets_per_producer=packets,
                                      interval_cycles=400,
                                      corrupt_rate=0.0, buffer_capacity=10)
            board_config = BoardConfig(
                work=WorkModel(checksum_cycles_per_byte=cycles_per_byte)
            )
            cosim = build_router_cosim(config, workload,
                                       board_config=board_config)
            cosim.run()
            accuracies.append((cycles_per_byte, cosim.accuracy()))
        return accuracies

    accuracies = macro_benchmark(run)
    bench.series("service_rate", work=len(costs), unit="runs")
    emit("\n== accuracy vs SW checksum cost (T_sync=1000) ==")
    emit(format_table(["cycles/byte", "accuracy"],
                      [[c, f"{100 * a:.1f}%"] for c, a in accuracies]))
    values = [a for _, a in accuracies]
    assert values == sorted(values, reverse=True)
    assert values[0] == 1.0
    assert values[-1] < 1.0, "a compute-bound board must drop packets"


def test_latency_inflates_with_t_sync(macro_benchmark, benchmark, quick,
                                      bench):
    """The fidelity axis Figure 7 does not plot: even while accuracy is
    still 100%, loose synchronization inflates observed packet latency,
    because packets wait for window boundaries to be serviced."""
    from repro.analysis import latency_vs_t_sync

    sweep = (100, 4000) if quick else (100, 1000, 4000)

    def run():
        workload = RouterWorkload(packets_per_producer=5 if quick else 20,
                                  interval_cycles=500, corrupt_rate=0.0,
                                  buffer_capacity=40)
        return latency_vs_t_sync(sweep, workload=workload)

    points = macro_benchmark(run)
    bench.series("latency_vs_tsync", work=len(sweep), unit="runs")
    emit("\n== packet latency vs T_sync (cycles) ==")
    emit(format_table(
        ["T_sync", "accuracy", "mean", "p50", "p95", "max"],
        [[p.t_sync, f"{100 * p.accuracy:.0f}%", f"{p.mean:.0f}",
          f"{p.p50:.0f}", f"{p.p95:.0f}", f"{p.maximum:.0f}"]
         for p in points],
    ))
    assert all(p.accuracy == 1.0 for p in points), \
        "this ablation keeps accuracy at 100% on purpose"
    means = [p.mean for p in points]
    assert means == sorted(means), "latency must inflate with T_sync"


def test_measured_overhead_declines(macro_benchmark, benchmark, quick,
                                    bench):
    """Figure 6's decline, in genuinely measured wall-clock time."""

    sweep = (25, 1000) if quick else (25, 100, 1000)

    def run():
        rows = []
        for t_sync in sweep:
            config = CosimConfig(t_sync=t_sync,
                                 emulated_network_delay_s=0.002)
            workload = RouterWorkload(packets_per_producer=2 if quick else 5,
                                      interval_cycles=200,
                                      corrupt_rate=0.0)
            cosim = build_router_cosim(config, workload, mode="tcp")
            metrics = cosim.run()
            rows.append((t_sync, metrics.wall_seconds,
                         metrics.sync_exchanges))
        return rows

    rows = macro_benchmark(run)
    bench.series("measured_overhead", work=len(sweep), unit="runs")
    emit("\n== measured wall time vs T_sync (TCP link, 2 ms network) ==")
    emit(format_table(["T_sync", "wall [s]", "sync exchanges"],
                      [[t, f"{w:.3f}", s] for t, w, s in rows]))
    walls = [w for _, w, _ in rows]
    assert walls == sorted(walls, reverse=True), \
        "measured overhead must decline with T_sync"
