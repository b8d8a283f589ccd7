#!/usr/bin/env python3
"""The full Section 6 case study: 4-port router + checksum application.

Producers inject packets into the router's input ports; the router
buffers them and hands each to the checksum application running on the
virtual eCos board through the device driver; valid packets are routed
by destination address to the consumers.

Run:  python examples/router_cosim.py [T_SYNC] [PACKETS] [MODE]

MODE is "inproc" (deterministic, default) or "tcp" (threaded, measured
wall-clock).
"""

import sys

from repro.analysis import format_percent, format_table
from repro.cosim import CosimConfig
from repro.router.testbench import RouterWorkload, build_router_cosim


def main():
    t_sync = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    packets = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    mode = sys.argv[3] if len(sys.argv) > 3 else "inproc"

    workload = RouterWorkload(
        packets_per_producer=max(1, packets // 4),
        interval_cycles=1000,
        payload_size=32,
        corrupt_rate=0.05,
    )
    config = CosimConfig(t_sync=t_sync)
    cosim = build_router_cosim(config, workload, mode=mode)
    metrics = cosim.run()
    stats = cosim.stats

    print(f"== router co-simulation (T_sync={t_sync}, mode={mode}) ==")
    print(metrics.summary())
    print()
    print(format_table(
        ["counter", "value"],
        [
            ["packets generated", stats.generated],
            ["  of which corrupted", stats.generated_corrupt],
            ["checked by board SW", stats.checked_by_sw],
            ["forwarded", stats.forwarded],
            ["dropped (buffer overflow)", stats.dropped_overflow],
            ["dropped (bad checksum)", stats.dropped_checksum],
            ["accuracy (handled)", format_percent(stats.handled_fraction())],
            ["mean latency (cycles)", f"{stats.mean_latency():.1f}"],
            ["sync exchanges", metrics.sync_exchanges],
            ["interrupt packets", metrics.int_packets],
            ["DATA messages", metrics.data_messages],
            ["OS state switches", metrics.state_switches],
        ],
    ))
    report = cosim.runtime.board.kernel.utilization()
    app_share = report["threads"].get("checksum-app", 0.0)
    print(f"\nboard CPU: checksum app {100 * app_share:.1f}%, "
          f"kernel {100 * report['kernel']:.1f}%, "
          f"idle {100 * report['idle']:.1f}%")
    per_consumer = ", ".join(
        f"port{c.port_index}={c.received_count}" for c in cosim.consumers
    )
    print(f"\ndeliveries by output port: {per_consumer}")
    misrouted = sum(c.misrouted_count for c in cosim.consumers)
    invalid = sum(c.invalid_count for c in cosim.consumers)
    print(f"misrouted: {misrouted}, invalid delivered: {invalid}")
    assert misrouted == 0 and invalid == 0


if __name__ == "__main__":
    main()
