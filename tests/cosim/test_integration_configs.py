"""Cross-configuration integration tests for the full co-simulation."""

import pytest

from repro.board import BoardConfig
from repro.cosim import CosimConfig
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.rtos import RtosConfig
from repro.transport import CycleLatencyModel


def small_workload(**overrides):
    defaults = dict(packets_per_producer=5, interval_cycles=250,
                    payload_size=16, corrupt_rate=0.2, seed=9)
    defaults.update(overrides)
    return RouterWorkload(**defaults)


def run(config=None, workload=None, board_config=None, **kwargs):
    cosim = build_router_cosim(config or CosimConfig(t_sync=100),
                               workload or small_workload(),
                               board_config=board_config, **kwargs)
    metrics = cosim.run()
    return cosim, metrics


class TestBoardConfigurations:
    def test_hw_tick_divisor(self):
        """SW tick = 4 HW ticks: the board runs 4x the HW ticks."""
        board_config = BoardConfig(
            rtos=RtosConfig(cycles_per_hw_tick=250, hw_ticks_per_sw_tick=4)
        )
        cosim, metrics = run(board_config=board_config)
        kernel = cosim.runtime.board.kernel
        assert kernel.sw_ticks == metrics.master_cycles
        assert kernel.hw_ticks == 4 * kernel.sw_ticks
        assert cosim.accuracy() == 1.0

    def test_fast_board_cpu(self):
        """More cycles per tick: identical functional outcome."""
        slow = run()[0]
        fast = run(board_config=BoardConfig(
            rtos=RtosConfig(cycles_per_hw_tick=10_000)
        ))[0]
        assert slow.stats.forwarded == fast.stats.forwarded
        assert slow.stats.dropped_checksum == fast.stats.dropped_checksum

    def test_expensive_kernel_paths_still_complete(self):
        board_config = BoardConfig(rtos=RtosConfig(
            cycles_per_hw_tick=1000,
            timer_isr_cycles=200,
            context_switch_cycles=150,
            isr_entry_cycles=120,
            dsr_cycles=180,
            syscall_cycles=5,
        ))
        cosim, metrics = run(board_config=board_config)
        assert cosim.drained()
        assert cosim.runtime.board.kernel.kernel_cycles > 0

    def test_tiny_timeslice(self):
        board_config = BoardConfig(rtos=RtosConfig(timeslice_ticks=1))
        cosim, metrics = run(board_config=board_config)
        assert cosim.accuracy() == 1.0


class TestLatencyConfigurations:
    @pytest.mark.parametrize("interrupt_cycles", [0, 500, 5000])
    def test_interrupt_latency_preserves_conservation(self, interrupt_cycles):
        config = CosimConfig(
            t_sync=100,
            latency=CycleLatencyModel(interrupt_cycles=interrupt_cycles),
        )
        cosim, metrics = run(config=config)
        stats = cosim.stats
        terminal = (stats.forwarded + stats.dropped_overflow
                    + stats.dropped_checksum + stats.dropped_unroutable)
        assert terminal == stats.generated

    def test_data_access_cost_slows_the_app(self):
        cheap = run(config=CosimConfig(
            t_sync=100, latency=CycleLatencyModel(data_access_cycles=10)
        ))[0]
        dear = run(config=CosimConfig(
            t_sync=100, latency=CycleLatencyModel(data_access_cycles=5000)
        ))[0]
        cheap_cycles = cheap.app.kernel.threads[0].cycles_consumed
        dear_cycles = dear.app.kernel.threads[0].cycles_consumed
        assert dear_cycles > cheap_cycles


class TestTransportEquivalence:
    def test_inproc_and_tcp_agree(self):
        """Different carriers, identical workload: the functional
        outcome (who forwards, who drops on checksum) must agree, with
        no overflow drops on a workload comfortably inside the accuracy
        knee."""
        workload = small_workload()
        inproc = build_router_cosim(CosimConfig(t_sync=50), workload,
                                    mode="inproc")
        inproc.run()
        tcp = build_router_cosim(CosimConfig(t_sync=50), workload,
                                 mode="tcp")
        tcp.run()
        assert inproc.stats.forwarded == tcp.stats.forwarded
        assert (inproc.stats.dropped_checksum
                == tcp.stats.dropped_checksum)
        assert inproc.stats.dropped_overflow == 0
        assert tcp.stats.dropped_overflow == 0

    def test_payload_sizes(self):
        for payload in (0, 1, 63, 256):
            cosim, _ = run(workload=small_workload(payload_size=payload,
                                                   corrupt_rate=0.0))
            assert cosim.stats.forwarded == cosim.stats.generated

    def test_single_port_router(self):
        workload = small_workload(num_ports=1, corrupt_rate=0.0)
        cosim, _ = run(workload=workload)
        assert cosim.stats.forwarded == cosim.stats.generated
        assert cosim.consumers[0].received_count == cosim.stats.generated

    def test_eight_port_router(self):
        workload = small_workload(num_ports=8, packets_per_producer=3,
                                  corrupt_rate=0.0)
        cosim, _ = run(workload=workload)
        assert cosim.stats.forwarded == cosim.stats.generated
