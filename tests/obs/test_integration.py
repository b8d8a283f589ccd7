"""Tracing threaded through a live co-simulation, end to end."""

import pytest

from repro.cosim import CosimConfig, TracingConfig
from repro.obs import (
    NULL_RECORDER,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.router.testbench import RouterWorkload, build_router_cosim
from repro.transport.faults import FaultPlan


def small_workload(**overrides) -> RouterWorkload:
    params = dict(packets_per_producer=3, interval_cycles=200,
                  payload_size=16, corrupt_rate=0.0, buffer_capacity=20,
                  seed=7)
    params.update(overrides)
    return RouterWorkload(**params)


def traced_config(**tracing_overrides) -> CosimConfig:
    return CosimConfig(
        t_sync=200,
        tracing=TracingConfig(enabled=True, **tracing_overrides),
    )


# ----------------------------------------------------------------------
# Disabled by default: the whole stack shares the null recorder
# ----------------------------------------------------------------------
class TestDisabledByDefault:
    def test_every_layer_holds_the_null_recorder(self):
        cosim = build_router_cosim(CosimConfig(t_sync=200),
                                   small_workload())
        session = cosim.session
        assert session.obs is NULL_RECORDER
        assert cosim.master.obs is NULL_RECORDER
        assert cosim.master.sim.obs is NULL_RECORDER
        assert cosim.runtime.obs is NULL_RECORDER
        assert cosim.runtime.board.kernel.obs is NULL_RECORDER

    def test_disabled_run_records_nothing(self):
        cosim = build_router_cosim(CosimConfig(t_sync=200),
                                   small_workload())
        metrics = cosim.run()
        assert metrics.windows > 0
        assert metrics.spans_recorded == 0
        assert metrics.span_events == 0
        assert cosim.session.obs is NULL_RECORDER


# ----------------------------------------------------------------------
# Enabled: spans from every layer of an in-process run
# ----------------------------------------------------------------------
class TestInprocTracing:
    def test_layers_and_window_count(self):
        cosim = build_router_cosim(traced_config(), small_workload())
        metrics = cosim.run()
        obs = cosim.session.obs
        cats = {span.cat for span in obs.spans}
        assert {"session", "master", "simkernel", "board",
                "rtos"} <= cats
        windows = [s for s in obs.spans
                   if s.cat == "session" and s.name == "window"]
        assert len(windows) == metrics.windows
        # Each layer traces once per window in a quiet in-process run.
        assert len([s for s in obs.spans if s.cat == "board"]) == \
            metrics.windows

    def test_events_cover_protocol_traffic(self):
        cosim = build_router_cosim(traced_config(), small_workload())
        metrics = cosim.run()
        counts = cosim.session.obs.event_counts
        assert counts[("transport", "grant.send")] == metrics.windows
        assert counts[("transport", "report.recv")] == metrics.windows
        assert counts[("master", "irq.send")] == metrics.int_packets
        assert counts[("rtos", "freeze")] == metrics.windows
        assert counts[("rtos", "thaw")] == metrics.windows
        assert ("board", "data.read") in counts
        assert ("board", "data.write") in counts

    def test_metrics_carry_span_counters(self):
        cosim = build_router_cosim(traced_config(), small_workload())
        metrics = cosim.run()
        obs = cosim.session.obs
        assert metrics.spans_recorded == obs.span_count > 0
        assert metrics.span_events == obs.event_count > 0
        assert f"spans={metrics.spans_recorded}" in metrics.summary()

    def test_window_spans_carry_sim_time(self):
        cosim = build_router_cosim(traced_config(), small_workload())
        cosim.run()
        for span in cosim.session.obs.spans:
            if span.cat == "session" and span.name == "window":
                assert span.sim_duration == span.attrs["ticks"]
                assert span.wall_duration >= 0

    def test_chrome_export_validates(self):
        cosim = build_router_cosim(traced_config(), small_workload())
        cosim.run()
        doc = to_chrome_trace(cosim.session.obs)
        assert validate_chrome_trace(doc) > 0

    def test_iss_chunks_traced(self):
        cosim = build_router_cosim(traced_config(),
                                   small_workload(corrupt_rate=0.2),
                                   iss_timing=True)
        cosim.run()
        obs = cosim.session.obs
        chunks = [s for s in obs.spans
                  if s.cat == "iss" and s.name == "chunk"]
        assert chunks
        assert all(s.attrs["instructions"] > 0 for s in chunks)


# ----------------------------------------------------------------------
# Speculation's catch-up windows leap, and still trace the simkernel
# ----------------------------------------------------------------------
class TestLeapingTracing:
    def test_every_simulate_span_has_a_simkernel_child(self):
        config = CosimConfig(t_sync=1000, speculation_depth=4,
                             tracing=TracingConfig(enabled=True))
        cosim = build_router_cosim(
            config, small_workload(packets_per_producer=2,
                                   interval_cycles=8000))
        cosim.run(max_cycles=30_000, await_drain=False)
        spans = cosim.session.obs.spans
        kernel_spans = {s.parent: s for s in spans if s.cat == "simkernel"}
        simulates = [s for s in spans
                     if s.cat == "master" and s.name == "simulate"]
        catchups = [s for s in simulates if s.attrs.get("catchup")]
        assert catchups and any(s.attrs["leapt"] for s in catchups)
        for span in simulates:
            child = kernel_spans[span.sid]
            assert child.name == "run_until"
            assert child.attrs["deltas"] == span.attrs["deltas"]
            assert child.attrs.get("leapt") == span.attrs.get("leapt")


# ----------------------------------------------------------------------
# Fault injection shows up as span events
# ----------------------------------------------------------------------
class TestFaultTracing:
    def test_dropped_interrupt_emits_fault_event(self):
        plan = FaultPlan(drop_interrupts={1})
        cosim = build_router_cosim(traced_config(), small_workload(),
                                   fault_plan=plan)
        cosim.run()
        obs = cosim.session.obs
        drops = [e for e in obs.events
                 if e.cat == "fault" and e.name == "irq.drop"]
        assert len(drops) == plan.interrupts_dropped == 1
        assert drops[0].attrs["index"] == 1


# ----------------------------------------------------------------------
# Sampling mode
# ----------------------------------------------------------------------
class TestSampling:
    def test_sampling_thins_retention_not_aggregation(self):
        full = build_router_cosim(traced_config(), small_workload())
        full.run()
        sampled = build_router_cosim(traced_config(sample_every=4),
                                     small_workload())
        sampled.run()
        full_obs, sampled_obs = full.session.obs, sampled.session.obs
        # Same execution, so the aggregates agree on counts.
        assert sampled_obs.span_count == full_obs.span_count
        assert sampled_obs.event_count == full_obs.event_count
        assert len(sampled_obs.spans) < len(full_obs.spans)
        assert sampled_obs.dropped_spans > 0


# ----------------------------------------------------------------------
# Checkpointing under a span
# ----------------------------------------------------------------------
class TestCheckpointTracing:
    def test_checkpoint_windows_traced(self, tmp_path):
        from repro.replay import Checkpointer

        cosim = build_router_cosim(traced_config(), small_workload())
        checkpointer = Checkpointer(every=2, directory=str(tmp_path))
        cosim.session.attach_checkpointer(checkpointer)
        metrics = cosim.run()
        assert metrics.checkpoints_taken > 0
        spans = [s for s in cosim.session.obs.spans
                 if s.cat == "session" and s.name == "checkpoint"]
        # The hook is spanned every window; `taken` marks real captures.
        assert len(spans) == metrics.windows
        captures = [s for s in spans if s.attrs["taken"]]
        assert len(captures) == metrics.checkpoints_taken


# ----------------------------------------------------------------------
# Threaded sessions: the board thread gets its own track
# ----------------------------------------------------------------------
class TestThreadedTracing:
    def test_tcp_mode_traces_both_threads(self):
        cosim = build_router_cosim(traced_config(), small_workload(),
                                   mode="tcp")
        metrics = cosim.run()
        obs = cosim.session.obs
        tids = {s.tid for s in obs.spans}
        assert len(tids) == 2  # session thread + board thread
        board_windows = [s for s in obs.spans
                         if s.cat == "board" and s.name == "window"]
        assert len(board_windows) == metrics.windows
        waits = [s for s in obs.spans
                 if s.cat == "transport" and s.name == "report_wait"]
        assert len(waits) == metrics.windows
        assert validate_chrome_trace(to_chrome_trace(obs)) > 0


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_tracing_config_rejects_bad_sampling_at_construction(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            CosimConfig(tracing=TracingConfig(enabled=True, sample_every=0))
