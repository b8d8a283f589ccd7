"""Per-rule tests for the RTOS / co-sim pass (RTOS001-004, COSIM001,
COSIM002 and COSIM004)."""

from repro.cosim.adaptive import AdaptivePolicy
from repro.cosim.config import CosimConfig
from repro.rtos.kernel import RtosKernel
from repro.rtos.syscalls import CpuWork
from repro.staticcheck import check_cosim_config, check_kernel


def rules_of(diagnostics):
    return {diag.rule for diag in diagnostics}


def spin():
    while True:
        yield CpuWork(100)


class TestFreezeInvariant:
    def test_rtos001_rogue_idle_thread(self):
        kernel = RtosKernel()
        kernel.create_thread("rogue", spin, priority=5,
                             allowed_in_idle=True)
        diags = check_kernel(kernel)
        (finding,) = [d for d in diags if d.rule == "RTOS001"]
        assert "rogue" in finding.message
        assert finding.severity == "error"

    def test_rtos001_registered_comm_thread_is_clean(self):
        kernel = RtosKernel()
        thread = kernel.create_thread("channel", spin, priority=5,
                                      allowed_in_idle=True)
        kernel.register_communication_thread(thread)
        assert check_kernel(kernel) == []

    def test_rtos002_comm_thread_that_freezes(self):
        kernel = RtosKernel()
        kernel.create_thread("channel", spin, priority=5)
        kernel.register_communication_thread("channel")
        diags = check_kernel(kernel)
        (finding,) = [d for d in diags if d.rule == "RTOS002"]
        assert "events can be lost" in finding.message

    def test_rtos004_registration_matches_no_thread(self):
        kernel = RtosKernel()
        kernel.register_communication_thread("ghost")
        diags = check_kernel(kernel)
        (finding,) = [d for d in diags if d.rule == "RTOS004"]
        assert "ghost" in finding.message
        assert finding.severity == "warning"

    def test_register_accepts_thread_or_name(self):
        kernel = RtosKernel()
        thread = kernel.create_thread("a", spin, priority=5)
        kernel.register_communication_thread(thread)
        kernel.register_communication_thread("b")
        assert kernel.communication_threads == {"a", "b"}


class TestInterruptContext:
    def test_rtos003_generator_isr_is_error(self):
        kernel = RtosKernel()

        def bad_isr(vector, data):
            yield CpuWork(10)

        kernel.interrupts.attach(5, isr=bad_isr, name="dev")
        diags = check_kernel(kernel)
        (finding,) = [d for d in diags if d.rule == "RTOS003"]
        assert finding.severity == "error"
        assert "generator" in finding.message

    def test_rtos003_blocking_reference_is_warning(self):
        kernel = RtosKernel()

        def dsr(vector, count, data):
            data.lock()

        kernel.interrupts.attach(5, dsr=dsr, name="dev")
        diags = check_kernel(kernel)
        (finding,) = [d for d in diags if d.rule == "RTOS003"]
        assert finding.severity == "warning"
        assert "lock" in finding.message

    def test_plain_isr_is_clean(self):
        kernel = RtosKernel()

        def isr(vector, data):
            return 10

        kernel.interrupts.attach(5, isr=isr, name="dev")
        assert check_kernel(kernel) == []


class TestCosimConfig:
    def test_default_config_is_clean(self):
        assert check_cosim_config(CosimConfig()) == []

    def test_cosim001_t_sync_outside_policy_bounds(self):
        policy = AdaptivePolicy(min_t_sync=100, max_t_sync=1000,
                                initial_t_sync=500)
        diags = check_cosim_config(CosimConfig(t_sync=5000), policy=policy)
        (finding,) = [d for d in diags if d.rule == "COSIM001"]
        assert "outside the adaptive policy bounds" in finding.message

    def test_cosim001_initial_differs(self):
        policy = AdaptivePolicy(min_t_sync=100, max_t_sync=10_000,
                                initial_t_sync=500)
        diags = check_cosim_config(CosimConfig(t_sync=1000), policy=policy)
        assert "COSIM001" in rules_of(diags)

    def test_cosim001_matching_policy_is_clean(self):
        policy = AdaptivePolicy(min_t_sync=100, max_t_sync=10_000,
                                initial_t_sync=1000)
        diags = check_cosim_config(CosimConfig(t_sync=1000), policy=policy)
        assert diags == []

    def test_cosim002_network_delay_swallows_timeout(self):
        config = CosimConfig(report_timeout_s=0.5,
                             emulated_network_delay_s=0.5)
        diags = check_cosim_config(config)
        (finding,) = [d for d in diags if d.rule == "COSIM002"]
        assert "time out" in finding.message

    def test_cosim002_small_delay_is_clean(self):
        config = CosimConfig(report_timeout_s=1.0,
                             emulated_network_delay_s=0.01)
        assert "COSIM002" not in rules_of(check_cosim_config(config))

    def test_short_report_timeout_is_clean(self):
        # The report timeout is the TCP link's one silence bound: no
        # second bound on the link can undercut it.
        assert check_cosim_config(CosimConfig(report_timeout_s=0.5)) == []

    def test_cosim004_unattached_remote_vector(self):
        kernel = RtosKernel()
        diags = check_cosim_config(CosimConfig(), kernel=kernel)
        (finding,) = [d for d in diags if d.rule == "COSIM004"]
        assert str(CosimConfig().remote_vector) in finding.message

    def test_cosim004_attached_vector_is_clean(self):
        config = CosimConfig()
        kernel = RtosKernel()
        kernel.interrupts.attach(config.remote_vector,
                                 isr=lambda vector, data: 1, name="remote")
        assert check_cosim_config(config, kernel=kernel) == []
