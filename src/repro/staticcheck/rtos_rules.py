"""The RTOS / co-simulation lint pass: RTOS001-RTOS004, COSIM001, COSIM002
and COSIM004 (COSIM003 is retired).

Two entry points:

* :func:`check_kernel` — the paper's freeze invariant (Section 5.3:
  during IDLE only *communication threads* may remain runnable) and
  interrupt-context discipline over a constructed
  :class:`~repro.rtos.kernel.RtosKernel`;
* :func:`check_cosim_config` — cross-layer consistency of a
  :class:`~repro.cosim.config.CosimConfig` against the adaptive policy,
  the report timeout and (when a kernel is supplied) the board's
  interrupt vector table.

The interrupt-context check is deliberately conservative: an ISR/DSR
that *is a generator function* is certainly wrong (the kernel calls it
as a plain function, so its body would never run), which is an error;
an ISR/DSR whose code object merely references blocking primitives
(``wait``, ``lock``, ``Sleep`` ...) might be fine, which is a warning.
"""

from __future__ import annotations

import inspect
from types import CodeType
from typing import TYPE_CHECKING, List, Optional, Set

from repro.staticcheck.diagnostics import Diagnostic, LintReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.cosim.adaptive import AdaptivePolicy
    from repro.cosim.config import CosimConfig
    from repro.rtos.kernel import RtosKernel

#: Names whose appearance in ISR/DSR code suggests a blocking call.
_BLOCKING_NAMES = frozenset({
    "wait", "wait_timeout", "lock", "Sleep", "SleepUntil", "Join",
    "Suspend", "sleep_ticks",
})


def _code_names(fn) -> Set[str]:
    """All names referenced by *fn*'s code object, nested code included."""
    code = getattr(fn, "__code__", None)
    if code is None:
        call = getattr(type(fn), "__call__", None)
        code = getattr(call, "__code__", None)
    names: Set[str] = set()
    stack = [code] if code is not None else []
    while stack:
        current = stack.pop()
        names.update(current.co_names)
        for const in current.co_consts:
            if isinstance(const, CodeType):
                stack.append(const)
    return names


def check_kernel(kernel: "RtosKernel", target: Optional[str] = None,
                 report: Optional[LintReport] = None) -> List[Diagnostic]:
    """Run the RTOS rules over *kernel*; returns the new diagnostics."""
    report = report if report is not None else LintReport()
    target = target or f"rtos:{kernel.name}"
    report.begin_target(target)
    before = len(report.diagnostics)

    registered: Set[str] = set(
        getattr(kernel, "communication_threads", ()) or ()
    )
    names = {thread.name for thread in kernel.threads}

    # RTOS001/RTOS002 — the freeze invariant, both directions.
    for thread in kernel.threads:
        if thread.allowed_in_idle and thread.name not in registered:
            report.add(
                "RTOS001",
                f"thread {thread.name!r} is allowed to run in the IDLE "
                "state but is not a registered communication thread — "
                "it would burn granted ticks while the OS is frozen "
                "(register it with "
                "kernel.register_communication_thread())",
                target,
            )
        if thread.name in registered and not thread.allowed_in_idle:
            report.add(
                "RTOS002",
                f"communication thread {thread.name!r} is not flagged "
                "allowed_in_idle — it freezes with the OS and \"some "
                "events can be lost\" (Section 5.3)",
                target,
            )
    # RTOS004 — registrations that match nothing.
    for name in sorted(registered - names):
        report.add(
            "RTOS004",
            f"registered communication thread {name!r} matches no "
            "thread on this kernel",
            target,
        )

    # RTOS003 — blocking syscalls reachable from ISR/DSR context.
    for vector in sorted(kernel.interrupts._vectors):
        record = kernel.interrupts._vectors[vector]
        for kind, fn in (("ISR", record.isr), ("DSR", record.dsr)):
            if fn is None:
                continue
            where = (f"{kind} {getattr(fn, '__qualname__', fn)!r} "
                     f"(vector {vector}, {record.name})")
            if inspect.isgeneratorfunction(inspect.unwrap(fn)):
                report.add(
                    "RTOS003",
                    f"{where} is a generator function; interrupt "
                    "context cannot yield syscalls and the body would "
                    "never execute",
                    target,
                )
                continue
            blocking = sorted(_code_names(fn) & _BLOCKING_NAMES)
            if blocking:
                report.add(
                    "RTOS003",
                    f"{where} references blocking primitives "
                    f"({', '.join(blocking)}); interrupt context must "
                    "not block",
                    target, severity="warning",
                )
    return report.diagnostics[before:]


def check_cosim_config(
    config: "CosimConfig",
    policy: Optional["AdaptivePolicy"] = None,
    kernel: Optional["RtosKernel"] = None,
    target: str = "cosim:config",
    report: Optional[LintReport] = None,
) -> List[Diagnostic]:
    """Cross-layer consistency of one co-simulation configuration."""
    report = report if report is not None else LintReport()
    report.begin_target(target)
    before = len(report.diagnostics)

    # COSIM001 — static t_sync versus the adaptive policy's bounds.
    if policy is not None:
        if not policy.min_t_sync <= config.t_sync <= policy.max_t_sync:
            report.add(
                "COSIM001",
                f"t_sync={config.t_sync} lies outside the adaptive "
                f"policy bounds [{policy.min_t_sync}, "
                f"{policy.max_t_sync}]; the adaptive controller ignores "
                "t_sync and starts from "
                f"initial_t_sync={policy.initial_t_sync}",
                target,
            )
        elif policy.initial_t_sync != config.t_sync:
            report.add(
                "COSIM001",
                f"t_sync={config.t_sync} differs from the adaptive "
                f"policy's initial_t_sync={policy.initial_t_sync}; the "
                "adaptive session uses the policy value",
                target,
            )

    # COSIM002 — the emulated network delay must leave the master time
    # to see the report.
    if config.emulated_network_delay_s >= config.report_timeout_s:
        report.add(
            "COSIM002",
            f"emulated_network_delay_s={config.emulated_network_delay_s} "
            f">= report_timeout_s={config.report_timeout_s}: every "
            "window would time out before its report arrives",
            target,
        )

    # COSIM004 — the configured interrupt vector must have a handler.
    if kernel is not None:
        if config.remote_vector not in kernel.interrupts._vectors:
            report.add(
                "COSIM004",
                f"remote_vector={config.remote_vector} has no ISR/DSR "
                f"attached on kernel {kernel.name!r}: the first "
                "forwarded interrupt raises RtosError mid-simulation",
                target,
            )
    return report.diagnostics[before:]
