"""Protocol model-checking pass (rules PROTO001–PROTO005).

Feeds the declarative window tables from :mod:`repro.cosim.protocol`
to the bounded explorer in :mod:`repro.staticcheck.model` and converts
counterexamples into diagnostics:

* ``PROTO001`` — deadlock: a reachable non-final state where neither
  the master nor any board has an enabled transition;
* ``PROTO002`` — lost wake-up: the system is stuck *with a message
  still in flight* that its receiver can no longer consume (the
  classic "report sent before the grant was registered" shape);
* ``PROTO003`` — non-progress: some reachable state can never reach
  the fully-shut-down configuration (livelock);
* ``PROTO004`` — sequence violation: a stale or gapped grant/report
  reaches a window FSM, or a board takes a grant before the interrupts
  sent ahead of it (only possible when the TCP link's interrupt fence
  is broken);
* ``PROTO005`` — table inconsistency: structural defects in the
  transition tables themselves (unknown events, unreachable states,
  non-accepting states with no way out) or an exploration that blew
  the state bound and is therefore not exhaustive.

The default sweep (``repro lint protocol``) explores three bounded
configurations: single-board with DATA and IRQ traffic, a two-board
multiboard topology, and a single-board run speculating two windows
ahead (the optimistic extension's ``spec_grant``/catch-up/validate
states).  All three are exhaustive — every interleaving the bounds
admit is visited.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cosim.protocol import (
    BOARD_ACCEPTING,
    BOARD_INITIAL,
    BOARD_WINDOW_TABLE,
    MASTER_ACCEPTING,
    MASTER_INITIAL,
    MASTER_WINDOW_TABLE,
)
from repro.staticcheck.diagnostics import LintReport
from repro.staticcheck.model import (
    BOARD_EVENTS,
    MASTER_EVENTS,
    ModelConfig,
    explore,
    table_inconsistencies,
)

#: The bounded configurations the shipped protocol must pass.
DEFAULT_CONFIGS = (
    ModelConfig(name="1-board", boards=1, windows=2,
                irqs_per_window=1, data_per_window=1),
    ModelConfig(name="2-board", boards=2, windows=2,
                irqs_per_window=1, data_per_window=1),
    ModelConfig(name="1-board-speculative", boards=1, windows=2,
                irqs_per_window=1, data_per_window=1,
                speculation_depth=2),
)

_KIND_TO_RULE = {
    "deadlock": "PROTO001",
    "lost-wakeup": "PROTO002",
    "non-progress": "PROTO003",
    "sequence": "PROTO004",
}


def check_protocol_model(report: LintReport,
                         target: str = "protocol",
                         configs: Iterable[ModelConfig] = DEFAULT_CONFIGS,
                         master_table=None,
                         board_table=None,
                         master_initial: str = MASTER_INITIAL,
                         board_initial: str = BOARD_INITIAL,
                         master_accepting=MASTER_ACCEPTING,
                         board_accepting=BOARD_ACCEPTING) -> None:
    """Model-check the window protocol tables.

    Tables default to the shipped ones; the mutation self-tests inject
    defective copies to prove each rule convicts.
    """
    mt = dict(master_table if master_table is not None
              else MASTER_WINDOW_TABLE)
    bt = dict(board_table if board_table is not None
              else BOARD_WINDOW_TABLE)
    report.begin_target(target)

    for problem in table_inconsistencies(mt, master_initial,
                                         tuple(master_accepting),
                                         MASTER_EVENTS, "master"):
        report.add("PROTO005", problem, target)
    for problem in table_inconsistencies(bt, board_initial,
                                         tuple(board_accepting),
                                         BOARD_EVENTS, "board"):
        report.add("PROTO005", problem, target)

    for config in configs:
        result = explore(config, master_table=mt, board_table=bt,
                         master_initial=master_initial,
                         board_initial=board_initial)
        if not result.complete:
            report.add(
                "PROTO005",
                f"config {config.name!r}: exploration exceeded "
                f"{config.max_states} states — result is not exhaustive "
                f"(tighten the bounds or raise max_states)",
                target,
            )
            continue
        report.add(
            "PROTO000",
            f"config {config.name!r}: {result.states} states explored "
            f"exhaustively, {result.final_states} final",
            target,
        )
        for violation in result.violations:
            report.add(
                _KIND_TO_RULE[violation.kind],
                f"config {config.name!r} ({result.states} states): "
                f"{violation.message}; trace: "
                f"{violation.render_trace()}",
                target,
            )


def summarize_exploration(configs: Iterable[ModelConfig] = DEFAULT_CONFIGS,
                          master_table=None,
                          board_table=None) -> str:
    """Human-readable one-liner per config (used by ``repro lint -v``
    style output and the docs' examples)."""
    lines = []
    for config in configs:
        result = explore(config, master_table=master_table,
                         board_table=board_table)
        status = "ok" if result.ok else \
            f"{len(result.violations)} violation(s)"
        lines.append(
            f"{config.name}: {result.states} states, "
            f"{result.final_states} final, {status}"
        )
    return "\n".join(lines)
