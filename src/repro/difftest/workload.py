"""Fuzz workload specifications.

A :class:`FuzzSpec` is a fully serializable description of one fuzz
case: the scenario, the co-simulation shape (``T_sync``, cycle budget),
the router traffic knobs, an optional fault plan, the adaptive-policy
parameters and the generated-program shape.  Specs are derived from a
base seed and an index through :func:`repro.determinism.derive_seed`,
so ``repro fuzz --seed N --index I`` regenerates case *I* exactly; a
shrunk spec no longer matches any ``(seed, index)`` pair and is instead
replayed from its saved JSON (``repro fuzz --spec FILE``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cosim.adaptive import AdaptivePolicy
from repro.cosim.config import CosimConfig
from repro.determinism import derive_seed, seeded_rng
from repro.errors import ReproError, WorkloadError
from repro.router.testbench import RouterWorkload, check_keys, check_value
from repro.transport.faults import FaultPlan

#: All fuzzable scenarios, in the order the generator cycles through.
SCENARIOS = ("router", "iss", "adaptive", "multiboard")

#: Lower bounds outside the traffic knobs, whose ranges are the codec's.
_MINIMUM = {"index": 0, "t_sync": 1, "max_cycles": 1}


@dataclass
class FuzzSpec:
    """One generated fuzz case (JSON-serializable)."""

    scenario: str
    seed: int
    base_seed: int = 0
    index: int = 0
    # Co-simulation shape.
    t_sync: int = 100
    max_cycles: int = 2000
    # Router traffic knobs (router / adaptive scenarios).
    packets_per_producer: int = 3
    interval_cycles: int = 200
    payload_size: int = 16
    corrupt_rate: float = 0.0
    buffer_capacity: int = 8
    num_ports: int = 4
    burst_size: int = 1
    burst_gap_cycles: int = 0
    #: 1-based interrupt indices the fault plan swallows.
    drop_interrupts: List[int] = field(default_factory=list)
    # Adaptive policy knobs (adaptive scenario).
    adaptive_min: int = 25
    adaptive_initial: int = 100
    adaptive_max: int = 800
    adaptive_patience: int = 2
    # Generated-program shape (iss scenario).
    fragments: int = 4
    # Multi-board shape (multiboard scenario).
    num_boards: int = 2
    data_len: int = 8

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise WorkloadError(f"unknown fuzz scenario {self.scenario!r}")

    # -- derived builders ----------------------------------------------
    def cosim_config(self) -> CosimConfig:
        return CosimConfig(t_sync=self.t_sync)

    def router_workload(self) -> RouterWorkload:
        """The traffic knobs (and ``seed``), read through the workload
        codec."""
        return RouterWorkload.split(self.to_dict())[0]

    def fault_plan(self) -> Optional[FaultPlan]:
        """A fresh plan per run — plans are consumed as they fire."""
        if not self.drop_interrupts:
            return None
        return FaultPlan(drop_interrupts=set(self.drop_interrupts))

    def adaptive_policy(self) -> AdaptivePolicy:
        return AdaptivePolicy(
            min_t_sync=self.adaptive_min,
            initial_t_sync=self.adaptive_initial,
            max_t_sync=self.adaptive_max,
            patience=self.adaptive_patience,
        )

    def payload_bytes(self) -> bytes:
        """Seeded data buffer for the multiboard checksum app."""
        rng = seeded_rng(derive_seed(self.seed, "difftest", "data"))
        return bytes(rng.randrange(256) for _ in range(self.data_len))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzSpec":
        """The strict inverse of :meth:`to_dict`: an unknown field, a
        wrong type or an out-of-range value raises
        :class:`WorkloadError`."""
        # A field's type is that of its value on a default spec.
        template = cls(scenario=SCENARIOS[0], seed=0)
        check_keys(payload, vars(template), "FuzzSpec fields")
        if "scenario" not in payload or "seed" not in payload:
            raise WorkloadError("FuzzSpec needs at least scenario and seed")
        for name, value in payload.items():
            check_value(name, value, type(getattr(template, name)),
                        _MINIMUM.get(name))
        for item in payload.get("drop_interrupts", []):
            check_value("drop_interrupts", item, int, 1)
        spec = cls(**payload)
        spec.router_workload()  # the traffic knobs' ranges
        return spec

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path: str) -> "FuzzSpec":
        with open(path, "r", encoding="ascii") as handle:
            return cls.from_dict(json.load(handle))

    def describe(self) -> str:
        if self.scenario == "iss":
            detail = f"fragments={self.fragments}"
        elif self.scenario == "multiboard":
            detail = (f"boards={self.num_boards} t_sync={self.t_sync} "
                      f"cycles={self.max_cycles}")
        else:
            detail = (f"t_sync={self.t_sync} cycles={self.max_cycles} "
                      f"packets={self.packets_per_producer * self.num_ports}"
                      + (f" drops={self.drop_interrupts}"
                         if self.drop_interrupts else ""))
        return f"[{self.index}] {self.scenario} seed={self.seed} {detail}"


def generate_spec(base_seed: int, index: int,
                  scenarios: Optional[Sequence[str]] = None) -> FuzzSpec:
    """Deterministically generate fuzz case *index* for *base_seed*.

    Scenarios rotate round-robin over *scenarios* (default: all of
    :data:`SCENARIOS`) so every corpus covers every scenario family;
    all knob draws come from a private RNG derived from
    ``(base_seed, "difftest", index)``.
    """
    chosen = tuple(scenarios) if scenarios else SCENARIOS
    for name in chosen:
        if name not in SCENARIOS:
            raise ReproError(f"unknown fuzz scenario {name!r}")
    seed = derive_seed(base_seed, "difftest", index)
    rng = seeded_rng(seed)
    scenario = chosen[index % len(chosen)]
    spec = FuzzSpec(scenario=scenario, seed=seed, base_seed=base_seed,
                    index=index)

    if scenario == "iss":
        spec.fragments = rng.randint(2, 8)
        return spec

    if scenario == "multiboard":
        spec.num_boards = rng.randint(2, 3)
        spec.t_sync = rng.randint(20, 80)
        spec.max_cycles = rng.randint(400, 800)
        spec.data_len = rng.randint(4, 16)
        return spec

    # router / adaptive: shared traffic shape.
    spec.t_sync = rng.randint(25, 250)
    spec.max_cycles = rng.randint(1200, 3000)
    spec.packets_per_producer = rng.randint(2, 5)
    spec.interval_cycles = rng.randint(100, 300)
    spec.payload_size = rng.randint(4, 48)
    spec.corrupt_rate = rng.choice([0.0, 0.0, 0.1, 0.25])
    spec.buffer_capacity = rng.randint(4, 16)
    spec.num_ports = rng.choice([2, 4])
    spec.burst_size = rng.randint(1, 3)
    if spec.burst_size > 1:
        spec.burst_gap_cycles = rng.randint(0, 300)
    if rng.random() < 0.3:
        spec.drop_interrupts = sorted(
            rng.sample(range(1, 7), rng.randint(1, 2))
        )

    if scenario == "adaptive":
        spec.adaptive_min = rng.randint(10, 40)
        spec.adaptive_initial = spec.adaptive_min * rng.randint(1, 4)
        spec.adaptive_max = spec.adaptive_initial * rng.randint(2, 8)
        spec.adaptive_patience = rng.randint(1, 3)
    return spec
