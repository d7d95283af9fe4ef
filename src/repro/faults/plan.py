"""Declarative fault plans: named faults with bit-time activation windows.

A :class:`FaultPlan` is the schema-versioned, pickle-safe description of
*what goes wrong and when* during a run.  It names each fault, pins it to
one of three layers (wire / node / defense, plus the test-only harness
and store layers), gives it an activation window in bit times (store
faults count write operations instead), and carries an
explicit per-fault seed so the injected pattern is deterministic — the
campaign engine's serial==parallel replay guarantee extends to chaos
runs unchanged.

The plan itself is inert data; :func:`repro.faults.apply.apply_fault_plan`
compiles it into live injectors on a simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Bump when the serialized FaultPlan layout changes incompatibly.
FAULT_PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FaultWindow:
    """A half-open activation interval ``[start_bit, end_bit)`` in bit times.

    ``end_bit=None`` leaves the fault active until the end of the run.
    """

    start_bit: int = 0
    end_bit: Optional[int] = None

    def active(self, time: int) -> bool:
        """Is the fault active at bit time ``time``?"""
        if time < self.start_bit:
            return False
        return self.end_bit is None or time < self.end_bit

    def to_dict(self) -> Dict[str, object]:
        return {"start_bit": self.start_bit, "end_bit": self.end_bit}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultWindow":
        start = payload.get("start_bit", 0)
        end = payload.get("end_bit")
        if not isinstance(start, int) or isinstance(start, bool):
            raise ConfigurationError(
                f"window start_bit must be an int, got {start!r}")
        if end is not None and (not isinstance(end, int)
                                or isinstance(end, bool)):
            raise ConfigurationError(
                f"window end_bit must be an int or null, got {end!r}")
        return cls(start_bit=start, end_bit=end)


def next_window_edge(faults: Sequence[Any], now: int) -> Optional[int]:
    """The earliest bit from ``now`` at which a window-gated fault (with
    ``spec.window`` and an ``active`` flag) acts or switches: ``now`` if
    one is active or its flag disagrees with its window, else the next
    window start; None when every window has closed."""
    edge: Optional[int] = None
    for fault in faults:
        window = fault.spec.window
        if fault.active or window.active(now):
            return now
        if now < window.start_bit and (edge is None or window.start_bit < edge):
            edge = window.start_bit
    return edge


#: kind -> (layer, needs_target, summary, example params).  The single
#: source of truth for the taxonomy table in docs/fault-injection.md and
#: for :func:`example_fault_spec` (the pickle/fan-out smoke test).
FAULT_KINDS: Dict[str, Tuple[str, bool, str, Dict[str, object]]] = {
    "wire.flip": (
        "wire", False,
        "seeded per-bit level flips (EMI on the differential pair)",
        {"flip_probability": 0.01, "dominant_flips_only": False},
    ),
    "wire.burst": (
        "wire", False,
        "bus forced to a fixed level for the whole window",
        {"level": 0},
    ),
    "wire.stuck_dominant": (
        "wire", False,
        "bus stuck dominant (shorted pair) during the window",
        {},
    ),
    "wire.stuck_recessive": (
        "wire", False,
        "bus stuck recessive (open circuit) during the window",
        {},
    ),
    "wire.glitch": (
        "wire", False,
        "periodic forced-level glitches inside the window",
        {"period": 50, "length": 2, "level": 0},
    ),
    "node.tx_stuck": (
        "node", True,
        "transmitter output stuck at a level during the window",
        {"level": 0},
    ),
    "node.babbling": (
        "node", True,
        "babbling-idiot takeover: node floods a (high-priority) id",
        {"can_id": 0x001, "dlc": 8},
    ),
    "node.missed_sample": (
        "node", True,
        "seeded probability of missing a sample interrupt (stale level)",
        {"probability": 0.01},
    ),
    "node.clock_drift": (
        "node", True,
        "oscillator drift + sample-point jitter via core/synchronization",
        {"drift_ppm": 5000.0, "sample_point": 0.70, "fudge_error": 0.0,
         "isr_jitter": 0.0, "edge_margin": 0.10},
    ),
    "node.reset": (
        "node", True,
        "mid-frame power glitch: controller state re-initialised",
        {},
    ),
    "defense.delayed_window": (
        "defense", True,
        "counterattack window trigger delayed by N bits",
        {"delay_bits": 2},
    ),
    "defense.truncated_window": (
        "defense", True,
        "counterattack duration truncated to N bits",
        {"duration_bits": 1},
    ),
    "defense.corrupt_fsm": (
        "defense", True,
        "seeded corruption of detection FSM verdict entries",
        {"entries": 2},
    ),
    "defense.detection_raises": (
        "defense", True,
        "detection callback raises on the next detection in the window",
        {},
    ),
    "store.write_failure": (
        "store", False,
        "journal/checkpoint appends raise OSError on a seeded schedule "
        "(window counts write operations, not bits)",
        {"probability": 1.0, "max_failures": 2},
    ),
    "harness.crash": (
        "harness", False,
        "worker process crashes at window start (campaign-robustness test)",
        {"hard": False},
    ),
    "harness.hang": (
        "harness", False,
        "worker hangs at window start (campaign-timeout test)",
        {"seconds": 60.0},
    ),
}


def fault_kinds() -> Tuple[str, ...]:
    """All registered fault kinds, sorted."""
    return tuple(sorted(FAULT_KINDS))


def layer_of(kind: str) -> str:
    """The injection layer (wire/node/defense/harness) of ``kind``."""
    try:
        return FAULT_KINDS[kind][0]
    except KeyError:
        raise ConfigurationError(f"unknown fault kind {kind!r}") from None


@dataclass(frozen=True)
class FaultSpec:
    """One named fault: a kind, a window, a target and its parameters."""

    name: str
    kind: str
    window: FaultWindow = field(default_factory=FaultWindow)
    target: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "window": self.window.to_dict(),
            "target": self.target,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultSpec":
        window = payload.get("window", {})
        if not isinstance(window, Mapping):
            raise ConfigurationError(
                f"fault window must be a mapping, got {window!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                f"fault params must be a mapping, got {params!r}")
        target = payload.get("target")
        return cls(
            name=str(payload.get("name", "")),
            kind=str(payload.get("kind", "")),
            window=FaultWindow.from_dict(window),
            target=None if target is None else str(target),
            params=dict(params),
            seed=int(payload.get("seed", 0)),  # type: ignore[call-overload]
        )


def flip_fault(
    flip_probability: float,
    seed: int = 0,
    dominant_flips_only: bool = False,
    name: str = "noise",
) -> FaultSpec:
    """A run-long ``wire.flip`` spec: each bit flips with ``flip_probability``.

    Pass the result to :class:`~repro.faults.wire.FaultInjectingWire` or a
    :class:`FaultPlan`; injected flip times are on the compiled injector's
    ``flips`` list.
    """
    return FaultSpec(
        name=name, kind="wire.flip", window=FaultWindow(),
        params={"flip_probability": flip_probability,
                "dominant_flips_only": dominant_flips_only},
        seed=seed)


def burst_fault(
    start_bit: int, length_bits: int, level: int, name: Optional[str] = None
) -> FaultSpec:
    """A windowed ``wire.burst`` spec: the bus is forced to ``level`` for
    ``length_bits`` bits starting at ``start_bit``.

    When several burst specs on one wire overlap, the later spec wins.
    """
    return FaultSpec(
        name=name if name is not None else f"burst_{start_bit}",
        kind="wire.burst",
        window=FaultWindow(start_bit, start_bit + length_bits),
        params={"level": level})


def example_fault_spec(kind: str, seed: int = 0) -> FaultSpec:
    """A minimal valid :class:`FaultSpec` of ``kind`` (smoke-test helper)."""
    try:
        layer, needs_target, _, params = FAULT_KINDS[kind]
    except KeyError:
        raise ConfigurationError(f"unknown fault kind {kind!r}") from None
    target = "defender" if needs_target else None
    return FaultSpec(
        name=kind.replace(".", "_"),
        kind=kind,
        window=FaultWindow(0, 1000),
        target=target,
        params=dict(params),
        seed=seed,
    )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated collection of :class:`FaultSpec` entries."""

    faults: Tuple[FaultSpec, ...] = ()
    schema_version: int = FAULT_PLAN_SCHEMA_VERSION

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` on a bad plan."""
        if self.schema_version != FAULT_PLAN_SCHEMA_VERSION:
            raise ConfigurationError(
                f"fault plan schema v{self.schema_version} unsupported "
                f"(this build reads v{FAULT_PLAN_SCHEMA_VERSION})")
        seen: List[str] = []
        for spec in self.faults:
            if not spec.name:
                raise ConfigurationError("fault spec has an empty name")
            if spec.name in seen:
                raise ConfigurationError(
                    f"duplicate fault name {spec.name!r}")
            seen.append(spec.name)
            if spec.kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"fault {spec.name!r}: unknown kind {spec.kind!r}")
            window = spec.window
            if window.start_bit < 0:
                raise ConfigurationError(
                    f"fault {spec.name!r}: window start "
                    f"{window.start_bit} is negative")
            if window.end_bit is not None and window.end_bit <= window.start_bit:
                raise ConfigurationError(
                    f"fault {spec.name!r}: window end {window.end_bit} "
                    f"does not follow start {window.start_bit}")
            needs_target = FAULT_KINDS[spec.kind][1]
            if needs_target and not spec.target:
                raise ConfigurationError(
                    f"fault {spec.name!r}: kind {spec.kind!r} needs a "
                    f"target node name")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultPlan":
        version = payload.get("schema_version", FAULT_PLAN_SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ConfigurationError(
                f"fault plan schema_version must be an int, got {version!r}")
        raw = payload.get("faults", [])
        if not isinstance(raw, (list, tuple)):
            raise ConfigurationError(
                f"fault plan 'faults' must be a list, got {raw!r}")
        faults = []
        for entry in raw:
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    f"fault entry must be a mapping, got {entry!r}")
            faults.append(FaultSpec.from_dict(entry))
        plan = cls(faults=tuple(faults), schema_version=version)
        plan.validate()
        return plan


def load_fault_plan(path: str) -> FaultPlan:
    """Read and validate a JSON fault plan from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{path}: fault plan must be a JSON object")
    return FaultPlan.from_dict(payload)
