"""Wire-layer fault injectors: corruption on the shared medium.

:class:`FaultInjectingWire` is a :class:`~repro.bus.wire.Wire` that runs a
compiled list of wire-layer :class:`~repro.faults.plan.FaultSpec` entries
after every resolved bit.  Each fault sees the (possibly already
corrupted) level and may replace it; the wire's O(1) occupancy counters
and recorded history always reflect what the nodes observe (via
``Wire._override_level``).

All randomness is seeded per fault spec, so the corruption pattern is a
pure function of the plan — the property the campaign engine's
serial==parallel replay depends on.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence

from repro.bus.events import Event, FaultActivated, FaultDeactivated
from repro.bus.wire import Wire
from repro.can.constants import DOMINANT, RECESSIVE
from repro.errors import ConfigurationError
from repro.faults.plan import FaultSpec, next_window_edge

#: Where wire-level fault events are attributed (there is no node).
WIRE_EVENT_NODE = "wire"

EmitFn = Callable[[Event], None]


class CompiledWireFault:
    """One wire fault, compiled for the per-bit hot path."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.active = False

    def apply(self, time: int, level: int) -> int:
        """Return the (possibly corrupted) level for this bit time."""
        raise NotImplementedError


class FlipFault(CompiledWireFault):
    """Seeded per-bit level flips (``wire.flip``)."""

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        probability = float(spec.params.get("flip_probability", 0.0))  # type: ignore[arg-type]
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"fault {spec.name!r}: flip probability must be in [0, 1], "
                f"got {probability}")
        self.flip_probability = probability
        self.dominant_flips_only = bool(
            spec.params.get("dominant_flips_only", False))
        self._rng = random.Random(spec.seed)
        #: Times at which a flip was injected.
        self.flips: List[int] = []

    def apply(self, time: int, level: int) -> int:
        if self._rng.random() >= self.flip_probability:
            return level
        if level == RECESSIVE:
            corrupted = DOMINANT
        elif self.dominant_flips_only:
            return level
        else:
            corrupted = RECESSIVE
        self.flips.append(time)
        return corrupted


class ForcedLevelFault(CompiledWireFault):
    """Bus forced to one level for the whole window (``wire.burst`` /
    ``wire.stuck_dominant`` / ``wire.stuck_recessive``)."""

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        if spec.kind == "wire.stuck_dominant":
            level = DOMINANT
        elif spec.kind == "wire.stuck_recessive":
            level = RECESSIVE
        else:
            level = int(spec.params.get("level", DOMINANT))  # type: ignore[arg-type]
        if level not in (DOMINANT, RECESSIVE):
            raise ConfigurationError(
                f"fault {spec.name!r}: invalid forced level {level!r}")
        self.level = level

    def apply(self, time: int, level: int) -> int:
        return self.level


class GlitchFault(CompiledWireFault):
    """Periodic forced-level glitches inside the window (``wire.glitch``)."""

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.period = int(spec.params.get("period", 50))  # type: ignore[arg-type]
        self.length = int(spec.params.get("length", 1))  # type: ignore[arg-type]
        self.level = int(spec.params.get("level", DOMINANT))  # type: ignore[arg-type]
        if self.period <= 0 or not 0 < self.length <= self.period:
            raise ConfigurationError(
                f"fault {spec.name!r}: need 0 < length <= period, got "
                f"length={self.length} period={self.period}")
        if self.level not in (DOMINANT, RECESSIVE):
            raise ConfigurationError(
                f"fault {spec.name!r}: invalid glitch level {self.level!r}")

    def apply(self, time: int, level: int) -> int:
        if (time - self.spec.window.start_bit) % self.period < self.length:
            return self.level
        return level


_WIRE_FAULTS: dict[str, type[CompiledWireFault]] = {
    "wire.flip": FlipFault,
    "wire.burst": ForcedLevelFault,
    "wire.stuck_dominant": ForcedLevelFault,
    "wire.stuck_recessive": ForcedLevelFault,
    "wire.glitch": GlitchFault,
}


def compile_wire_fault(spec: FaultSpec) -> CompiledWireFault:
    """Compile one wire-layer fault spec into its injector."""
    try:
        factory = _WIRE_FAULTS[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"fault {spec.name!r}: {spec.kind!r} is not a wire fault") from None
    return factory(spec)


class FaultInjectingWire(Wire):
    """A wire that executes wire-layer fault specs on every resolved bit.

    Outside every fault window it behaves as a plain :class:`Wire`, so
    the fast-forward engine spans and replays rounds up to the next window
    edge (:meth:`next_barrier_at`); the wire's clock catches up in bulk.

    Args:
        faults: Wire-layer fault specs, applied in order (later specs see
            earlier specs' corruption).
        record: Keep the (post-corruption) level history.
        max_history: Bound the history ring buffer (see :class:`Wire`).
        emit: Optional event sink receiving :class:`FaultActivated` /
            :class:`FaultDeactivated` on window transitions.
    """

    def __init__(
        self,
        faults: Sequence[FaultSpec] = (),
        record: bool = True,
        max_history: Optional[int] = None,
        emit: Optional[EmitFn] = None,
    ) -> None:
        super().__init__(record=record, max_history=max_history)
        self.injectors: List[CompiledWireFault] = [
            compile_wire_fault(spec) for spec in faults]
        self._emit = emit
        self._time = 0

    def next_barrier_at(self, now: int) -> Optional[int]:
        """Fast-forward barrier: the first bit time from ``now`` on that
        must be stepped per-bit — ``now`` while a fault is active or its
        window is about to open or close, else the next window start
        (None when every window has closed)."""
        return next_window_edge(self.injectors, now)

    def extend_history(self, levels: "List[int]", dominant: int) -> None:
        super().extend_history(levels, dominant)
        self._time += len(levels)

    def extend_recessive(self, count: int) -> None:
        super().extend_recessive(count)
        if count > 0:
            self._time += count

    def drive(self, levels: Iterable[int]) -> int:
        level = super().drive(levels)
        time = self._time
        for injector in self.injectors:
            active = injector.spec.window.active(time)
            if active != injector.active:
                injector.active = active
                if self._emit is not None:
                    event_cls = FaultActivated if active else FaultDeactivated
                    self._emit(event_cls(
                        time=time, node=WIRE_EVENT_NODE,
                        fault=injector.spec.name, kind=injector.spec.kind))
            if active:
                level = injector.apply(time, level)
        if level != self._level:
            self._override_level(level)
        self._time += 1
        return self._level
