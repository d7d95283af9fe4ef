"""Crash flight recorder: the last milliseconds of a run, dump-ready.

When a campaign worker dies — an injected fault raising mid-run, a hard
``os._exit`` crash, or the parent terminating it on timeout — the
aggregate report says only *that* it died.  :class:`FlightRecorder`
preserves *why*: a bounded ring of the most recent events, periodic
TEC/REC/controller-state samples per node, the fast-forward span counters
and the tail of the recorded wire, all frozen into a JSON dump the
campaign engine attaches to the :class:`~repro.experiments.campaign.
RunFailure` (``repro trace postmortem <dump>`` renders it).

Crash survival: exception and timeout paths dump explicitly, but a hard
crash (``os._exit``) runs no handlers — so the recorder can *autoflush*
the dump to disk every ``flush_every`` captured events, atomically via a
temp file + ``os.replace``, leaving at most ``flush_every`` events
unaccounted for.  Flushing is count-based, never wall-clock-based, so the
recorder stays legal inside the deterministic engine paths.
"""

from __future__ import annotations

import enum
import json
import os
from collections import deque
from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Union

from repro.bus.events import Event
from repro.can.errors import CanError
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.bus.simulator import CanBusSimulator

#: Bump when the dump layout changes incompatibly.
FLIGHT_SCHEMA_VERSION = 1

#: The dump's format marker.
FLIGHT_KIND = "repro.obs.flight"

#: Default bounded-ring capacities.
DEFAULT_EVENT_CAPACITY = 256
DEFAULT_SAMPLE_CAPACITY = 64
DEFAULT_WIRE_TAIL_BITS = 512

PathLike = Union[str, "os.PathLike[str]"]


def _encode_value(value: Any) -> Any:
    """JSON-safe encoding of one event field (total: never raises)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, CanFrame):
        return {"can_id": value.can_id, "data": value.data.hex(),
                "extended": value.extended, "remote": value.remote}
    if isinstance(value, CanError):
        return {"error_type": value.error_type.value, "detail": value.detail,
                "as_transmitter": value.as_transmitter}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    return str(value)


def _encode_event(event: Event) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"type": type(event).__name__,
                             "time": event.time, "node": event.node}
    for spec in dataclass_fields(event):
        if spec.name not in ("time", "node"):
            entry[spec.name] = _encode_value(getattr(event, spec.name))
    return entry


class FlightRecorder:
    """Bounded black-box recording of a simulator's recent past.

    Args:
        sim: Simulator to observe; subscribes immediately.
        event_capacity: Ring size for the most recent events.
        sample_every_bits: Period (in bit times) of the node TEC/REC/state
            sample ring; sampling piggybacks on event delivery so the
            engine hot loop is untouched.
        sample_capacity: Ring size for node-state samples.
        autoflush_path: When set, the dump is atomically rewritten here
            every ``flush_every`` captured events (hard-crash survival).
        flush_every: Event count between autoflushes.
    """

    def __init__(self, sim: "CanBusSimulator",
                 event_capacity: int = DEFAULT_EVENT_CAPACITY,
                 sample_every_bits: int = 1_000,
                 sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
                 autoflush_path: Optional[PathLike] = None,
                 flush_every: int = 64) -> None:
        if event_capacity <= 0:
            raise ConfigurationError(
                f"event capacity must be positive, got {event_capacity}")
        if sample_every_bits <= 0:
            raise ConfigurationError(
                f"sample period must be positive, got {sample_every_bits}")
        if flush_every <= 0:
            raise ConfigurationError(
                f"flush period must be positive, got {flush_every}")
        self.sim = sim
        self.sample_every_bits = sample_every_bits
        self.autoflush_path = (
            os.fspath(autoflush_path) if autoflush_path is not None else None)
        self.flush_every = flush_every
        self._events: Deque[Dict[str, Any]] = deque(maxlen=event_capacity)
        self._samples: Deque[Dict[str, Any]] = deque(maxlen=sample_capacity)
        self._next_sample_at = sim.time + sample_every_bits
        self._since_flush = 0
        self._unsubscribe = sim.on_event(self._on_event)
        self.closed = False

    # ------------------------------------------------------------- capture

    def _on_event(self, event: Event) -> None:
        self._events.append(_encode_event(event))
        if event.time >= self._next_sample_at:
            self._samples.append(self._sample_nodes(event.time))
            while self._next_sample_at <= event.time:
                self._next_sample_at += self.sample_every_bits
        if self.autoflush_path is not None:
            self._since_flush += 1
            if self._since_flush >= self.flush_every:
                self.flush(reason="autoflush")

    def _sample_nodes(self, time: int) -> Dict[str, Any]:
        nodes: Dict[str, Any] = {}
        for node in self.sim.nodes:
            if not hasattr(node, "tec"):
                continue  # pseudo-nodes (recorders, probes) carry no state
            entry: Dict[str, Any] = {"tec": node.tec, "rec": node.rec,
                                     "state": node.state.value}
            firmware = getattr(node, "firmware", None)
            if firmware is not None and hasattr(firmware, "phase"):
                entry["firmware_phase"] = firmware.phase.name
            nodes[node.name] = entry
        return {"time": time, "nodes": nodes}

    # ---------------------------------------------------------------- dump

    def dump(self, reason: str = "manual") -> Dict[str, Any]:
        """Freeze the recorder's current state into a JSON-safe dump."""
        sim = self.sim
        wire = sim.wire
        tail = list(wire.history)[-DEFAULT_WIRE_TAIL_BITS:]
        end_bit = wire.total_bits
        return {
            "kind": FLIGHT_KIND,
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "time": sim.time,
            "bus_speed": sim.bus_speed,
            "events": list(self._events),
            "samples": list(self._samples),
            "nodes": self._sample_nodes(sim.time)["nodes"],
            "ff_stats": sim.ff_stats.as_dict(),
            "wire_tail": {
                "levels": tail,
                "start_bit": end_bit - len(tail),
                "end_bit": end_bit,
                "dropped_bits": wire.dropped_bits,
            },
        }

    def flush(self, reason: str = "flush") -> Optional[str]:
        """Atomically (re)write the dump to :attr:`autoflush_path`."""
        if self.autoflush_path is None:
            return None
        self._since_flush = 0
        return write_dump(self.dump(reason=reason), self.autoflush_path)

    def close(self) -> None:
        """Detach from the simulator's event stream (idempotent)."""
        if not self.closed:
            self._unsubscribe()
            self.closed = True


# --------------------------------------------------------------- dump I/O

def write_dump(dump: Dict[str, Any], path: PathLike) -> str:
    """Write a dump atomically (temp file + rename); returns the path."""
    target = os.fspath(path)
    tmp = target + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(dump, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, target)
    return target


def load_dump(path: PathLike) -> Dict[str, Any]:
    """Load a dump, validating its format marker and schema version."""
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    if not isinstance(dump, dict) or dump.get("kind") != FLIGHT_KIND:
        raise ConfigurationError(
            f"{os.fspath(path)!r} is not a flight-recorder dump")
    version = dump.get("schema_version")
    if version != FLIGHT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"flight dump {os.fspath(path)!r} has schema version "
            f"{version!r}; this build reads version {FLIGHT_SCHEMA_VERSION}")
    return dump


# ----------------------------------------------------------------- render

def _format_event(entry: Dict[str, Any]) -> str:
    extras = []
    for key, value in sorted(entry.items()):
        if key in ("type", "time", "node"):
            continue
        if isinstance(value, dict) and "can_id" in value:
            value = f"0x{value['can_id']:03X}"
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        extras.append(f"{key}={value}")
    return (f"  t={entry.get('time', 0):>8} "
            f"{entry.get('type', '?'):<20} {entry.get('node', ''):<14} "
            + " ".join(extras))


def render_dump(dump: Dict[str, Any], events: int = 20,
                decode_wire_tail: bool = True) -> str:
    """Human-readable post-mortem: final state, recent events, wire tail."""
    bus_speed = dump.get("bus_speed") or 1
    time = dump.get("time", 0)
    lines = [
        f"flight recorder dump ({dump.get('reason', 'unknown')}) at "
        f"t={time} bits ({time * 1e3 / bus_speed:.2f} ms at "
        f"{bus_speed // 1000} kbit/s)",
        "",
        "final node states:",
    ]
    for name in sorted(dump.get("nodes", {})):
        node = dump["nodes"][name]
        phase = node.get("firmware_phase")
        lines.append(
            f"  {name:<14} state={node.get('state', '?'):<13} "
            f"tec={node.get('tec', 0):<4} rec={node.get('rec', 0):<4}"
            + (f" firmware={phase}" if phase else ""))
    recorded = dump.get("events", [])
    shown = recorded[-events:]
    lines.append("")
    lines.append(f"last {len(shown)} of {len(recorded)} recorded events:")
    lines.extend(_format_event(entry) for entry in shown)
    samples = dump.get("samples", [])
    if samples:
        lines.append("")
        lines.append(f"TEC trajectory ({len(samples)} samples):")
        for sample in samples[-8:]:
            cells = " ".join(
                f"{name}={data.get('tec', 0)}"
                for name, data in sorted(sample.get("nodes", {}).items()))
            lines.append(f"  t={sample.get('time', 0):>8} {cells}")
    tail = dump.get("wire_tail", {})
    levels = tail.get("levels", [])
    if decode_wire_tail and levels:
        from repro.trace.decoder import WireDecoder

        start_bit = tail.get("start_bit", 0)
        entries = WireDecoder(assume_idle_at_start=False).decode(levels)
        lines.append("")
        lines.append(f"decoded wire tail ({len(levels)} bits, "
                     f"[{start_bit}, {tail.get('end_bit', 0)})):")
        for entry in entries:
            what = entry.kind.value
            if entry.frame is not None:
                what += f" 0x{entry.frame.can_id:03X}"
            if entry.detail:
                what += f" ({entry.detail})"
            lines.append(f"  [{start_bit + entry.start:>8}, "
                         f"{start_bit + entry.end:>8}) {what}")
        if not entries:
            lines.append("  (no decodable activity)")
    stats = dump.get("ff_stats", {})
    if (stats.get("body_spans") or stats.get("idle_spans")
            or stats.get("round_spans")):
        lines.append("")
        lines.append(
            f"fast-forward: {stats.get('body_spans', 0)} body spans "
            f"({stats.get('body_bits', 0)} bits), "
            f"{stats.get('idle_spans', 0)} idle spans "
            f"({stats.get('idle_bits', 0)} bits), "
            f"{stats.get('round_spans', 0)} replayed rounds "
            f"({stats.get('round_bits', 0)} bits)")
    return "\n".join(lines)
