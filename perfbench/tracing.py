"""Spans and layer wrappers for the traced run.

Every span is recorded here, in the benchmark, around calls into the
program's layers; the program itself is not edited.  Two kinds:

* **Spans** wrap calls made a few times per spec (round, spec, build,
  run, advance).  Each keeps its name, start, end, parent id and the id
  shared by all spans of one spec.
* **Call counters** wrap calls made per bit or per pump (wire drive,
  parser feed, firmware handler, fast-forward attempt, ...).  Keeping a
  span per call would cost more than the call; instead each keeps its
  call count, total and self time, and is folded into the innermost span
  open when it ran.

Self time is a call's duration minus the part its nested calls cover, so
the self times of one round add up to the round's wall time exactly; the
``bench.*`` share is time no layer claims.

Wrappers must not change which engine runs.  The fast-forward engine
declines every span (and the run silently drops to per-bit stepping)
when a simulator carries a ``step`` override, a node carries an
instance-level ``output``/``observe``, ``CanNode.output``/``observe`` are
patched on the class, or a scheduler carries a patched ``tick``.  None
of those is wrapped; :func:`engine_hooks` fingerprints them so a run can
prove its wrappers left them alone.  ``MichiCanNode.observe`` is
therefore timed through the two calls it makes (``firmware.handler``
and ``_emit_firmware_events``), and the controller's own per-bit work is
the residue of ``advance`` after every wrapped part.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of every span and call-counter name; ``bench`` is unattributed
#: (benchmark loop glue), ``experiments.service.wait`` is the closed-loop
#: client idling until the service's workers settle a spec.
LAYER_OF = {
    "bench.round": "bench",
    "bench.spec": "bench",
    "bench.client.wait": "experiments.service.wait",
    "experiments.campaign.build": "experiments.campaign",
    "experiments.runner.run": "experiments.runner",
    "bus.simulator.advance": "node.controller",
    "bus.fastforward.try_advance": "bus.fastforward",
    "bus.fastforward.plan": "bus.fastforward",
    "bus.wire.drive": "bus.wire",
    "faults.wire.drive": "faults.wire",
    "node.rxparser.feed": "node.rxparser",
    "core.detection.handler": "core.detection",
    "core.defense.observe": "core.defense",
    "can.bitstream.serialize": "can.bitstream",
    "experiments.service.submit": "experiments.service.sched",
    "experiments.service.pump": "experiments.service.sched",
    "experiments.service.requeue": "experiments.service.sched",
    "experiments.service.ipc": "experiments.service.ipc",
    "experiments.service.journal": "experiments.service.journal",
}


class Tracer:
    """Spans and call counters of one traced round, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: name -> [calls, total_s, self_s, hits] since the last fold.
        self._calls: Dict[str, List[float]] = {}
        #: Child-time accumulators of the open spans and calls.
        self._frames: List[List[float]] = [[0.0]]
        self._open: List[Dict[str, Any]] = []
        self._next_id = 1

    def _fold(self, target: Optional[Dict[str, Any]]) -> None:
        """Move the pending call counters into ``target``'s record."""
        if target is None:
            return
        folded = target.setdefault("calls", {})
        for name, rec in self._calls.items():
            if rec[0]:
                agg = folded.setdefault(name, [0, 0.0, 0.0, 0])
                for index in range(4):
                    agg[index] += rec[index]
                rec[:] = [0, 0.0, 0.0, 0]

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        """Record a span; ``trace`` starts a new per-spec id (children
        inherit their parent's)."""
        parent = self._open[-1] if self._open else None
        self._fold(parent)
        if trace is None and parent is not None:
            trace = parent["trace"]
        record: Dict[str, Any] = {
            "id": self._next_id, "name": name, "trace": trace,
            "parent": None if parent is None else parent["id"]}
        self._next_id += 1
        self._open.append(record)
        frame = [0.0]
        self._frames.append(frame)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._fold(record)
            self._frames.pop()
            self._frames[-1][0] += end - start
            self._open.pop()
            record.update(start=start, end=end, self_s=end - start - frame[0])
            self.spans.append(record)

    def wrap_span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span."""
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name: str, fn: Callable[..., Any],
             hit: Optional[Callable[..., bool]] = None) -> Callable[..., Any]:
        """``fn`` with its calls counted and timed; ``hit(*args)`` (run
        before the call) marks calls to count as hits."""
        rec = self._calls.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if hit is not None and hit(*args, **kwargs):
                rec[3] += 1
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1][0] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
        return wrapper

    # ------------------------------------------------------------ totals

    def calls(self) -> Dict[str, List[float]]:
        """[calls, total_s, self_s, hits] per call-counter name."""
        totals: Dict[str, List[float]] = {}
        for record in self.spans:
            for name, agg in record.get("calls", {}).items():
                into = totals.setdefault(name, [0, 0.0, 0.0, 0])
                for index in range(4):
                    into[index] += agg[index]
        return totals

    def span_total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.spans if r["name"] == name)

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (see :data:`LAYER_OF`)."""
        layers: Dict[str, float] = {}
        for record in self.spans:
            layer = LAYER_OF[record["name"]]
            layers[layer] = layers.get(layer, 0.0) + record["self_s"]
        for name, agg in self.calls().items():
            layer = LAYER_OF[name]
            layers[layer] = layers.get(layer, 0.0) + agg[2]
        return layers


# ---------------------------------------------------------- engine guard

def engine_hooks(sim: Any) -> Tuple[Any, ...]:
    """Fingerprint of every hook whose wrapping switches the engine."""
    from repro.bus import fastforward
    from repro.bus.simulator import CanBusSimulator
    from repro.node.controller import CanNode

    nodes = []
    for node in sim.nodes:
        scheduler = getattr(node, "scheduler", None)
        nodes.append((node.name, "output" in vars(node), "observe" in vars(node),
                      "tick" in getattr(scheduler, "__dict__", {})))
    return ("step" in vars(sim), type(sim).step is CanBusSimulator.step,
            CanNode.output is fastforward._BASE_OUTPUT,
            CanNode.observe is fastforward._BASE_OBSERVE, tuple(nodes))


def instrument_setup(tracer: Tracer, setup: Any) -> List[str]:
    """Wrap the layers of one freshly built simulator (instance level).

    Returns the engine hooks the wrapping changed; any entry fails the
    traced run.
    """
    from repro.bus.wire import Wire

    sim = setup.sim
    before = engine_hooks(sim)
    sim.advance = tracer.wrap_span("bus.simulator.advance", sim.advance)
    engine = sim._engine()
    plans = engine._plans
    engine.try_advance = tracer.wrap("bus.fastforward.try_advance", engine.try_advance)
    engine._plan = tracer.wrap("bus.fastforward.plan", engine._plan,
                               hit=lambda stream: id(stream) not in plans)
    if type(sim.wire) is not Wire:
        sim.wire.drive = tracer.wrap("faults.wire.drive", sim.wire.drive)
    for node in sim.nodes:
        node.parser.feed = tracer.wrap("node.rxparser.feed", node.parser.feed)
        firmware = getattr(node, "firmware", None)
        if firmware is not None:
            firmware.handler = tracer.wrap("core.detection.handler", firmware.handler)
            node._emit_firmware_events = tracer.wrap(
                "core.defense.observe", node._emit_firmware_events)
    after = engine_hooks(sim)
    if after == before and all(before[1:4]):
        return []
    return [f"engine hooks changed: {before!r} -> {after!r}"]


@contextmanager
def class_wrappers(tracer: Tracer) -> Iterator[None]:
    """Wrap the two calls that have no per-instance handle: every
    ``Wire.drive`` (a fault wire reaches it through ``super()``) and the
    serialize memo the controller calls at each transmission start."""
    from repro.bus.wire import Wire
    from repro.can import bitstream
    from repro.node import controller

    drive = Wire.drive
    serialize = controller.serialize_frame_cached
    cache = bitstream._SERIALIZE_CACHE
    Wire.drive = tracer.wrap("bus.wire.drive", drive)  # type: ignore[method-assign]
    controller.serialize_frame_cached = tracer.wrap(
        "can.bitstream.serialize", serialize, hit=lambda frame: frame in cache)
    try:
        yield
    finally:
        Wire.drive = drive  # type: ignore[method-assign]
        controller.serialize_frame_cached = serialize


@contextmanager
def service_wrappers(tracer: Tracer, client: Any,
                     lease_times: Dict[str, float]) -> Iterator[None]:
    """Wrap the service's scheduling, IPC and journal calls (instance
    level, removed again on exit); leases record their time per key."""
    service = client.service

    def record_lease(slot: Any, key: str, *rest: Any) -> bool:
        lease_times.setdefault(key, time.perf_counter())
        return False

    targets = [
        (service, "submit_specs", "experiments.service.submit", None),
        (service, "pump", "experiments.service.pump", None),
        (service.pool, "poll", "experiments.service.ipc", None),
        (service.pool, "lease", "experiments.service.ipc", record_lease),
        (service.journal, "_append", "experiments.service.journal", None),
        (service.queue, "requeue", "experiments.service.requeue", None),
        (client, "wait", "bench.client.wait", None),
    ]
    for obj, attr, name, hit in targets:
        setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), hit=hit))
    try:
        yield
    finally:
        for obj, attr, _name, _hit in targets:
            delattr(obj, attr)
