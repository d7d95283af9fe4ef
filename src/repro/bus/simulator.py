"""The synchronous bit-time simulation engine.

:class:`CanBusSimulator` advances global time one nominal bit time per step.
Each step has two phases: every node states what it drives, the wired-AND
level is resolved, and every node observes the result.  This mirrors how the
paper's metrics are defined — in integer bit times at a fixed bus speed —
and keeps the engine deterministic and replayable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.bus.events import Event
from repro.bus.wire import Wire
from repro.can.constants import BUS_SPEED_500K
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # the engine only needs these for typing
    from repro.bus.fastforward import FastForwardEngine, FastForwardStats
    from repro.node.controller import CanNode

#: A node's "starts transmitting next bit" flag: a round boundary.
_ARMED = attrgetter("_start_tx_next")


class CanBusSimulator:
    """Discrete bit-level simulator for one CAN bus segment.

    Args:
        bus_speed: Nominal bus speed in bit/s; only used for time conversion
            (the engine itself is unit-less: one step == one bit).
        record_wire: Keep the full per-bit level history (needed by the
            trace recorder; disable only for very long runs).
        wire_history_bits: Bound the recorded history to a ring buffer of
            the last N bits (see :class:`~repro.bus.wire.Wire`); long
            observed runs then use constant memory, and the evicted-bit
            count is exposed as ``sim.wire.dropped_bits``.

    Example:
        >>> from repro.node.controller import CanNode
        >>> from repro.can.frame import CanFrame
        >>> sim = CanBusSimulator()
        >>> a, b = CanNode("a"), CanNode("b")
        >>> sim.add_node(a); sim.add_node(b)
        >>> a.send(CanFrame(0x100, b"\\x01"))
        >>> _ = sim.advance(200)
    """

    def __init__(
        self,
        bus_speed: int = BUS_SPEED_500K,
        record_wire: bool = True,
        wire_history_bits: Optional[int] = None,
    ) -> None:
        if bus_speed <= 0:
            raise ConfigurationError(f"bus speed must be positive, got {bus_speed}")
        self.bus_speed = bus_speed
        self.wire = Wire(record=record_wire, max_history=wire_history_bits)
        self.nodes: List[CanNode] = []
        self._names: Dict[str, CanNode] = {}
        self.time = 0
        self.events: List[Event] = []
        self._events_by_type: Dict[type, List[Event]] = {}
        self._event_listeners: List[Callable[[Event], None]] = []
        self._stop_requested = False
        self._outputs: List[int] = []
        #: Default fast-forward policy for :meth:`advance`/:meth:`advance_until`
        #: when no per-call ``policy`` is given: "auto" (chunk uncontended
        #: spans) or "off" (always per-bit).
        self.fast_forward_policy: str = "auto"
        self._ff_engine: Optional["FastForwardEngine"] = None

    # ------------------------------------------------------------- topology

    def add_node(self, node: CanNode) -> CanNode:
        """Attach ``node`` to the bus.  Names must be unique."""
        if node.name in self._names:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._names[node.name] = node
        self.nodes.append(node)
        node.attach(self._record_event)
        return node

    def add_nodes(self, *nodes: CanNode) -> "CanBusSimulator":
        """Attach several nodes at once; returns ``self`` for chaining."""
        for node in nodes:
            self.add_node(node)
        return self

    def node(self, name: str) -> CanNode:
        """Look a node up by name."""
        try:
            return self._names[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}") from None

    # ---------------------------------------------------------------- events

    def _record_event(self, event: Event) -> None:
        self.events.append(event)
        bucket = self._events_by_type.get(type(event))
        if bucket is None:
            bucket = self._events_by_type[type(event)] = []
        bucket.append(event)
        for listener in self._event_listeners:
            listener(event)

    def on_event(
        self, listener: Callable[[Event], None]
    ) -> Callable[[], None]:
        """Register a live event listener (called as events happen).

        Returns a zero-argument unsubscribe handle: calling it detaches the
        listener again (idempotently), so probes and recorders do not
        accumulate forever on a reused simulator.
        """
        self._event_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._event_listeners:
                self._event_listeners.remove(listener)

        return unsubscribe

    def off_event(self, listener: Callable[[Event], None]) -> None:
        """Detach a listener registered with :meth:`on_event`."""
        try:
            self._event_listeners.remove(listener)
        except ValueError:
            raise ConfigurationError(
                "listener is not subscribed to this simulator") from None

    def events_of(self, event_type: type) -> List[Event]:
        """All recorded events of ``event_type`` (or a subclass).

        Exact-type queries — every call site in the repo — are O(matches)
        via a per-type index maintained in :meth:`_record_event` instead of
        a linear rescan of the whole event list.  Base-class queries fall
        back to the scan to preserve exact stream order across subtypes.
        """
        buckets = [bucket for recorded, bucket in self._events_by_type.items()
                   if issubclass(recorded, event_type)]
        if not buckets:
            return []
        if len(buckets) == 1:
            return list(buckets[0])
        return [e for e in self.events if isinstance(e, event_type)]

    def request_stop(self) -> None:
        """Ask :meth:`advance` to stop after the current bit (usable from
        listeners/callbacks)."""
        self._stop_requested = True

    # ------------------------------------------------------------------- run

    def step(self) -> int:
        """Advance one bit time; return the resolved bus level.

        This is the engine primitive (gateways and instrumentation call it
        directly, once per bit); for multi-bit advancement prefer
        :meth:`advance`, which fast-forwards uncontended spans.
        """
        if not self.nodes:
            raise SimulationError("cannot step a bus with no nodes")
        outputs = [node.output(self.time) for node in self.nodes]
        level = self.wire.drive(outputs)
        for node in self.nodes:
            node.observe(self.time, level)
        self.time += 1
        return level

    def _resolve_policy(self, policy: Optional[str]) -> str:
        if policy is None:
            policy = self.fast_forward_policy
        if policy not in ("auto", "off"):
            raise ConfigurationError(
                f"unknown fast-forward policy {policy!r}; expected 'auto' or 'off'"
            )
        return policy

    def _engine(self) -> "FastForwardEngine":
        engine = self._ff_engine
        if engine is None:
            # Imported lazily: the engine pulls in node/core modules that
            # the simulator itself must not depend on at import time.
            from repro.bus.fastforward import FastForwardEngine

            engine = self._ff_engine = FastForwardEngine(self)
        return engine

    @property
    def ff_stats(self) -> "FastForwardStats":
        """Fast-forward span counters (all zero until spans commit)."""
        return self._engine().stats

    def _instrumented(self) -> bool:
        # Instrumented simulators (subclass or per-instance step() override)
        # keep the one-call-per-bit contract.  An instance attribute is the
        # same object on every lookup (a class method is a fresh bound
        # method); ``"step" in self.__dict__`` would materialize the
        # instance dict, which slows every later attribute access on
        # CPython 3.11+.
        return (self.step is self.step
                or type(self).step is not CanBusSimulator.step)

    def _step_bits(self, deadline: int, stop_at_round: bool = False) -> None:
        """Per-bit stepping until ``deadline`` or a requested stop.

        With ``stop_at_round`` the loop also returns after the first bit
        at which some node arms a transmission start (a round boundary),
        so the fast-forward engine's round memo sees every boundary.
        """
        if self._instrumented():
            while self.time < deadline and not self._stop_requested:
                self.step()
            return
        # The campaign layer multiplies total simulated bits, so this loop
        # is the hottest path in the repo: bind the per-node methods once,
        # reuse one outputs buffer, and avoid the step() dispatch per bit.
        nodes = self.nodes
        drive = self.wire.drive
        output_methods = [node.output for node in nodes]
        observe_methods = [node.observe for node in nodes]
        outputs = self._outputs
        if len(outputs) != len(nodes):
            outputs = self._outputs = [0] * len(nodes)
        # A listen-only node's armed start is a no-op, not a round boundary.
        senders = [node for node in nodes if not getattr(node, "listen_only", True)]
        time = self.time
        while time < deadline and not self._stop_requested:
            if len(nodes) != len(output_methods):  # topology changed mid-run
                output_methods = [node.output for node in nodes]
                observe_methods = [node.observe for node in nodes]
                outputs = self._outputs = [0] * len(nodes)
                senders = [node for node in nodes
                           if not getattr(node, "listen_only", True)]
            for index, output in enumerate(output_methods):
                outputs[index] = output(time)
            level = drive(outputs)
            for observe in observe_methods:
                observe(time, level)
            time += 1
            self.time = time
            if stop_at_round and any(map(_ARMED, senders)):
                return

    def advance(self, bits: int, *, policy: Optional[str] = None) -> int:
        """Advance the clock ``bits`` bit times (or until :meth:`request_stop`).

        Under the "auto" policy (the default) the engine fast-forwards
        uncontended spans — single-transmitter frame bodies and idle gaps —
        and replays rounds (arbitration, counterattack, error frame) it
        has already stepped once with the same node state; everything else
        runs per-bit.  Committed spans are bit-exact: state, wire history
        and the event stream match per-bit stepping (see
        :mod:`repro.bus.fastforward`).  Pass ``policy="off"`` to force
        per-bit stepping for the whole call.

        Returns the time actually reached.
        """
        if bits < 0:
            raise ConfigurationError(f"cannot run for negative time {bits}")
        if not self.nodes and bits > 0:
            raise SimulationError("cannot step a bus with no nodes")
        policy = self._resolve_policy(policy)
        self._stop_requested = False
        deadline = self.time + bits
        if policy == "off" or self._instrumented():
            self._step_bits(deadline)
            return self.time
        from repro.bus.fastforward import RETRY_INTERVAL_BITS

        engine = self._engine()
        try_advance = engine.try_advance
        try:
            while self.time < deadline and not self._stop_requested:
                if try_advance(deadline) == 0:
                    chunk = self.time + RETRY_INTERVAL_BITS
                    self._step_bits(chunk if chunk < deadline else deadline,
                                    engine.watch_rounds)
        finally:
            engine.end_advance()
        return self.time

    def advance_until(
        self,
        predicate: Callable[["CanBusSimulator"], bool],
        limit: int,
        *,
        policy: Optional[str] = None,
    ) -> Optional[int]:
        """Advance until ``predicate(self)`` holds, at most ``limit`` bits.

        Under "auto" the predicate is evaluated after every committed span
        or stepped bit — chunk granularity, which is exact for predicates
        over controller/firmware state (only decision-free body and idle
        spans are taken, never replayed rounds, so such predicates cannot
        flip inside one).  Pass ``policy="off"`` for
        strict per-bit evaluation.  Returns the time at which the predicate
        first held, or None if the limit was reached (or a stop was
        requested) first.
        """
        if limit < 0:
            raise ConfigurationError(f"cannot run for negative time {limit}")
        policy = self._resolve_policy(policy)
        self._stop_requested = False
        deadline = self.time + limit
        if policy == "off" or self._instrumented():
            while self.time < deadline:
                self.step()
                if predicate(self):
                    return self.time
                if self._stop_requested:
                    return None
            return None
        try_advance = self._engine().try_advance
        while self.time < deadline:
            # Only decision-free spans: the predicate must not be able to
            # flip inside a committed span, which a replayed round allows.
            if try_advance(deadline, rounds=False) == 0:
                self.step()
            if predicate(self):
                return self.time
            if self._stop_requested:
                return None
        return None

    # ------------------------------------------------------------ conversions

    def seconds(self, bits: Optional[int] = None) -> float:
        """Convert ``bits`` (default: current time) to seconds."""
        value = self.time if bits is None else bits
        return value / self.bus_speed

    def milliseconds(self, bits: Optional[int] = None) -> float:
        """Convert ``bits`` (default: current time) to milliseconds."""
        return self.seconds(bits) * 1e3
