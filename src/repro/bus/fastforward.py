"""Fast-forward: chunked clock advancement across spans and repeated rounds.

The per-bit loop in :class:`~repro.bus.simulator.CanBusSimulator` pays the
full output/resolve/observe cost for every bit, yet MichiCAN's decisions (and
every other protocol decision in the repo) concentrate in a handful of bit
positions: SOF and arbitration, the ID/commit window where the firmware
tracks and may counterattack, error frames, and the ACK/EOF trailer.  The
stretches in between — frame bodies with a single synchronized transmitter,
and idle recessive gaps (including the 1408-bit bus-off recovery wait) — are
decision-free, and the decisions themselves repeat: under attack the same
arbitration / counterattack / error-frame round recurs until an error
state moves.  This module advances the clock across all three in one step
each.

Three span kinds are recognised:

**Body spans** — exactly one node is TRANSMITTING somewhere inside its
precompiled stuffed bitstream, every other node is either a synchronized
receiver (its parser was reset at this frame's SOF and fed every bit since,
so ``parser.raw_index == tx_index - 1``) or bus-off.  The wire levels for
the rest of the stuffed region are then exactly the transmitter's stream
slice, and every receiver's parser state at the end of the span is a pure
function of the stream — precomputed once per stream and restored from a
snapshot.  The span ends at the CRC delimiter so ACK, EOF, intermission and
every error path stay per-bit.

**Idle spans** — every node is IDLE with an empty queue (or bus-off).  The
bus stays recessive until the earliest scheduler due time, the earliest
bus-off recovery bit or the caller's deadline, whichever comes first.

**Replayed rounds** (:class:`~repro.bus.roundmemo.RoundMemo`) — a round runs from one round
boundary, the bit at which some node arms a transmission start, to the
next.  At a boundary the engine keys the bus by every node's behaviour
state, as each node-side class declares it (``ROUND_MEMO``, see
:mod:`repro.node.memo`).  The first time a key is seen the round is
stepped per-bit and recorded: wire levels, events, end state, counter
operations and accumulator deltas.  A later boundary with the same key
commits the whole round at once and re-emits the recorded events, shifted
in time, through each node's ``emit``.  The memo only ever replays what the
per-bit engine itself produced, so the per-bit engine stays the one
implementation of protocol behaviour.  DESIGN.md ("Round memo") lists the
signature, the guards and the decline rules.

The determinism contract: a committed span changes simulator state exactly
as the same number of per-bit steps would — same wire history and counters,
same parser/controller/firmware state, same queue contents enqueued at the
same times — and **emits exactly the per-bit event stream** (body and idle
spans emit nothing; a replayed round emits its recorded events, rebased
onto the live clock and queue head).  Whenever any precondition fails the
engine simply declines (:meth:`FastForwardEngine.try_advance` returns 0)
and the caller steps per-bit; unknown node types, instance-patched hooks,
custom wires and ``sim.on_event`` listeners therefore never see a
behaviour change.

**Barriers.**  A fault-injecting wire, a node-fault injector and a
passive sampler each answer when the engine must next step per-bit: a
wire or injector its next fault window edge (``next_barrier_at(now)``,
``now`` while a fault is active or its window state is about to flip),
a sampler its next capture (``next_sample_at()``).  Spans and replayed
rounds end at or before the earliest barrier, so fault activation events
and snapshots happen on per-bit steps at their exact times; in between,
the fault wire's clock catches up in bulk and the wrappers are
transparent.  A round recorded across a barrier is not kept.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.bus.wire import Wire
from repro.can.bitstream import Field, WireBit
from repro.can.constants import (
    BUS_IDLE_RECESSIVE_BITS,
    BUS_OFF_RECOVERY_SEQUENCES,
    DOMINANT,
    RECESSIVE,
)
from repro.core.detection import FirmwarePhase
from repro.node.controller import CanNode, ControllerState
from repro.node.memo import MemoSpec
from repro.node.rxparser import RxParser

if TYPE_CHECKING:
    from repro.bus.roundmemo import RoundMemo
    from repro.bus.simulator import CanBusSimulator

#: The two fast-forward policies accepted by ``advance()``/``advance_until``.
FAST_FORWARD_POLICIES: Tuple[str, ...] = ("auto", "off")

#: Type of a policy value ("auto" or "off").
FastForwardPolicy = str

#: Spans shorter than this are not worth the commit bookkeeping.
MIN_SPAN_BITS = 8

#: After a declined span attempt the caller steps this many bits before the
#: next eligibility check, bounding check overhead to ~1/16 per bit while
#: delaying span entry by at most one frame's arbitration window.
RETRY_INTERVAL_BITS = 16

_PLAIN = 0
_MICHICAN = 1
_UNSAFE = 2
_PASSIVE = 3

_BASE_OUTPUT = CanNode.output
_BASE_OBSERVE = CanNode.observe

_michican_cls: type = None  # type: ignore[assignment]


def _michican_class() -> type:
    # Imported lazily to keep bus -> core -> node import edges acyclic.
    global _michican_cls
    if _michican_cls is None:
        from repro.core.defense import MichiCanNode

        _michican_cls = MichiCanNode
    return _michican_cls


_CLASS_KIND: Dict[type, int] = {}


def _class_kind(cls: type) -> int:
    """Classify a node class: plain controller, MichiCAN, or unsafe.

    Plain means the class inherits :meth:`CanNode.output` and
    :meth:`CanNode.observe` unchanged (attackers, restbus nodes, IDS taps);
    anything overriding either hook — baseline defenders, spoofers —
    is opaque to the engine and forces per-bit stepping.
    :class:`MichiCanNode` is special-cased because its firmware state is
    catch-up-able when it sits in WAIT_SOF.  Pseudo-nodes declaring
    ``ff_passive = True`` (e.g. the snapshot recorder) promise to always
    drive recessive and to take no protocol action; the engine skips them
    in eligibility checks and instead treats their ``next_sample_at()`` as
    a barrier, so every sample still lands on a per-bit step.
    """
    kind = _CLASS_KIND.get(cls)
    if kind is None:
        if cls is _michican_class():
            kind = _MICHICAN
        elif getattr(cls, "ff_passive", False):
            kind = _PASSIVE
        elif (getattr(cls, "output", None) is _BASE_OUTPUT
                and getattr(cls, "observe", None) is _BASE_OBSERVE):
            kind = _PLAIN
        else:
            kind = _UNSAFE
        _CLASS_KIND[cls] = kind
    return kind


def _patched(obj: object, name: str) -> bool:
    """True when ``obj`` carries an instance-level ``name`` (a wrapper a
    fault injector or tracer installed over the class's method).

    A method found on the class is a fresh bound method on every lookup;
    an instance attribute is the same stored object each time.  Not
    ``name in obj.__dict__``: reading ``__dict__`` makes CPython 3.11+
    materialize the instance dict, which slows every later attribute
    access on the object — and these are the per-bit objects.
    """
    return getattr(obj, name, None) is getattr(obj, name, None)


def _scheduler_safe(scheduler: object) -> bool:
    """True when the scheduler's tick() effects can be replayed in O(1).

    Requires the class to implement the fast-forward protocol
    (``next_due``/``fast_forward``) and the instance to not carry a
    patched ``tick`` (e.g. the random-ID attacker's per-frame mutation).
    """
    if _patched(scheduler, "tick"):
        return False
    cls = type(scheduler)
    return (getattr(cls, "fast_forward", None) is not None
            and getattr(cls, "next_due", None) is not None)


class FramePlan:
    """Per-bitstream precomputation shared by every span over that stream.

    Holds the raw level sequence, dominant-count prefix sums (O(1) wire
    counter updates), nearest-dominant indices in both directions (O(1)
    leading/trailing recessive-run queries for firmware and bus-off
    catch-up) and memoized end-of-span parser snapshots.
    """

    __slots__ = ("stream", "levels", "dominant_prefix", "body_end",
                 "next_dominant", "prev_dominant", "_snapshots")

    def __init__(self, stream: List[WireBit]) -> None:
        self.stream = stream
        levels = [bit.level for bit in stream]
        self.levels = levels
        total = len(levels)
        prefix = [0] * (total + 1)
        count = 0
        for index, level in enumerate(levels):
            if level == DOMINANT:
                count += 1
            prefix[index + 1] = count
        self.dominant_prefix = prefix
        body_end = total
        for index, bit in enumerate(stream):
            if bit.field is Field.CRC_DELIM:
                body_end = index
                break
        self.body_end = body_end
        next_dominant = [total] * (total + 1)
        nearest = total
        for index in range(total - 1, -1, -1):
            if levels[index] == DOMINANT:
                nearest = index
            next_dominant[index] = nearest
        self.next_dominant = next_dominant
        prev_dominant = [-1] * total
        nearest = -1
        for index in range(total):
            if levels[index] == DOMINANT:
                nearest = index
            prev_dominant[index] = nearest
        self.prev_dominant = prev_dominant
        self._snapshots: Dict[int, tuple] = {}

    def parser_state_at(self, end: int) -> tuple:
        """Parser state after reset-at-SOF plus feeding ``levels[1:end]``.

        Every receiver synchronized to this stream reaches exactly this
        state at raw index ``end - 1`` (the parser is deterministic in the
        fed levels), so one scratch replay serves all receivers of all
        retransmissions of the frame.
        """
        state = self._snapshots.get(end)
        if state is None:
            scratch = RxParser()
            feed = scratch.feed
            for level in self.levels[1:end]:
                feed(level)
            state = scratch.snapshot()
            self._snapshots[end] = state
        return state


#: Why a round boundary was not replayed, in ``FastForwardStats`` order.
#: Topology reasons hold for the whole bus, lookup reasons for one round:
#:
#: * ``custom_wire`` — a non-recording wire, or a wire subclass that does
#:   not declare its barriers (``next_barrier_at``);
#: * ``listener`` — a ``sim.on_event`` listener may read live node state
#:   (only listeners marked ``reads_event_only``, like the trace
#:   collector's and the bus probe's, are allowed);
#: * ``node_class`` — an opaque or undeclared node class, an instance-level
#:   ``output``/``observe`` that is no barrier-declaring fault wrapper, or a
#:   patched scheduler ``tick``;
#: * ``rx_callbacks`` — a node has receive callbacks registered;
#: * ``undeclared`` — a node component (parser, queue, scheduler, firmware,
#:   ...) has no ``ROUND_MEMO`` declaration;
#: * ``unseen`` — no recording of this signature yet (the round is recorded);
#: * ``barrier`` — a fault is active or about to switch now, or the round
#:   would cover a fault window edge or a sampler's capture;
#: * ``deadline`` — the round would cross the caller's deadline;
#: * ``scheduler_due`` — a scheduler would enqueue inside the round;
#: * ``transition`` — the live error counters would not cross the
#:   error-state thresholds where any recording of this signature did
#:   (the round is recorded as a new variant);
#: * ``recovery`` — a bus-off node would complete its recovery inside.
ROUND_MISS_REASONS: Tuple[str, ...] = (
    "custom_wire", "listener", "node_class", "rx_callbacks", "undeclared",
    "unseen", "barrier", "deadline", "scheduler_due", "transition",
    "recovery",
)


class FastForwardStats:
    """Span counters exposed as ``sim.ff_stats`` for benchmarks and tests.

    ``round_*`` count the round memo: replayed rounds and their bits,
    recordings stored, and per reason why a round was not replayed (see
    :data:`ROUND_MISS_REASONS`).  Topology reasons, and ``barrier``
    while a fault is live, count engine checks (one per retry tick: the
    memo sees no boundary then); lookup reasons count round boundaries.
    """

    __slots__ = ("body_spans", "body_bits", "idle_spans", "idle_bits",
                 "round_spans", "round_bits", "round_records", "round_misses")

    def __init__(self) -> None:
        self.body_spans = 0
        self.body_bits = 0
        self.idle_spans = 0
        self.idle_bits = 0
        self.round_spans = 0
        self.round_bits = 0
        self.round_records = 0
        self.round_misses: Dict[str, int] = dict.fromkeys(ROUND_MISS_REASONS, 0)

    @property
    def fast_bits(self) -> int:
        """Total bits advanced without per-bit stepping."""
        return self.body_bits + self.idle_bits + self.round_bits

    def as_dict(self) -> Dict[str, int]:
        counts = {
            "body_spans": self.body_spans,
            "body_bits": self.body_bits,
            "idle_spans": self.idle_spans,
            "idle_bits": self.idle_bits,
            "round_spans": self.round_spans,
            "round_bits": self.round_bits,
            "round_records": self.round_records,
        }
        for reason, count in self.round_misses.items():
            counts[f"round_miss_{reason}"] = count
        return counts


@dataclass(frozen=True)
class SpanCommit:
    """One committed fast-forward span, reported to :meth:`on_span` hooks.

    Not a bus event: spans are an *engine* artifact (the bit engine never
    produces them), so they ride a separate listener channel and stay out
    of ``sim.events`` — the event stream remains engine-identical.
    """

    kind: str  #: "body", "idle" or "round" (a replayed round)
    start: int  #: first bit time covered by the span
    end: int  #: one past the last bit time covered
    node: Optional[str] = None  #: transmitter name for body spans

    @property
    def bits(self) -> int:
        return self.end - self.start


class _Topology:
    """What eligibility needs to know about a bus that stays fixed while it
    runs: rebuilt at every ``advance()`` call and whenever the wire, the
    node list or the listener list changes.

    ``memo`` is the topology reason the round memo cannot act (None when
    it can), ``spans`` whether body and idle spans may, ``nodes`` the
    protocol nodes (samplers excluded), ``barriers`` the wire's and fault
    wrappers' ``next_barrier_at`` and ``samplers`` the samplers'
    ``next_sample_at``.
    """

    __slots__ = ("wire", "count", "listeners", "memo", "spans", "nodes",
                 "barriers", "samplers")

    def __init__(self, sim: "CanBusSimulator") -> None:
        wire = sim.wire
        self.wire = wire
        self.count = len(sim.nodes)
        self.listeners = len(sim._event_listeners)
        self.nodes: List[CanNode] = []
        self.barriers: List[Callable[[int], Optional[int]]] = []
        self.samplers: List[Callable[[], Optional[int]]] = []
        reasons: List[str] = []
        self.spans = True
        if type(wire) is not Wire:
            barrier = getattr(wire, "next_barrier_at", None)
            if barrier is None:
                self.spans = False
                reasons.append("custom_wire")
            else:
                self.barriers.append(barrier)
        if not wire.record:
            reasons.append("custom_wire")
        for listener in sim._event_listeners:
            # A listener may read live node state at each event (the flight
            # recorder samples it), which a replayed round cannot reproduce;
            # only listeners declaring they read the event alone are safe.
            if not getattr(listener, "reads_event_only", False):
                reasons.append("listener")
        for node in sim.nodes:
            cls = type(node)
            kind = _class_kind(cls)
            if kind == _PASSIVE:
                self.samplers.append(node.next_sample_at)
                continue
            self.nodes.append(node)
            if (kind == _UNSAFE or not self._hooks(node)
                    or (not node.listen_only
                        and not _scheduler_safe(node.scheduler))):
                self.spans = False
                reasons.append("node_class")
                continue
            if not isinstance(cls.__dict__.get("ROUND_MEMO"), MemoSpec):
                reasons.append("node_class")
            if node._rx_callbacks:
                reasons.append("rx_callbacks")
        self.memo = min(reasons, key=ROUND_MISS_REASONS.index, default=None)

    def _hooks(self, node: CanNode) -> bool:
        """True when ``node`` has no instance-level ``output``/``observe``,
        or both belong to one wrapper declaring its barriers (a node-fault
        injector, transparent outside its fault windows)."""
        if not _patched(node, "output") and not _patched(node, "observe"):
            return True
        owner = getattr(node.output, "__self__", None)
        barrier = getattr(owner, "next_barrier_at", None)
        if (owner is node or barrier is None
                or getattr(node.observe, "__self__", None) is not owner):
            return False
        self.barriers.append(barrier)
        return True

    def current(self, sim: "CanBusSimulator") -> bool:
        return (sim.wire is self.wire and len(sim.nodes) == self.count
                and len(sim._event_listeners) == self.listeners)


class FastForwardEngine:
    """Plans and commits fast-forward spans for one simulator.

    The engine holds its simulator weakly (the simulator owns it), so a
    finished simulator is freed by reference counting alone.
    """

    def __init__(self, sim: "CanBusSimulator") -> None:
        self._sim = weakref.ref(sim)
        self.stats = FastForwardStats()
        self._plans: Dict[int, FramePlan] = {}
        self._span_listeners: List[Callable[[SpanCommit], None]] = []
        #: Created at the first round boundary of a memo-eligible bus.
        self._rounds: Optional[RoundMemo] = None
        self._topology: Optional[_Topology] = None
        #: True while the round memo may act at the next round boundary:
        #: the per-bit loop then hands control back at every boundary.
        self.watch_rounds = False

    @property
    def sim(self) -> "CanBusSimulator":
        sim = self._sim()
        assert sim is not None, "the simulator was freed"
        return sim

    def on_span(self, listener: Callable[[SpanCommit], None],
                ) -> Callable[[], None]:
        """Subscribe to span commits; returns an unsubscribe handle.

        Listeners fire after the span's state changes (and, for a replayed
        round, its events) are applied.  They exist for diagnostics (trace
        annotation, flight recording) — span commits carry no protocol
        information that the event stream does not.
        """
        self._span_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._span_listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify_span(self, commit: SpanCommit) -> None:
        for listener in list(self._span_listeners):
            listener(commit)

    # ------------------------------------------------------------- planning

    def _plan(self, stream: List[WireBit]) -> FramePlan:
        # Keyed by stream identity: serialize_frame_cached() hands the same
        # list object to every (re)transmission of a frame, and the plan
        # keeps the stream alive so the id cannot be recycled underneath.
        key = id(stream)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= 128:
                self._plans.pop(next(iter(self._plans)))
            plan = self._plans[key] = FramePlan(stream)
        return plan

    def try_advance(self, deadline: int, rounds: bool = True) -> int:
        """Fast-forward one span if the bus state allows it.

        At a round boundary (some node armed a transmission start) the
        round memo replays the coming round when it has seen it before,
        and otherwise records it while the caller steps it per-bit.
        ``rounds=False`` (used by ``advance_until``) keeps to the
        decision-free body and idle spans.  Nothing is committed across
        the earliest barrier (see the module docstring).

        Returns the number of bits advanced (0 = the caller must step
        per-bit; nothing was changed).
        """
        sim = self.sim
        if not sim.nodes:
            return 0  # stepping an empty bus must keep raising
        topology = self._topology
        if topology is None or not topology.current(sim):
            topology = self._topology = _Topology(sim)
        now = sim.time
        barrier: Optional[int] = None
        for source in topology.barriers:
            at = source(now)
            if at is not None and (barrier is None or at < barrier):
                barrier = at
        for sample in topology.samplers:
            at = sample()
            if at is not None and (barrier is None or at < barrier):
                barrier = at
        memo = self._rounds
        reason = topology.memo if rounds else None
        if reason is None and barrier is not None and barrier <= now:
            reason = "barrier"  # a fault is live, or a capture is due now
        if reason is not None:
            self.stats.round_misses[reason] += 1
        if not rounds or reason is not None:
            self.watch_rounds = False
            if memo is not None:
                memo.discard()
            if barrier is not None and barrier <= now:
                return 0
        else:
            self.watch_rounds = True
            if _armed(topology.nodes):
                if memo is None:
                    # Imported at the first boundary: buses that never
                    # reach one do not pay for loading the memo.
                    from repro.bus.roundmemo import RoundMemo

                    memo = self._rounds = RoundMemo(self.stats)
                bits = memo.at_boundary(sim, topology.nodes, deadline, barrier)
                if bits and self._span_listeners:
                    self._notify_span(SpanCommit("round", now, now + bits))
                return bits
        if not topology.spans:
            return 0
        if barrier is not None and barrier < deadline:
            deadline = barrier
        return self._span(sim, topology.nodes, deadline)

    def end_advance(self) -> None:
        """The caller stopped advancing: drop an unfinished recording, and
        re-derive the topology at the next call (hooks may change between
        calls)."""
        self._topology = None
        if self._rounds is not None:
            self._rounds.discard()

    def _span(self, sim: "CanBusSimulator", nodes: List[CanNode],
              deadline: int) -> int:
        """Commit one body or idle span, or return 0."""
        if deadline - sim.time < MIN_SPAN_BITS:
            return 0
        transmitter = None
        michican = _michican_class()
        for node in nodes:
            if node._start_tx_next or node._drive_dominant_once:
                return 0
            if type(node) is michican:
                firmware = node.firmware
                if (firmware.phase is not FirmwarePhase.WAIT_SOF
                        or firmware.drive_level != RECESSIVE
                        or node._was_attacking
                        or node._reported_detections != len(firmware.detections)):
                    return 0
            state = node.state
            if state is ControllerState.TRANSMITTING:
                if transmitter is not None:
                    return 0  # contended bus: arbitration stays per-bit
                transmitter = node
            elif (state is not ControllerState.IDLE
                    and state is not ControllerState.RECEIVING
                    and state is not ControllerState.BUS_OFF):
                return 0  # error flags, delimiters, intermission, suspend
        if transmitter is not None:
            return self._body_span(sim, transmitter, deadline, nodes)
        return self._idle_span(sim, deadline, nodes)

    def _end_round(self, sim: "CanBusSimulator", nodes: List[CanNode]) -> None:
        """A span is about to commit: the round being recorded ends here."""
        memo = self._rounds
        if memo is not None and memo.recording is not None:
            memo.close_at_span(sim, nodes)

    # ----------------------------------------------------------- body spans

    def _body_span(self, sim: "CanBusSimulator", tx: CanNode, deadline: int,
                   nodes: List[CanNode]) -> int:
        start = sim.time
        index0 = tx._tx_index
        if index0 < 1:
            return 0  # SOF bit itself stays per-bit (parser reset happens there)
        plan = self._plan(tx._tx_stream)
        index1 = plan.body_end
        span = index1 - index0
        if span < MIN_SPAN_BITS or start + span > deadline:
            # Deadline-clamped spans would need snapshots at arbitrary
            # indices; declining keeps the snapshot cache exact and small.
            return 0
        if tx.parser.raw_index != index0 - 1 or tx.parser.drive_ack_next:
            return 0
        levels = plan.levels
        first_dominant = plan.next_dominant[index0]
        has_dominant = first_dominant < index1
        leading = (first_dominant if has_dominant else index1) - index0
        if has_dominant:
            trailing = index1 - 1 - plan.prev_dominant[index1 - 1]
        else:
            trailing = span
        michican = _michican_class()
        for node in nodes:
            if node is not tx:
                state = node.state
                if state is ControllerState.RECEIVING:
                    parser = node.parser
                    if parser.raw_index != index0 - 1 or parser.drive_ack_next:
                        return 0  # unsynchronized receiver: will error per-bit
                elif state is ControllerState.BUS_OFF:
                    if node.auto_recover:
                        run = node._busoff_recessive_run
                        gained = ((run + leading) // BUS_IDLE_RECESSIVE_BITS
                                  - run // BUS_IDLE_RECESSIVE_BITS)
                        if (node._busoff_sequences + gained
                                >= BUS_OFF_RECOVERY_SEQUENCES):
                            return 0  # recovery would fire mid-span
                else:
                    return 0  # a node sitting IDLE mid-frame: per-bit
            if type(node) is michican:
                # A dominant bit arriving with the 11-recessive credit
                # already earned would be a SOF from the firmware's view.
                if (has_dominant and node.firmware._cnt_sof + leading
                        >= BUS_IDLE_RECESSIVE_BITS):
                    return 0
        self._end_round(sim, nodes)
        # ---------------------------------------------------------- commit
        end_time = start + span
        dominant = plan.dominant_prefix[index1] - plan.dominant_prefix[index0]
        sim.wire.extend_history(levels[index0:index1], dominant)
        parser_state = plan.parser_state_at(index1)
        last_time = end_time - 1
        for node in nodes:
            if not node.listen_only:
                node.scheduler.fast_forward(start, end_time, node.queue)
            node._time = last_time
            if node is tx:
                tx._tx_index = index1
                tx._sent_this_bit = levels[index1 - 1]
                tx.parser.restore(parser_state)
            elif node.state is ControllerState.RECEIVING:
                node.parser.restore(parser_state)
                node._sent_this_bit = RECESSIVE
            else:  # BUS_OFF
                node._sent_this_bit = RECESSIVE
                if node.auto_recover:
                    run = node._busoff_recessive_run
                    node._busoff_sequences += (
                        (run + leading) // BUS_IDLE_RECESSIVE_BITS
                        - run // BUS_IDLE_RECESSIVE_BITS)
                    node._busoff_recessive_run = (
                        trailing if has_dominant else run + span)
            if type(node) is michican:
                node.firmware.catch_up_wait_sof(span, has_dominant, trailing)
        sim.time = end_time
        self.stats.body_spans += 1
        self.stats.body_bits += span
        if self._span_listeners:
            self._notify_span(SpanCommit("body", start, end_time, tx.name))
        return span

    # ----------------------------------------------------------- idle spans

    def _idle_span(self, sim: "CanBusSimulator", deadline: int,
                   nodes: List[CanNode]) -> int:
        start = sim.time
        end = deadline
        for node in nodes:
            state = node.state
            if state is ControllerState.IDLE:
                if node.queue.has_pending:
                    return 0  # about to start transmitting
                if not node.listen_only:
                    due = node.scheduler.next_due(start, node.queue)
                    if due is not None:
                        if due <= start:
                            return 0
                        if due < end:
                            end = due
            elif state is ControllerState.BUS_OFF:
                if node.auto_recover:
                    run = node._busoff_recessive_run
                    target = (BUS_OFF_RECOVERY_SEQUENCES - node._busoff_sequences
                              + run // BUS_IDLE_RECESSIVE_BITS)
                    # Recovery fires while observing this bit; it (and the
                    # idle re-entry it triggers) must stay per-bit.
                    recovery_bit = (start + BUS_IDLE_RECESSIVE_BITS * target
                                    - run - 1)
                    if recovery_bit < end:
                        end = recovery_bit
            else:
                return 0
        span = end - start
        if span < MIN_SPAN_BITS:
            return 0
        self._end_round(sim, nodes)
        # ---------------------------------------------------------- commit
        sim.wire.extend_recessive(span)
        last_time = end - 1
        michican = _michican_class()
        for node in nodes:
            if not node.listen_only:
                node.scheduler.fast_forward(start, end, node.queue)
            node._time = last_time
            node._sent_this_bit = RECESSIVE
            if node.state is ControllerState.BUS_OFF and node.auto_recover:
                run = node._busoff_recessive_run
                node._busoff_sequences += (
                    (run + span) // BUS_IDLE_RECESSIVE_BITS
                    - run // BUS_IDLE_RECESSIVE_BITS)
                node._busoff_recessive_run = run + span
            if type(node) is michican:
                node.firmware.catch_up_wait_sof(span, False, 0)
        sim.time = end
        self.stats.idle_spans += 1
        self.stats.idle_bits += span
        if self._span_listeners:
            self._notify_span(SpanCommit("idle", start, end))
        return span


# ------------------------------------------------------------- round memo

def _armed(nodes: List[Any]) -> bool:
    """True at a round boundary: some node will start transmitting next bit
    (a listen-only node's armed start is a no-op)."""
    for node in nodes:
        if getattr(node, "_start_tx_next", False) and not node.listen_only:
            return True
    return False
