"""The fast-forward engine's round memo: replay repeated bus rounds.

A *round* runs from one round boundary — the bit at which some node arms
a transmission start — to the next.  Under attack the same round repeats
until an error state changes: arbitration, MichiCAN's dominant pulse at
positions 13–20, error flags, delimiter, intermission (and suspend).
:class:`RoundMemo` keys each boundary by every node's behaviour state, as
the node-side classes declare it (``ROUND_MEMO``, :mod:`repro.node.memo`).
An unseen key is stepped per-bit by the caller while the memo records it:
wire levels, events, end state, counter operations and accumulator
deltas.  A seen key is committed in one step, and the recorded events are
re-emitted, shifted in time, through each node's ``emit`` — exactly the
per-bit event stream (see the contract in :mod:`repro.bus.fastforward`).
DESIGN.md ("Round memo") lists the signature, guards and decline rules.

The engine imports this module at a bus's first round boundary.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.bus.events import (
    ArbitrationLost,
    AttackDetected,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    Event,
    FrameReceived,
    FrameStarted,
    OverloadSignalled,
)
from repro.bus.fastforward import SpanCommit
from repro.node.faults import HookCall
from repro.node.memo import (
    COUNT,
    COUNTERS,
    FIXED,
    HEAD,
    LIST,
    NESTED,
    OPS,
    REF,
    STAMP,
    TIMED,
    VALUE,
    Bounded,
    MemoSpec,
    Saturating,
)

if TYPE_CHECKING:
    from repro.bus.fastforward import FastForwardEngine
    from repro.bus.simulator import CanBusSimulator


class _Layout:
    """One class's ``ROUND_MEMO`` compiled for fast reads and writes."""

    __slots__ = ("values", "get_values", "lists", "refs", "nested", "heads",
                 "stamps", "saturating", "counts", "limits", "counters",
                 "timed", "fixed", "ops", "fields", "rules", "_masks",
                 "tracks")

    def __init__(self, spec: MemoSpec) -> None:
        signature = spec.signature
        kinds = {VALUE, LIST, REF, NESTED, HEAD, STAMP}
        unknown = {k for k in signature.values()
                   if isinstance(k, str) and k not in kinds}
        self.values = tuple(n for n, k in signature.items() if k == VALUE)
        self.get_values = _tuple_getter(self.values)
        self.lists = tuple(n for n, k in signature.items() if k == LIST)
        self.refs = tuple(n for n, k in signature.items() if k == REF)
        self.nested = tuple(n for n, k in signature.items() if k == NESTED)
        self.heads = tuple(n for n, k in signature.items() if k == HEAD)
        self.stamps = tuple(n for n, k in signature.items() if k == STAMP)
        self.saturating = tuple((n, k.cap) for n, k in signature.items()
                                if isinstance(k, Saturating))
        accumulators = spec.accumulators
        unknown |= {k for k in accumulators.values() if isinstance(k, str)} - {
            COUNT, COUNTERS, TIMED, FIXED, OPS}
        if unknown:
            raise ValueError(f"unknown round-memo kinds {sorted(unknown)}")
        self.counts = tuple(
            (n, k.limit if isinstance(k, Bounded) else None)
            for n, k in accumulators.items()
            if k == COUNT or isinstance(k, Bounded))
        self.limits = {n: limit for n, limit in self.counts if limit is not None}
        self.counters = tuple(n for n, k in accumulators.items() if k == COUNTERS)
        self.timed = tuple(n for n, k in accumulators.items() if k == TIMED)
        self.fixed = tuple(n for n, k in accumulators.items() if k == FIXED)
        self.ops = any(k == OPS for k in accumulators.values())
        #: Every keyed plain field: what a component declared dead by its
        #: owner leaves out of the key.
        self.fields = self.values + self.lists + self.refs
        # (attribute, live values, dead fields, dead components) per rule.
        grouped: Dict[Tuple[str, Tuple[Any, ...]], List[str]] = {}
        for name, (attribute, live) in spec.live.items():
            grouped.setdefault((attribute, tuple(live)), []).append(name)
        self.rules = tuple(
            (attribute, live,
             tuple(n for n in names if signature[n] != NESTED),
             tuple(n for n in names if signature[n] == NESTED))
            for (attribute, live), names in grouped.items())
        self._masks: Dict[Tuple[str, ...], Tuple[Any, ...]] = {}
        self.tracks = bool(self.counts or self.counters or self.timed
                           or self.fixed or self.heads)

    def dead(self, obj: Any) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """(fields, components) of ``obj`` that are dead right now."""
        dead: Tuple[str, ...] = ()
        components: Tuple[str, ...] = ()
        for attribute, live, dead_fields, dead_components in self.rules:
            if getattr(obj, attribute) not in live:
                dead += dead_fields
                components += dead_components
        return dead, components

    def key(self, obj: Any, dead: Tuple[str, ...]) -> tuple:
        """The signature part of ``obj`` without its ``dead`` fields: the
        VALUE tuple, then lists, REF ids, saturated counters, heads."""
        _, get_values, lists, refs = self.live(dead)
        parts: List[Any] = [get_values(obj)]
        for name in lists:
            parts.append(tuple(getattr(obj, name)))
        for name in refs:
            parts.append(id(getattr(obj, name)))
        for name, cap in self.saturating:
            value = getattr(obj, name)
            parts.append(value if value < cap else cap)
        for name in self.heads:
            pending = getattr(obj, name)
            parts.append((len(pending), pending[0].frame) if pending else 0)
        return tuple(parts)

    def live(self, dead: Tuple[str, ...]) -> Tuple[Any, ...]:
        """(VALUE names, their getter, LIST names, REF names) keyed while
        ``dead`` fields are dead: the layout of a signature part."""
        if not dead:
            return self.values, self.get_values, self.lists, self.refs
        mask = self._masks.get(dead)
        if mask is None:
            values = tuple(n for n in self.values if n not in dead)
            mask = self._masks[dead] = (
                values, _tuple_getter(values),
                tuple(n for n in self.lists if n not in dead),
                tuple(n for n in self.refs if n not in dead))
        return mask


def _tuple_getter(names: Tuple[str, ...]) -> Callable[[Any], tuple]:
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        name = names[0]
        return lambda obj: (getattr(obj, name),)
    return lambda obj: ()


_LAYOUTS: Dict[type, Optional[_Layout]] = {}


def _layout(cls: type) -> Optional[_Layout]:
    """The compiled declaration of ``cls``; None when the class itself
    (not merely a base class) declares no ``ROUND_MEMO``."""
    try:
        return _LAYOUTS[cls]
    except KeyError:
        spec = cls.__dict__.get("ROUND_MEMO")
        layout = _LAYOUTS[cls] = (
            _Layout(spec) if isinstance(spec, MemoSpec) else None)
        return layout


#: (object, layout, its dead fields, its signature part or None for a
#: dead component) per declared object, depth first.
_Collected = List[Tuple[Any, _Layout, Tuple[str, ...], Optional[tuple]]]


def _collect(nodes: List[Any]) -> Optional[Tuple[tuple, _Collected]]:
    """The bus signature and its objects, or None if one is undeclared.

    A component its owner declares dead contributes only its class to the
    key, and all of its fields count as dead.
    """
    objects: _Collected = []
    key: List[Any] = []
    stack: List[Tuple[Any, bool]] = [(node, False) for node in reversed(nodes)]
    while stack:
        obj, buried = stack.pop()
        if obj is None:
            key.append(None)
            continue
        layout = _layout(type(obj))
        if layout is None:
            return None
        key.append(type(obj))
        part: Optional[tuple] = None
        if buried:
            dead = layout.fields
            components = layout.nested
        else:
            dead, components = layout.dead(obj) if layout.rules else ((), ())
            part = layout.key(obj, dead)
            key.append(part)
        objects.append((obj, layout, dead, part))
        for name in reversed(layout.nested):
            stack.append((getattr(obj, name), buried or name in components))
    return tuple(key), objects


#: Event types a recording may contain; any other discards it.
_REPLAYABLE_EVENTS = frozenset({
    ErrorDetected, FrameStarted, ArbitrationLost, AttackDetected,
    CounterattackStarted, CounterattackEnded, OverloadSignalled,
    FrameReceived,
})


class _DeadField:
    """Placeholder held by a dead field while a round is recorded: a
    field still holding it at the end was not written by the round."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<dead until written>"


_DEAD = _DeadField()


class _Start:
    """An object's accumulators at a recording's start, for the deltas
    (its signature values are the key part itself)."""

    __slots__ = ("counts", "counters", "timed", "fixed", "head")

    def __init__(self, obj: Any, layout: _Layout) -> None:
        self.counts = [getattr(obj, name) for name, _ in layout.counts]
        self.counters = [_record_values(getattr(obj, name))
                         for name in layout.counters]
        self.timed = [len(getattr(obj, name)) for name in layout.timed]
        self.fixed = [_version(getattr(obj, name)) for name in layout.fixed]
        self.head: List[Any] = []
        for name in layout.heads:
            pending = getattr(obj, name)
            head = pending[0] if pending else None
            self.head.append((pending, len(pending), head,
                              head.frame if head else None,
                              head.attempts if head else 0))


_NO_START = _Start(object(), _Layout(MemoSpec({})))


def _version(value: Any) -> Any:
    """What a FIXED accumulator compares: list length, else the value."""
    return len(value) if isinstance(value, list) else value


class _End:
    """One object's recorded writes: only what the round changed.

    A live VALUE, LIST or REF field equal to its start value is left out —
    the live object matches the recorded start on it (same signature).  A
    dead field is recorded whenever the round wrote it, since the live
    object's leftover may differ from the recording's.  A steady-state
    round therefore writes little more than its accumulators.
    """

    __slots__ = ("values", "lists", "saturating", "stamps", "counts",
                 "counters", "timed", "attempts", "ops")

    def __init__(self, obj: Any, layout: _Layout, dead: Tuple[str, ...],
                 part: Optional[tuple], start: _Start, t0: int) -> None:
        values: Dict[str, Any] = {}
        lists = []
        for name in dead:  # written by the round unless still parked
            value = getattr(obj, name)
            if value is not _DEAD:
                if name in layout.lists:
                    lists.append((name, tuple(value)))
                else:
                    values[name] = value
        if part is not None:
            names, get_values, list_names, ref_names = layout.live(dead)
            for name, value, before in zip(names, get_values(obj), part[0]):
                if value != before or type(value) is not type(before):
                    values[name] = value
            for name, before in zip(list_names, part[1:]):
                value = tuple(getattr(obj, name))
                if value != before:
                    lists.append((name, value))
            for name, before in zip(ref_names, part[1 + len(list_names):]):
                value = getattr(obj, name)
                if id(value) != before:
                    values[name] = value
        self.values = values
        self.lists = tuple(lists)
        self.saturating = tuple((name, getattr(obj, name))
                                for name, _ in layout.saturating)
        self.stamps = tuple(
            (name, getattr(obj, name) - t0) for name in layout.stamps
            if getattr(obj, name) >= t0)
        self.counts = tuple(
            (name, getattr(obj, name) - before)
            for (name, _), before in zip(layout.counts, start.counts)
            if getattr(obj, name) != before)
        self.counters = tuple(
            (name, tuple((field, value - old)
                         for field, value, old in zip(
                             _record_fields(type(getattr(obj, name))),
                             _record_values(getattr(obj, name)), before)
                         if value != old))
            for name, before in zip(layout.counters, start.counters))
        self.timed = tuple(
            (name, tuple((item, item.time - t0)
                         for item in getattr(obj, name)[length:]))
            for name, length in zip(layout.timed, start.timed)
            if len(getattr(obj, name)) > length)
        self.attempts = tuple(
            (name, getattr(obj, name)[0].attempts - attempts0)
            for name, (_, _, head, _, attempts0) in zip(layout.heads, start.head)
            if head is not None and head.attempts != attempts0)
        self.ops: Tuple[HookCall, ...] = ()
        if layout.ops:
            self.ops = tuple((name, time - t0, args)
                             for name, time, args in obj.journal)

    def __bool__(self) -> bool:
        return bool(self.values or self.lists or self.saturating
                    or self.stamps or self.counts or self.counters
                    or self.timed or self.attempts or self.ops)


def _unchanged(obj: Any, layout: _Layout, start: _Start) -> bool:
    """True when a round left the object's FIXED accumulators and queue
    alone apart from head-frame attempts."""
    for name, before in zip(layout.fixed, start.fixed):
        if _version(getattr(obj, name)) != before:
            return False
    for name, (pending, length, head, frame, _) in zip(layout.heads, start.head):
        now = getattr(obj, name)
        if now is not pending or len(now) != length:
            return False
        if head is not None and (now[0] is not head or head.frame is not frame):
            return False
    return True


class _Recording:
    """A round being stepped per-bit under observation.

    Dead fields hold :data:`_DEAD` while the round runs, so the end state
    tells which of them the round wrote; :meth:`unpark` puts back any the
    round left alone, and stops the counter journals.
    """

    __slots__ = ("key", "start", "events", "wire_bits", "dominant",
                 "objects", "starts", "attempts", "pins", "journaled",
                 "parked")

    def __init__(self, sim: "CanBusSimulator", key: tuple,
                 objects: _Collected) -> None:
        self.key = key
        self.start = sim.time
        self.events = len(sim.events)
        self.wire_bits = sim.wire.total_bits
        self.dominant = sim.wire.dominant_bits
        self.objects = objects
        self.starts = [_Start(obj, layout) if layout.tracks else _NO_START
                       for obj, layout, _, _ in objects]
        self.journaled = [obj for obj, layout, _, _ in objects if layout.ops]
        for obj in self.journaled:
            obj.journal = []
        #: Head-frame attempts per node, to rebase FrameStarted.attempt.
        self.attempts = [_head_of(node)[1] for node in sim.nodes]
        #: The signature holds live REF objects' ids: the entry keeps them.
        self.pins = [getattr(obj, name) for obj, layout, dead, _ in objects
                     for name in layout.refs if name not in dead]
        self.parked: List[Tuple[Any, Tuple[str, ...], List[Any]]] = []
        for obj, _, dead, _ in objects:
            if dead:
                self.parked.append((obj, dead, [getattr(obj, n) for n in dead]))
                for name in dead:
                    setattr(obj, name, _DEAD)

    def unpark(self) -> None:
        for obj, names, values in self.parked:
            for name, value in zip(names, values):
                if getattr(obj, name) is _DEAD:
                    setattr(obj, name, value)
        self.parked = []
        for obj in self.journaled:
            obj.journal = None


def _head_of(node: Any) -> Tuple[Any, int]:
    head = node.queue.peek()
    return head, (head.attempts if head is not None else 0)


class _Entry:
    """One recorded round: everything a replay writes."""

    __slots__ = ("start", "bits", "levels", "dominant", "ends", "events",
                 "attempts", "pins")

    def __init__(self, recording: _Recording, bits: int, levels: List[int],
                 dominant: int, ends: List[Tuple[int, _End]],
                 events: List[Tuple[int, Event]]) -> None:
        self.start = recording.start
        self.bits = bits
        self.levels = levels
        self.dominant = dominant
        self.ends = ends
        #: (node position, event) in emission order.
        self.events = events
        self.attempts = recording.attempts
        #: Keeps the keyed REF objects alive, so a live object with a
        #: pinned id() is the very object the round was recorded with.
        self.pins = recording.pins


#: Recorded rounds kept per simulator (FIFO, like the FramePlan cache).
MAX_ROUND_ENTRIES = 128


class RoundMemo:
    """Records and replays repeated bus rounds for one simulator (see the
    module docstring)."""

    def __init__(self, engine: "FastForwardEngine") -> None:
        self.engine = engine
        self.entries: Dict[tuple, _Entry] = {}
        self.recording: Optional[_Recording] = None

    def discard(self) -> None:
        if self.recording is not None:
            self.recording.unpark()
            self.recording = None

    def at_boundary(self, deadline: int) -> int:
        """Finish the running recording and replay or record the next round."""
        sim = self.engine.sim
        stats = self.engine.stats
        collected = _collect(sim.nodes)
        recording = self.recording
        if recording is not None:
            self.recording = None
            if collected is not None and sim.time > recording.start:
                self._store(recording, collected[1])
            recording.unpark()
        if collected is None:
            stats.round_misses["undeclared"] += 1
            return 0
        key, objects = collected
        entry = self.entries.get(key)
        if entry is None:
            stats.round_misses["unseen"] += 1
            self.recording = _Recording(sim, key, objects)
            return 0
        return self._replay(entry, objects, deadline)

    # ------------------------------------------------------------ record

    def _store(self, recording: _Recording, objects: _Collected) -> None:
        sim = self.engine.sim
        started = recording.objects
        if len(objects) != len(started) or any(
                now[0] is not then[0] for now, then in zip(objects, started)):
            return  # a component was replaced (power cycle, hot swap)
        ends = []
        for index, ((obj, layout, dead, part), start) in enumerate(
                zip(started, recording.starts)):
            if layout.tracks and not _unchanged(obj, layout, start):
                return  # enqueue, completion or error-state change
            end = _End(obj, layout, dead, part, start, recording.start)
            if end:
                ends.append((index, end))
        position = {node.name: index for index, node in enumerate(sim.nodes)}
        events = []
        for event in sim.events[recording.events:]:
            if (type(event) not in _REPLAYABLE_EVENTS
                    or event.node not in position):
                return
            events.append((position[event.node], event))
        bits = sim.time - recording.start
        wire = sim.wire
        history = wire.history
        if wire.total_bits - recording.wire_bits != bits or len(history) < bits:
            return
        levels = list(islice(history, len(history) - bits, None))
        if len(self.entries) >= MAX_ROUND_ENTRIES:
            self.entries.pop(next(iter(self.entries)))
        self.entries[recording.key] = _Entry(
            recording, bits, levels, wire.dominant_bits - recording.dominant,
            ends, events)
        self.engine.stats.round_records += 1

    # ------------------------------------------------------------ replay

    def _replay(self, entry: _Entry, objects: _Collected, deadline: int) -> int:
        sim = self.engine.sim
        stats = self.engine.stats
        start = sim.time
        end = start + entry.bits
        if end > deadline:
            stats.round_misses["deadline"] += 1
            return 0
        nodes = sim.nodes
        for node in nodes:
            if not node.listen_only:
                due = node.scheduler.next_due(start, node.queue)
                if due is not None and due < end:
                    stats.round_misses["scheduler_due"] += 1
                    return 0
        counters: List[Tuple[Any, int, int]] = []
        for index, recorded in entry.ends:
            obj, layout, _, _ = objects[index]
            for name, delta in recorded.counts:
                limit = layout.limits.get(name)
                if (limit is not None and delta > 0
                        and getattr(obj, name) + delta >= limit):
                    stats.round_misses["recovery"] += 1
                    return 0
            if recorded.ops:
                # Dry-run the counter operations: the round is only valid
                # if the live counters keep every error state unchanged.
                scratch = _moved(obj, {"transitions": [], "on_transition": None,
                                       "journal": None})
                for name, offset, args in recorded.ops:
                    getattr(scratch, name)(start + offset, *args)
                if scratch.transitions:
                    stats.round_misses["error_state"] += 1
                    return 0
                counters.append((obj, scratch.tec, scratch.rec))
        # ------------------------------------------------------ commit
        # No scheduler is due inside the round (checked above), so no
        # tick() would have enqueued: the schedulers need no catch-up.
        heads = [_head_of(node) for node in nodes]
        sim.wire.extend_history(entry.levels, entry.dominant)
        for index, recorded in entry.ends:
            _apply(objects[index][0], recorded, start, entry.bits)
        for obj, tec, rec in counters:
            obj.tec = tec
            obj.rec = rec
        shift = start - entry.start
        for position, event in entry.events:
            head, attempts = heads[position]
            nodes[position].emit(_rebase(
                event, shift, head, attempts - entry.attempts[position]))
        sim.time = end
        stats.round_spans += 1
        stats.round_bits += entry.bits
        if self.engine._span_listeners:
            self.engine._notify_span(SpanCommit("round", start, end))
        return entry.bits


def _apply(obj: Any, recorded: _End, start: int, bits: int) -> None:
    """Write one object's recorded end state and deltas back, shifted.

    Plain ``setattr`` throughout: see :func:`_patched` on ``__dict__``.
    """
    for name, value in recorded.values.items():
        setattr(obj, name, value)
    for name, value in recorded.lists:
        setattr(obj, name, list(value))
    for name, value in recorded.saturating:
        # Below the round length the counter restarted inside the round
        # (exact); otherwise it only grew, from the live value.
        setattr(obj, name, value if value < bits else getattr(obj, name) + bits)
    for name, offset in recorded.stamps:
        setattr(obj, name, start + offset)
    for name, delta in recorded.counts:
        setattr(obj, name, getattr(obj, name) + delta)
    for name, deltas in recorded.counters:
        counters = getattr(obj, name)
        for field, delta in deltas:
            setattr(counters, field, getattr(counters, field) + delta)
    for name, items in recorded.timed:
        getattr(obj, name).extend(_moved(item, {"time": start + offset})
                                  for item, offset in items)
    for name, delta in recorded.attempts:
        getattr(obj, name)[0].attempts += delta


_RECORD_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _record_fields(cls: type) -> Tuple[str, ...]:
    """Field names of a dataclass record type (cached)."""
    names = _RECORD_FIELDS.get(cls)
    if names is None:
        names = _RECORD_FIELDS[cls] = tuple(f.name for f in fields(cls))
    return names


def _record_values(record: Any) -> Tuple[Any, ...]:
    return tuple(getattr(record, name) for name in _record_fields(type(record)))


def _moved(record: Any, changes: Dict[str, Any]) -> Any:
    """A copy of a (frozen) dataclass record with ``changes`` applied —
    ``dataclasses.replace`` without re-running ``__init__``."""
    moved = object.__new__(type(record))
    for name in _record_fields(type(record)):
        object.__setattr__(moved, name, changes[name] if name in changes
                           else getattr(record, name))
    return moved


def _rebase(event: Event, shift: int, head: Any, attempt_offset: int) -> Event:
    """A recorded event moved to the replayed round and its live queue head."""
    kind = type(event)
    changes: Dict[str, Any] = {"time": event.time + shift}
    if kind is ErrorDetected:
        error = event.error  # type: ignore[attr-defined]
        changes["error"] = _moved(error, {"time": error.time + shift})
    elif kind is FrameStarted:
        changes["frame"] = head.frame
        changes["attempt"] = event.attempt + attempt_offset  # type: ignore[attr-defined]
        changes["enqueued_at"] = head.enqueued_at
    elif kind is ArbitrationLost and head is not None:
        changes["frame"] = head.frame
    elif kind is AttackDetected:
        changes["meta"] = dict(event.meta)  # type: ignore[attr-defined]
    return _moved(event, changes)
