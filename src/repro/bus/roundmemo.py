"""The fast-forward engine's round memo: replay repeated bus rounds.

A *round* runs from one round boundary — the bit at which some node arms
a transmission start — to the next.  Under attack the same round repeats
through a whole bus-off cycle: arbitration, MichiCAN's dominant pulse at
positions 13–20, error flags, delimiter, intermission (and suspend).
:class:`RoundMemo` keys each boundary by every node's behaviour state, as
the node-side classes declare it (``ROUND_MEMO``, :mod:`repro.node.memo`).
An unseen key is stepped per-bit by the caller while the memo records it;
the recording is then compiled once into a flat :class:`_Entry`: the
field writes and deltas per component, each node's error-counter hook
calls folded into a net delta with the counter range it is valid for,
and every event pre-bound to its rebuild.  A seen key is committed in
one step and the recorded events are re-emitted, shifted in time,
through each node's ``emit`` — exactly the per-bit event stream (see the
contract in :mod:`repro.bus.fastforward`).

A round may cross an error-state change (error-active to passive,
passive to bus-off): its ``ErrorStateChanged``/``BusOffEntered`` events
replay with the live TEC/REC, and only when the live counters cross the
same thresholds at the same hook calls.  One key may hold a few such
variants.  DESIGN.md ("Round memo") lists the signature, guards and
decline rules.

The engine imports this module at a bus's first round boundary.
"""

from __future__ import annotations

import weakref
from dataclasses import fields, replace
from itertools import islice
from operator import attrgetter, is_
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.bus.events import (
    ArbitrationLost,
    AttackDetected,
    BusOffEntered,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    ErrorStateChanged,
    Event,
    FrameReceived,
    FrameStarted,
    OverloadSignalled,
)
from repro.node.faults import (
    DECREMENT_EXACT,
    HOOK_STEPS,
    STATE_THRESHOLDS,
    ErrorState,
    StateTransition,
)
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
    from repro.bus.fastforward import FastForwardStats
    from repro.bus.simulator import CanBusSimulator


class _Layout:
    """One class's ``ROUND_MEMO`` compiled for fast reads and writes."""

    __slots__ = ("values", "get_values", "lists", "refs", "nested", "heads",
                 "stamps", "saturating", "counts", "counters", "timed",
                 "fixed", "ops", "fields", "rules", "_masks", "tracks")

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
             tuple(n for n in names if signature.get(n) != NESTED),
             tuple(n for n in names if signature.get(n) == NESTED))
            for (attribute, live), names in grouped.items())
        self._masks: Dict[Tuple[str, ...], Tuple[Any, ...]] = {}
        self.tracks = bool(self.counts or self.counters or self.timed
                           or self.fixed or self.heads or self.ops)

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


#: Compiled declarations per class: a pure function of the class, so
#: worker results never depend on this cache's state.
_LAYOUT_CACHE: Dict[type, Optional[_Layout]] = {}


def _layout(cls: type) -> Optional[_Layout]:
    """The compiled declaration of ``cls``; None when the class itself
    (not merely a base class) declares no ``ROUND_MEMO``."""
    try:
        return _LAYOUT_CACHE[cls]
    except KeyError:
        spec = cls.__dict__.get("ROUND_MEMO")
        layout = _LAYOUT_CACHE[cls] = (  # repro: noqa[RC302]
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

    __slots__ = ("counts", "counters", "timed", "fixed", "head", "faults")

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
        #: (tec, rec, state) of a fault-confinement object, whose hook
        #: calls the round journals.
        self.faults = (obj.tec, obj.rec, obj._state) if layout.ops else None


def _version(value: Any) -> Any:
    """What a FIXED accumulator compares: list length, else the value."""
    return len(value) if isinstance(value, list) else value


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

    __slots__ = ("key", "start", "barrier", "events", "wire_bits",
                 "dominant", "objects", "starts", "attempts", "pins",
                 "journaled", "transitions", "parked")

    def __init__(self, sim: "CanBusSimulator", nodes: List[Any], key: tuple,
                 objects: _Collected, barrier: Optional[int]) -> None:
        self.key = key
        self.start = sim.time
        #: A round that runs past the first barrier (a fault window edge,
        #: a sampler's capture) is not kept.
        self.barrier = barrier
        self.events = len(sim.events)
        self.wire_bits = sim.wire.total_bits
        self.dominant = sim.wire.dominant_bits
        self.objects = objects
        self.starts = [_Start(obj, layout) if layout.tracks else None
                       for obj, layout, _, _ in objects]
        self.journaled = [obj for obj, layout, _, _ in objects if layout.ops]
        for obj in self.journaled:
            obj.journal = []
        #: State changes recorded per journaled object at the start.
        self.transitions = [len(obj.transitions) for obj in self.journaled]
        #: Head-frame attempts per node, to rebase FrameStarted.attempt.
        self.attempts = [_head_of(node)[1] for node in nodes]
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


_INF = float("inf")


class _Fold:
    """One fault-confinement object's journaled hook calls, folded.

    While the live start TEC and REC lie in ``[tec_low, tec_high]`` and
    ``[rec_low, rec_high]`` the calls add exactly ``tec_delta`` and
    ``rec_delta`` and cross the error-state thresholds at the same calls
    as the recording: each ``transitions`` entry is (time offset, old
    state, new state, TEC and REC offsets from the start).
    """

    __slots__ = ("obj", "starts", "tec_low", "tec_high", "rec_low",
                 "rec_high", "tec_delta", "rec_delta", "transitions")

    def __init__(self, obj: Any, starts: Tuple[int, int],
                 limits: List[List[float]], deltas: Tuple[int, int],
                 transitions: List[Tuple[int, Any, Any, int, int]]) -> None:
        self.obj = obj
        #: The recorded start (TEC, REC).
        self.starts = starts
        (self.tec_low, self.tec_high), (self.rec_low, self.rec_high) = limits
        self.tec_delta, self.rec_delta = deltas
        self.transitions = transitions


def _fold(obj: Any, start: Tuple[int, int, Any], transitions0: int,
          t0: int) -> Optional[_Fold]:
    """Fold ``obj``'s journal, or None if the fold cannot reproduce it.

    The calls are re-run once on a scratch copy from the recorded start;
    each counter's range is narrowed so that, from any live start inside
    it, every call adds its :data:`HOOK_STEPS` step and every result sits
    on the same side of each state threshold as the recorded one.  A
    counter a call did not move by its step (floor, clamp) is pinned to
    its recorded start.
    """
    tec0, rec0, state0 = start
    scratch = replace(obj, tec=tec0, rec=rec0, _state=state0, transitions=[],
                      on_transition=None, journal=None)
    starts = (tec0, rec0)
    limits: List[List[float]] = [[0, _INF], [0, _INF]]
    pinned = [False, False]
    before = starts
    for name, time, args in obj.journal:
        steps = HOOK_STEPS.get((name, args))
        if steps is None:
            return None
        getattr(scratch, name)(time, *args)
        after = (scratch.tec, scratch.rec)
        for counter in (0, 1):
            step = steps[counter]
            offset = before[counter] - starts[counter]
            if after[counter] - before[counter] != step:
                pinned[counter] = True
            elif step < 0:
                low, high = DECREMENT_EXACT[counter]
                _narrow(limits[counter], low - offset,
                        _INF if high is None else high - offset)
            offset = after[counter] - starts[counter]
            for threshold in STATE_THRESHOLDS[counter]:
                if after[counter] >= threshold:
                    _narrow(limits[counter], threshold - offset, _INF)
                else:
                    _narrow(limits[counter], 0, threshold - 1 - offset)
        before = after
    if before != (obj.tec, obj.rec) or scratch.transitions != obj.transitions[transitions0:]:
        return None  # a counter moved outside the journaled hooks
    for counter in (0, 1):
        if pinned[counter]:
            limits[counter] = [starts[counter], starts[counter]]
    return _Fold(obj, starts, limits, (before[0] - tec0, before[1] - rec0), [
        (t.time - t0, t.old_state, t.new_state, t.tec - tec0, t.rec - rec0)
        for t in scratch.transitions])


def _narrow(limit: List[float], low: float, high: float) -> None:
    if low > limit[0]:
        limit[0] = low
    if high < limit[1]:
        limit[1] = high


# ------------------------------------------------------------ event rebuilds

_new = object.__new__
_setattr = object.__setattr__

#: A recorded frozen dataclass record, pre-bound for rebuilding: its class
#: and its field dict (in field order).
_Bound = Tuple[type, Dict[str, Any]]


def _bind(record: Any) -> _Bound:
    cls = type(record)
    return cls, {name: getattr(record, name) for name in _record_fields(cls)}


def _copy(cls: type, fields: Dict[str, Any], time: int) -> Any:
    """A record of ``cls`` with ``fields`` at ``time``, built without
    re-running ``__init__``."""
    copy = _new(cls)
    state = copy.__dict__
    state.update(fields)
    state["time"] = time
    return copy


#: Event rebuilds: (class, recorded fields, time shift, bound argument,
#: live queue heads, live counter starts per fold) -> the replayed event.
_Build = Callable[[type, Dict[str, Any], int, Any, Dict[int, Tuple[Any, int]],
                   List[Tuple[int, int]]], Event]


def _shifted(cls: type, fields: Dict[str, Any], shift: int, arg: Any,
             heads: Any, bases: Any) -> Event:
    return _copy(cls, fields, fields["time"] + shift)


def _error_detected(cls: type, fields: Dict[str, Any], shift: int,
                    error: _Bound, heads: Any, bases: Any) -> Event:
    copy = _copy(cls, fields, fields["time"] + shift)
    _setattr(copy, "error", _copy(error[0], error[1], error[1]["time"] + shift))
    return copy


def _frame_started(cls: type, fields: Dict[str, Any], shift: int,
                   position: int, heads: Any, bases: Any) -> Event:
    head, attempt_offset = heads[position]
    copy = _copy(cls, fields, fields["time"] + shift)
    _setattr(copy, "frame", head.frame)
    _setattr(copy, "attempt", fields["attempt"] + attempt_offset)
    _setattr(copy, "enqueued_at", head.enqueued_at)
    return copy


def _arbitration_lost(cls: type, fields: Dict[str, Any], shift: int,
                      position: int, heads: Any, bases: Any) -> Event:
    copy = _copy(cls, fields, fields["time"] + shift)
    head = heads[position][0]
    if head is not None:
        _setattr(copy, "frame", head.frame)
    return copy


def _attack_detected(cls: type, fields: Dict[str, Any], shift: int, arg: Any,
                     heads: Any, bases: Any) -> Event:
    copy = _copy(cls, fields, fields["time"] + shift)
    _setattr(copy, "meta", dict(fields["meta"]))
    return copy


def _state_changed(cls: type, fields: Dict[str, Any], shift: int,
                   arg: Tuple[int, int, int], heads: Any, bases: Any) -> Event:
    fold, tec, rec = arg
    tec0, rec0 = bases[fold]
    copy = _copy(cls, fields, fields["time"] + shift)
    _setattr(copy, "tec", tec0 + tec)
    _setattr(copy, "rec", rec0 + rec)
    return copy


def _bus_off_entered(cls: type, fields: Dict[str, Any], shift: int,
                     arg: Tuple[int, int], heads: Any, bases: Any) -> Event:
    fold, tec = arg
    copy = _copy(cls, fields, fields["time"] + shift)
    _setattr(copy, "tec", bases[fold][0] + tec)
    return copy


#: Event types a recording may contain and their rebuilds; any other
#: event discards the recording.
_REBUILDS: Dict[type, _Build] = {
    ErrorDetected: _error_detected,
    FrameStarted: _frame_started,
    ArbitrationLost: _arbitration_lost,
    AttackDetected: _attack_detected,
    CounterattackStarted: _shifted,
    CounterattackEnded: _shifted,
    OverloadSignalled: _shifted,
    FrameReceived: _shifted,
    ErrorStateChanged: _state_changed,
    BusOffEntered: _bus_off_entered,
}


# ------------------------------------------------------------------ entries

class _Entry:
    """One recorded round compiled into flat writes (see the module
    docstring); every object reference is one of the memo's objects."""

    __slots__ = ("start", "bits", "levels", "dominant", "writes", "lists",
                 "resets", "adds", "counter_adds", "stamps", "saturating", "timed",
                 "attempts", "limits", "folds", "events", "heads", "due",
                 "pins", "end_key", "next")

    def __init__(self, recording: _Recording, bits: int) -> None:
        self.start = recording.start
        self.bits = bits
        self.levels: List[int] = []
        self.dominant = 0
        #: (object, field, value) written as is.
        self.writes: List[Tuple[Any, str, Any]] = []
        #: (object, field, items) written as a fresh list.
        self.lists: List[Tuple[Any, str, tuple]] = []
        #: (object, field, value or list items, is a list) of fields dead at
        #: the start that the round rewrote.  A replay that directly
        #: follows a replay of this same entry finds them written already.
        self.resets: List[Tuple[Any, str, Any, bool]] = []
        #: (object, field, delta) added.
        self.adds: List[Tuple[Any, str, int]] = []
        #: (object, counters field, counter name, delta) added.
        self.counter_adds: List[Tuple[Any, str, str, int]] = []
        #: (object, field, offset) written as the round start plus offset.
        self.stamps: List[Tuple[Any, str, int]] = []
        #: (object, field, end value) of Saturating counters.
        self.saturating: List[Tuple[Any, str, int]] = []
        #: (object, field, ((class, fields, time offset), ...)) appended
        #: retimed.
        self.timed: List[Tuple[Any, str, Tuple[Tuple[type, Dict[str, Any], int], ...]]] = []
        #: (queue, pending field, attempts added to the head frame).
        self.attempts: List[Tuple[Any, str, int]] = []
        #: (object, field, delta, limit): a Bounded count the delta moves up.
        self.limits: List[Tuple[Any, str, int, int]] = []
        self.folds: List[_Fold] = []
        #: (emit, rebuild, event class, recorded fields, rebuild argument)
        #: in emission order.
        self.events: List[Tuple[Callable[[Event], None], _Build, type,
                                Dict[str, Any], Any]] = []
        #: (node position, queue, head attempts at the recording's start)
        #: of the nodes whose events name their queue head.
        self.heads: List[Tuple[int, Any, int]] = []
        #: (scheduler.next_due, queue) of every sending node.
        self.due: List[Tuple[Callable[..., Optional[int]], Any]] = []
        #: Keeps the keyed REF objects alive, so a live object with a
        #: pinned id() is the very object the round was recorded with.
        self.pins = recording.pins
        #: The key the round ends in, when a replay writes all of it: the
        #: next boundary then needs no signature walk.
        self.end_key: Optional[tuple] = None
        #: The variants stored under ``end_key``, resolved lazily and held
        #: weakly (a steady round's end key is its own key).
        self.next: Optional[Callable[[], Optional[_Variants]]] = None

    def compile_object(self, obj: Any, layout: _Layout, dead: Tuple[str, ...],
                       part: Optional[tuple], start: Optional[_Start]) -> List[str]:
        """Add one object's writes; returns its dead fields the round did
        not write."""
        unwritten = []
        for name in dead:
            value = getattr(obj, name)
            if value is _DEAD:
                unwritten.append(name)
            elif name in layout.lists:
                self.resets.append((obj, name, tuple(value), True))
            else:
                self.resets.append((obj, name, value, False))
        if part is not None:
            names, get_values, list_names, ref_names = layout.live(dead)
            for name, value, before in zip(names, get_values(obj), part[0]):
                if value != before or type(value) is not type(before):
                    self.writes.append((obj, name, value))
            for name, before in zip(list_names, part[1:]):
                items = tuple(getattr(obj, name))
                if items != before:
                    self.lists.append((obj, name, items))
            for name, before in zip(ref_names, part[1 + len(list_names):]):
                value = getattr(obj, name)
                if id(value) != before:
                    self.writes.append((obj, name, value))
        t0 = self.start
        for name, _ in layout.saturating:
            self.saturating.append((obj, name, getattr(obj, name)))
        for name in layout.stamps:
            value = getattr(obj, name)
            if value >= t0:
                self.stamps.append((obj, name, value - t0))
        if start is None:
            return unwritten
        for (name, limit), before in zip(layout.counts, start.counts):
            if name in dead:
                continue  # rewritten while dead: its end value is written
            delta = getattr(obj, name) - before
            if delta:
                self.adds.append((obj, name, delta))
                if limit is not None and delta > 0:
                    self.limits.append((obj, name, delta, limit))
        for name, before in zip(layout.counters, start.counters):
            record = getattr(obj, name)
            for field, value, old in zip(_record_fields(type(record)),
                                         _record_values(record), before):
                if value != old:
                    self.counter_adds.append((obj, name, field, value - old))
        for name, length in zip(layout.timed, start.timed):
            items = getattr(obj, name)[length:]
            if items:
                self.timed.append((obj, name, tuple(
                    (*_bind(item), item.time - t0) for item in items)))
        for name, (_, _, head, _, attempts0) in zip(layout.heads, start.head):
            if head is not None and head.attempts != attempts0:
                self.attempts.append((obj, name, head.attempts - attempts0))
        return unwritten


class _Variants(List[_Entry]):
    """The recordings of one signature (a list entries can link to weakly)."""

    __slots__ = ("__weakref__",)


#: Recorded round signatures kept per simulator (FIFO, like the
#: FramePlan cache).
MAX_ROUND_ENTRIES = 128

#: Recordings kept per signature: rounds of one signature that differ in
#: where the error counters cross a state threshold.
MAX_ROUND_VARIANTS = 4


class RoundMemo:
    """Records and replays repeated bus rounds for one simulator (see the
    module docstring).  It holds no reference to the simulator or the
    engine: both pass what a call needs."""

    def __init__(self, stats: "FastForwardStats") -> None:
        self.stats = stats
        self.entries: Dict[tuple, _Variants] = {}
        self.recording: Optional[_Recording] = None
        #: The objects every entry writes to, in signature order: a
        #: replaced component (power cycle, hot swap) drops all entries.
        self._objects: Tuple[Any, ...] = ()
        #: (time, entry) of the last replay: at that time, with nothing
        #: stepped since, the bus is in ``entry.end_key``.
        self._chain: Optional[Tuple[int, _Entry]] = None

    def discard(self) -> None:
        self._chain = None
        if self.recording is not None:
            self.recording.unpark()
            self.recording = None

    def at_boundary(self, sim: "CanBusSimulator", nodes: List[Any],
                    deadline: int, barrier: Optional[int]) -> int:
        """Finish the running recording and replay or record the next
        round.  ``nodes`` are the protocol nodes (samplers excluded);
        ``barrier`` is the first bit a replay must not cover, if any.
        Returns the bits replayed (0: the caller steps per-bit)."""
        chain = self._chain
        self._chain = None
        if (chain is not None and chain[0] == sim.time
                and self.recording is None):
            previous = chain[1]
            key = previous.end_key
            variants = previous.next() if previous.next is not None else None
            if not variants:
                variants = self.entries.get(key)  # type: ignore[arg-type]
                if variants is not None:
                    previous.next = weakref.ref(variants)
            if variants:
                return self._replay(sim, nodes, key, variants, deadline,
                                    barrier, previous)
        collected = self.close(sim, nodes)
        if collected is None:
            self.stats.round_misses["undeclared"] += 1
            return 0
        key, objects = collected
        variants = self.entries.get(key)
        if variants and not _same_objects(self._objects, objects):
            self._rebind(objects)
            variants = None
        if not variants:
            self.stats.round_misses["unseen"] += 1
            self.recording = _Recording(sim, nodes, key, objects, barrier)
            return 0
        return self._replay(sim, nodes, key, variants, deadline, barrier, None)

    # ------------------------------------------------------------ record

    def close_at_span(self, sim: "CanBusSimulator", nodes: List[Any]) -> None:
        """The engine is about to commit a body or idle span inside the
        recorded round.  A round that changed an error state ends here and
        is kept (the bus-off entry round is followed by the recovery wait,
        never by a boundary); any other is dropped, since frames that
        reach a span rarely repeat from the same state."""
        recording = self.recording
        if recording is not None and any(
                len(obj.transitions) > count for obj, count in zip(
                    recording.journaled, recording.transitions)):
            self.close(sim, nodes)
        else:
            self.discard()

    def close(self, sim: "CanBusSimulator", nodes: List[Any],
              ) -> Optional[Tuple[tuple, _Collected]]:
        """End the running recording here and keep it if it is
        replayable.  Returns the bus signature now (None: undeclared)."""
        self._chain = None
        recording = self.recording
        entry = unwritten = None
        if recording is not None:
            self.recording = None
            try:
                entry, unwritten = self._compile(recording, sim, nodes)
            finally:
                recording.unpark()
        collected = _collect(nodes)
        if collected is not None and entry is not None:
            key, objects = collected
            if not _same_objects(self._objects, objects):
                self._rebind(objects)
            if _same_objects(self._objects, recording.objects):  # type: ignore[union-attr]
                if _keyed_at_end(unwritten, objects):
                    entry.end_key = key
                self._store(recording.key, entry)  # type: ignore[union-attr]
        return collected

    def _rebind(self, objects: _Collected) -> None:
        """Drop every entry: they write to components no longer on the
        bus (a power cycle or hot swap replaced one)."""
        for variants in self.entries.values():
            variants.clear()  # stale chain links find nothing
        self.entries.clear()
        self._objects = tuple(o[0] for o in objects)

    def _store(self, key: tuple, entry: _Entry) -> None:
        variants = self.entries.get(key)
        if variants is None:
            if len(self.entries) >= MAX_ROUND_ENTRIES:
                self.entries.pop(next(iter(self.entries))).clear()
            variants = self.entries[key] = _Variants()
        if len(variants) >= MAX_ROUND_VARIANTS:
            del variants[0]
        variants.append(entry)
        self.stats.round_records += 1

    def _compile(self, recording: _Recording, sim: "CanBusSimulator",
                 nodes: List[Any]) -> Tuple[Optional[_Entry], Any]:
        """The recording compiled into an entry (None: not replayable),
        and the dead fields it left unwritten per object index."""
        bits = sim.time - recording.start
        if bits <= 0 or (recording.barrier is not None
                         and sim.time > recording.barrier):
            return None, None
        entry = _Entry(recording, bits)
        unwritten = []
        folds: Dict[int, int] = {}
        transitions = iter(recording.transitions)
        for index, ((obj, layout, dead, part), start) in enumerate(
                zip(recording.objects, recording.starts)):
            if start is not None and not _unchanged(obj, layout, start):
                return None, None  # enqueue, completion, queue flush
            names = entry.compile_object(obj, layout, dead, part, start)
            if names:
                unwritten.append((index, names))
            if layout.ops:
                fold = _fold(obj, start.faults, next(transitions),  # type: ignore[union-attr]
                             recording.start)
                if fold is None:
                    return None, None  # a counter moved outside the hooks
                if obj.journal:
                    folds[id(obj)] = len(entry.folds)
                    entry.folds.append(fold)
        position = {node.name: index for index, node in enumerate(nodes)}
        pending: Dict[int, List[Any]] = {}  # fold -> its transitions, in order
        for event in sim.events[recording.events:]:
            kind = type(event)
            rebuild = _REBUILDS.get(kind)
            index = position.get(event.node)
            if rebuild is None or index is None:
                return None, None
            node = nodes[index]
            arg: Any = index
            if kind is ErrorStateChanged or kind is BusOffEntered:
                arg = _counter_arg(event, folds.get(id(node.faults)), entry,
                                   pending)
                if arg is None:
                    return None, None
            elif kind is FrameStarted or kind is ArbitrationLost:
                if all(i != index for i, _, _ in entry.heads):
                    entry.heads.append(
                        (index, node.queue, recording.attempts[index]))
            elif kind is ErrorDetected:
                arg = _bind(event.error)
            entry.events.append((node.emit, rebuild, *_bind(event), arg))
        if any(pending.get(i, fold.transitions) for i, fold in enumerate(entry.folds)):
            return None, None  # a state change emitted no ErrorStateChanged
        wire = sim.wire
        history = wire.history
        if wire.total_bits - recording.wire_bits != bits or len(history) < bits:
            return None, None
        first = len(history) - bits
        entry.levels = (history[first:] if isinstance(history, list)
                        else list(islice(history, first, None)))  # a ring buffer
        entry.dominant = wire.dominant_bits - recording.dominant
        entry.due = [(node.scheduler.next_due, node.queue) for node in nodes
                     if not node.listen_only]
        return entry, unwritten

    # ------------------------------------------------------------ replay

    def _replay(self, sim: "CanBusSimulator", nodes: List[Any], key: tuple,
                variants: List[_Entry], deadline: int, barrier: Optional[int],
                previous: Optional[_Entry]) -> int:
        """Replay the first variant the live counters fit (``previous``:
        the entry replayed just before, with nothing stepped since)."""
        misses = self.stats.round_misses
        start = sim.time
        reason = "transition"
        bases: List[Tuple[int, int]] = []
        for entry in variants:
            for obj, name, delta, limit in entry.limits:
                if getattr(obj, name) + delta >= limit:
                    reason = "recovery"
                    break
            else:
                bases = []
                for fold in entry.folds:
                    obj = fold.obj
                    tec = obj.tec
                    rec = obj.rec
                    if not (fold.tec_low <= tec <= fold.tec_high
                            and fold.rec_low <= rec <= fold.rec_high):
                        reason = "transition"
                        break
                    bases.append((tec, rec))
                else:
                    break
        else:
            misses[reason] += 1
            if reason == "transition":
                # The counters cross a threshold where no variant did:
                # record this variant of the round.
                collected = _collect(nodes)
                if collected is not None:
                    self.recording = _Recording(
                        sim, nodes, key, collected[1], barrier)
            return 0
        bits = entry.bits
        end = start + bits
        if barrier is not None and end > barrier:
            misses["barrier"] += 1
            return 0
        if end > deadline:
            misses["deadline"] += 1
            return 0
        for next_due, queue in entry.due:
            due = next_due(start, queue)
            if due is not None and due < end:
                misses["scheduler_due"] += 1
                return 0
        # ------------------------------------------------------ commit
        # No scheduler is due inside the round (checked above), so no
        # tick() would have enqueued: the schedulers need no catch-up.
        heads = {}
        for position, queue, attempts0 in entry.heads:
            head = queue.peek()
            heads[position] = (head, (head.attempts if head else 0) - attempts0)
        sim.wire.extend_history(entry.levels, entry.dominant)
        for obj, name, value in entry.writes:
            setattr(obj, name, value)
        for obj, name, items in entry.lists:
            setattr(obj, name, list(items))
        if previous is not entry:
            for obj, name, value, is_list in entry.resets:
                setattr(obj, name, list(value) if is_list else value)
        for obj, name, delta in entry.adds:
            setattr(obj, name, getattr(obj, name) + delta)
        for obj, name, field, delta in entry.counter_adds:
            record = getattr(obj, name)
            setattr(record, field, getattr(record, field) + delta)
        for obj, name, offset in entry.stamps:
            setattr(obj, name, start + offset)
        for obj, name, value in entry.saturating:
            # Below the round length the counter restarted inside the round
            # (exact); otherwise it only grew, from the live value.
            setattr(obj, name, value if value < bits else getattr(obj, name) + bits)
        for obj, name, items in entry.timed:
            getattr(obj, name).extend([_copy(cls, fields, start + offset)
                                       for cls, fields, offset in items])
        for queue, name, delta in entry.attempts:
            getattr(queue, name)[0].attempts += delta
        for fold, (tec, rec) in zip(entry.folds, bases):
            obj = fold.obj
            obj.tec = tec + fold.tec_delta
            obj.rec = rec + fold.rec_delta
            for offset, old, new, tec_at, rec_at in fold.transitions:
                obj.transitions.append(StateTransition(
                    start + offset, old, new, tec + tec_at, rec + rec_at))
        shift = start - entry.start
        for emit, rebuild, cls, fields, arg in entry.events:
            emit(rebuild(cls, fields, shift, arg, heads, bases))
        sim.time = end
        if entry.end_key is not None:
            self._chain = (end, entry)
        stats = self.stats
        stats.round_spans += 1
        stats.round_bits += bits
        return bits


def _counter_arg(event: Any, fold_index: Optional[int], entry: _Entry,
                 pending: Dict[int, List[Any]]) -> Optional[Tuple[int, ...]]:
    """The rebuild argument of a recorded ErrorStateChanged (the next
    state change of the node's fold) or BusOffEntered (its bus-off entry),
    or None when the event does not match the fold."""
    if fold_index is None:
        return None
    fold = entry.folds[fold_index]
    tec0, rec0 = fold.starts
    if type(event) is BusOffEntered:
        for _, _, new, tec, _ in fold.transitions:
            if new is ErrorState.BUS_OFF and event.tec == tec0 + tec:
                return fold_index, tec
        return None
    queue = pending.setdefault(fold_index, list(fold.transitions))
    if not queue:
        return None
    _, old, new, tec, rec = queue.pop(0)
    if (event.old_state is not old or event.new_state is not new
            or event.tec != tec0 + tec or event.rec != rec0 + rec):
        return None
    return fold_index, tec, rec


def _same_objects(known: Tuple[Any, ...], objects: _Collected) -> bool:
    return len(known) == len(objects) and all(
        map(is_, known, (o[0] for o in objects)))


def _keyed_at_end(unwritten: List[Tuple[int, List[str]]],
                  objects: _Collected) -> bool:
    """True when the key a round ends in is a function of its start key
    and the round: no field dead at its start, left unwritten, is keyed at
    its end (a replay would leave the live object's own leftover there)."""
    for index, names in unwritten:
        _, layout, dead, part = objects[index]
        if part is not None and any(name not in dead and name in layout.fields
                                    for name in names):
            return False
    return True


#: Field names per record class (a pure function of the class).
_RECORD_FIELDS_CACHE: Dict[type, Tuple[str, ...]] = {}


def _record_fields(cls: type) -> Tuple[str, ...]:
    """Field names of a dataclass record type (cached)."""
    names = _RECORD_FIELDS_CACHE.get(cls)
    if names is None:
        names = _RECORD_FIELDS_CACHE[cls] = tuple(  # repro: noqa[RC302]
            f.name for f in fields(cls))
    return names


def _record_values(record: Any) -> Tuple[Any, ...]:
    return tuple(getattr(record, name) for name in _record_fields(type(record)))
