"""Transmit scheduling for CAN nodes.

A CAN controller owns transmit mailboxes: the application enqueues frames and
the controller sends the highest-priority pending frame whenever the bus is
free, retrying automatically on errors and lost arbitration.  This module
models that queue, plus periodic message sources used by the restbus and
attacker workloads.

All times are in bit times (the simulator's clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.can.frame import CanFrame
from repro.errors import SchedulingError
from repro.node.memo import FIXED, HEAD, MemoSpec


@dataclass
class PendingTransmission:
    """A frame waiting in (or retrying from) the transmit queue."""

    frame: CanFrame
    enqueued_at: int
    attempts: int = 0
    completed_at: Optional[int] = None


class TransmitQueue:
    """Priority-ordered transmit mailboxes.

    The controller always transmits the pending frame with the lowest CAN ID
    (hardware mailbox behaviour).  A frame stays pending across errors and
    lost arbitration until :meth:`on_success` — CAN controllers retransmit
    automatically.
    """

    #: Round-memo declaration (see :mod:`repro.node.memo`).  A memoized
    #: round may only count attempts on the head frame; any other queue
    #: change discards the recording.
    ROUND_MEMO = MemoSpec(
        signature={"_pending": HEAD},
        accumulators={"completed": FIXED},
        excluded={"_capacity": "read only by enqueue(), and a memoized "
                               "round never enqueues"},
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._pending: List[PendingTransmission] = []
        self._capacity = capacity
        self.completed: List[PendingTransmission] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def enqueue(self, frame: CanFrame, time: int) -> PendingTransmission:
        """Add ``frame`` to the mailboxes at ``time``."""
        if self._capacity is not None and len(self._pending) >= self._capacity:
            raise SchedulingError(
                f"transmit queue full ({self._capacity} mailboxes)"
            )
        pending = PendingTransmission(frame, time)
        self._pending.append(pending)
        self._pending.sort(key=lambda p: (*p.frame.priority_key(), p.enqueued_at))
        return pending

    def peek(self) -> Optional[PendingTransmission]:
        """The transmission the controller should attempt next."""
        return self._pending[0] if self._pending else None

    def on_attempt(self) -> None:
        """Record that the head-of-queue frame started a (re)transmission."""
        if not self._pending:
            raise SchedulingError("on_attempt with empty queue")
        self._pending[0].attempts += 1

    def on_success(self, time: int) -> PendingTransmission:
        """The head-of-queue frame was transmitted and acknowledged."""
        if not self._pending:
            raise SchedulingError("on_success with empty queue")
        done = self._pending.pop(0)
        done.completed_at = time
        self.completed.append(done)
        return done

    def clear(self) -> None:
        self._pending.clear()


#: Generates the payload for the n-th instance of a periodic message.
PayloadFn = Callable[[int], bytes]


def _default_payload(_instance: int) -> bytes:
    return bytes(8)


@dataclass
class PeriodicMessage:
    """A periodic CAN message definition (one row of a communication matrix).

    Attributes:
        can_id: Message identifier.
        period_bits: Period in bit times (period_seconds * bus_speed).
        offset_bits: Phase offset of the first instance.
        payload_fn: Maps the instance counter to the payload bytes.
        limit: Maximum number of instances to emit (None = unbounded).
    """

    can_id: int
    period_bits: int
    offset_bits: int = 0
    payload_fn: PayloadFn = _default_payload
    limit: Optional[int] = None
    _emitted: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.period_bits <= 0:
            raise SchedulingError(
                f"period must be positive, got {self.period_bits} bits"
            )

    def due(self, time: int) -> bool:
        """True if a new instance should be enqueued at ``time``."""
        if self.limit is not None and self._emitted >= self.limit:
            return False
        return time >= self.offset_bits + self._emitted * self.period_bits

    def emit(self, _time: int) -> CanFrame:
        """Produce the next instance (caller checked :meth:`due`)."""
        frame = CanFrame(self.can_id, self.payload_fn(self._emitted))
        self._emitted += 1
        return frame

    @property
    def emitted(self) -> int:
        return self._emitted


class PeriodicScheduler:
    """Drives a set of :class:`PeriodicMessage` into a :class:`TransmitQueue`.

    Call :meth:`tick` once per bit time; due messages are enqueued.  One
    scheduler per node models a PCAN-style replay interface or a normal ECU
    application emitting its periodic messages.
    """

    #: Round-memo declaration (see :mod:`repro.node.memo`): lookups
    #: decline when :meth:`next_due` falls inside the round, so a replayed
    #: round never ticks an emission.
    ROUND_MEMO = MemoSpec(signature={}, excluded={
        "messages": "emission schedule, consulted through next_due() at "
                    "every lookup; an emission discards the recording",
        "_no_enqueue_before": "tick() cache of the earliest due time; a "
                              "replayed round emits nothing, so it stays "
                              "valid",
    })

    def __init__(self, messages: Optional[List[PeriodicMessage]] = None) -> None:
        self.messages: List[PeriodicMessage] = list(messages or [])
        # Earliest time at which tick() can enqueue again; 0 forces a full
        # scan (the cache starts invalid so pre-run message edits, e.g.
        # RestbusNode's time scaling, are picked up).
        self._no_enqueue_before: float = 0

    def add(self, message: PeriodicMessage) -> None:
        self.messages.append(message)
        self._no_enqueue_before = 0

    def tick(self, time: int, queue: TransmitQueue) -> int:
        """Enqueue all due instances; return how many were enqueued."""
        if time < self._no_enqueue_before:
            return 0
        count = 0
        earliest: Optional[int] = None
        for message in self.messages:
            while message.due(time):
                queue.enqueue(message.emit(time), time)
                count += 1
            if message.limit is None or message._emitted < message.limit:
                candidate = (message.offset_bits
                             + message._emitted * message.period_bits)
                if earliest is None or candidate < earliest:
                    earliest = candidate
        self._no_enqueue_before = (
            float("inf") if earliest is None else earliest)
        return count

    # ------------------------------------------------- fast-forward protocol
    #
    # The fast-forward engine (repro.bus.fastforward) skips per-bit stepping
    # across uncontended spans.  A scheduler that implements next_due() and
    # fast_forward() declares that its tick() effects over a span can be
    # reproduced exactly without calling tick() once per bit; schedulers
    # without these methods force the engine back to per-bit stepping.

    def next_due(self, time: int, queue: TransmitQueue) -> Optional[int]:
        """Earliest ``t >= time`` at which :meth:`tick` would enqueue.

        None means no enqueue will ever happen from the current state.
        """
        del queue  # periodic emission does not depend on queue occupancy
        earliest = self._no_enqueue_before
        if earliest:  # tick()'s cache of the earliest due time is current
            return None if earliest == float("inf") else max(time, int(earliest))
        due: Optional[int] = None
        for message in self.messages:
            if message.limit is not None and message._emitted >= message.limit:
                continue
            candidate = message.offset_bits + message._emitted * message.period_bits
            if candidate < time:
                candidate = time
            if due is None or candidate < due:
                due = candidate
        return due

    def fast_forward(self, start: int, end: int, queue: TransmitQueue) -> None:
        """Replay ``tick(t, queue)`` for every ``t`` in ``[start, end)``.

        Produces byte-identical queue contents: the same frames, enqueued
        at the same times, in the same order as per-bit ticking would (ties
        at one bit keep communication-matrix order, matching tick()'s loop).
        """
        events: List[Tuple[int, int]] = []
        for index, message in enumerate(self.messages):
            emitted = message._emitted
            while message.limit is None or emitted < message.limit:
                due = message.offset_bits + emitted * message.period_bits
                at = due if due > start else start
                if at >= end:
                    break
                events.append((at, index))
                emitted += 1
        events.sort()
        for at, index in events:
            message = self.messages[index]
            queue.enqueue(message.emit(at), at)
        self._no_enqueue_before = 0  # next tick() rescans
