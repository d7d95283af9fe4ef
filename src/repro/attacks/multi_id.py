"""The Experiment-6 attacker: one node toggling between two CAN IDs.

"The attacker node is sending two different CAN IDs consecutively, e.g.
toggling between 0x050 and 0x051.  An ECU adds each message that it schedules
for transmission in a buffer until it is successfully transmitted.  After 32
(re)transmissions of either 0x050 or 0x051, the attacking ECU will go into
bus-off. [...] After its recovery, the other CAN message will be transmitted
(and the ECU will be bussed-off again)." — Sec. V-C

The bus-off forces a controller reset that drops the in-flight request, so
the *other* buffered ID goes next; the attacker application keeps refilling
the buffer alternately.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.attacks.base import AttackerNode
from repro.can.frame import CanFrame
from repro.node.memo import FIXED, MemoSpec
from repro.node.scheduler import TransmitQueue


class _AlternatingSource:
    """Keeps one pending frame at a time, cycling through the attack IDs."""

    #: Round-memo declaration (see :mod:`repro.node.memo`).
    ROUND_MEMO = MemoSpec(
        signature={},
        accumulators={"emitted": FIXED},
        excluded={
            "can_ids": "emission config, consulted through next_due()",
            "messages": "empty scheduler-API placeholder",
        },
    )

    def __init__(self, can_ids: Sequence[int]) -> None:
        if len(can_ids) < 2:
            raise ValueError("toggling needs at least two CAN IDs")
        self.can_ids = list(can_ids)
        self.emitted = 0
        self.messages: list = []

    def tick(self, time: int, queue: TransmitQueue) -> int:
        if queue.has_pending:
            return 0
        can_id = self.can_ids[self.emitted % len(self.can_ids)]
        queue.enqueue(CanFrame(can_id, bytes(8)), time)
        self.emitted += 1
        return 1

    # Fast-forward protocol: refills at most once per span, at span start
    # (identical to what per-bit ticking would do — has_pending then blocks
    # every later tick until the controller pops the frame per-bit).

    def next_due(self, time: int, queue: TransmitQueue) -> "int | None":
        return None if queue.has_pending else time

    def fast_forward(self, start: int, end: int, queue: TransmitQueue) -> None:
        if queue.has_pending or start >= end:
            return
        can_id = self.can_ids[self.emitted % len(self.can_ids)]
        queue.enqueue(CanFrame(can_id, bytes(8)), start)
        self.emitted += 1


class ToggleAttacker(AttackerNode):
    """One compromised ECU alternating between several attack IDs."""

    attack_name = "toggle-dos"

    ROUND_MEMO = AttackerNode.ROUND_MEMO.extend(excluded={
        "attack_ids": "label only; the queued frames carry the identifiers"})

    def __init__(self, name: str, can_ids: Sequence[int], **kwargs: Any) -> None:
        kwargs.setdefault("flush_queue_on_bus_off", True)
        super().__init__(name, scheduler=_AlternatingSource(can_ids), **kwargs)
        self.attack_ids = tuple(can_ids)
