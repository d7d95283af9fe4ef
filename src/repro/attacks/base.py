"""Attacker substrate: compromised-but-protocol-compliant ECUs (Sec. III).

The threat model assumes the adversary executes arbitrary code on a
compromised ECU but "cannot modify the protocol controller or violate
protocol specifications" — so every attacker here is a normal
:class:`~repro.node.controller.CanNode` whose *application* behaves
maliciously: flooding low IDs, spoofing other ECUs' IDs, toggling IDs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.can.frame import CanFrame
from repro.node.controller import CanNode
from repro.node.memo import COUNT, FIXED, VALUE, MemoSpec
from repro.node.scheduler import PeriodicScheduler, TransmitQueue


def _zero_payload(_instance: int) -> bytes:
    return bytes(8)


class ContinuousSource:
    """Keeps the transmit queue non-empty: the 'continuously sending' DoS
    primitive.  Duck-typed like :class:`PeriodicScheduler`."""

    #: Round-memo declaration (see :mod:`repro.node.memo`).
    ROUND_MEMO = MemoSpec(
        signature={},
        accumulators={"emitted": FIXED},
        excluded={
            "can_id": "emission config, consulted through next_due()",
            "payload_fn": "emission config, consulted through next_due()",
            "limit": "emission config, consulted through next_due()",
            "start_bits": "emission config, consulted through next_due()",
            "messages": "empty scheduler-API placeholder",
        },
    )

    def __init__(
        self,
        can_id: int,
        payload_fn: Callable[[int], bytes] = _zero_payload,
        limit: Optional[int] = None,
        start_bits: int = 0,
    ) -> None:
        self.can_id = can_id
        self.payload_fn = payload_fn
        self.limit = limit
        self.start_bits = start_bits
        self.emitted = 0
        self.messages: List[object] = []  # scheduler API compatibility

    def add(self, message: object) -> None:
        raise NotImplementedError("ContinuousSource emits a single ID")

    def tick(self, time: int, queue: TransmitQueue) -> int:
        if time < self.start_bits or queue.has_pending:
            return 0
        if self.limit is not None and self.emitted >= self.limit:
            return 0
        queue.enqueue(CanFrame(self.can_id, self.payload_fn(self.emitted)), time)
        self.emitted += 1
        return 1

    # Fast-forward protocol (see repro.node.scheduler.PeriodicScheduler):
    # the source refills at most once per span — the first tick with an
    # empty queue enqueues, after which has_pending blocks until the
    # controller pops it (which only happens in per-bit stepping).

    def next_due(self, time: int, queue: TransmitQueue) -> Optional[int]:
        if queue.has_pending:
            return None
        if self.limit is not None and self.emitted >= self.limit:
            return None
        return max(time, self.start_bits)

    def fast_forward(self, start: int, end: int, queue: TransmitQueue) -> None:
        if queue.has_pending:
            return
        if self.limit is not None and self.emitted >= self.limit:
            return
        at = max(start, self.start_bits)
        if at >= end:
            return
        queue.enqueue(CanFrame(self.can_id, self.payload_fn(self.emitted)), at)
        self.emitted += 1


class AttackerNode(CanNode):
    """A compromised ECU.

    Args:
        name: Node name.
        flush_queue_on_bus_off: Real controllers lose their pending TX
            requests across the reset a bus-off forces; enable to model an
            attacker whose in-flight frame is dropped when it is bused off
            (needed for the Experiment-6 toggling behaviour).
    """

    #: Human-readable attack label, set by subclasses.
    attack_name = "generic"

    ROUND_MEMO = CanNode.ROUND_MEMO.extend(
        signature={"flush_queue_on_bus_off": VALUE},
        accumulators={"bus_off_count": COUNT},
    )

    def __init__(
        self,
        name: str,
        scheduler: Optional[PeriodicScheduler] = None,
        flush_queue_on_bus_off: bool = False,
        auto_recover: bool = True,
    ) -> None:
        super().__init__(name, scheduler=scheduler, auto_recover=auto_recover)
        self.flush_queue_on_bus_off = flush_queue_on_bus_off
        self.bus_off_count = 0

    def _enter_bus_off(self, time: int) -> None:
        self.bus_off_count += 1
        if self.flush_queue_on_bus_off and self.queue.has_pending:
            # The frame that just failed is lost with the controller reset.
            failed = self.queue.peek()
            assert failed is not None
            self.queue.on_success(time)  # pop; mark as abandoned
            failed.completed_at = None
        super()._enter_bus_off(time)
