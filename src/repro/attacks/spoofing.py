"""Fabrication / spoofing and masquerade attackers (Sec. III).

A fabrication attack injects frames with a *legitimate* ID but attacker-
chosen data, at a higher frequency than the real sender so receivers act on
the forged values.  A masquerade attack chains suspension (DoS on the victim)
with fabrication of the victim's ID.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.attacks.base import AttackerNode, ContinuousSource
from repro.can.frame import CanFrame
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def _forged_payload(_instance: int) -> bytes:
    return b"\xFF" * 8


class SpoofingAttacker(AttackerNode):
    """Injects a legitimate ECU's CAN ID with forged data.

    Args:
        target_id: The victim ECU's CAN ID to spoof.
        period_bits: Injection period; None floods back-to-back.
    """

    attack_name = "spoofing"

    ROUND_MEMO = AttackerNode.ROUND_MEMO.extend(excluded={
        "target_id": "label only; the queued frames carry the identifier"})

    def __init__(
        self,
        name: str,
        target_id: int,
        period_bits: Optional[int] = None,
        payload_fn: Callable[[int], bytes] = _forged_payload,
        **kwargs: Any,
    ) -> None:
        if period_bits is None:
            scheduler = ContinuousSource(target_id, payload_fn)
        else:
            scheduler = PeriodicScheduler(
                [PeriodicMessage(target_id, period_bits, payload_fn=payload_fn)]
            )
        super().__init__(name, scheduler=scheduler, **kwargs)
        self.target_id = target_id


class MasqueradeAttacker(AttackerNode):
    """Suspension + fabrication: starve the victim, then speak as it.

    Phase 1 floods ``victim_id - 1`` (targeted DoS) for ``suppress_bits``;
    phase 2 fabricates the victim's ID periodically.  Against MichiCAN the
    attack dies in phase 1 — which is precisely the paper's argument for why
    DoS prevention matters ("They demonstrate why preventing DoS attacks is
    of utmost importance").
    """

    attack_name = "masquerade"

    def __init__(
        self,
        name: str,
        victim_id: int,
        suppress_bits: int,
        fabricate_period_bits: int,
        payload_fn: Callable[[int], bytes] = _forged_payload,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        if victim_id <= 0:
            raise ValueError("victim ID 0x000 cannot be masqueraded")
        self.victim_id = victim_id
        self.suppress_bits = suppress_bits
        self.fabricate_period_bits = fabricate_period_bits
        self._payload_fn = payload_fn
        self._dos_source = ContinuousSource(victim_id - 1)
        self._fabricated = 0

    def output(self, time: int) -> int:
        if time < self.suppress_bits:
            self._dos_source.tick(time, self.queue)
        else:
            due = self.suppress_bits + self._fabricated * self.fabricate_period_bits
            if time >= due and not self.queue.has_pending:
                self.queue.enqueue(
                    CanFrame(self.victim_id, self._payload_fn(self._fabricated)),
                    time,
                )
                self._fabricated += 1
        return super().output(time)
