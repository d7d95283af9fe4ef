"""Denial-of-Service attackers (Sec. III, Fig. 2).

* **Traditional DoS** floods the lowest-priority... rather, the lowest
  (highest-priority) identifier 0x000, starving every ECU.
* **Targeted DoS** floods an ID just below (higher priority than) the victim
  message, starving only IDs at or above it — the ParkSense attack in
  Sec. V-F injects 0x25F to starve IDs >= 0x260.
* **Random DoS** floods an arbitrary non-legitimate low ID.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.attacks.base import AttackerNode, ContinuousSource, _zero_payload
from repro.node.scheduler import TransmitQueue


class DosAttacker(AttackerNode):
    """Floods one identifier continuously (back-to-back frames)."""

    attack_name = "dos"

    ROUND_MEMO = AttackerNode.ROUND_MEMO.extend(excluded={
        "attack_id": "label only; the queued frames carry the identifier"})

    def __init__(
        self,
        name: str,
        can_id: int,
        payload_fn: Callable[[int], bytes] = _zero_payload,
        limit: Optional[int] = None,
        start_bits: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            name,
            scheduler=ContinuousSource(can_id, payload_fn, limit, start_bits),
            **kwargs,
        )
        self.attack_id = can_id

    @property
    def frames_injected(self) -> int:
        """Frames the attacker application has handed to its controller."""
        return self.scheduler.emitted  # type: ignore[union-attr]


class TraditionalDosAttacker(DosAttacker):
    """Floods CAN ID 0x000: blocks *all* other ECUs (traditional DoS)."""

    attack_name = "traditional-dos"

    ROUND_MEMO = DosAttacker.ROUND_MEMO

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, can_id=0x000, **kwargs)


class TargetedDosAttacker(DosAttacker):
    """Floods an ID one below the victim: blocks IDs >= the victim only."""

    attack_name = "targeted-dos"

    ROUND_MEMO = DosAttacker.ROUND_MEMO.extend(excluded={
        "victim_id": "label only; the queued frames carry the identifier"})

    def __init__(self, name: str, victim_id: int, **kwargs: Any) -> None:
        if victim_id <= 0:
            raise ValueError("victim ID 0x000 cannot be targeted from below")
        super().__init__(name, can_id=victim_id - 1, **kwargs)
        self.victim_id = victim_id


class RandomDosAttacker(AttackerNode):
    """Floods random non-legitimate high-priority IDs (Fig. 2's random DoS).

    Each injected frame picks a fresh ID below ``ceiling`` that is not in
    the legitimate set — the scattershot variant between traditional and
    targeted suspension.
    """

    attack_name = "random-dos"

    def __init__(
        self,
        name: str,
        legitimate_ids: Iterable[int],
        ceiling: int = 0x100,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        import random as _random

        legitimate = frozenset(legitimate_ids)
        pool = [i for i in range(ceiling) if i not in legitimate]
        if not pool:
            raise ValueError("no non-legitimate IDs below the ceiling")
        rng = _random.Random(seed)

        def _next_id(_instance: int) -> bytes:
            return bytes(8)

        source = ContinuousSource(pool[0], _next_id)
        original_tick = source.tick

        def tick(time: int, queue: TransmitQueue) -> int:
            source.can_id = pool[rng.randrange(len(pool))]
            return original_tick(time, queue)

        source.tick = tick  # vary the ID per injected frame
        super().__init__(name, scheduler=source, **kwargs)
        self.id_pool = tuple(pool)
