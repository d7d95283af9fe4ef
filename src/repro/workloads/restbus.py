"""Restbus simulation: replaying benign vehicle traffic onto the bus.

The paper injects recorded Veh. D traffic through a PCAN-USB interface with
SocketCAN; :class:`RestbusNode` is that interface — a single bus node whose
transmit queue is fed by every periodic message of a communication matrix
(contention between the replayed messages resolves in priority order inside
the node, exactly like a replay tool sharing one controller).
"""

from __future__ import annotations

from typing import Optional

from repro.dbc.types import CommunicationMatrix
from repro.node.controller import CanNode
from repro.workloads.matrix import PayloadFactory, _default_payload_factory, scheduler_for_messages


class RestbusNode(CanNode):
    """One node replaying all periodic traffic of a matrix (PCAN-style).

    Args:
        name: Node name.
        matrix: The communication matrix to replay.
        bus_speed: Bus speed for period conversion.
        time_scale: Stretch factor for all periods (>1 thins the traffic;
            useful to hit a target bus load on slow simulated buses).
        payload_factory: Payload generation per message.
    """

    ROUND_MEMO = CanNode.ROUND_MEMO.extend(excluded={
        "matrix": "configuration the scheduler was built from"})

    def __init__(
        self,
        name: str,
        matrix: CommunicationMatrix,
        bus_speed: int,
        time_scale: float = 1.0,
        payload_factory: Optional[PayloadFactory] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        scheduler = scheduler_for_messages(
            matrix.periodic_messages(),
            bus_speed,
            payload_factory or _default_payload_factory,
        )
        for message in scheduler.messages:
            message.period_bits = max(1, round(message.period_bits * time_scale))
            # Deterministic staggering so the replay doesn't burst at t=0.
            message.offset_bits = (message.can_id * 37) % message.period_bits
        super().__init__(name, scheduler=scheduler)
        self.matrix = matrix
