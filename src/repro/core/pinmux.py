"""Pin-multiplexing model (Sec. IV-B).

Modern MCUs let software multiplex a GPIO pin onto the SIO pins that carry
CAN_RX / CAN_TX, giving the application direct bit-level access.  MichiCAN
needs *read* access to CAN_RX from boot, and *write* access to CAN_TX only
for the duration of a counterattack; leaving TX multiplexed would either
destroy all traffic (pulled low) or break ACK generation (pulled high).

:class:`PinMux` captures that contract and records every reconfiguration so
tests and traces can verify the defense touches the bus exactly inside its
counterattack windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.can.constants import DOMINANT, RECESSIVE
from repro.errors import ConfigurationError
from repro.node.memo import TIMED, VALUE, MemoSpec


@dataclass(frozen=True)
class MuxOperation:
    """One reconfiguration of the PIO controller."""

    time: int
    operation: str  # "enable_tx" | "pull_low" | "release" | "disable_tx"


class PinMux:
    """The PIO controller as MichiCAN uses it.

    RX multiplexing is enabled once at boot and never turned off.  TX
    multiplexing toggles around counterattacks; while enabled, the driven
    level is whatever :meth:`pull_low` / :meth:`release` last set.
    """

    #: Round-memo declaration (see :mod:`repro.node.memo`).
    ROUND_MEMO = MemoSpec(
        signature={"rx_mux_enabled": VALUE, "tx_mux_enabled": VALUE,
                   "_tx_level": VALUE},
        accumulators={"operations": TIMED},
    )

    def __init__(self) -> None:
        self.rx_mux_enabled = True
        self.tx_mux_enabled = False
        self._tx_level = RECESSIVE
        self.operations: List[MuxOperation] = []

    # -------------------------------------------------------------- control

    def enable_tx(self, time: int) -> None:
        """Multiplex the GPIO onto CAN_TX (Algorithm 1 line 22)."""
        if self.tx_mux_enabled:
            raise ConfigurationError("TX multiplexing already enabled")
        self.tx_mux_enabled = True
        self.operations.append(MuxOperation(time, "enable_tx"))

    def pull_low(self, time: int) -> None:
        """Drive CAN_TX dominant (Algorithm 1 line 23)."""
        if not self.tx_mux_enabled:
            raise ConfigurationError("cannot drive CAN_TX without TX mux")
        self._tx_level = DOMINANT
        self.operations.append(MuxOperation(time, "pull_low"))

    def release(self, time: int) -> None:
        """Stop driving dominant while TX mux stays enabled."""
        self._tx_level = RECESSIVE
        self.operations.append(MuxOperation(time, "release"))

    def disable_tx(self, time: int) -> None:
        """Give CAN_TX back to the CAN controller (Algorithm 1 line 17)."""
        if not self.tx_mux_enabled:
            raise ConfigurationError("TX multiplexing already disabled")
        self.tx_mux_enabled = False
        self._tx_level = RECESSIVE
        self.operations.append(MuxOperation(time, "disable_tx"))

    # -------------------------------------------------------------- queries

    @property
    def drive_level(self) -> int:
        """Level the GPIO contributes to the wired-AND bus this bit time."""
        if self.tx_mux_enabled:
            return self._tx_level
        return RECESSIVE

    def windows(self) -> List[tuple]:
        """(enable_time, disable_time) pairs of completed TX-mux windows."""
        result = []
        start: Optional[int] = None
        for op in self.operations:
            if op.operation == "enable_tx":
                start = op.time
            elif op.operation == "disable_tx" and start is not None:
                result.append((start, op.time))
                start = None
        return result
