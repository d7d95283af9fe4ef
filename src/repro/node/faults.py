"""CAN fault confinement: the TEC/REC state machine of Fig. 1b.

Every node owns one :class:`FaultConfinement` instance.  The controller calls
the ``on_*`` hooks; this module owns the counters and derives the node error
state (error-active / error-passive / bus-off) from them, exactly as ISO
11898-1 prescribes and the MichiCAN paper summarises in Sec. II-B.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.can.constants import (
    BUS_OFF_THRESHOLD,
    ERROR_PASSIVE_THRESHOLD,
    REC_ERROR_INCREMENT,
    REC_SUCCESS_DECREMENT,
    TEC_ERROR_INCREMENT,
    TEC_SUCCESS_DECREMENT,
)
from repro.node.memo import OPS, VALUE, MemoSpec

#: One journaled counter-hook call: (method name, time, extra arguments).
HookCall = Tuple[str, int, Tuple[Any, ...]]

#: The round memo's fold of a journaled hook call (see
#: :mod:`repro.bus.roundmemo`): ``(name, args) -> (TEC step, REC step)``.
#: Increments always apply in full; a decrement is exactly the step only
#: while the counter sits in :data:`DECREMENT_EXACT` before the call (the
#: floor at 0 and the REC clamp to 119 act outside it).  The memo checks
#: every fold against the live hook results before keeping a recording.
HOOK_STEPS: Dict[Tuple[str, Tuple[Any, ...]], Tuple[int, int]] = {
    ("on_transmit_error", ()): (TEC_ERROR_INCREMENT, 0),
    ("on_receive_error", ()): (0, REC_ERROR_INCREMENT),
    ("on_transmit_success", ()): (-TEC_SUCCESS_DECREMENT, 0),
    ("on_receive_success", ()): (0, -REC_SUCCESS_DECREMENT),
    ("on_receiver_flag_escalation", ()): (0, 8),
    ("on_flag_overrun_escalation", (True,)): (TEC_ERROR_INCREMENT, 0),
    ("on_flag_overrun_escalation", (False,)): (0, TEC_ERROR_INCREMENT),
}

#: (TEC range, REC range) in which a decrementing hook subtracts exactly
#: its step; None is unbounded.
DECREMENT_EXACT: Tuple[Tuple[int, Optional[int]], Tuple[int, Optional[int]]] = (
    (TEC_SUCCESS_DECREMENT, None),
    (REC_SUCCESS_DECREMENT, ERROR_PASSIVE_THRESHOLD - 1),
)

#: The counter values at which the error state can change: TEC against
#: the passive and bus-off thresholds, REC against the passive one.
STATE_THRESHOLDS: Tuple[Tuple[int, ...], Tuple[int, ...]] = (
    (ERROR_PASSIVE_THRESHOLD, BUS_OFF_THRESHOLD),
    (ERROR_PASSIVE_THRESHOLD,),
)


class ErrorState(enum.Enum):
    """Node error state per Fig. 1b of the paper."""

    ERROR_ACTIVE = "error-active"
    ERROR_PASSIVE = "error-passive"
    BUS_OFF = "bus-off"


@dataclass
class StateTransition:
    """A recorded error-state change, for traces and Fig. 1b verification."""

    time: int
    old_state: ErrorState
    new_state: ErrorState
    tec: int
    rec: int


@dataclass
class FaultConfinement:
    """Transmit/receive error counters and the derived error state.

    Attributes:
        tec: Transmit error counter.
        rec: Receive error counter.
        transitions: History of error-state changes (time-stamped).
    """

    tec: int = 0
    rec: int = 0
    transitions: List[StateTransition] = field(default_factory=list)
    _state: ErrorState = ErrorState.ERROR_ACTIVE
    #: Optional observer called on every state change.
    on_transition: Optional[Callable[[StateTransition], None]] = None
    #: While a list, every counter hook call is appended to it (the round
    #: memo records a round's counter operations this way).
    journal: Optional[List[HookCall]] = field(
        default=None, repr=False, compare=False)

    #: Round-memo declaration (see :mod:`repro.node.memo`).  A round's
    #: behaviour reads only the error *state*; the counters and the state
    #: changes they cause are replayed from the journaled hook calls
    #: (:data:`HOOK_STEPS`).
    ROUND_MEMO = MemoSpec(
        signature={"_state": VALUE},
        accumulators={"tec": OPS, "rec": OPS, "transitions": OPS},
        excluded={
            "on_transition": "owner wiring (a TransitionRelay); a replayed "
                             "state change re-emits its ErrorStateChanged",
            "journal": "the memo's own recording buffer",
        },
    )

    @property
    def state(self) -> ErrorState:
        """Current error state."""
        return self._state

    @property
    def error_active(self) -> bool:
        return self._state is ErrorState.ERROR_ACTIVE

    @property
    def error_passive(self) -> bool:
        return self._state is ErrorState.ERROR_PASSIVE

    @property
    def bus_off(self) -> bool:
        return self._state is ErrorState.BUS_OFF

    def _recompute_state(self, time: int) -> None:
        if self.tec >= BUS_OFF_THRESHOLD:
            new = ErrorState.BUS_OFF
        elif self.tec >= ERROR_PASSIVE_THRESHOLD or self.rec >= ERROR_PASSIVE_THRESHOLD:
            new = ErrorState.ERROR_PASSIVE
        else:
            new = ErrorState.ERROR_ACTIVE
        if new is not self._state:
            # Bus-off is sticky: only an explicit recovery may leave it.
            if self._state is ErrorState.BUS_OFF:
                return
            transition = StateTransition(time, self._state, new, self.tec, self.rec)
            self.transitions.append(transition)
            self._state = new
            if self.on_transition is not None:
                self.on_transition(transition)

    # -- hooks called by the controller ------------------------------------

    def on_transmit_error(self, time: int) -> None:
        """Transmitter detected an error in its own frame: TEC += 8."""
        if self.journal is not None:
            self.journal.append(("on_transmit_error", time, ()))
        self.tec += TEC_ERROR_INCREMENT
        self._recompute_state(time)

    def on_receive_error(self, time: int) -> None:
        """Receiver detected an error: REC += 1."""
        if self.journal is not None:
            self.journal.append(("on_receive_error", time, ()))
        self.rec += REC_ERROR_INCREMENT
        self._recompute_state(time)

    def on_transmit_success(self, time: int) -> None:
        """Frame transmitted and acknowledged: TEC -= 1 (floor 0)."""
        if self.journal is not None:
            self.journal.append(("on_transmit_success", time, ()))
        self.tec = max(0, self.tec - TEC_SUCCESS_DECREMENT)
        self._recompute_state(time)

    def on_receive_success(self, time: int) -> None:
        """Frame received without error: REC -= 1 (floor 0; clamp from >127)."""
        if self.journal is not None:
            self.journal.append(("on_receive_success", time, ()))
        if self.rec > ERROR_PASSIVE_THRESHOLD - 1:
            # ISO 11898-1: set REC to a value between 119 and 127.
            self.rec = ERROR_PASSIVE_THRESHOLD - 9
        else:
            self.rec = max(0, self.rec - REC_SUCCESS_DECREMENT)
        self._recompute_state(time)

    def on_receiver_flag_escalation(self, time: int) -> None:
        """Receiver saw a dominant bit right after its error flag: REC += 8.

        ISO 11898-1 rule: the receiver that reports the error last (its flag
        is still answered by dominant bits) escalates faster.
        """
        if self.journal is not None:
            self.journal.append(("on_receiver_flag_escalation", time, ()))
        self.rec += 8
        self._recompute_state(time)

    def on_flag_overrun_escalation(self, time: int, as_transmitter: bool) -> None:
        """Eight additional consecutive dominant bits followed the error flag.

        ISO 11898-1: after the 14th consecutive dominant bit following an
        active error flag (or the 8th following a passive flag), and after
        each further sequence of 8, every transmitter adds 8 to its TEC and
        every receiver adds 8 to its REC.
        """
        if self.journal is not None:
            self.journal.append(("on_flag_overrun_escalation", time, (as_transmitter,)))
        if as_transmitter:
            self.tec += TEC_ERROR_INCREMENT
        else:
            self.rec += TEC_ERROR_INCREMENT
        self._recompute_state(time)

    def recover_from_bus_off(self, time: int) -> None:
        """Re-enter error-active after 128 x 11 recessive bits were observed."""
        if self._state is not ErrorState.BUS_OFF:
            return
        transition = StateTransition(
            time, self._state, ErrorState.ERROR_ACTIVE, 0, 0
        )
        self.tec = 0
        self.rec = 0
        self.transitions.append(transition)
        self._state = ErrorState.ERROR_ACTIVE
        if self.on_transition is not None:
            self.on_transition(transition)


class TransitionRelay:
    """A node's ``on_transition`` hook: forwards each state change to
    ``owner._on_fault_transition`` through a weak reference, so a node and
    its :class:`FaultConfinement` form no reference cycle and a finished
    simulator is freed by reference counting alone."""

    __slots__ = ("_owner",)

    def __init__(self, owner: Any) -> None:
        self._owner = weakref.ref(owner)

    def __call__(self, transition: StateTransition) -> None:
        owner = self._owner()
        if owner is not None:
            owner._on_fault_transition(transition)
