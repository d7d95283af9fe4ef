"""Round-memo state declarations.

The fast-forward engine's round memo (:mod:`repro.bus.fastforward`) replays
a repeated bus round — arbitration, counterattack, error frame — instead of
stepping it bit by bit.  A replay is exact only if the engine knows every
piece of state a round reads and writes, so each node-side class declares
its own instance attributes here, on the class, as a :class:`MemoSpec`
named ``ROUND_MEMO``:

* **signature** — behaviour state.  The memo keys rounds by it and, on a
  hit, writes the recorded end values back.
* **accumulators** — measurement records and counters a round only adds
  to.  They stay out of the key; a hit adds the recorded deltas.
* **excluded** — everything else, each with the reason it can neither
  change a round's behaviour nor be changed by one.

A signature field (or component) may also be declared **live** only while
another attribute of the object holds one of a few values, e.g. a
controller's ``_intermission_count`` only ``while state is INTERMISSION``.
The declaration promises that the field is never read outside those
values and is always rewritten before it can be read again; while it is
dead it stays out of the key, so stale leftovers of an earlier frame do
not split otherwise identical rounds.  A count accumulator may be
declared live the same way (``_busoff_sequences`` restarts at every
bus-off entry): a round that rewrote it while dead replays its end value
instead of a delta.

A class without its own ``ROUND_MEMO`` (a subclass does not inherit its
parent's) is never memoized, and ``tests/node/test_memo_state.py`` checks
that every attribute of every declaring class sits in exactly one group.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

#: Signature kinds.
VALUE = "value"  #: hashable; keyed and written back as is
LIST = "list"  #: list; keyed as a tuple, written back as a fresh list
REF = "ref"  #: shared immutable object (a cached bitstream); keyed by identity
NESTED = "nested"  #: component object (or None) with its own ``ROUND_MEMO``
HEAD = "head"  #: transmit-queue pending list: keyed by length and head frame
STAMP = "stamp"  #: time of the last write; not keyed, written back shifted

#: Accumulator kinds.
COUNT = "count"  #: int; the recorded delta is added
COUNTERS = "counters"  #: dataclass of int counters; per-field deltas added
TIMED = "timed"  #: list of frozen records with a ``time``; appended shifted
OPS = "ops"  #: fault counters: the recorded hook calls are re-applied
FIXED = "fixed"  #: list that must not grow; growth discards the recording


class Saturating:
    """Signature kind of a counter read only as ``value >= cap``.

    The counter either grows by one per bit or restarts from zero; the key
    holds ``min(value, cap)``.  A round that never restarted it adds its
    length to the live value; otherwise the recorded end value is exact.
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int) -> None:
        self.cap = cap

    def __repr__(self) -> str:
        return f"Saturating({self.cap})"


class Bounded:
    """Accumulator kind of a count whose reaching ``limit`` is a protocol
    decision (bus-off recovery): a lookup whose delta would take the live
    value to the limit declines."""

    __slots__ = ("limit",)

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __repr__(self) -> str:
        return f"Bounded({self.limit})"


SignatureKind = Union[str, Saturating]
AccumulatorKind = Union[str, Bounded]


#: ``field -> (attribute, values)``: the field is live only while
#: ``getattr(obj, attribute)`` is one of ``values``.
LiveWhen = Mapping[str, Tuple[str, Tuple[object, ...]]]


class MemoSpec:
    """One class's round-memo declaration (see the module docstring)."""

    __slots__ = ("signature", "accumulators", "excluded", "live")

    def __init__(
        self,
        signature: Mapping[str, SignatureKind],
        accumulators: Optional[Mapping[str, AccumulatorKind]] = None,
        excluded: Optional[Mapping[str, str]] = None,
        live: Optional[LiveWhen] = None,
    ) -> None:
        self.signature: Dict[str, SignatureKind] = dict(signature)
        self.accumulators: Dict[str, AccumulatorKind] = dict(accumulators or {})
        self.excluded: Dict[str, str] = dict(excluded or {})
        self.live: Dict[str, Tuple[str, Tuple[object, ...]]] = dict(live or {})
        groups: Tuple[Mapping[str, object], ...] = (
            self.signature, self.accumulators, self.excluded)
        for index, group in enumerate(groups):
            for other in groups[index + 1:]:
                both = set(group) & set(other)
                if both:
                    raise ValueError(f"attributes declared twice: {sorted(both)}")
        for name in self.live:
            kind = self.signature.get(name, self.accumulators.get(name))
            if kind not in (VALUE, LIST, REF, NESTED, COUNT) and not isinstance(
                    kind, Bounded):
                raise ValueError(
                    f"only value, list, ref and nested signature fields and "
                    f"count accumulators can be declared live-when, not "
                    f"{name!r}")

    def extend(
        self,
        signature: Optional[Mapping[str, SignatureKind]] = None,
        accumulators: Optional[Mapping[str, AccumulatorKind]] = None,
        excluded: Optional[Mapping[str, str]] = None,
        live: Optional[LiveWhen] = None,
    ) -> "MemoSpec":
        """A subclass's declaration: this one plus the subclass's own."""
        return MemoSpec({**self.signature, **(signature or {})},
                        {**self.accumulators, **(accumulators or {})},
                        {**self.excluded, **(excluded or {})},
                        {**self.live, **(live or {})})

    def names(self) -> Tuple[str, ...]:
        """Every declared attribute name."""
        return (*self.signature, *self.accumulators, *self.excluded)
