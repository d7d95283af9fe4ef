"""Round-memo state declarations cover every attribute exactly once.

The round memo (``repro.bus.roundmemo.RoundMemo``) replays a recorded
round by writing back each object's declared signature and accumulators,
so an attribute nobody classified would silently keep its pre-round value
on a replay.  These tests walk live instances of every memo-eligible class
and require each attribute to sit in exactly one ``ROUND_MEMO`` group:
adding a field to, say, ``CanNode`` without classifying it fails here.
"""

import pytest

from repro.attacks.base import ContinuousSource
from repro.attacks.dos import DosAttacker, TargetedDosAttacker, TraditionalDosAttacker
from repro.attacks.spoofing import SpoofingAttacker
from repro.core.defense import MichiCanNode
from repro.experiments.campaign import ScenarioSpec
from repro.node.memo import NESTED, MemoSpec


def _walk(obj, seen):
    """Yield ``obj`` and every declared component below it, once each."""
    if obj is None or id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    spec = type(obj).__dict__.get("ROUND_MEMO")
    if spec is None:
        return
    for name, kind in spec.signature.items():
        if kind == NESTED:
            yield from _walk(getattr(obj, name), seen)


def _live_objects():
    """Instances of every declaring class, after some simulated traffic
    (attributes created lazily must exist by then)."""
    nodes = []
    for name in ("exp1", "exp5", "exp6"):
        setup = ScenarioSpec(name, duration_bits=3_000).build()
        setup.sim.advance(3_000)
        nodes.extend(setup.sim.nodes)
    nodes += [
        TraditionalDosAttacker("traditional"),
        TargetedDosAttacker("targeted", victim_id=0x260),
        SpoofingAttacker("spoof_flood", target_id=0x173),
        SpoofingAttacker("spoof_periodic", target_id=0x173, period_bits=900),
        MichiCanNode("extended", range(0x10), extended_detection_ids=range(0x100)),
    ]
    seen = set()
    objects = []
    for node in nodes:
        objects.extend(_walk(node, seen))
    return objects


OBJECTS = _live_objects()


def test_every_component_class_is_covered():
    classes = {type(obj).__name__ for obj in OBJECTS}
    assert {
        "RestbusNode", "MichiCanNode", "DosAttacker", "ToggleAttacker",
        "TraditionalDosAttacker", "TargetedDosAttacker", "SpoofingAttacker",
        "RxParser", "TransmitQueue", "FaultConfinement", "PeriodicScheduler",
        "ContinuousSource", "_AlternatingSource", "MichiCanFirmware",
        "PinMux", "FsmRunner",
    } <= classes


@pytest.mark.parametrize("obj", OBJECTS,
                         ids=lambda obj: f"{type(obj).__name__}")
def test_attributes_classified_exactly_once(obj):
    spec = type(obj).__dict__.get("ROUND_MEMO")
    assert isinstance(spec, MemoSpec), (
        f"{type(obj).__name__} has no ROUND_MEMO of its own")
    declared = spec.names()
    assert len(declared) == len(set(declared))
    attributes = set(vars(obj))
    assert attributes - set(declared) == set(), "unclassified attributes"
    assert set(declared) - attributes == set(), "declared but absent"
    for name, reason in spec.excluded.items():
        assert isinstance(reason, str) and reason.strip(), name


def test_groups_may_not_overlap():
    with pytest.raises(ValueError, match="declared twice"):
        MemoSpec(signature={"a": "value"}, excluded={"a": "why"})


def test_subclass_without_declaration_is_not_memo_eligible():
    class Unclassified(DosAttacker):
        pass

    from repro.bus.roundmemo import _layout

    assert _layout(DosAttacker) is not None
    assert _layout(Unclassified) is None
    assert _layout(ContinuousSource) is not None
