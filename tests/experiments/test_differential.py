"""Differential suite: the fast-forward engine must be invisible.

Every registered scenario runs twice from the identical spec — once with
``engine="fast"`` and once with ``engine="bit"`` — across three seeds.
The event streams, final simulator state, result payloads and metrics
summaries must match exactly; any divergence is a fast-path correctness
bug (see the determinism contract in :mod:`repro.bus.fastforward`).  The
final state covers every field a span or a replayed round writes.
"""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.dos import DosAttacker
from repro.bus.events import FaultActivated
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.experiments.campaign import ScenarioSpec, scenario_names
from repro.experiments.runner import make_simulator
from repro.experiments.scenarios import DEFENDER_ID, _restbus, detection_ids_for
from repro.faults.plan import FaultPlan, FaultSpec, FaultWindow
from repro.faults.wire import FaultInjectingWire
from repro.node.controller import CanNode
from repro.node.faults import FaultConfinement, TransitionRelay
from repro.node.memo import COUNT, FIXED, VALUE, MemoSpec
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

#: Factories whose required positional arguments have no defaults.
REQUIRED_PARAMS = {
    "dos_fight": {"attack_id": 0x064},
    "multi_attacker": {"num_attackers": 2},
}

DURATION = 6_000
SEEDS = (0, 1, 2)


def _run(name, seed, engine, metrics=False):
    from repro.experiments.campaign import execute_spec

    spec = ScenarioSpec(name, params=dict(REQUIRED_PARAMS.get(name, {})),
                        seed=seed, duration_bits=DURATION,
                        metrics=metrics, engine=engine)
    setup = spec.build()
    result = setup.run(config=spec.run_config())
    return setup.sim, result


_SCALARS = (int, str, type(None), enum.Enum, frozenset)


def _emissions(scheduler):
    """How many frames a scheduler has produced (per message if periodic)."""
    return (getattr(scheduler, "emitted", None),
            [message.emitted for message in getattr(scheduler, "messages", [])
             if hasattr(message, "emitted")])


def _firmware_state(firmware):
    return {
        "counters": dict(vars(firmware.counters)),
        "detections": list(firmware.detections),
        "cnt_sof": firmware._cnt_sof,
        "scalars": {key: value for key, value in vars(firmware).items()
                    if isinstance(value, _SCALARS)},
        "id_bits": list(firmware._id_bits),
        "runner": (firmware._runner._state, firmware._runner.verdict,
                   firmware._runner.decision_bit),
        "pinmux": (firmware.pinmux.tx_mux_enabled, firmware.pinmux.drive_level,
                   list(firmware.pinmux.operations)),
    }


def _node_state(node):
    firmware = getattr(node, "firmware", None)
    return {
        "state": (node.state.name, node.tec, node.rec),
        "controller": {key: value for key, value in vars(node).items()
                       if isinstance(value, _SCALARS)},
        "parser": node.parser.snapshot(),
        "transitions": list(node.faults.transitions),
        "queue": [(p.frame, p.enqueued_at, p.attempts)
                  for p in node.queue._pending],
        "completed": [(p.frame, p.enqueued_at, p.attempts, p.completed_at)
                      for p in node.queue.completed],
        "emitted": _emissions(node.scheduler),
        "firmware": None if firmware is None else _firmware_state(firmware),
    }


def _fingerprint(sim):
    """Everything per-bit stepping determines, in comparable form."""
    return {
        "time": sim.time,
        "events": [repr(e) for e in sim.events],
        "history": list(sim.wire.history),
        "level": sim.wire.level,
        "wire_counts": (sim.wire.total_bits, sim.wire.dominant_bits),
        "nodes": {node.name: _node_state(node)
                  for node in sim.nodes if hasattr(node, "state")},
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_engines_agree(name, seed):
    sim_fast, result_fast = _run(name, seed, "fast")
    sim_bit, result_bit = _run(name, seed, "bit")
    assert _fingerprint(sim_fast) == _fingerprint(sim_bit)
    assert result_fast.to_dict() == result_bit.to_dict()


@pytest.mark.parametrize("name", ["exp1", "restbus_baseline", "chaos_fight"])
def test_engines_agree_with_metrics(name):
    """BusProbe telemetry (event-driven) is identical under both engines."""
    from repro.experiments.campaign import execute_spec

    records = {}
    for engine in ("fast", "bit"):
        spec = ScenarioSpec(name, params=dict(REQUIRED_PARAMS.get(name, {})),
                            seed=0, duration_bits=DURATION,
                            metrics=True, engine=engine)
        records[engine] = execute_spec(spec)
    fast, bit = records["fast"].result, records["bit"].result
    assert fast.metrics is not None and bit.metrics is not None
    assert fast.metrics.to_dict() == bit.metrics.to_dict()
    assert fast.to_dict() == bit.to_dict()


def test_fast_engine_actually_fast_forwards():
    """The benign long-idle scenario must take the span path, not merely
    agree with it (guards against silently declining every span)."""
    sim, _ = _run("restbus_baseline", 0, "fast")
    stats = sim.ff_stats
    assert stats.body_spans > 0
    assert stats.idle_spans > 0
    assert stats.fast_bits > DURATION // 2


def test_fast_engine_replays_rounds():
    """The paper's fight must take the round memo, not merely agree with
    it: exp2 repeats one counterattack round until the error state moves."""
    sim, _ = _run("exp2", 0, "fast")
    stats = sim.ff_stats
    assert stats.round_records > 0
    assert stats.round_spans > stats.round_records
    assert stats.round_bits > DURATION // 4


# ------------------------------------------------------------ trace spans

def _trace_spans(name, seed, engine):
    """Run one scenario with a TraceCollector attached; spans as dicts."""
    import json

    from repro.obs.tracing import TraceCollector

    spec = ScenarioSpec(name, params=dict(REQUIRED_PARAMS.get(name, {})),
                        seed=seed, duration_bits=DURATION, engine=engine)
    setup = spec.build()
    collector = TraceCollector(setup.sim)
    setup.run(config=spec.run_config())
    spans = collector.finalize()
    return [json.dumps(span.to_dict(), sort_keys=True) for span in spans]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_trace_spans_agree(name, seed):
    """Both engines synthesize byte-identical lifecycle span streams.

    Fast-forward spans emit exactly the per-bit event stream (replayed
    rounds included: the collector reads events only, so rounds keep
    replaying while it listens), so the purely event-driven collector
    must see the same events at the same times either way — ids,
    parents, begins, ends and attrs all included.
    """
    assert (_trace_spans(name, seed, "fast")
            == _trace_spans(name, seed, "bit"))


def test_snapshot_timelines_agree():
    """Periodic snapshots are byte-identical under both engines: spans
    are clamped to the recorder's sample times, so every capture happens
    on a per-bit step with exact wire counters."""
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder

    timelines = {}
    for engine in ("fast", "bit"):
        spec = ScenarioSpec("exp4", seed=0, duration_bits=DURATION,
                            engine=engine)
        setup = spec.build()
        recorder = setup.sim.add_node(
            SnapshotRecorder(BusProbe(setup.sim), 500))
        setup.run(config=spec.run_config())
        timelines[engine] = recorder.snapshots
    assert timelines["fast"] == timelines["bit"]
    assert len(timelines["fast"]) >= DURATION // 500 - 1


def test_fast_engine_still_fast_forwards_with_snapshots():
    """A passive snapshot recorder must not force per-bit stepping."""
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder

    spec = ScenarioSpec("restbus_baseline", seed=0, duration_bits=DURATION,
                        engine="fast")
    setup = spec.build()
    setup.sim.add_node(SnapshotRecorder(BusProbe(setup.sim), 1_000))
    setup.run(config=spec.run_config())
    assert setup.sim.ff_stats.fast_bits > DURATION // 4


# ------------------------------------------------ observers, fault windows

def _observed(engine, observer):
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder

    spec = ScenarioSpec("exp4", seed=0, duration_bits=DURATION, engine=engine)
    setup = spec.build()
    probe = BusProbe(setup.sim)
    recorder = None
    if observer == "snapshots":
        recorder = setup.sim.add_node(SnapshotRecorder(probe, 500))
    setup.run(config=spec.run_config())
    return setup.sim, probe, recorder


@pytest.mark.parametrize("observer", ["probe", "snapshots"])
def test_observers_do_not_switch_the_engine(observer):
    """A probe (an event listener) or a snapshot recorder (a passive
    sampler, a barrier to the memo) leaves results byte-identical and the
    round memo replaying."""
    fast, fast_probe, fast_recorder = _observed("fast", observer)
    bit, bit_probe, bit_recorder = _observed("bit", observer)
    assert _fingerprint(fast) == _fingerprint(bit)
    assert fast_probe.summary().to_dict() == bit_probe.summary().to_dict()
    if observer == "snapshots":
        assert fast_recorder.snapshots == bit_recorder.snapshots
    stats = fast.ff_stats
    assert stats.round_spans > 0
    assert stats.round_misses["listener"] == stats.round_misses["node_class"] == 0


#: Fault windows that open mid-run, on the exp4 fight.
MID_RUN_FAULTS = {
    "wire.flip": FaultSpec("flips", "wire.flip", FaultWindow(2_500, 3_500),
                           params={"flip_probability": 0.02}, seed=3),
    "node.tx_stuck": FaultSpec("stuck", "node.tx_stuck",
                               FaultWindow(2_500, 2_700), target="attacker",
                               params={"level": 0}),
}


@pytest.mark.parametrize("kind", sorted(MID_RUN_FAULTS))
def test_fault_window_opening_mid_run_agrees(kind):
    """Outside its window a fault plan no longer disables fast-forward;
    the window edges are barriers, so the fault activates at the same bit
    on both engines and the whole run agrees byte for byte."""
    plan = FaultPlan((MID_RUN_FAULTS[kind],))
    runs = {}
    for engine in ("fast", "bit"):
        spec = ScenarioSpec("exp4", seed=0, duration_bits=DURATION,
                            engine=engine, faults=plan)
        setup = spec.build()
        runs[engine] = (setup.sim, setup.run(config=spec.run_config()))
    (fast, fast_result), (bit, bit_result) = runs["fast"], runs["bit"]
    assert _fingerprint(fast) == _fingerprint(bit)
    assert fast_result.to_dict() == bit_result.to_dict()
    assert [e.time for e in fast.events if isinstance(e, FaultActivated)] == [2_500]
    stats = fast.ff_stats
    assert stats.fast_bits > DURATION // 2
    assert stats.round_misses["barrier"] > 0


# ------------------------------------------------------- random topologies

class PayloadChangingAttacker(DosAttacker):
    """Floods one ID but changes the payload on every (re)transmission
    attempt, like the attacks that vary the frame between attempts
    (Rogers & Rasmussen, CANflict): no two rounds are alike, so the round
    memo must miss every time rather than replay a stale round."""

    ROUND_MEMO = DosAttacker.ROUND_MEMO

    def _begin_transmission(self, time):
        pending = self.queue.peek()
        pending.frame = CanFrame(pending.frame.can_id,
                                 bytes([pending.attempts % 256]) * 8)
        super()._begin_transmission(time)


class ReadableCounters(FaultConfinement):
    """Fault confinement whose owner reads TEC/REC: both are keyed."""

    ROUND_MEMO = MemoSpec(
        signature={"_state": VALUE, "tec": VALUE, "rec": VALUE},
        accumulators={"transitions": FIXED},
        excluded={"on_transition": "owner wiring",
                  "journal": "never set: no hook call is journaled"})


class SilentBusOffAttacker(DosAttacker):
    """Rogers & Rasmussen's silent bus-off: flood the victim's own ID so
    every victim attempt collides, and stay clear of bus-off by resetting
    the attacker's counters behind the fault-confinement hooks whenever
    TEC climbs past ``reset_above``.  The round a reset happens in moves
    TEC outside the journaled hook calls; the rounds around it repeat
    while their behaviour depends on the live TEC, which the attacker's
    counters therefore key."""

    ROUND_MEMO = DosAttacker.ROUND_MEMO.extend(
        signature={"reset_above": VALUE}, accumulators={"resets": COUNT})

    def __init__(self, name, victim_id, reset_above):
        super().__init__(name, victim_id)
        self.faults = ReadableCounters()
        self.faults.on_transition = TransitionRelay(self)
        self.reset_above = reset_above
        self.resets = 0

    def _begin_transmission(self, time):
        if self.faults.tec > self.reset_above:
            self.faults.tec = 0
            self.faults.rec = 0
            self.resets += 1
        super()._begin_transmission(time)


class PayloadFlipAttacker(DosAttacker):
    """Floods one ID and inverts its payload at attempt ``flip_at`` of
    every 32-attempt cycle it counts: the rounds before and after the flip
    differ only in the head frame's payload and the attacker's count."""

    ROUND_MEMO = DosAttacker.ROUND_MEMO.extend(
        signature={"flip_at": VALUE, "_cycle_attempt": VALUE})

    def __init__(self, name, can_id, flip_at):
        super().__init__(name, can_id)
        self.flip_at = flip_at
        self._cycle_attempt = 0

    def _begin_transmission(self, time):
        self._cycle_attempt = (self._cycle_attempt + 1) % 32
        if self._cycle_attempt == self.flip_at:
            pending = self.queue.peek()
            pending.frame = CanFrame(pending.frame.can_id,
                                     bytes([pending.frame.data[0] ^ 0xFF]) * 8)
        super()._begin_transmission(time)


def _canflict_wire(sim, start, span, period, length, level):
    """CANflict-style injected bit pattern: a glitch train (``length``
    forced bits every ``period``) over the wire for ``span`` bits."""
    return FaultInjectingWire(
        [FaultSpec("canflict", "wire.glitch", FaultWindow(start, start + span),
                   params={"period": period, "length": length, "level": level})],
        emit=sim._record_event)


#: Memo adversaries: (kind, parameters) drawn by ``test_random_buses_agree``.
ADVERSARIES = st.one_of(
    st.none(),
    st.tuples(st.just("silent_busoff"), st.integers(8, 200)),
    st.tuples(st.just("payload_flip"), st.integers(1, 31)),
    st.tuples(st.just("canflict"), st.tuples(
        st.integers(0, 4_000), st.integers(1, 600), st.integers(2, 60),
        st.integers(1, 2), st.sampled_from((0, 1)))),
)


def _random_bus(attack_ids, period, restbus, payload_changes, adversary=None):
    sim = make_simulator()
    legitimate = _restbus(sim).matrix.all_ids() if restbus else []
    sim.add_node(MichiCanNode(
        "defender", detection_ids_for(DEFENDER_ID, legitimate),
        scheduler=PeriodicScheduler([PeriodicMessage(
            DEFENDER_ID, period_bits=25_000, offset_bits=977)])))
    kind, arg = adversary or (None, None)
    for index, can_id in enumerate(attack_ids):
        name = f"attacker{index}"
        if payload_changes and index == 0:
            node = PayloadChangingAttacker(name, can_id)
        elif kind == "payload_flip" and index == 0:
            node = PayloadFlipAttacker(name, can_id, arg)
        elif period is None:
            node = DosAttacker(name, can_id)
        else:
            node = CanNode(name, scheduler=PeriodicScheduler(
                [PeriodicMessage(can_id, period_bits=period,
                                 offset_bits=index * 7)]))
        sim.add_node(node)
    if kind == "silent_busoff":
        sim.add_node(SilentBusOffAttacker("silent", DEFENDER_ID, arg))
    elif kind == "canflict":
        sim.wire = _canflict_wire(sim, *arg)
    return sim


@settings(max_examples=30, deadline=None, derandomize=True)
@given(attack_ids=st.lists(st.integers(0, DEFENDER_ID), min_size=1,
                           max_size=3, unique=True),
       period=st.one_of(st.none(), st.integers(150, 3_000)),
       restbus=st.booleans(),
       payload_changes=st.booleans(),
       bits=st.integers(2_000, 6_000),
       adversary=ADVERSARIES)
def test_random_buses_agree(attack_ids, period, restbus, payload_changes, bits,
                            adversary):
    """Random attacker IDs, counts, periods, restbus on or off and a memo
    adversary (silent bus-off, mid-cycle payload flips, injected bit
    patterns): the fast engine (spans and replayed rounds) equals per-bit
    stepping."""
    fast = _random_bus(attack_ids, period, restbus, payload_changes, adversary)
    fast.advance(bits)
    slow = _random_bus(attack_ids, period, restbus, payload_changes, adversary)
    slow.advance(bits, policy="off")
    assert _fingerprint(fast) == _fingerprint(slow)


@pytest.mark.parametrize("adversary", [
    ("silent_busoff", 16), ("payload_flip", 20),
    ("canflict", (2_000, 400, 23, 1, 0))],
    ids=lambda adversary: adversary[0])
def test_memo_adversaries_agree(adversary):
    """Each adversary on the paper's fight: the memo keeps replaying the
    rounds it may, and never one it may not."""
    def bus():
        return _random_bus([0x064], None, False, False, adversary)

    fast, slow = bus(), bus()
    fast.advance(DURATION)
    slow.advance(DURATION, policy="off")
    assert _fingerprint(fast) == _fingerprint(slow)
    stats = fast.ff_stats
    assert stats.round_spans > 0
    kind = adversary[0]
    if kind == "silent_busoff":
        assert fast.node("silent").resets > 0
    elif kind == "canflict":
        activated = [e.time for e in fast.events
                     if isinstance(e, FaultActivated)]
        assert activated == [2_000]
        assert stats.round_misses["barrier"] > 0


def test_payload_changing_attacker_never_replays():
    sim = _random_bus([0x064], None, restbus=False, payload_changes=True)
    sim.advance(DURATION)
    stats = sim.ff_stats
    assert stats.round_misses["unseen"] > 0  # the memo looked every round
    assert stats.round_records == 0 and stats.round_spans == 0
    slow = _random_bus([0x064], None, restbus=False, payload_changes=True)
    slow.advance(DURATION, policy="off")
    assert _fingerprint(sim) == _fingerprint(slow)


def test_listen_only_tap_with_a_queued_frame_agrees():
    """A listen-only tap holding a frame arms a start at every idle bit
    but never sends: its arms are no round boundaries (or every idle bit
    would be one), and the fight around it still replays exactly."""
    def bus():
        sim = _random_bus([0x064], None, restbus=False, payload_changes=False)
        tap = sim.add_node(CanNode("tap", listen_only=True))
        tap.send(CanFrame(0x300, b"\x01"))
        return sim

    fast, slow = bus(), bus()
    for _ in range(DURATION // 500):  # compare inside idle stretches too
        fast.advance(500)
        slow.advance(500, policy="off")
        assert _fingerprint(fast) == _fingerprint(slow)
    assert fast.ff_stats.round_spans > 0
    assert fast.ff_stats.round_misses["unseen"] < 100
