"""Unit tests for the fast-forward engine and the ``advance()`` API."""

import pytest

from repro.bus.events import FrameTransmitted
from repro.attacks.dos import DosAttacker
from repro.bus.fastforward import (
    FAST_FORWARD_POLICIES,
    MIN_SPAN_BITS,
    ROUND_MISS_REASONS,
    FastForwardEngine,
)
from repro.bus.roundmemo import MAX_ROUND_ENTRIES
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError, SimulationError
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def periodic_sim(period_bits=600):
    sim = CanBusSimulator()
    sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
        [PeriodicMessage(0x123, period_bits=period_bits)])))
    sim.add_node(CanNode("receiver"))
    return sim


class TestAdvanceApi:
    def test_policies_constant(self):
        assert FAST_FORWARD_POLICIES == ("auto", "off")

    def test_default_policy_is_auto(self):
        assert CanBusSimulator().fast_forward_policy == "auto"

    def test_unknown_policy_rejected(self):
        sim = periodic_sim()
        with pytest.raises(ConfigurationError, match="policy"):
            sim.advance(10, policy="turbo")

    def test_unknown_session_policy_rejected(self):
        sim = periodic_sim()
        sim.fast_forward_policy = "warp"
        with pytest.raises(ConfigurationError):
            sim.advance(10)

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            periodic_sim().advance(-1)

    def test_empty_bus_rejected(self):
        with pytest.raises(SimulationError):
            CanBusSimulator().advance(10)

    def test_zero_bits_is_a_no_op(self):
        sim = periodic_sim()
        assert sim.advance(0) == 0
        assert sim.time == 0

    def test_advance_returns_final_time(self):
        sim = periodic_sim()
        assert sim.advance(500) == 500
        assert sim.advance(250) == 750

    def test_advance_until_hit_returns_time(self):
        sim = periodic_sim()
        hit = sim.advance_until(
            lambda s: bool(s.events_of(FrameTransmitted)), 5_000)
        assert hit is not None
        assert hit == sim.events_of(FrameTransmitted)[0].time + 1

    def test_advance_until_miss_returns_none(self):
        sim = periodic_sim()
        assert sim.advance_until(lambda s: False, 200) is None
        assert sim.time == 200

    def test_off_policy_never_engages_engine(self):
        sim = periodic_sim()
        sim.advance(5_000, policy="off")
        assert sim.advance_until(lambda s: False, 100, policy="off") is None
        assert sim.time == 5_100
        assert sim._ff_engine is None

    def test_auto_policy_takes_spans(self):
        sim = periodic_sim()
        sim.advance(5_000)
        stats = sim.ff_stats
        assert stats.body_spans > 0 and stats.idle_spans > 0
        assert 0 < stats.fast_bits <= 5_000
        as_dict = stats.as_dict()
        assert as_dict["body_bits"] == stats.body_bits
        assert as_dict["idle_bits"] == stats.idle_bits
        assert as_dict["round_spans"] == stats.round_spans
        assert as_dict["round_bits"] == stats.round_bits
        assert as_dict["round_records"] == stats.round_records
        for reason in ROUND_MISS_REASONS:
            assert as_dict[f"round_miss_{reason}"] == stats.round_misses[reason]

    def test_instrumented_step_disables_fast_path(self):
        sim = periodic_sim()
        seen = []
        original = sim.step

        def traced():
            seen.append(sim.time)
            return original()

        sim.step = traced  # type: ignore[method-assign]
        sim.advance(300)
        del sim.step
        # Every single bit went through the patched step.
        assert seen == list(range(300))
        assert sim._ff_engine is None


class TestEngineEligibility:
    def test_declines_short_windows(self):
        sim = periodic_sim()
        engine = FastForwardEngine(sim)
        assert engine.try_advance(sim.time + MIN_SPAN_BITS - 1) == 0

    def test_declines_custom_wire(self):
        from repro.faults.wire import FaultInjectingWire

        sim = periodic_sim()
        sim.wire = FaultInjectingWire([])
        sim.advance(5_000)
        assert sim.ff_stats.fast_bits == 0

    def test_declines_unknown_node_classes(self):
        class Weird(CanNode):
            def observe(self, time, level):
                super().observe(time, level)

        sim = CanBusSimulator()
        sim.add_node(Weird("weird"))
        sim.add_node(CanNode("peer"))
        sim.advance(2_000)
        assert sim.ff_stats.fast_bits == 0

    def test_plan_cache_reused_across_retransmissions(self):
        sim = CanBusSimulator()
        node = sim.add_node(CanNode("a"))
        sim.add_node(CanNode("b"))
        node.send(CanFrame(0x100, b"\x01"))
        node.send(CanFrame(0x100, b"\x01"))
        engine = sim._engine()
        sim.advance(600)
        assert len(engine._plans) == 1  # identical frames share one plan


def fight_sim(defender_period=None):
    """A MichiCAN defender fighting a flooding attacker, alone on the bus."""
    sim = CanBusSimulator()
    scheduler = None
    if defender_period:
        scheduler = PeriodicScheduler(
            [PeriodicMessage(0x173, period_bits=defender_period, offset_bits=500)])
    sim.add_node(MichiCanNode("defender", range(0x100), scheduler=scheduler))
    sim.add_node(DosAttacker("attacker", 0x064))
    return sim


def state_of(sim):
    return ([repr(event) for event in sim.events], list(sim.wire.history),
            [(node.state, node.tec, node.rec, node.parser.snapshot())
             for node in sim.nodes])


class TestRoundMemo:
    def test_replays_repeated_fight_rounds(self):
        sim = fight_sim()
        sim.advance(6_000)
        stats = sim.ff_stats
        assert stats.round_records > 0
        assert stats.round_spans > stats.round_records
        assert stats.fast_bits == (stats.body_bits + stats.idle_bits
                                   + stats.round_bits)
        reference = fight_sim()
        reference.advance(6_000, policy="off")
        assert state_of(sim) == state_of(reference)

    def test_round_commits_reach_span_listeners(self):
        sim = fight_sim()
        commits = []
        sim._engine().on_span(commits.append)
        sim.advance(6_000)
        rounds = [c for c in commits if c.kind == "round"]
        assert len(rounds) == sim.ff_stats.round_spans
        assert sum(c.bits for c in rounds) == sim.ff_stats.round_bits
        assert all(c.node is None for c in rounds)

    def test_advance_until_never_replays_rounds(self):
        sim = fight_sim()
        assert sim.advance_until(lambda s: False, 6_000) is None
        assert sim.ff_stats.round_spans == 0
        assert sim.ff_stats.round_records == 0

    def test_off_policy_never_touches_memo(self):
        sim = fight_sim()
        sim.advance(6_000, policy="off")
        assert sim._ff_engine is None

    def test_listener_declines(self):
        sim = fight_sim()
        sim.on_event(lambda event: None)
        sim.advance(6_000)
        assert sim.ff_stats.round_spans == 0
        assert sim.ff_stats.round_misses["listener"] > 0

    def test_rx_callbacks_decline(self):
        sim = fight_sim()
        sim.nodes[0].on_frame_received(lambda time, frame: None)
        sim.advance(6_000)
        assert sim.ff_stats.round_spans == 0
        assert sim.ff_stats.round_misses["rx_callbacks"] > 0

    def test_undeclared_node_class_declines(self):
        class Unclassified(DosAttacker):
            pass

        sim = CanBusSimulator()
        sim.add_node(MichiCanNode("defender", range(0x100)))
        sim.add_node(Unclassified("attacker", 0x064))
        sim.advance(6_000)
        assert sim.ff_stats.round_spans == 0
        assert sim.ff_stats.round_misses["node_class"] > 0

    def test_custom_wire_declines(self):
        from repro.faults.wire import FaultInjectingWire

        sim = fight_sim()
        sim.wire = FaultInjectingWire([])
        sim.advance(6_000)
        assert sim.ff_stats.round_spans == 0
        assert sim.ff_stats.round_records == 0

    def test_deadline_declines(self):
        sim = fight_sim()
        sim.advance(3_000)  # records the fight's rounds
        for _ in range(100):
            sim.advance(30)  # shorter than a full counterattack round
        assert sim.ff_stats.round_misses["deadline"] > 0
        reference = fight_sim()
        reference.advance(6_000, policy="off")
        assert state_of(sim) == state_of(reference)

    def test_scheduler_due_declines_and_stays_exact(self):
        sim = fight_sim(defender_period=700)
        sim.advance(8_000)
        assert sim.ff_stats.round_misses["scheduler_due"] > 0
        reference = fight_sim(defender_period=700)
        reference.advance(8_000, policy="off")
        assert state_of(sim) == state_of(reference)

    def test_error_state_change_declines(self):
        sim = fight_sim()
        sim.advance(6_000)
        # Every bus-off cycle crosses error-active -> passive -> bus-off;
        # the rounds that would cross a threshold are never replayed.
        assert sim.ff_stats.round_misses["error_state"] > 0

    def test_memo_is_bounded(self):
        sim = fight_sim()
        sim.advance(30_000)
        memo = sim._engine()._rounds
        assert memo is not None
        assert 0 < len(memo.entries) <= MAX_ROUND_ENTRIES
