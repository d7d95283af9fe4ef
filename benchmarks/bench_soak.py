"""Soak test: a long adversarial mixed run with every invariant checked.

Half a million simulated bits of restbus traffic, a persistent DoS attacker,
sporadic channel noise and a MichiCAN defender — then every global invariant
from DESIGN.md §6 is asserted on the result.  This is the closest the suite
comes to the paper's 2-second on-vehicle stress run.

Regenerate:  pytest benchmarks/bench_soak.py --benchmark-only -s
"""

from conftest import report
from repro.attacks.dos import DosAttacker
from repro.bus.events import BusOffEntered, BusOffRecovered, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.experiments.scenarios import detection_ids_for
from repro.faults.plan import flip_fault
from repro.faults.wire import FaultInjectingWire
from repro.trace.framelog import FrameLog
from repro.workloads.restbus import RestbusNode
from repro.workloads.matrix import theoretical_bus_load
from repro.workloads.vehicles import vehicle_buses

DURATION = 500_000


def test_soak_mixed_adversarial_run(benchmark):
    def run():
        matrix, _ = vehicle_buses("veh_b")
        sim = CanBusSimulator(bus_speed=50_000, record_wire=False)
        sim.wire = FaultInjectingWire([flip_fault(2e-5, seed=99)],
                                      record=False)
        native = theoretical_bus_load(matrix, sim.bus_speed)
        sim.add_node(RestbusNode("restbus", matrix, sim.bus_speed,
                                 time_scale=max(1.0, native / 0.12)))
        defender = sim.add_node(MichiCanNode(
            "michican", detection_ids_for(0x173, matrix.all_ids())))
        attacker = sim.add_node(DosAttacker("attacker", 0x064))
        sim.advance(DURATION)
        return sim, defender, attacker

    sim, defender, attacker = benchmark.pedantic(run, rounds=1, iterations=1)
    log = FrameLog(sim.events)
    episodes = log.busoff_episodes("attacker")
    busoffs = sim.events_of(BusOffEntered)
    recoveries = sim.events_of(BusOffRecovered)
    benign_tx = [e for e in sim.events_of(FrameTransmitted)
                 if e.node == "restbus"]
    attacker_tx = [e for e in sim.events_of(FrameTransmitted)
                   if e.node == "attacker"]

    report("Soak — 500k bits, restbus + DoS + noise + MichiCAN", [
        ("bus-off episodes completed", "many", len(episodes)),
        ("attacker recoveries (persistent attack)", "episodes - 0/1",
         len(recoveries)),
        ("attacker frames ever delivered", 0, len(attacker_tx)),
        ("benign frames delivered", "~480 (12% load)", len(benign_tx)),
        ("defender TEC at end", 0, defender.tec),
        ("episodes at exactly 32 attempts", ">= 95% (noise adds rounds)",
         sum(1 for e in episodes if e.attempts == 32)),
        ("only the attacker ever bused off", True,
         {e.node for e in busoffs} == {"attacker"}),
    ])
    assert len(episodes) >= 100
    assert not attacker_tx            # the DoS never lands a frame
    assert len(benign_tx) >= 400      # the bus keeps working throughout
    assert defender.tec == 0
    assert {e.node for e in busoffs} == {"attacker"}
    # Channel noise can add/remove the odd error round; the arithmetic must
    # still hold almost everywhere and never drift far.
    exact = sum(1 for e in episodes if e.attempts == 32)
    assert exact >= 0.95 * len(episodes)
    assert all(30 <= e.attempts <= 34 for e in episodes)
