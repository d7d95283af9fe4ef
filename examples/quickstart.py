#!/usr/bin/env python3
"""Quickstart: watch MichiCAN bus-off a DoS attacker, bit by bit.

Builds a three-node 500 kbit/s CAN bus — a MichiCAN-equipped ECU, a benign
ECU with periodic traffic, and a compromised ECU flooding a high-priority
ID — and shows detection, the counterattack and the attacker's forced
bus-off, followed by normal traffic resuming.

Run:  python examples/quickstart.py
"""

from repro import CanBusSimulator, CanNode, MichiCanNode, PeriodicMessage, PeriodicScheduler
from repro.attacks.dos import TraditionalDosAttacker
from repro.bus.events import (
    AttackDetected,
    BusOffEntered,
    CounterattackStarted,
    FrameTransmitted,
)
from repro.core.config import IvnConfig
from repro.trace.framelog import FrameLog


def main() -> None:
    # --- offline configuration (the OEM step) -----------------------------
    ivn = IvnConfig(ecu_ids=(0x0A0, 0x173, 0x2F0))
    defender_config = ivn.ecu_config(0x173)
    print(f"IVN 𝔼 = {[hex(i) for i in ivn.ecu_ids]}")
    print(f"defender 0x173 detection range |𝔻| = {len(defender_config.detection_ids)}")

    # --- wire the bus ------------------------------------------------------
    sim = CanBusSimulator(bus_speed=500_000)
    defender = sim.add_node(MichiCanNode("defender", defender_config))
    benign = sim.add_node(CanNode("benign_ecu", scheduler=PeriodicScheduler(
        [PeriodicMessage(0x0A0, period_bits=2_000)])))
    attacker = sim.add_node(TraditionalDosAttacker("attacker"))

    # --- run until the attacker is dead ------------------------------------
    sim.advance_until(lambda s: attacker.is_bus_off, limit=20_000)

    detection = sim.events_of(AttackDetected)[0]
    counter = sim.events_of(CounterattackStarted)[0]
    busoff = sim.events_of(BusOffEntered)[0]
    print(f"\nt={detection.time:>6}  attack detected   "
          f"(ID 0x{detection.target_id:03X}, FSM decided at ID bit "
          f"{detection.detection_bit})")
    print(f"t={counter.time:>6}  counterattack     (6 dominant bits after the RTR)")
    print(f"t={busoff.time:>6}  attacker BUS-OFF  (TEC={busoff.tec}, "
          f"after 32 destroyed attempts)")
    ms = sim.milliseconds(busoff.time)
    print(f"\nbus-off time: {busoff.time + 14} bits = {ms:.2f} ms at 500 kbit/s")

    # --- benign traffic resumes --------------------------------------------
    before = len([e for e in sim.events_of(FrameTransmitted) if e.node == "benign_ecu"])
    sim.advance(10_000)
    after = len([e for e in sim.events_of(FrameTransmitted) if e.node == "benign_ecu"])
    print(f"benign frames delivered: {before} during the attack, "
          f"{after - before} in the next 10k bits — traffic restored")

    print("\nlast timeline entries:")
    log = FrameLog(sim.events)
    for line in log.render_timeline(["attacker"]).splitlines()[-5:]:
        print(" ", line)


if __name__ == "__main__":
    main()
