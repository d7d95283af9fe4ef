"""Workload inputs and the executors that run them.

A workload is a list of :class:`~repro.experiments.campaign.ScenarioSpec`
per round, made only from the benchmark seed; the program sees nothing
but those specs.  A round is the unit that is timed and repeated:

* ``attack`` — Table II exp1–exp6 on long windows through a serial
  :class:`~repro.experiments.campaign.Campaign` (the headline workload:
  about half the bits run per-bit, in arbitration and counterattacks);
* ``restbus`` — one long ``restbus_baseline`` window, no attacker: most
  bits are fast-forward spans, and the varying restbus payloads make
  the serialize memo and ``FramePlan`` cache miss;
* ``chaos`` — ``chaos_fight`` with its seeded ``wire.flip`` plan: the
  fault-injecting wire declines every span, so every bit runs per-bit
  through :mod:`repro.faults`;
* ``serve`` — a :class:`~repro.experiments.service.service.CampaignService`
  with two workers fed short exp1–exp6 specs by one closed-loop client
  that keeps a fixed window of specs outstanding.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext
from multiprocessing import connection
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.campaign import Campaign, ScenarioSpec
from repro.experiments.runner import ExperimentResult

WORKLOADS = ("attack", "restbus", "serve", "chaos")

#: The paper's Table II scenarios (the registered ``exp1``..``exp6``).
TABLE2_SCENARIOS = tuple(f"exp{number}" for number in range(1, 7))

#: Worker count of the ``serve`` workload's pool.
SERVE_WORKERS = 2

#: Specs the ``serve`` client keeps outstanding (the queue holds twice
#: as many, so no submission is refused).
SERVE_WINDOW = 8

#: ``serve`` draws its spec seeds from this many values; labels keep
#: every spec a distinct content address for the service.
SERVE_SEED_POOL = 4


@dataclass(frozen=True)
class Sizes:
    """Window lengths and batch sizes.  The defaults are the benchmark;
    the smoke tests shrink them."""

    attack_bits: int = 24_000
    restbus_bits: int = 400_000
    chaos_bits: int = 40_000
    serve_bits: int = 300
    #: Specs per ``serve`` round: 40 of each Table II scenario in turn, so
    #: the round's tail (the 11th-largest latency) is its p95.8.
    serve_round_specs: int = 240


def spec_seeds(seed: int, count: int) -> List[int]:
    """The spec seeds a workload draws from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def round_specs(workload: str, seed: int, round_index: int,
                sizes: Sizes = Sizes()) -> List[ScenarioSpec]:
    """The specs of one round.  Campaign workloads repeat the same specs
    every round; ``serve`` rounds carry fresh labels (the service settles
    a content address only once)."""
    if workload == "attack":
        return [ScenarioSpec(name, seed=spec_seed, duration_bits=sizes.attack_bits)
                for name, spec_seed in zip(TABLE2_SCENARIOS,
                                           spec_seeds(seed, len(TABLE2_SCENARIOS)))]
    if workload == "restbus":
        return [ScenarioSpec("restbus_baseline", seed=spec_seeds(seed, 1)[0],
                             duration_bits=sizes.restbus_bits)]
    if workload == "chaos":
        return [ScenarioSpec("chaos_fight", seed=spec_seeds(seed, 1)[0],
                             duration_bits=sizes.chaos_bits)]
    if workload == "serve":
        # Round-robin over the scenarios keeps the mix of every window of
        # outstanding specs alike, so the latency tail reflects the service
        # rather than where a shuffle happened to cluster slow builds.
        pool = spec_seeds(seed, SERVE_SEED_POOL)
        rng = random.Random(f"serve/{seed}/{round_index}")
        return [ScenarioSpec(TABLE2_SCENARIOS[index % len(TABLE2_SCENARIOS)],
                             seed=rng.choice(pool), duration_bits=sizes.serve_bits,
                             label=f"serve-{round_index}-{index}")
                for index in range(sizes.serve_round_specs)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def reference_specs(seed: int, sizes: Sizes = Sizes()) -> List[ScenarioSpec]:
    """Every distinct simulation the workloads run for ``seed`` (``serve``
    specs differ from these only in their label)."""
    specs = [spec for workload in ("attack", "restbus", "chaos")
             for spec in round_specs(workload, seed, 0, sizes)]
    specs += [ScenarioSpec(name, seed=spec_seed, duration_bits=sizes.serve_bits)
              for name in TABLE2_SCENARIOS
              for spec_seed in spec_seeds(seed, SERVE_SEED_POOL)]
    return specs


@dataclass
class Round:
    """One executed round, in spec order."""

    wall_s: float
    specs: List[ScenarioSpec]
    results: List[Optional[ExperimentResult]]
    #: Per-spec host seconds: the run for campaign rounds, submit to
    #: settle for ``serve`` (empty for direct rounds).
    spec_s: List[float]
    #: Fast-forward counters per spec (direct rounds only).
    ff: List[Dict[str, int]] = field(default_factory=list)
    #: Simulated bits actually advanced per spec (direct rounds only).
    sim_bits: List[int] = field(default_factory=list)
    #: Recorded wire-history length per spec (direct rounds only).
    history_bits: List[int] = field(default_factory=list)
    #: Submit-to-lease waits in seconds (traced ``serve`` rounds only).
    queue_wait_s: List[float] = field(default_factory=list)
    #: Summed worker run seconds (``serve`` only).
    worker_busy_s: float = 0.0

    @property
    def bits(self) -> int:
        return sum(spec.duration_bits for spec in self.specs)


def run_campaign_round(specs: Sequence[ScenarioSpec]) -> Round:
    """The timed path of the campaign workloads: a serial ``Campaign``."""
    started = time.perf_counter()
    report = Campaign(specs, n_workers=1).run()
    wall = time.perf_counter() - started
    by_name = {record.spec.name: record for record in report.records}
    records = [by_name.get(spec.name) for spec in specs]
    return Round(
        wall_s=wall, specs=list(specs),
        results=[None if r is None else r.result for r in records],
        spec_s=[0.0 if r is None else r.wall_seconds for r in records])


def run_direct_round(specs: Sequence[ScenarioSpec],
                     span: Optional[Callable[..., Any]] = None,
                     instrument: Optional[Callable[[Any], None]] = None) -> Round:
    """Build and run each spec through its public calls.

    This is the path :func:`~repro.experiments.campaign.execute_spec`
    takes (``spec.build()`` then ``setup.run(config=spec.run_config())``),
    called directly so the built simulator stays in reach: its
    fast-forward counters are read after the run, and the traced run
    wraps its layers between build and run: ``span(name, trace)`` is a
    context manager around one layer call, ``instrument(setup)`` runs
    between build and run.
    """
    def enter(name: str, trace: Optional[int] = None) -> Any:
        return span(name, trace) if span is not None else nullcontext()

    out = Round(wall_s=0.0, specs=list(specs), results=[], spec_s=[])
    started = time.perf_counter()
    for index, spec in enumerate(specs):
        with enter("bench.spec", index):
            with enter("experiments.campaign.build"):
                setup = spec.build()
            if instrument is not None:
                instrument(setup)
            with enter("experiments.runner.run"):
                result = setup.run(config=spec.run_config())
        out.results.append(result)
        out.ff.append(setup.sim.ff_stats.as_dict())
        out.sim_bits.append(setup.sim.time)
        out.history_bits.append(len(setup.sim.wire.history))
    out.wall_s = time.perf_counter() - started
    return out


# ------------------------------------------------------------------ serve

def _peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a live process in KiB (0 where /proc is unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServeClient:
    """One closed-loop client of a two-worker campaign service.

    The client keeps :data:`SERVE_WINDOW` specs outstanding (submitted,
    not yet settled) and submits the next spec only when one settles, so
    a slow service receives less load.
    """

    def __init__(self, work_dir: str) -> None:
        from repro.experiments.service.service import CampaignService

        os.makedirs(work_dir, exist_ok=True)
        self.service = CampaignService(
            os.path.join(work_dir, f"serve-{os.getpid()}.jsonl"),
            n_workers=SERVE_WORKERS, queue_capacity=2 * SERVE_WINDOW)

    def start(self) -> None:
        """Spawn the pool and wait until every worker reported ready."""
        self.service.start()
        deadline = time.monotonic() + 120.0
        while not all(worker["state"] == "idle"
                      for worker in self.service.status()["workers"]):
            if time.monotonic() > deadline:
                raise RuntimeError("service workers did not become ready")
            self.service.pump()
            self.wait()

    def wait(self) -> None:
        """Block until a worker has something to report (at most 50 ms)."""
        connection.wait([slot.conn for slot in self.service.pool.slots
                         if slot.conn is not None], timeout=0.05)

    def run_round(self, specs: Sequence[ScenarioSpec],
                  lease_times: Optional[Dict[str, float]] = None) -> Round:
        """Serve ``specs`` through the closed loop until all settle.

        ``lease_times`` (filled by a traced run's lease wrapper) turns
        into the per-spec submit-to-lease waits.
        """
        from repro.experiments.service.journal import spec_digest

        service = self.service
        keys = [spec_digest(spec) for spec in specs]
        submitted: Dict[str, float] = {}
        latency: Dict[str, float] = {}
        outstanding: List[str] = []
        next_index = 0
        started = time.perf_counter()
        while next_index < len(specs) or outstanding:
            while next_index < len(specs) and len(outstanding) < SERVE_WINDOW:
                service.submit_specs([specs[next_index]])
                key = keys[next_index]
                submitted[key] = time.perf_counter()
                outstanding.append(key)
                next_index += 1
            service.pump()
            now = time.perf_counter()
            still = [key for key in outstanding if not service._settled(key)]
            if len(still) == len(outstanding):
                self.wait()
                continue
            for key in outstanding:
                if key not in still:
                    latency[key] = now - submitted[key]
            outstanding = still
        wall = time.perf_counter() - started
        records = {spec_digest(record.spec): record
                   for record in service.report().records}
        round_records = [records.get(key) for key in keys]
        waits = []
        if lease_times is not None:
            waits = [lease_times[key] - submitted[key]
                     for key in keys if key in lease_times]
        return Round(
            wall_s=wall, specs=list(specs),
            results=[None if r is None else r.result for r in round_records],
            spec_s=[latency[key] for key in keys],
            queue_wait_s=waits,
            worker_busy_s=sum(r.wall_seconds for r in round_records
                              if r is not None))

    def peak_rss_kib(self) -> int:
        """Summed peak resident memory of the live workers."""
        return sum(_peak_rss_kib(slot.proc.pid)
                   for slot in self.service.pool.slots
                   if slot.proc is not None)

    def close(self) -> None:
        """Stop the pool and wait for every worker to exit."""
        self.service.close()


# ------------------------------------------------------------------ setup

def probe_setup(workload: str, seed: int, work_dir: str,
                sizes: Sizes = Sizes()) -> None:
    """Everything between workload start and the first simulated bit.

    Campaign workloads build the round's specs and the first spec's bus,
    then simulate one bit.  ``serve`` also spawns the worker pool and
    serves the first spec (a worker simulates its first bit there).
    """
    specs = round_specs(workload, seed, 0, sizes)
    if workload != "serve":
        setup = specs[0].build()
        setup.sim.advance(1)
        return
    client = ServeClient(work_dir)
    try:
        client.start()
        client.run_round(specs[:1])
    finally:
        client.close()
