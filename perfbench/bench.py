"""Run one workload, check its outputs and report its metrics.

``run.py`` puts the sources on the path and calls :func:`main`.  With
``--trace 0`` the run times rounds of the workload with no wrapper
installed and reports the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced rounds and reports the per-layer metrics
(see ``README.md`` for every metric and the workload it should move).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import checks
from perfbench.hostspeed import correction, kernel_seconds
from perfbench.tracing import Tracer, class_wrappers, instrument_setup, service_wrappers
from perfbench.workloads import (
    SERVE_WORKERS,
    WORKLOADS,
    Round,
    ServeClient,
    Sizes,
    round_specs,
    run_campaign_round,
    run_direct_round,
)

#: Timed rounds per run at least, however long a round takes.
MIN_ROUNDS = 3

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_bits_per_s", "1/s"),
    ("specs_per_s", "1/s"),
    ("spec_ms_p50", "ms"),
    ("spec_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("bus.fastforward.attempts", "count"),
    ("bus.fastforward.accept_ratio", "ratio"),
    ("bus.fastforward.self_s", "s"),
    ("bus.fastforward.fast_bit_share", "ratio"),
    ("bus.fastforward.body_bits", "count"),
    ("bus.fastforward.idle_bits", "count"),
    ("bus.fastforward.plan_builds", "count"),
    ("bus.simulator.perbit_bits", "count"),
    ("bus.simulator.perbit_ns_per_bit", "ns"),
    ("bus.wire.drive_calls", "count"),
    ("bus.wire.self_s", "s"),
    ("bus.wire.history_bits", "count"),
    ("node.rxparser.feed_calls", "count"),
    ("node.rxparser.self_s", "s"),
    ("node.controller.self_s", "s"),
    ("core.defense.observe_self_s", "s"),
    ("core.detection.handler_calls", "count"),
    ("core.detection.handler_self_s", "s"),
    ("core.detection.counterattacks", "count"),
    ("can.bitstream.serialize_calls", "count"),
    ("can.bitstream.serialize_hit_ratio", "ratio"),
    ("can.bitstream.self_s", "s"),
    ("faults.wire.drive_calls", "count"),
    ("faults.wire.self_s", "s"),
    ("experiments.campaign.build_s", "s"),
    ("experiments.runner.measure_s", "s"),
    ("experiments.service.journal_appends", "count"),
    ("experiments.service.journal_append_s", "s"),
    ("experiments.service.ipc_s", "s"),
    ("experiments.service.sched_s", "s"),
    ("experiments.service.client_wait_s", "s"),
    ("experiments.service.queue_wait_ms_p50", "ms"),
    ("experiments.service.worker_busy_frac", "ratio"),
    ("experiments.service.retries", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

#: Table II exp5 per-attacker means; the report's Table II section
#: carries them inline (``PAPER_TABLE2_MS`` covers the one-attacker rows).
PAPER_EXP5_MS = {"attacker_066": 39.0, "attacker_067": 35.4}


# ------------------------------------------------------------------ stats

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest value with at least 10 samples above it, and its
    percentile; the maximum (percentile 100) below 11 samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


class Report:
    """Named metric samples; each reports its median and quartiles."""

    def __init__(self, catalogue: Sequence[Tuple[str, str]]) -> None:
        self.units = dict(catalogue)
        self.samples: Dict[str, List[float]] = {name: [] for name in self.units}
        self.notes: Dict[str, str] = {}

    def add(self, name: str, values: Sequence[float], note: str = "") -> None:
        self.samples[name].extend(float(v) for v in values)
        if note:
            self.notes[name] = note

    def summary(self) -> Dict[str, Dict[str, Any]]:
        out = {}
        for name, unit in self.units.items():
            q1, median, q3 = quartiles(self.samples[name])
            out[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3,
                         "samples": len(self.samples[name]),
                         "note": self.notes.get(name, "")}
        return out


def _git_sha(root: str) -> str:
    """HEAD of the checkout's own ``.git``, read as files (no git run)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _peak_rss_kib() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


# ------------------------------------------------------------------ setup

def measure_setup(root: str, workload: str, seed: int, work_dir: str,
                  repeats: int) -> List[float]:
    """Seconds from interpreter start of a fresh child to its first
    simulated bit (imports, spec build, pool spawn), ``repeats`` times,
    at the reference host speed."""
    probe = os.path.join(root, "perfbench", "setup_probe.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), work_dir],
            capture_output=True, text=True, timeout=170, env=env, check=True, cwd=root)
        seconds, before, after = (float(word) for word in done.stdout.split()[-3:])
        samples.append(seconds * correction(before, after))
    return samples


# ------------------------------------------------------------ correctness

def _serve_payload_failures(report: Any, specs: Sequence[Any]) -> int:
    """Specs whose served payload differs from a serial ``Campaign``."""
    from repro.experiments.campaign import Campaign

    serial = Campaign(specs, n_workers=1).run()
    if report.payload_equal(serial):
        return 0
    mine = [(r.spec.to_dict(), r.result.to_dict()) for r in report.records]
    theirs = [(r.spec.to_dict(), r.result.to_dict()) for r in serial.records]
    differing = sum(1 for a, b in zip(mine, theirs) if a != b)
    return max(1, differing + abs(len(mine) - len(theirs)))


def _accuracy_line(results: Sequence[Any]) -> str:
    from repro.experiments.report import PAPER_TABLE2_MS

    parts = []
    for result in results:
        number = int(result.name[3:])
        paper = ({"attacker": PAPER_TABLE2_MS[number]} if number in PAPER_TABLE2_MS
                 else PAPER_EXP5_MS)
        for attacker, paper_ms in sorted(paper.items()):
            simulated = result.attacker_stats[attacker]["mean_ms"]
            label = result.name if attacker == "attacker" else f"{result.name}/{attacker[-3:]}"
            parts.append(f"{label} {simulated:.1f} ms vs paper {paper_ms:.1f} ms "
                         f"({100.0 * (simulated - paper_ms) / paper_ms:+.1f}%)")
    return ("model accuracy (informational, not gated; Table II mean bus-off time, "
            "simulated vs paper; the model is otherwise unvalidated against "
            "hardware): " + "; ".join(parts))


# ------------------------------------------------------------ timed runs

def run_timed(root: str, workload: str, seed: int, seconds: float, work_dir: str,
              sizes: Sizes = Sizes(), setup_repeats: int = SETUP_REPEATS,
              ) -> Tuple[Report, int, int, List[str]]:
    """End-to-end metrics from untraced rounds.

    Returns the report, the attempted and failed spec counts, and lines
    to print before the result.
    """
    report = Report(END_TO_END)
    report.add("setup_s", measure_setup(root, workload, seed, work_dir, setup_repeats),
               note=f"median of {setup_repeats} fresh-interpreter set-ups")
    client: Optional[ServeClient] = None
    if workload == "serve":
        client = ServeClient(work_dir)
    rounds: List[Round] = []
    factors: List[float] = []
    try:
        if client is not None:
            client.start()
        started = 0.0
        while len(rounds) <= MIN_ROUNDS or time.perf_counter() - started < seconds:
            specs = round_specs(workload, seed, len(rounds), sizes)
            before = kernel_seconds()
            rounds.append(client.run_round(specs) if client is not None
                          else run_campaign_round(specs))
            factors.append(correction(before, kernel_seconds()))
            if len(rounds) == 1:  # the warm-up round fills caches, untimed
                started = time.perf_counter()
        rss_kib = _peak_rss_kib() + (client.peak_rss_kib() if client is not None else 0)
        served = client.service.report() if client is not None else None
    finally:
        if client is not None:
            client.close()
    timed = list(zip(rounds[1:], factors[1:]))
    report.add("wall_s", [r.wall_s * f for r, f in timed])
    report.add("sim_bits_per_s", [r.bits / (r.wall_s * f) for r, f in timed])
    report.add("specs_per_s", [len(r.specs) / (r.wall_s * f) for r, f in timed])
    report.add("spec_ms_p50", [1e3 * statistics.median(r.spec_s) * f for r, f in timed])
    tails = [(tail(r.spec_s), f) for r, f in timed]
    report.add("spec_ms_tail", [1e3 * value * f for (value, _), f in tails],
               note=f"p{tails[0][0][1]:.1f} of {len(rounds[1].specs)} specs per round")
    report.add("peak_rss_mb", [rss_kib / 1024.0],
               note="benchmark process" + (" + service workers" if client else ""))
    reference = checks.Reference(checks.load_pinned())
    attempted = sum(len(r.specs) for r in rounds)
    failed = sum(len(reference.mismatches(r.specs, r.results)) for r in rounds)
    q1, median, q3 = quartiles(factors[1:])
    lines = [f"host speed correction per round: median {median:.4f} (q1 {q1:.4f}, "
             f"q3 {q3:.4f}); uncorrected wall_s median "
             f"{statistics.median(r.wall_s for r in rounds[1:]):.6g} s",
             f"correctness: {attempted - failed}/{attempted} results equal the per-bit "
             f"engine ({reference.computed} per-bit digests computed, rest pinned)"]
    if served is not None:
        payload_failed = _serve_payload_failures(
            served, [spec for r in rounds for spec in r.specs])
        failed += payload_failed
        lines.append(f"serve report payload_equal to a serial Campaign: {payload_failed == 0}")
    if workload == "attack":
        lines.append(_accuracy_line([r for r in rounds[1].results if r is not None]))
    return report, attempted, failed, lines


# ----------------------------------------------------------- traced runs

def _traced_direct(specs: Sequence[Any]) -> Tuple[Round, Tracer, List[str]]:
    tracer = Tracer()
    problems: List[str] = []

    def instrument(setup: Any) -> None:
        problems.extend(instrument_setup(tracer, setup))

    with class_wrappers(tracer), tracer.span("bench.round"):
        rnd = run_direct_round(specs, span=tracer.span, instrument=instrument)
    return rnd, tracer, problems


def _fingerprint(rnd: Round) -> List[Tuple[Any, str]]:
    return [(ff, checks.result_digest(result))
            for ff, result in zip(rnd.ff, rnd.results)]


def _sim_layers(rnd: Round, tracer: Tracer) -> Dict[str, float]:
    calls = tracer.calls()
    layers = tracer.layer_self()

    def count(name: str, index: int = 0) -> float:
        return calls.get(name, [0, 0.0, 0.0, 0])[index]

    total_bits = sum(rnd.sim_bits)
    body = sum(ff["body_bits"] for ff in rnd.ff)
    idle = sum(ff["idle_bits"] for ff in rnd.ff)
    spans = sum(ff["body_spans"] + ff["idle_spans"] for ff in rnd.ff)
    attempts = count("bus.fastforward.try_advance")
    perbit_bits = total_bits - body - idle
    perbit_s = (tracer.span_total("bus.simulator.advance")
                - count("bus.fastforward.try_advance", 1))
    serialize_calls = count("can.bitstream.serialize")
    return {
        "bus.fastforward.attempts": attempts,
        "bus.fastforward.accept_ratio": spans / attempts if attempts else 0.0,
        "bus.fastforward.self_s": layers.get("bus.fastforward", 0.0),
        "bus.fastforward.fast_bit_share": (body + idle) / total_bits,
        "bus.fastforward.body_bits": body,
        "bus.fastforward.idle_bits": idle,
        "bus.fastforward.plan_builds": count("bus.fastforward.plan", 3),
        "bus.simulator.perbit_bits": perbit_bits,
        "bus.simulator.perbit_ns_per_bit": 1e9 * perbit_s / perbit_bits if perbit_bits else 0.0,
        "bus.wire.drive_calls": count("bus.wire.drive"),
        "bus.wire.self_s": layers.get("bus.wire", 0.0),
        "bus.wire.history_bits": sum(rnd.history_bits),
        "node.rxparser.feed_calls": count("node.rxparser.feed"),
        "node.rxparser.self_s": layers.get("node.rxparser", 0.0),
        "node.controller.self_s": layers.get("node.controller", 0.0),
        "core.defense.observe_self_s": layers.get("core.defense", 0.0),
        "core.detection.handler_calls": count("core.detection.handler"),
        "core.detection.handler_self_s": layers.get("core.detection", 0.0),
        "core.detection.counterattacks": sum(r.counterattacks for r in rnd.results),
        "can.bitstream.serialize_calls": serialize_calls,
        "can.bitstream.serialize_hit_ratio": (count("can.bitstream.serialize", 3)
                                              / serialize_calls if serialize_calls else 0.0),
        "can.bitstream.self_s": layers.get("can.bitstream", 0.0),
        "faults.wire.drive_calls": count("faults.wire.drive"),
        "faults.wire.self_s": layers.get("faults.wire", 0.0),
        "experiments.campaign.build_s": layers.get("experiments.campaign", 0.0),
        "experiments.runner.measure_s": layers.get("experiments.runner", 0.0),
    }


def _service_layers(rnd: Round, tracer: Tracer) -> Dict[str, float]:
    calls = tracer.calls()
    layers = tracer.layer_self()
    journal = calls.get("experiments.service.journal", [0, 0.0, 0.0, 0])
    return {
        "experiments.service.journal_appends": journal[0],
        "experiments.service.journal_append_s": journal[2],
        "experiments.service.ipc_s": layers.get("experiments.service.ipc", 0.0),
        "experiments.service.sched_s": layers.get("experiments.service.sched", 0.0),
        "experiments.service.client_wait_s": layers.get("experiments.service.wait", 0.0),
        "experiments.service.queue_wait_ms_p50": 1e3 * statistics.median(rnd.queue_wait_s),
        "experiments.service.worker_busy_frac": (rnd.worker_busy_s
                                                 / (SERVE_WORKERS * rnd.wall_s)),
        "experiments.service.retries": calls.get("experiments.service.requeue", [0])[0],
    }


def _round_trace(kind: str, tracer: Tracer) -> Dict[str, Any]:
    (root_span,) = [s for s in tracer.spans if s["parent"] is None]
    return {"kind": kind, "wall_s": root_span["end"] - root_span["start"],
            "layer_self_s": tracer.layer_self(), "spans": tracer.spans}


def _traced_service(seed: int, seconds: float, work_dir: str, sizes: Sizes,
                    ) -> Tuple[List[Round], List[Tuple[Round, Tracer]], List[Round], int]:
    """Service rounds of the traced ``serve`` run: a warm-up, then traced
    and untraced rounds alternating for half the run.

    Returns every round in submission order, the traced rounds with
    their tracers, the untraced timed rounds, and the specs whose served
    payload differs from a serial ``Campaign``.
    """
    client = ServeClient(work_dir)
    served: List[Round] = []
    traced: List[Tuple[Round, Tracer]] = []
    plain: List[Round] = []
    try:
        client.start()
        served.append(client.run_round(round_specs("serve", seed, 0, sizes)))
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds / 2:
            tracer = Tracer()
            leases: Dict[str, float] = {}
            specs = round_specs("serve", seed, len(served), sizes)
            with service_wrappers(tracer, client, leases), tracer.span("bench.round"):
                traced.append((client.run_round(specs, leases), tracer))
            served.append(traced[-1][0])
            plain.append(client.run_round(round_specs("serve", seed, len(served), sizes)))
            served.append(plain[-1])
        report = client.service.report()
    finally:
        client.close()
    payload_failed = _serve_payload_failures(report, [s for r in served for s in r.specs])
    return served, traced, plain, payload_failed


def run_traced(workload: str, seed: int, seconds: float, work_dir: str,
               sizes: Sizes = Sizes()) -> Tuple[Report, int, int, List[str]]:
    """Per-layer metrics from traced rounds, checked against untraced ones.

    Campaign workloads alternate traced and untraced direct rounds of the
    same specs.  ``serve`` alternates traced and untraced service rounds
    (service layers), then runs one untraced and one traced direct round
    of its first round's specs in process (simulation layers).  Every
    traced round must reproduce the untraced fast-forward counters and
    result digests exactly, with no engine hook touched.
    """
    report = Report(PER_LAYER)
    traces: List[Dict[str, Any]] = []
    served: List[Round] = []
    payload_failed = 0
    if workload == "serve":
        served, service_traced, service_plain, payload_failed = _traced_service(
            seed, seconds, work_dir, sizes)
        for rnd, tracer in service_traced:
            for name, value in _service_layers(rnd, tracer).items():
                report.add(name, [value])
            traces.append(_round_trace("serve", tracer))
        overhead = (statistics.median(r.wall_s for r, _ in service_traced)
                    / statistics.median(r.wall_s for r in service_plain) - 1.0)
        untraced = [run_direct_round(served[0].specs)]
        traced = [_traced_direct(served[0].specs)]
    else:
        specs = round_specs(workload, seed, 0, sizes)
        untraced = [run_direct_round(specs)]  # warm-up
        traced = []
        started = time.perf_counter()
        while not traced or time.perf_counter() - started < seconds:
            traced.append(_traced_direct(specs))
            untraced.append(run_direct_round(specs))
        overhead = (statistics.median(r.wall_s for r, _, _ in traced)
                    / statistics.median(r.wall_s for r in untraced[1:]) - 1.0)
    expected = _fingerprint(untraced[0])
    identity_failed = 0
    for rnd in untraced[1:] + [r for r, _, _ in traced]:
        identity_failed += sum(1 for a, b in zip(_fingerprint(rnd), expected) if a != b)
    problems = [problem for _, _, found in traced for problem in found]
    for rnd, tracer, _ in traced:
        for name, value in _sim_layers(rnd, tracer).items():
            report.add(name, [value])
        traces.append(_round_trace("direct", tracer))
    bench_s = sum(t["layer_self_s"].get("bench", 0.0) for t in traces)
    traced_s = sum(t["wall_s"] for t in traces)
    layered_s = sum(sum(t["layer_self_s"].values()) for t in traces)
    report.add("trace.overhead_frac", [overhead],
               note="median traced round wall / median untraced round wall - 1")
    report.add("trace.unattributed_frac", [bench_s / traced_s],
               note=f"layer self times sum to {layered_s:.6f} s of {traced_s:.6f} s traced")
    for name in report.units:
        if not report.samples[name]:
            report.add(name, [0.0], note="layer not run by this workload")
    reference = checks.Reference(checks.load_pinned())
    all_rounds = served + untraced + [r for r, _, _ in traced]
    attempted = sum(len(r.specs) for r in all_rounds)
    failed = (sum(len(reference.mismatches(r.specs, r.results)) for r in all_rounds)
              + identity_failed + payload_failed + len(problems))
    _write_json(os.path.join(work_dir, f"trace-{workload}-{seed}.json"),
                {"workload": workload, "seed": seed, "rounds": traces})
    lines = [
        f"engine identity: {identity_failed} traced/untraced fast-forward counter or "
        f"digest mismatches; engine hooks touched: {problems or 'none'}",
        f"correctness: {attempted} spec runs checked against the per-bit engine "
        f"({reference.computed} per-bit digests computed, rest pinned)",
    ]
    if workload == "serve":
        lines.append(f"serve report payload_equal to a serial Campaign: {payload_failed == 0}")
    return report, attempted, failed, lines


# ------------------------------------------------------------------- main

def _write_json(path: str, data: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)


def main(workload: str, seed: int, seconds: float, trace: int, root: str) -> int:
    if workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(work_dir, exist_ok=True)
    if trace:
        report, attempted, failed, lines = run_traced(workload, seed, seconds, work_dir)
    else:
        report, attempted, failed, lines = run_timed(root, workload, seed, seconds, work_dir)
    summary = report.summary()
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "git_sha": _git_sha(root), "attempted": attempted, "failed": failed,
        "metrics": summary,
    }
    _write_json(os.path.join(work_dir, f"result-{workload}-{seed}-trace{trace}.json"), meta)
    print(f"perfbench {workload}: seed {seed}, {'traced' if trace else 'timed'} run, "
          f"cpu_count {meta['cpu_count']}, python {meta['python']}, git {meta['git_sha']}")
    for name, entry in summary.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6} "
              f"(q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['samples']}) "
              f"{entry['note']}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} {'ratio':<6} "
          f"({failed} failed of {attempted} attempted)")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in summary.items()},
    }))
    return 0
