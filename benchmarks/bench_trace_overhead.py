"""Tracing overhead: bare engine vs an attached TraceCollector.

Runs the same fight scenario three ways — bare (tracing off), with a
:class:`~repro.obs.tracing.TraceCollector` attached, and with engine
annotation spans also enabled — and records the steps/sec of each to
``BENCH_trace.json`` in the repo root.

The contract this bench enforces: tracing is opt-in.  With no collector
attached the engine pays nothing beyond the existing event dispatch, so
the tracing-off path must match the bare baseline within
``MAX_OFF_OVERHEAD`` (pure measurement noise — there is no hook to pay
for).  With a collector attached the span stitching may cost at most
``MAX_ON_OVERHEAD`` relative throughput.

Methodology is perfbench's (``perfbench/README.md``): a shared warmup,
then ``PAIRS`` interleaved rounds that run every configuration once, in
alternating order.  Each run is bracketed by the fixed host-speed kernel
(``perfbench.hostspeed.kernel_seconds``) and its seconds are corrected to
the reference speed; a configuration's overhead is the median over the
rounds of its corrected seconds over the same round's bare seconds,
reported with its interquartile range.  "off" and "bare" run identical
code, so the off gate bounds what remains of host noise after that
correction.

Regenerate:  pytest benchmarks/bench_trace_overhead.py --benchmark-only -s
"""

import gc
import json
import os
import pathlib
import platform
import time

from conftest import report
from perfbench.bench import _git_sha, quartiles
from perfbench.hostspeed import correction, kernel_seconds
from repro.experiments.campaign import ScenarioSpec
from repro.obs.tracing import TraceCollector

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_trace.json"

#: Tracing-off throughput must match bare within this fraction (noise).
MAX_OFF_OVERHEAD = 0.02

#: Collector-attached throughput must stay within this fraction of bare.
MAX_ON_OVERHEAD = 0.20

SCENARIO = "exp4"

#: Timed rounds (each runs every configuration once).
PAIRS = 15
QUICK_PAIRS = 15

#: Fresh scenarios advanced per timed run in quick mode: a 10k-bit run
#: lasts ~15 ms, too short to time alone to 2%.
QUICK_REPEATS = 4

#: The timed configurations, in within-round execution order.
CONFIGS = (
    ("bare", {}),
    ("off", {}),  # tracing importable but detached: must equal bare
    ("traced", {"traced": True}),
    ("engine_spans", {"traced": True, "engine_spans": True}),
)


def _run_once(duration_bits, traced=False, engine_spans=False, repeats=1):
    """Build ``repeats`` fresh scenarios and run each; returns (seconds
    advancing them, span count of the last)."""
    wall = 0.0
    spans = 0
    for _ in range(repeats):
        setup = ScenarioSpec(SCENARIO, duration_bits=duration_bits).build()
        sim = setup.sim
        collector = None
        if traced:
            collector = TraceCollector(sim, include_engine_spans=engine_spans)
        gc.collect()  # no run pays for the garbage of the one before
        started = time.perf_counter()
        sim.advance(duration_bits)
        wall += time.perf_counter() - started
        if collector is not None:
            spans = len(collector.finalize())
    return wall, spans


def _measure_interleaved(pairs, duration_bits, repeats):
    """Per configuration, its corrected seconds per round; and the span
    count of a traced run."""
    seconds = {name: [] for name, _ in CONFIGS}
    spans = 0
    before = kernel_seconds()
    for index in range(pairs):
        order = CONFIGS if index % 2 == 0 else CONFIGS[::-1]
        for name, kwargs in order:
            wall, seen = _run_once(duration_bits, repeats=repeats, **kwargs)
            after = kernel_seconds()
            seconds[name].append(wall * correction(before, after))
            before = after
            if name == "traced":
                spans = seen
    return seconds, spans


def _overhead(seconds, name):
    """(q1, median, q3) of a configuration's per-round overhead on bare."""
    return quartiles([run / bare - 1.0 for run, bare
                      in zip(seconds[name], seconds["bare"])])


def test_trace_overhead(benchmark, quick):
    duration = 10_000 if quick else 100_000
    pairs = QUICK_PAIRS if quick else PAIRS
    repeats = QUICK_REPEATS if quick else 1

    # Shared warmup: every configuration is timed against hot caches.
    _run_once(min(duration, 20_000), traced=True)

    seconds, spans = _measure_interleaved(pairs, duration, repeats)
    benchmark.pedantic(lambda: _run_once(duration, traced=True),
                       rounds=1, iterations=1)
    rates = {name: duration * repeats / quartiles(values)[1]
             for name, values in seconds.items()}
    off = _overhead(seconds, "off")
    traced = _overhead(seconds, "traced")
    annotated = _overhead(seconds, "engine_spans")

    payload = {
        "scenario": SCENARIO,
        "duration_bits": duration,
        "pairs": pairs,
        "repeats": repeats,
        "method": "median over interleaved rounds of host-speed-corrected "
                  "seconds / the round's bare seconds - 1, with IQR",
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "git_sha": _git_sha(str(REPO_ROOT)),
        "bare_steps_per_second": round(rates["bare"], 1),
        "trace_off_steps_per_second": round(rates["off"], 1),
        "trace_on_steps_per_second": round(rates["traced"], 1),
        "engine_spans_steps_per_second": round(rates["engine_spans"], 1),
        "trace_off_overhead_fraction": round(off[1], 4),
        "trace_off_overhead_iqr": [round(off[0], 4), round(off[2], 4)],
        "trace_on_overhead_fraction": round(traced[1], 4),
        "trace_on_overhead_iqr": [round(traced[0], 4), round(traced[2], 4)],
        "engine_spans_overhead_fraction": round(annotated[1], 4),
        "engine_spans_overhead_iqr": [round(annotated[0], 4),
                                      round(annotated[2], 4)],
        "spans_per_run": spans,
    }
    if not quick:
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Trace collector overhead", [
        ("bare (steps/s)", "-", f"{rates['bare']:,.0f}"),
        ("tracing off (steps/s)", "-", f"{rates['off']:,.0f}"),
        ("tracing on (steps/s)", "-", f"{rates['traced']:,.0f}"),
        ("engine spans on (steps/s)", "-", f"{rates['engine_spans']:,.0f}"),
        ("tracing-off overhead [IQR]", f"<{MAX_OFF_OVERHEAD:.0%}",
         f"{off[1]:.1%} [{off[0]:.1%}, {off[2]:.1%}]"),
        ("tracing-on overhead [IQR]", f"<{MAX_ON_OVERHEAD:.0%}",
         f"{traced[1]:.1%} [{traced[0]:.1%}, {traced[2]:.1%}]"),
        ("engine-spans overhead [IQR]", "-",
         f"{annotated[1]:.1%} [{annotated[0]:.1%}, {annotated[2]:.1%}]"),
        ("spans per run", "-", spans),
    ], notes=f"recorded to {BENCH_FILE.name}")

    assert off[1] < MAX_OFF_OVERHEAD
    assert traced[1] < MAX_ON_OVERHEAD
