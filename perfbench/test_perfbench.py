"""The benchmark's own tests: tiny-window smoke runs of every workload,
the traced == untraced identity check, and the result contract.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import bench, checks, tracing, workloads  # noqa: E402

TINY = workloads.Sizes(attack_bits=3_000, restbus_bits=20_000, chaos_bits=3_000,
                       serve_bits=200, serve_round_specs=12)


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_smoke(workload, tmp_path):
    report, attempted, failed, lines = bench.run_timed(
        ROOT, workload, 7, 0.0, str(tmp_path), TINY, setup_repeats=1)
    assert attempted >= 1 + bench.MIN_ROUNDS and failed == 0, lines
    summary = report.summary()
    assert set(summary) == {name for name, _ in bench.END_TO_END}
    assert all(entry["value"] > 0 for entry in summary.values()), summary


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke(workload, tmp_path):
    report, attempted, failed, lines = bench.run_traced(
        workload, 7, 0.0, str(tmp_path), TINY)
    assert failed == 0, lines
    summary = report.summary()
    assert set(summary) == {name for name, _ in bench.PER_LAYER}
    assert summary["bus.simulator.perbit_bits"]["value"] > 0
    if workload == "chaos":
        assert summary["faults.wire.drive_calls"]["value"] > 0
        assert summary["bus.fastforward.fast_bit_share"]["value"] == 0
    if workload == "serve":
        assert summary["experiments.service.journal_appends"]["value"] > 0
    assert os.path.isfile(tmp_path / f"trace-{workload}-7.json")


@pytest.mark.parametrize("workload", ["attack", "restbus", "chaos"])
def test_traced_round_reproduces_untraced_engine(workload):
    specs = workloads.round_specs(workload, 3, 0, TINY)
    plain = workloads.run_direct_round(specs)
    traced, tracer, problems = bench._traced_direct(specs)
    assert problems == []
    assert bench._fingerprint(traced) == bench._fingerprint(plain)
    layers = tracer.layer_self()
    (root,) = [span for span in tracer.spans if span["parent"] is None]
    assert sum(layers.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)


def test_engine_hooks_flag_a_wrapper_that_disables_fast_forward():
    spec = workloads.round_specs("restbus", 3, 0, TINY)[0]
    setup = spec.build()
    before = tracing.engine_hooks(setup.sim)
    node = setup.sim.nodes[0]
    node.observe = node.observe  # an instance-level hook, as a naive tracer adds
    assert tracing.engine_hooks(setup.sim) != before
    setup.run(config=spec.run_config())
    assert setup.sim.ff_stats.fast_bits == 0  # the engine silently went per-bit


def test_mismatching_result_counts_as_failed():
    spec = workloads.round_specs("attack", 3, 0, TINY)[3]
    result = spec.run()
    reference = checks.Reference()
    assert reference.mismatches([spec], [result]) == []
    other = dataclasses.replace(result, counterattacks=result.counterattacks + 1)
    assert reference.mismatches([spec, spec], [other, None]) == [spec.name, spec.name]


def test_pinned_reference_matches_the_per_bit_engine():
    pinned = checks.load_pinned()
    specs = workloads.reference_specs(0)  # run.py's default seed
    assert sorted(pinned) == sorted({checks.content_id(spec) for spec in specs})
    fresh = checks.Reference()
    assert all(pinned[checks.content_id(spec)] == fresh.digest(spec) for spec in specs)


def test_tail_is_the_value_with_ten_samples_above_it():
    assert bench.tail(list(range(240))) == (229, pytest.approx(100 * 230 / 240))
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
