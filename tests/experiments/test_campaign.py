"""Tests for the campaign engine (specs, registry, fan-out, determinism)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    Campaign,
    CampaignReport,
    RunRecord,
    ScenarioSpec,
    execute_spec,
    register_scenario,
    scenario_names,
    scenario_summary,
)


def small_specs():
    """Cheap but heterogeneous: two scenarios, three specs."""
    return [
        ScenarioSpec("exp4", duration_bits=4_000, seed=1),
        ScenarioSpec("exp4", duration_bits=4_000, seed=2),
        ScenarioSpec("single_frame_fight", {"bus_speed": 500_000},
                     duration_bits=4_000, seed=3),
    ]


class TestRegistry:
    def test_builtin_experiments_registered(self):
        names = scenario_names()
        for number in range(1, 7):
            assert f"exp{number}" in names
        assert "multi_attacker" in names
        assert "restbus_fight" in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario("exp1", lambda: None)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ScenarioSpec("not_a_scenario").build()

    def test_summary_is_docstring_first_line(self):
        assert "DoS attacker" in scenario_summary("exp4")


class TestScenarioSpec:
    def test_round_trip(self):
        spec = ScenarioSpec("multi_attacker", {"num_attackers": 3},
                            seed=9, duration_bits=12_000, label="A3")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_default_name(self):
        assert ScenarioSpec("exp4", seed=7).name == "exp4#7"
        assert ScenarioSpec("exp4", label="x").name == "x"

    def test_spec_run_produces_result(self):
        result = ScenarioSpec("exp4", duration_bits=4_000).run()
        assert result.name == "exp4"
        assert result.duration_bits == 4_000
        assert result.episodes["attacker"]

    def test_params_reach_factory(self):
        result = ScenarioSpec("multi_attacker", {"num_attackers": 2},
                              duration_bits=6_000).run()
        assert len(result.episodes) == 2

    @pytest.mark.parametrize("name, missing", [
        ("dos_fight", "attack_id"),
        ("multi_attacker", "num_attackers"),
    ])
    def test_missing_required_param_fails_at_construction(self, name, missing):
        with pytest.raises(ConfigurationError, match=missing):
            ScenarioSpec(name)
        with pytest.raises(ConfigurationError, match=missing):
            ScenarioSpec.from_dict({"scenario": name})

    def test_required_params_given_builds(self):
        setup = ScenarioSpec("dos_fight", {"attack_id": 0x064}).build()
        assert setup.sim.nodes


class TestExecuteSpec:
    def test_record_carries_timing_metadata(self):
        record = execute_spec(ScenarioSpec("exp4", duration_bits=3_000))
        assert record.wall_seconds > 0
        assert record.steps_per_second > 0
        assert record.worker  # process name, whatever it is
        assert record.result.duration_bits == 3_000

    def test_record_round_trip(self):
        record = execute_spec(ScenarioSpec("exp4", duration_bits=3_000))
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.spec == record.spec
        assert clone.result.to_dict() == record.result.to_dict()
        assert clone.wall_seconds == record.wall_seconds


class TestCampaign:
    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            Campaign([ScenarioSpec("nope")])

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="positive"):
            Campaign([], n_workers=0)

    def test_serial_run_preserves_spec_order(self):
        report = Campaign(small_specs(), n_workers=1).run()
        assert [r.spec.name for r in report.records] == \
            ["exp4#1", "exp4#2", "single_frame_fight#3"]
        assert report.n_workers == 1
        assert report.wall_seconds > 0

    def test_serial_and_parallel_payloads_identical(self):
        specs = small_specs()
        serial = Campaign(specs, n_workers=1).run()
        parallel = Campaign(specs, n_workers=2).run()
        assert serial.payload_equal(parallel)
        assert [r.spec.name for r in parallel.records] == \
            [r.spec.name for r in serial.records]

    def test_parallel_records_worker_names(self):
        report = Campaign(small_specs(), n_workers=2).run()
        assert all(record.worker for record in report.records)


class TestCampaignReport:
    def test_round_trip(self):
        report = Campaign(small_specs(), n_workers=1).run()
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.payload_equal(report)
        assert clone.n_workers == report.n_workers
        assert clone.schema_version == report.schema_version

    def test_result_of(self):
        report = Campaign(small_specs(), n_workers=1).run()
        assert report.result_of("exp4#2").name == "exp4"
        with pytest.raises(KeyError):
            report.result_of("missing")

    def test_render_mentions_every_run(self):
        report = Campaign(small_specs(), n_workers=1).run()
        text = report.render()
        assert "campaign: 3 runs" in text
        for record in report.records:
            assert record.spec.name in text

    def test_payload_equal_is_strict(self):
        a = Campaign(small_specs()[:1], n_workers=1).run()
        b = Campaign(small_specs()[:2], n_workers=1).run()
        assert not a.payload_equal(b)

    def test_spawn_overhead_and_utilization_accessors(self):
        report = Campaign(small_specs(), n_workers=1).run()
        assert report.mean_spawn_overhead_seconds() == 0.0  # serial path
        utilization = report.worker_utilization()
        assert utilization is not None and utilization > 0.0
        empty = CampaignReport(records=[], n_workers=2, wall_seconds=1.0)
        assert empty.mean_spawn_overhead_seconds() == 0.0
        assert empty.worker_utilization() is None

    def test_parallel_render_surfaces_overhead_and_utilization(self):
        report = Campaign(small_specs(), n_workers=2,
                          timeout_seconds=60.0).run()
        text = report.render()
        assert "spawn overhead" in text
        assert "worker utilization" in text
        if report.parallel_speedup() < 1.1:
            # Short windows: the warning must name the culprit numbers
            # and point at the batched service.
            assert "mean spawn overhead" in text
            assert "repro serve" in text


class TestCampaignMetrics:
    def metric_specs(self):
        return [
            ScenarioSpec("exp4", duration_bits=4_000, seed=s, metrics=True,
                         snapshot_every_bits=1_000)
            for s in (1, 2)
        ]

    def test_spec_round_trip_with_metrics_fields(self):
        spec = ScenarioSpec("exp4", metrics=True, snapshot_every_bits=500)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.metrics is True
        assert clone.snapshot_every_bits == 500

    def test_execute_spec_attaches_probe(self):
        record = execute_spec(self.metric_specs()[0])
        assert record.result.metrics is not None
        assert record.result.metrics.nodes["attacker"]["busoffs"] >= 1
        assert [s["time"] for s in record.snapshots] == \
            [1_000, 2_000, 3_000]

    def test_metrics_off_spec_stays_bare(self):
        record = execute_spec(ScenarioSpec("exp4", duration_bits=3_000))
        assert record.result.metrics is None
        assert record.snapshots == []

    def test_metrics_deterministic_across_workers(self):
        specs = self.metric_specs()
        serial = Campaign(specs, n_workers=1).run()
        parallel = Campaign(specs, n_workers=2).run()
        assert serial.payload_equal(parallel)
        assert [r.snapshots for r in serial.records] == \
            [r.snapshots for r in parallel.records]

    def test_report_round_trip_keeps_metrics_and_snapshots(self):
        report = Campaign(self.metric_specs(), n_workers=1).run()
        clone = CampaignReport.from_dict(report.to_dict())
        assert clone.records[0].result.metrics.to_dict() == \
            report.records[0].result.metrics.to_dict()
        assert clone.records[0].snapshots == report.records[0].snapshots

    def test_metrics_totals_aggregate(self):
        report = Campaign(self.metric_specs(), n_workers=1).run()
        totals = report.metrics_totals()
        assert totals["runs"] == 2
        assert totals["duration_bits"] == 8_000
        per_run = [r.result.metrics.totals()["busoffs"]
                   for r in report.records]
        assert totals["busoffs"] == sum(per_run)

    def test_metrics_totals_none_without_metrics(self):
        report = Campaign(small_specs()[:1], n_workers=1).run()
        assert report.metrics_totals() is None
        assert "telemetry totals" not in report.render()

    def test_render_includes_metrics_blocks(self):
        report = Campaign(self.metric_specs(), n_workers=1).run()
        text = report.render()
        assert "metrics:" in text
        assert "snapshots: 3 (every 1000 bits)" in text
        assert "campaign-wide telemetry totals:" in text
