"""The content-addressed campaign result cache and its CLI wiring."""

import json
import os

import pytest

from repro.analysis.purity import (
    PurityManifest,
    ScenarioPurity,
    build_purity_manifest,
)
from repro.experiments.campaign import Campaign, RunRecord, ScenarioSpec
from repro.experiments.resultcache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
)


@pytest.fixture(scope="module")
def manifest():
    """One real effect-analysis pass shared by the whole module."""
    return build_purity_manifest(["src/repro"])


def _records_json(report):
    return json.dumps([record.to_dict() for record in report.records],
                      sort_keys=True)


class TestSpecHash:
    def test_no_manifest_means_uncacheable(self):
        cache = ResultCache(manifest=None)
        assert cache.spec_hash(ScenarioSpec("exp4")) is None
        assert cache.get(ScenarioSpec("exp4")) is None

    def test_pure_scenario_gets_a_stable_hash(self, manifest, tmp_path):
        cache = ResultCache(str(tmp_path), manifest)
        spec = ScenarioSpec("exp4", duration_bits=4000, seed=3)
        first = cache.spec_hash(spec)
        assert first is not None
        assert first == cache.spec_hash(
            ScenarioSpec("exp4", duration_bits=4000, seed=3))

    def test_every_spec_field_flip_moves_the_hash(self, manifest, tmp_path):
        cache = ResultCache(str(tmp_path), manifest)
        base = ScenarioSpec("exp4", duration_bits=4000, seed=3)
        flipped = [
            ScenarioSpec("exp4", duration_bits=4001, seed=3),
            ScenarioSpec("exp4", duration_bits=4000, seed=4),
            ScenarioSpec("exp4", duration_bits=4000, seed=3,
                         params={"bus_speed": 125_000}),
            ScenarioSpec("exp4", duration_bits=4000, seed=3, label="x"),
            ScenarioSpec("exp4", duration_bits=4000, seed=3, metrics=True),
            ScenarioSpec("exp4", duration_bits=4000, seed=3, engine="bit"),
            ScenarioSpec("exp3", duration_bits=4000, seed=3),
        ]
        hashes = {cache.spec_hash(spec) for spec in flipped}
        assert cache.spec_hash(base) not in hashes
        assert len(hashes) == len(flipped)  # all distinct too

    def test_slice_hash_change_moves_the_hash(self, manifest, tmp_path):
        doctored = PurityManifest()
        for name, entry in manifest.scenarios.items():
            doctored.scenarios[name] = ScenarioPurity(
                scenario=entry.scenario, factory=entry.factory,
                verdict=entry.verdict, slice_files=entry.slice_files,
                slice_hash=entry.slice_hash + "x")
        spec = ScenarioSpec("exp4", duration_bits=4000)
        a = ResultCache(str(tmp_path), manifest).spec_hash(spec)
        b = ResultCache(str(tmp_path), doctored).spec_hash(spec)
        assert a != b

    def test_impure_or_unresolved_scenarios_never_hash(self, tmp_path):
        bad = PurityManifest()
        bad.scenarios["exp4"] = ScenarioPurity(
            scenario="exp4", factory="m:f", verdict="impure",
            slice_hash="abc")
        bad.scenarios["exp3"] = ScenarioPurity(
            scenario="exp3", factory="m:f", verdict="unresolved")
        cache = ResultCache(str(tmp_path), bad)
        assert cache.spec_hash(ScenarioSpec("exp4")) is None
        assert cache.spec_hash(ScenarioSpec("exp3")) is None
        record = RunRecord(spec=ScenarioSpec("exp4"), result=None,
                           wall_seconds=0.0, steps_per_second=0.0,
                           worker="w")
        assert cache.put(ScenarioSpec("exp4"), record) is False


class TestColdWarm:
    @pytest.mark.parametrize("engine", ["fast", "bit"])
    def test_warm_run_replays_byte_identical_records(self, manifest,
                                                     tmp_path, engine):
        specs = [ScenarioSpec("exp4", duration_bits=4000, seed=seed,
                              engine=engine) for seed in (0, 1)]
        cold_cache = ResultCache(str(tmp_path / "rc"), manifest)
        cold = Campaign(specs, result_cache=cold_cache).run()
        assert cold.cache_hits() == 0
        assert cold_cache.stores == 2

        warm_cache = ResultCache(str(tmp_path / "rc"), manifest)
        warm = Campaign(specs, result_cache=warm_cache).run()
        assert warm.cache_hits() == 2
        assert warm_cache.hits == 2
        assert all(record.cache_hit for record in warm.records)
        assert _records_json(cold) == _records_json(warm)
        assert cold.payload_equal(warm)

    def test_cache_hit_marker_never_serializes(self, manifest, tmp_path):
        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([spec], result_cache=cache).run()
        warm = Campaign([spec],
                        result_cache=ResultCache(str(tmp_path),
                                                 manifest)).run()
        record = warm.records[0]
        assert record.cache_hit
        assert "cache_hit" not in record.to_dict()
        # ... so a round-tripped record reads back as a fresh one.
        assert RunRecord.from_dict(record.to_dict()).cache_hit is False

    def test_render_reports_the_replay_count(self, manifest, tmp_path):
        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([spec], result_cache=cache).run()
        warm = Campaign([spec],
                        result_cache=ResultCache(str(tmp_path),
                                                 manifest)).run()
        text = warm.render()
        assert "result cache: 1 of 1 record(s)" in text
        assert "(cached)" in text

    def test_flipping_a_spec_field_misses(self, manifest, tmp_path):
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([ScenarioSpec("exp4", duration_bits=3000)],
                 result_cache=cache).run()
        probe = ResultCache(str(tmp_path), manifest)
        report = Campaign([ScenarioSpec("exp4", duration_bits=3001)],
                          result_cache=probe).run()
        assert report.cache_hits() == 0
        assert probe.misses == 1


class TestDegradation:
    def _store_one(self, manifest, tmp_path):
        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([spec], result_cache=cache).run()
        entries = [name for name in os.listdir(str(tmp_path))
                   if name.endswith(".json")]
        assert len(entries) == 1
        return spec, os.path.join(str(tmp_path), entries[0])

    def test_corrupted_entry_degrades_to_a_miss(self, manifest, tmp_path):
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        cache = ResultCache(str(tmp_path), manifest)
        assert cache.get(spec) is None
        assert cache.misses == 1
        # ... and the campaign still completes, re-storing the entry.
        report = Campaign([spec], result_cache=cache).run()
        assert report.cache_hits() == 0
        assert len(report.records) == 1

    def test_version_skewed_entry_degrades_to_a_miss(self, manifest,
                                                     tmp_path):
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["schema_version"] = CACHE_SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert ResultCache(str(tmp_path), manifest).get(spec) is None

    def test_spec_mismatch_in_the_entry_degrades_to_a_miss(self, manifest,
                                                           tmp_path):
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["spec"]["seed"] = 999  # a hash collision in effigy
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert ResultCache(str(tmp_path), manifest).get(spec) is None

    def test_unwritable_directory_never_fails_the_campaign(self, manifest,
                                                           tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory", encoding="utf-8")
        cache = ResultCache(str(blocked), manifest)
        report = Campaign([ScenarioSpec("exp4", duration_bits=3000)],
                          result_cache=cache).run()
        assert len(report.records) == 1
        assert cache.stores == 0


class TestCli:
    def test_cache_flags_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        assert main(["campaign", "run", "--scenario", "exp4",
                     "--duration", "1000", "--cache", "--no-cache"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cold_then_warm_run_via_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        manifest_path = str(tmp_path / "purity.json")
        assert main(["lint", "--no-cache", "--deep", "--purity-manifest",
                     manifest_path, "src/repro"]) == 0
        capsys.readouterr()
        argv = ["campaign", "run", "--scenario", "exp4",
                "--duration", "2000", "--no-metrics", "--cache",
                "--cache-dir", str(tmp_path / "rc"),
                "--manifest", manifest_path]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "result cache: 0 hit(s)" in cold_out
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "result cache: 1 of 1 record(s)" in warm_out
        assert "(cached)" in warm_out

    def test_stale_manifest_degrades_to_a_fresh_analysis(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        manifest_path = tmp_path / "stale.json"
        manifest_path.write_text("{ not a manifest", encoding="utf-8")
        assert main(["campaign", "run", "--scenario", "exp4",
                     "--duration", "2000", "--no-metrics", "--cache",
                     "--cache-dir", str(tmp_path / "rc"),
                     "--manifest", str(manifest_path)]) == 0
        captured = capsys.readouterr()
        assert "re-running the effect analysis" in captured.err
        assert "1 stored" in captured.out
