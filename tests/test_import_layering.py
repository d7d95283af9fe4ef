"""Import layering: running a scenario or asking the CLI for help loads
only the code that path runs.

Every check runs in a fresh interpreter, so what other tests imported
cannot mask an eager import.  This checks structure, not timing.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ANALYZERS = [f"repro.analysis.{name}" for name in (
    "callgraph", "concurrency", "effects", "purity", "modelcheck", "verifier", "lint")]

OFF_THE_RUN_PATH = ANALYZERS + [
    "repro.experiments.service",
    "repro.experiments.report",
    "repro.experiments.resultcache",
    "repro.bus.gateway",
    "repro.obs.export",
    "repro.obs.profiler",
]

RUN_SCENARIOS = """
from repro.experiments.campaign import ScenarioSpec

for name in ("exp1", "chaos_fight"):
    spec = ScenarioSpec(name, duration_bits=300)
    result = spec.build().run(config=spec.run_config())
    assert result.duration_bits == 300, result
"""

CLI_HELP = """
import contextlib, io, runpy
sys.argv = ["repro", "--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exit:
        assert exit.code == 0, exit.code
"""


def loaded_modules(body: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``body``."""
    script = ("import json, sys\n" + body +
              "\nprint(json.dumps(sorted(m for m in sys.modules"
              " if m.startswith('repro'))))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("body, forbidden", [
    (RUN_SCENARIOS, OFF_THE_RUN_PATH),
    (CLI_HELP, ANALYZERS),
], ids=["scenario-run", "cli-help"])
def test_path_loads_only_what_it_runs(body, forbidden):
    modules = loaded_modules(body)
    assert "repro" in modules
    assert sorted(modules.intersection(forbidden)) == []
