"""The benchmark's in-process replay still runs against the library.

``bench/tracing.py`` calls the public API directly (``load_county_plans``,
``draw_sample``, ``build_document`` and the rest), so a signature change
there breaks the benchmark's per-layer run.  Each command is replayed here
on two small synthetic contests, and the replayed report must verify.  No
timing is checked.
"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

from mro_audit.report import verify_document

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    """Import ``bench/<name>.py`` from the checkout read only: no bytecode
    cache is written beside it.  The module is registered, as dataclasses
    need."""
    path = BENCH_DIR / f"{name}.py"
    module = sys.modules[f"bench_{name}"] = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"),
         module.__dict__)
    return module


tracing = bench_module("tracing")
workloads = bench_module("workloads")

SMALL = {
    "statewide": dataclasses.replace(
        workloads.STATEWIDE, precincts=300, counties=3, audited=30,
        simulate_taint_count=20, simulate_reps=1_000),
    "multiseat": dataclasses.replace(
        workloads.MULTISEAT, precincts=300, counties=3, audited=60,
        simulate_taint_count=20, simulate_reps=1_000),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_replay_runs_every_command(name, tmp_path):
    spec = workloads.synthetic(f"small-{name}", SMALL[name], 1, tmp_path)
    tracer = tracing.Tracer(True, "test")
    replay = tracing.Replay(spec, tracer)
    results = {command: replay.run_command(command)
               for command in workloads.COMMANDS}
    replay.decompose_run_test()
    assert verify_document(results["report"])
    spans = {span["name"] for span in tracer.spans}
    assert {f"cli.{command}" for command in workloads.COMMANDS} <= spans
    assert {"io.load_county_plans", "sampling.draw_sample",
            "risk.run_test.parts"} <= spans
