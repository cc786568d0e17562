"""Only ``simulate`` imports numpy; every other command starts without it.
Every command turns the cyclic garbage collector off; importing the CLI, or
running a command through ``CliRunner``, leaves it on.

Each command runs as ``python -m mro_audit`` in a fresh interpreter, which
reports at exit whether numpy was imported and whether the collector is on.
The interpreter runs in development mode with every warning an error, and
writes nothing to stderr but that report: a file left unclosed, say, would
print a ResourceWarning.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs" / "examples"

REPORT_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(
    f"\\nnumpy imported: {'numpy' in sys.modules}\\n"
    f"gc enabled: {gc.isenabled()}\\n"
))
"""
CHILD = REPORT_AT_EXIT + """
import runpy
sys.argv[0] = "mro-audit"
runpy.run_module("mro_audit", run_name="__main__", alter_sys=True)
"""
IMPORT_CHILD = REPORT_AT_EXIT + """
import mro_audit.cli
"""
CLIRUNNER_CHILD = REPORT_AT_EXIT + """
from click.testing import CliRunner
from mro_audit.cli import cli
result = CliRunner().invoke(cli, sys.argv[1:], catch_exceptions=False)
assert result.exit_code == 0, result.output
"""

RETURNS = str(DOCS_DIR / "returns.csv")
AUDITS = str(DOCS_DIR / "audits.csv")
CONFIG = str(DOCS_DIR / "audit.cfg")


def state_at_exit(args, cwd, child=CHILD):
    """Run ``child`` with ``args`` in development mode, every warning an
    error; return whether numpy was imported and whether the collector was
    on when it exited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", child, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    numpy, gc = done.stderr.rstrip().split("\n")[-2:]
    assert done.stderr == f"\n{numpy}\n{gc}\n", done.stderr
    assert numpy.startswith("numpy imported: "), done.stderr
    assert gc.startswith("gc enabled: "), done.stderr
    return numpy == "numpy imported: True", gc == "gc enabled: True"


@pytest.fixture()
def counties(tmp_path):
    path = tmp_path / "counties.csv"
    path.write_text(
        "county_id,registered_voters\nNorth,1000\nSouth,1000\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("args", [
    ["--version"],
    ["margins", RETURNS, "--config", CONFIG],
    ["bounds", RETURNS, "--config", CONFIG],
    ["pvalue", RETURNS, AUDITS, "--config", CONFIG],
    ["report", RETURNS, AUDITS, "--config", CONFIG],
], ids=lambda args: args[0].lstrip("-"))
def test_contest_commands_start_without_numpy(args, tmp_path):
    assert state_at_exit(args, tmp_path) == (False, False)


def test_plan_starts_without_numpy(counties, tmp_path):
    assert state_at_exit(
        ["plan", RETURNS, "--counties", counties, "--seed", "1"], tmp_path
    ) == (False, False)


def test_load_across_chunks_starts_without_numpy(tmp_path):
    # 3,000 rows span several of the loader's chunks.
    path = tmp_path / "large.csv"
    path.write_text("precinct_id,county_id,ballot_bound,A,B\n" + "".join(
        f"p{i},c1,100,{50 + i % 7},{40 - i % 5}\n" for i in range(3000)
    ), encoding="utf-8")
    assert state_at_exit(["margins", str(path)], tmp_path) == (False, False)


def test_simulate_imports_numpy(tmp_path):
    assert state_at_exit([
        "simulate", "--taint-count", "1", "--population", "4",
        "--sampling", "wr:2", "--reps", "100",
    ], tmp_path) == (True, False)


@pytest.mark.parametrize("child, args", [
    (IMPORT_CHILD, []),
    (CLIRUNNER_CHILD, ["margins", RETURNS, "--config", CONFIG]),
], ids=["import", "clirunner"])
def test_library_callers_keep_the_collector(child, args, tmp_path):
    _, gc_enabled = state_at_exit(args, tmp_path, child)
    assert gc_enabled
