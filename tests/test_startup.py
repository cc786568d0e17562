"""Only ``simulate`` imports numpy; every other command starts without it.
``--version``, ``--help`` and the usage errors click finds import no
library module, and ``simulate`` imports neither the loaders nor the
sampler.  Every command turns the cyclic garbage collector off; importing
the CLI, or running a command through ``CliRunner``, leaves it on.

Each command runs as ``python -m mro_audit`` in a fresh interpreter, which
reports at exit whether numpy was imported, whether the collector is on and
which ``mro_audit`` modules were imported.  The interpreter runs in
development mode with every warning an error, and a command that succeeds
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
def report_at_exit():
    ours = sorted(name for name in sys.modules
                  if name.partition(".")[0] == "mro_audit")
    sys.stderr.write(
        f"\\nnumpy imported: {'numpy' in sys.modules}\\n"
        f"gc enabled: {gc.isenabled()}\\n"
        f"modules: {' '.join(ours)}\\n"
    )
atexit.register(report_at_exit)
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


def state_at_exit(args, cwd, child=CHILD, status=0):
    """Run ``child`` with ``args`` in development mode, every warning an
    error, and require exit ``status``; return whether numpy was imported,
    whether the collector was on and the ``mro_audit`` modules imported
    when it exited.  A child that exits 0 must write nothing else to
    stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", child, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )
    assert done.returncode == status, done.stderr
    numpy, gc, modules = done.stderr.rstrip().split("\n")[-3:]
    report = f"\n{numpy}\n{gc}\n{modules}\n"
    if status == 0:
        assert done.stderr == report, done.stderr
    assert done.stderr.endswith(report), done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    assert numpy.startswith("numpy imported: "), done.stderr
    assert gc.startswith("gc enabled: "), done.stderr
    assert modules.startswith("modules: "), done.stderr
    return (numpy == "numpy imported: True", gc == "gc enabled: True",
            set(modules.removeprefix("modules: ").split()))


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
    assert state_at_exit(args, tmp_path)[:2] == (False, False)


def test_plan_starts_without_numpy(counties, tmp_path):
    assert state_at_exit(
        ["plan", RETURNS, "--counties", counties, "--seed", "1"], tmp_path
    )[:2] == (False, False)


def test_load_across_chunks_starts_without_numpy(tmp_path):
    # 3,000 rows span several of the loader's chunks.
    path = tmp_path / "large.csv"
    path.write_text("precinct_id,county_id,ballot_bound,A,B\n" + "".join(
        f"p{i},c1,100,{50 + i % 7},{40 - i % 5}\n" for i in range(3000)
    ), encoding="utf-8")
    assert state_at_exit(["margins", str(path)], tmp_path)[:2] == (
        False, False)


def test_simulate_imports_numpy(tmp_path):
    numpy, gc_enabled, modules = state_at_exit([
        "simulate", "--taint-count", "1", "--population", "4",
        "--sampling", "wr:2", "--reps", "100",
    ], tmp_path)
    assert (numpy, gc_enabled) == (True, False)
    assert not modules & {"mro_audit.io", "mro_audit.sampling"}


@pytest.mark.parametrize("args, status", [
    (["--version"], 0),
    (["--help"], 0),
    (["pvalue", "--help"], 0),
    (["pvalue", RETURNS, AUDITS], 2),  # --sampling missing
    (["margins", RETURNS, "--votes-per-voter", "0"], 2),
    (["simulate", "--population", "4"], 2),
    (["audit"], 2),
], ids=["version", "help", "command-help", "sampling-missing",
        "votes-per-voter-zero", "option-missing", "unknown-command"])
def test_parsing_imports_no_library_module(args, status, tmp_path):
    """``python -m mro_audit`` runs ``mro_audit/__main__.py`` as
    ``__main__``, so the CLI and its error classes are all it imports
    before click has parsed the command line."""
    assert state_at_exit(args, tmp_path, status=status)[2] == {
        "mro_audit", "mro_audit.cli", "mro_audit.errors",
    }


@pytest.mark.parametrize("child, args", [
    (IMPORT_CHILD, []),
    (CLIRUNNER_CHILD, ["margins", RETURNS, "--config", CONFIG]),
], ids=["import", "clirunner"])
def test_library_callers_keep_the_collector(child, args, tmp_path):
    _, gc_enabled, _ = state_at_exit(args, tmp_path, child)
    assert gc_enabled
