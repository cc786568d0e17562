"""Only ``simulate`` imports numpy; every other command starts without it.

Each command runs as ``python -m mro_audit`` in a fresh interpreter, which
reports at exit whether numpy was imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs" / "examples"

CHILD = """
import atexit, runpy, sys
atexit.register(
    lambda: sys.stderr.write(f"\\nnumpy imported: {'numpy' in sys.modules}\\n")
)
sys.argv[0] = "mro-audit"
runpy.run_module("mro_audit", run_name="__main__", alter_sys=True)
"""

RETURNS = str(DOCS_DIR / "returns.csv")
AUDITS = str(DOCS_DIR / "audits.csv")
CONFIG = str(DOCS_DIR / "audit.cfg")


def numpy_imported(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    marker = done.stderr.rstrip().rsplit("\n", 1)[-1]
    assert marker.startswith("numpy imported: "), done.stderr
    return marker == "numpy imported: True"


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
    assert not numpy_imported(args, tmp_path)


def test_plan_starts_without_numpy(counties, tmp_path):
    assert not numpy_imported(
        ["plan", RETURNS, "--counties", counties, "--seed", "1"], tmp_path
    )


def test_simulate_imports_numpy(tmp_path):
    assert numpy_imported([
        "simulate", "--taint-count", "1", "--population", "4",
        "--sampling", "wr:2", "--reps", "100",
    ], tmp_path)
