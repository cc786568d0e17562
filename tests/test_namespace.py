"""``mro_audit`` binds its public names on first use (PEP 562).

Each name of ``__all__`` is the very object its home module defines,
``from mro_audit import *`` binds them all, and after a plain
``import mro_audit`` every submodule is still an attribute.  What a fresh
interpreter imports is checked in one, in development mode with every
warning an error.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mro_audit
from mro_audit import risk
from mro_audit.cli import pvalue, report_command

REPO_ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    "core": ["AuditRecord", "Contest", "ContestSetup", "ContestTotals",
             "PrecinctReturns", "actual_margins", "compute_totals",
             "pool_audit_records", "pool_candidates", "pool_contest",
             "prepare_contest"],
    "discrepancy": ["PrecinctDiscrepancy", "analyze_precinct", "mro_sum",
                    "precinct_bound"],
    "errors": ["AuditError"],
    "risk": ["IDENTITY", "TAINT", "MonteCarloResult", "RiskReport",
             "SamplingDesign", "TestConfig", "monte_carlo_pvalue",
             "observed_statistic", "p_value", "run_contest_test", "run_test",
             "taint_count"],
    "sampling": ["CountyPlan", "conservative_effective_n", "draw_sample",
                 "statutory_minimum"],
}
SUBMODULES = ["cli", "core", "discrepancy", "errors", "io", "oracle",
              "report", "risk", "sampling"]


def run_fresh(code: str, cwd) -> None:
    """Run ``code`` in a fresh interpreter on the source tree, in
    development mode with every warning an error; it must exit 0 and write
    nothing to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr


def test_all_is_the_public_api():
    assert mro_audit.__all__ == sorted(
        name for names in PUBLIC.values() for name in names
    )


@pytest.mark.parametrize("home, name", [
    (home, name) for home, names in PUBLIC.items() for name in names
])
def test_name_is_its_home_modules_object(home, name):
    home_module = importlib.import_module(f"mro_audit.{home}")
    assert getattr(mro_audit, name) is getattr(home_module, name)


def test_star_import_binds_every_name():
    names: dict = {}
    exec("from mro_audit import *", names)
    names.pop("__builtins__")
    assert names.keys() == set(mro_audit.__all__)
    for name, value in names.items():
        assert value is getattr(mro_audit, name)


def test_dir_lists_names_and_submodules():
    assert dir(mro_audit) == sorted(
        {"__version__", *mro_audit.__all__, *SUBMODULES}
    )


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as raised:
        mro_audit.no_such_name
    assert str(raised.value) == (
        "module 'mro_audit' has no attribute 'no_such_name'"
    )
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from mro_audit import no_such_name", {})


@pytest.mark.parametrize("command", [pvalue, report_command],
                         ids=["pvalue", "report"])
def test_weight_choices_are_risks(command):
    """The CLI spells the ``--weight`` choices, so that parsing needs no
    ``risk``; they are ``risk``'s weights."""
    weight, = (param for param in command.params if param.name == "weight")
    assert tuple(weight.type.choices) == (risk.IDENTITY, risk.TAINT)
    assert weight.default == risk.IDENTITY


def test_import_binds_nothing_until_used(tmp_path):
    run_fresh(f"""
import sys
import mro_audit

def loaded():
    return sorted(name for name in sys.modules
                  if name.partition(".")[0] == "mro_audit")

assert loaded() == ["mro_audit"], loaded()
assert mro_audit.__version__ == "0.1.0"
assert loaded() == ["mro_audit"], loaded()
assert mro_audit.AuditError is sys.modules["mro_audit.errors"].AuditError
assert loaded() == ["mro_audit", "mro_audit.errors"], loaded()
for name in {SUBMODULES!r}:
    assert getattr(mro_audit, name) is sys.modules["mro_audit." + name], name
assert callable(mro_audit.io.load_contest)
public = {PUBLIC!r}
from mro_audit import *
for home, names in public.items():
    for name in names:
        assert globals()[name] is getattr(sys.modules["mro_audit." + home],
                                          name), name
""", tmp_path)

