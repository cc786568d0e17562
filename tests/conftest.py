from __future__ import annotations

from pathlib import Path

import pytest

import minnesota
import mro_audit.io
from mro_audit.io import load_county_plans, load_returns
from mro_audit.sampling import draw_sample

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).resolve().parent / "data"
DOCS_DIR = REPO_ROOT / "docs" / "examples"


@pytest.fixture(scope="session")
def minnesota_files(tmp_path_factory) -> dict:
    """The statewide fixture: returns, county table, and a clean audit sample.

    Built once per session; the audit sample is the stratified county draw
    (202 precincts) with hand counts equal to machine counts.
    """
    root = tmp_path_factory.mktemp("minnesota")
    returns_path = root / "mn2006_returns.csv"
    counties_path = root / "mn2006_counties.csv"
    audits_path = root / "mn2006_audits.csv"

    minnesota.write_returns_csv(returns_path)
    minnesota.write_counties_csv(counties_path)

    setup, returns = load_returns(returns_path)
    plans = load_county_plans(counties_path, returns)
    sampled = draw_sample(plans, returns, minnesota.SAMPLE_SEED)
    votes_by_id = {r.precinct_id: dict(r.machine_votes) for r in returns}
    minnesota.write_audits_csv(audits_path, sampled, votes_by_id)

    return {
        "returns_path": returns_path,
        "counties_path": counties_path,
        "audits_path": audits_path,
        "setup": setup,
        "returns": returns,
        "plans": plans,
        "sampled": sampled,
    }


@pytest.fixture(scope="session")
def minnesota_aggregate_path() -> Path:
    return DATA_DIR / "minnesota_aggregate.csv"


@pytest.fixture(scope="session")
def docs_returns_path() -> Path:
    return DOCS_DIR / "returns.csv"


@pytest.fixture(scope="session")
def docs_audits_path() -> Path:
    return DOCS_DIR / "audits.csv"


@pytest.fixture(scope="class")
def chunks_of_two():
    """Load returns two records at a time, so that a fault in any row after
    the second lands past a chunk boundary.  Class-scoped, so that it also
    holds for Hypothesis tests."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mro_audit.io, "_CHUNK_ROWS", 2)
        yield
