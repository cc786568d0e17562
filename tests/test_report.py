import json
from fractions import Fraction

import pytest

from mro_audit.core import AuditRecord, ContestSetup, PrecinctReturns, compute_totals
from mro_audit.discrepancy import analyze_precinct, precinct_bound
from mro_audit.errors import ValidationError
from mro_audit.report import (
    SCHEMA,
    build_document,
    document_json,
    file_digest,
    fraction_str,
    percent,
    verify_document,
)
from mro_audit.risk import IDENTITY, SamplingDesign, TestConfig, run_test


@pytest.fixture()
def small_document(tmp_path):
    setup = ContestSetup(("W", "L"), votes_per_voter=1, precinct_count=4)
    returns = [
        PrecinctReturns(f"p{i}", "c1", 30 + i, {"W": 15 + i, "L": 8})
        for i in range(4)
    ]
    audits = [AuditRecord("p1", {"W": 16, "L": 8}),
              AuditRecord("p3", {"W": 17, "L": 9})]
    config = TestConfig(IDENTITY, SamplingDesign("with_replacement", 3))
    report = run_test(setup, returns, audits, config)
    totals = compute_totals(setup, returns)
    bounds = {
        r.precinct_id: precinct_bound(r, totals.pairwise_margins) for r in returns
    }
    by_id = {r.precinct_id: r for r in returns}
    discs = [
        analyze_precinct(by_id[a.precinct_id], a, totals.pairwise_margins)
        for a in audits
    ]
    returns_file = tmp_path / "returns.csv"
    returns_file.write_text("stand-in input\n")
    document = build_document(
        setup, returns, totals, bounds, discs, report,
        tool_version="0.1.0",
        input_digests={"returns": file_digest(returns_file)},
    )
    return document


class TestFractionStrings:
    @pytest.mark.parametrize("value", [Fraction(0), Fraction(7, 6),
                                       Fraction(-1, 3), Fraction(4299, 443196)])
    def test_round_trip(self, value):
        assert Fraction(fraction_str(value)) == value

    @pytest.mark.parametrize("value", [0, 3, -2])
    def test_int(self, value):
        assert fraction_str(value) == f"{value}/1"
        assert Fraction(fraction_str(value)) == value

    def test_percent_formatting(self):
        assert percent(0.040542619571994745) == "4.05%"
        assert percent(0.00024822671725293114) == "0.02%"
        assert percent(1.0) == "100.00%"


class TestDocument:
    def test_schema_and_shape(self, small_document):
        doc = small_document
        assert doc["schema"] == SCHEMA == "mro-audit/1"
        assert doc["tool_version"] == "0.1.0"
        assert len(doc["precincts"]) == 4
        sampled = [row for row in doc["precincts"] if row["sampled"]]
        assert {row["precinct_id"] for row in sampled} == {"p1", "p3"}
        unsampled = [row for row in doc["precincts"] if not row["sampled"]]
        assert all(row["mro"] is None for row in unsampled)
        assert len(doc["inputs"]["returns"]["sha256"]) == 64

    def test_json_round_trip_verifies_bit_for_bit(self, small_document):
        text = document_json(small_document)
        reloaded = json.loads(text)
        assert verify_document(reloaded) is True
        assert reloaded["risk"]["p_value"] == small_document["risk"]["p_value"]

    def test_tampered_pvalue_detected(self, small_document):
        reloaded = json.loads(document_json(small_document))
        reloaded["risk"]["p_value"] *= 1.01
        with pytest.raises(ValidationError):
            verify_document(reloaded)

    def test_tampered_votes_detected(self, small_document):
        reloaded = json.loads(document_json(small_document))
        reloaded["precincts"][0]["votes"]["W"] += 1
        with pytest.raises(ValidationError):
            verify_document(reloaded)


class TestFileDigest:
    def test_digest_changes_with_content(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("one\n")
        b.write_text("two\n")
        assert file_digest(a) != file_digest(b)
        a2 = tmp_path / "a2.csv"
        a2.write_text("one\n")
        assert file_digest(a) == file_digest(a2)
