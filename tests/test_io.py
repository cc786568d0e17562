import pytest

import minnesota
from mro_audit.core import compute_totals
from mro_audit.errors import ParseError, UnknownPrecinct, ValidationError
from mro_audit.io import (
    load_audits,
    load_config,
    load_contest,
    load_county_plans,
    load_returns,
)
from mro_audit.risk import IDENTITY, SamplingDesign, TestConfig, run_test


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadReturns:
    def test_docs_sample_round_trip(self, docs_returns_path):
        setup, returns = load_returns(docs_returns_path)
        assert setup.precinct_count == 4
        assert setup.candidates == ("Alpha", "Beta", "Gamma")
        assert returns[0].machine_votes == {"Alpha": 210, "Beta": 180, "Gamma": 40}
        assert returns[3].county_id == "South"

    def test_count_over_bound_names_the_cell(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "precinct_id,county_id,ballot_bound,A,B\n"
                     "p1,c1,10,11,0\n")
        with pytest.raises(ValidationError) as err:
            load_returns(path)
        assert "row 2" in str(err.value) and "'A'" in str(err.value)

    def test_negative_count_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "precinct_id,county_id,ballot_bound,A,B\n"
                     "p1,c1,10,-1,0\n")
        with pytest.raises(ValidationError):
            load_returns(path)

    def test_votes_per_voter_cap_checked(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "precinct_id,county_id,ballot_bound,A,B,C\n"
                     "p1,c1,10,9,9,0\n")
        with pytest.raises(ValidationError):
            load_returns(path, votes_per_voter=1)
        setup, _ = load_returns(path, votes_per_voter=2)
        assert setup.votes_per_voter == 2

    def test_duplicate_precinct_rejected(self, tmp_path):
        path = write(tmp_path, "dup.csv",
                     "precinct_id,county_id,ballot_bound,A,B\n"
                     "p1,c1,10,5,0\np1,c1,10,4,1\n")
        with pytest.raises(ParseError) as err:
            load_returns(path)
        assert err.value.row == 3

    def test_non_integer_cell_located(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "precinct_id,county_id,ballot_bound,A,B\n"
                     "p1,c1,10,five,0\n")
        with pytest.raises(ParseError) as err:
            load_returns(path)
        assert err.value.row == 2
        assert err.value.column == "A"

    def test_wrong_header_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "precinct,county,bound,A,B\np,c,1,0,0\n")
        with pytest.raises(ParseError):
            load_returns(path)

    def test_needs_two_candidate_columns(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "precinct_id,county_id,ballot_bound,A\np1,c1,5,3\n")
        with pytest.raises(ParseError):
            load_returns(path)

    def test_minnesota_aggregate_totals(self, minnesota_aggregate_path):
        setup, returns = load_returns(minnesota_aggregate_path)
        assert sum(r.ballot_bound for r in returns) == 2_217_818
        totals = compute_totals(setup, returns)
        assert totals.totals["Klobuchar"] == 1_278_849
        assert totals.totals == minnesota.STATEWIDE_TOTALS
        for loser, margin in minnesota.TABLE_MARGINS.items():
            assert totals.pairwise_margins[("Klobuchar", loser)] == margin


class TestLoadContest:
    def test_matches_load_returns_and_compute_totals(self, docs_returns_path):
        contest = load_contest(docs_returns_path)
        setup, returns = load_returns(docs_returns_path)
        assert (contest.setup, contest.returns) == (setup, returns)
        assert contest.totals == compute_totals(setup, returns)

    def test_loader_errors_unchanged(self, tmp_path):
        path = write(tmp_path, "bad.csv",
                     "precinct_id,county_id,ballot_bound,A,B\n"
                     "p1,c1,10,11,0\n")
        with pytest.raises(ValidationError) as from_returns:
            load_returns(path)
        with pytest.raises(ValidationError) as from_contest:
            load_contest(path)
        assert str(from_contest.value) == str(from_returns.value)


class TestLoadAudits:
    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "audits.csv", "precinct_id,A,B\n")
        assert load_audits(path) == []

    def test_duplicate_precinct_rejected(self, tmp_path):
        path = write(tmp_path, "audits.csv",
                     "precinct_id,A,B\np1,1,2\np1,1,2\n")
        with pytest.raises(ParseError):
            load_audits(path)

    @pytest.mark.parametrize("header", ["precinct_id,A,A,B", "precinct_id,A,,B"])
    def test_duplicate_or_empty_candidate_column_rejected(self, tmp_path,
                                                          header):
        path = write(tmp_path, "audits.csv", f"{header}\np1,999,1,2\n")
        with pytest.raises(ParseError) as err:
            load_audits(path)
        assert err.value.row == 1
        assert "candidate columns must be unique and nonempty" in str(err.value)

    def test_unknown_precinct_surfaces_at_join_time(self, tmp_path):
        returns_path = write(tmp_path, "returns.csv",
                             "precinct_id,county_id,ballot_bound,A,B\n"
                             "p1,c1,10,5,1\n")
        audits_path = write(tmp_path, "audits.csv",
                            "precinct_id,A,B\nghost,1,1\n")
        setup, returns = load_returns(returns_path)
        audits = load_audits(audits_path)  # loads fine on its own
        with pytest.raises(UnknownPrecinct):
            run_test(setup, returns, audits,
                     TestConfig(IDENTITY, SamplingDesign("with_replacement", 1)))

    def test_docs_sample(self, docs_audits_path):
        audits = load_audits(docs_audits_path)
        assert [a.precinct_id for a in audits] == ["P-102", "P-104"]


class TestLoadCountyPlans:
    def test_statutory_and_override(self, tmp_path):
        returns_path = write(
            tmp_path, "returns.csv",
            "precinct_id,county_id,ballot_bound,A,B\n"
            "p1,c1,400,200,100\np2,c1,400,180,90\np3,c2,400,210,80\n"
            "p4,c2,400,150,60\np5,c2,400,170,90\n",
        )
        counties_path = write(
            tmp_path, "counties.csv",
            "county_id,registered_voters,required_samples\n"
            "c1,10000,\nc2,10000,3\n",
        )
        _, returns = load_returns(returns_path)
        plans = load_county_plans(counties_path, returns)
        assert plans[0].required_samples == 2   # statutory
        assert plans[1].required_samples == 3   # county audits more
        assert plans[0].precincts == ("p1", "p2")

    def test_override_below_statutory_rejected(self, tmp_path):
        returns_path = write(
            tmp_path, "returns.csv",
            "precinct_id,county_id,ballot_bound,A,B\n"
            "p1,c1,400,200,100\np2,c1,400,180,90\np3,c1,400,100,50\n",
        )
        counties_path = write(
            tmp_path, "counties.csv",
            "county_id,registered_voters,required_samples\nc1,60000,2\n",
        )
        _, returns = load_returns(returns_path)
        with pytest.raises(ValidationError):
            load_county_plans(counties_path, returns)

    def test_county_missing_from_table_rejected(self, tmp_path):
        returns_path = write(
            tmp_path, "returns.csv",
            "precinct_id,county_id,ballot_bound,A,B\n"
            "p1,c1,400,200,100\np2,c2,400,180,90\n",
        )
        counties_path = write(tmp_path, "counties.csv",
                              "county_id,registered_voters\nc1,10000\n")
        _, returns = load_returns(returns_path)
        with pytest.raises(ValidationError):
            load_county_plans(counties_path, returns)

    def test_county_without_precincts_rejected(self, tmp_path):
        returns_path = write(
            tmp_path, "returns.csv",
            "precinct_id,county_id,ballot_bound,A,B\np1,c1,400,200,100\n",
        )
        counties_path = write(tmp_path, "counties.csv",
                              "county_id,registered_voters\nc1,10000\nc9,10000\n")
        _, returns = load_returns(returns_path)
        with pytest.raises(ValidationError):
            load_county_plans(counties_path, returns)


class TestLoadConfig:
    def test_keys_values_and_comments(self, tmp_path):
        path = write(tmp_path, "audit.cfg",
                     "# sample config\npool=Cavlan,Powers\n\nsampling = wr:78\n")
        assert load_config(path) == {"pool": "Cavlan,Powers", "sampling": "wr:78"}

    def test_malformed_line_rejected(self, tmp_path):
        path = write(tmp_path, "audit.cfg", "just words\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "audit.cfg"
        path.write_bytes(b"pool=Caf\xe9\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_config(path)

    def test_nul_character_rejected(self, tmp_path):
        path = write(tmp_path, "audit.cfg", "sampling=wr:2\ncounties=a\0b\n")
        with pytest.raises(ParseError, match="row 2"):
            load_config(path)
