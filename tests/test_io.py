import csv
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minnesota
import mro_audit.io
from mro_audit.core import (
    MAX_BALLOT_BOUND,
    AuditRecord,
    PrecinctReturns,
    compute_totals,
    pool_contest,
)
from mro_audit.discrepancy import BoundColumns
from mro_audit.errors import (
    AuditError,
    ParseError,
    UnknownPrecinct,
    ValidationError,
)
from mro_audit.io import (
    load_audits,
    load_config,
    load_contest,
    load_county_plans,
    load_returns,
)
from mro_audit.oracle import gen_instance
from mro_audit.report import bounds_json
from mro_audit.risk import (
    IDENTITY,
    SamplingDesign,
    TestConfig,
    run_contest_test,
    run_test,
)
from mro_audit.sampling import CountyPlan


R = "precinct_id,county_id,ballot_bound,A,B\n"
H = "precinct_id,A,B\n"
C = "county_id,registered_voters\n"
CR = "county_id,registered_voters,required_samples\n"
LONG = "9" * 131_073  # one character over the csv module's field limit
TWO_LINE = '"p\n1",c1,10,5,1\n'  # one record on two lines


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

    @pytest.mark.parametrize("line, error, message", [
        (f"p2,c1,10,{LONG},0", ParseError,
         "field larger than field limit (131072)"),
        ("p2,c1,10,x,0", ParseError,
         "column 'A': expected an integer, got 'x'"),
        ("p2,c1,10,11,0", ValidationError,
         "count 11 for 'A' exceeds ballot bound 10"),
    ], ids=["over-limit-field", "non-integer-cell", "count-rule"])
    def test_rows_count_records_not_lines(self, tmp_path, line, error,
                                          message):
        # The record after the two-line id is row 3, but line 4.
        path = write(tmp_path, "bad.csv", R + TWO_LINE + line + "\n")
        with pytest.raises(error) as err:
            load_returns(path)
        assert err.value.row == 3
        assert str(err.value).startswith(f"{path}, row 3")
        assert str(err.value).endswith(message)

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

    def test_fault_in_the_third_chunk_located(self, tmp_path):
        rows = [f"p{i},c1,10,1,1\n" for i in range(2999)]
        rows[2049] = "p2049,c1,10,1,1.5\n"  # row 2051; chunks hold 1,024
        path = write(tmp_path, "returns.csv", R + "".join(rows))
        with pytest.raises(ParseError) as err:
            load_returns(path)
        assert str(err.value) == (f"{path}, row 2051, column 'B': expected "
                                  "an integer, got '1.5'")

    def test_peak_memory_near_what_the_contest_keeps(self, tmp_path):
        # The table is read whole, but each record is let go once walked,
        # so the load never holds every cell beside every finished row.
        setup, returns, _ = gen_instance(5000, 5, seed=3)
        candidates = setup.candidates
        path = write(tmp_path, "returns.csv", "".join(
            [f"precinct_id,county_id,ballot_bound,{','.join(candidates)}\n"]
            + [f"{r.precinct_id},{r.county_id},{r.ballot_bound},"
               + ",".join(str(r.machine_votes[c]) for c in candidates) + "\n"
               for r in returns]
        ))
        del returns
        tracemalloc.start()
        try:
            contest = load_contest(path)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(contest.returns) == 5000
        assert peak <= 1.5 * live


def reference_rows(path, pool=(), pooled_id="Pooled"):
    """The rows of a valid returns file, read with the csv module alone:
    stripped ids, county ids and ints, vote maps in header order with the
    pool's members summed into ``pooled_id``, last."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *records = csv.reader(handle)
    candidates = [cell.strip() for cell in header[3:]]
    rows = []
    for precinct_id, county_id, bound, *cells in records:
        counts = dict(zip(candidates, map(int, cells)))
        votes = {c: n for c, n in counts.items() if c not in pool}
        if pool:
            votes[pooled_id] = sum(counts[c] for c in pool)
        rows.append(PrecinctReturns(precinct_id.strip(), county_id.strip(),
                                    int(bound), votes))
    return rows


def many_chunks(tmp_path):
    """A valid 3,000-row returns file, with padded ids, that spans several
    of the loader's chunks."""
    assert 3000 > 2 * mro_audit.io._CHUNK_ROWS
    lines = ["precinct_id,county_id,ballot_bound,A,B,C,D\n"] + [
        f" p{i} ,c{i % 7} ,200,{60 + i % 13},{50 - i % 11},{i % 17},"
        f"{i % 5}\n" for i in range(3000)]
    return write(tmp_path, "large.csv", "".join(lines))


class TestContestColumns:
    """A loaded contest keeps columns; its rows, built on first use, are
    the rows a row-by-row read of the file gives."""

    @pytest.mark.parametrize("pool, pooled_id", [
        ((), "Pooled"), (("Gamma",), "Minor"),
    ], ids=["unpooled", "pooled"])
    def test_docs_example_rows(self, docs_returns_path, pool, pooled_id):
        contest = load_contest(docs_returns_path)
        if pool:
            contest = pool_contest(contest, pool, pooled_id)
        expected = reference_rows(docs_returns_path, pool, pooled_id)
        assert contest.returns == expected
        assert [list(r.machine_votes) for r in contest.returns] == [
            list(r.machine_votes) for r in expected]
        assert list(contest.precinct_ids) == [r.precinct_id for r in expected]

    @pytest.mark.parametrize("pool", [(), ("C", "D")],
                             ids=["unpooled", "pooled"])
    def test_rows_across_chunks(self, tmp_path, pool):
        path = many_chunks(tmp_path)
        contest = load_contest(path)
        if pool:
            contest = pool_contest(contest, pool, "Minor")
        expected = reference_rows(path, pool, "Minor")
        assert contest.returns == expected
        assert [list(r.machine_votes) for r in contest.returns] == [
            list(r.machine_votes) for r in expected]
        assert [contest.row(i) for i in (0, 1023, 1024, 2999)] == [
            expected[i] for i in (0, 1023, 1024, 2999)]
        assert list(contest.setup.candidates)[-1] == (
            "Minor" if pool else "D")

    def test_bounds_and_risk_test_build_no_rows(self, tmp_path):
        path = many_chunks(tmp_path)
        audits = [AuditRecord(r.precinct_id, r.machine_votes)
                  for r in reference_rows(path)[::100]]
        contest = load_contest(path)
        bounds_json(contest.county_ids, BoundColumns(contest))
        config = TestConfig(IDENTITY, SamplingDesign("with_replacement", 30))
        run_contest_test(contest, audits, config)
        assert contest._returns is None


# Every character str.strip() removes, and one it does not.
SPACES = [chr(i) for i in range(0x3001) if chr(i).isspace()] + ["\u200b"]
PADDED_NUMBERS = st.builds(
    "{}{}{}".format,
    st.text(st.sampled_from(SPACES), max_size=3),
    st.integers().map(str) | st.from_regex(r"[+-]?[0-9\u0660-\u0669][0-9_]*",
                                           fullmatch=True),
    st.text(st.sampled_from(SPACES), max_size=3),
)


def _int_or_none(text):
    try:
        return int(text.strip())
    except ValueError:
        return None


def _shown(text):
    """``text`` as a message echoes it: whole up to 100 characters, else
    its first 100 and its length."""
    if len(text) <= 100:
        return repr(text)
    return f"{text[:100]!r} (first 100 of {len(text)} characters)"


class TestIntegerCell:
    """A count cell reads as ``int(cell.strip())`` does, or is rejected with
    the located message of every non-integer cell."""

    @given(cell=PADDED_NUMBERS
           | st.text(st.characters(blacklist_categories=("Cs",))))
    @settings(max_examples=300, deadline=None)
    # str.strip() removes the separator "\x1c", which int() rejects.
    @example(cell="\x1c5")
    @example(cell=" 5\xa0")
    @example(cell="0" * 100 + ":")
    def test_accepts_exactly_what_int_accepts(self, tmp_path_factory, cell):
        folder = tmp_path_factory.mktemp("cell")
        audits, returns = folder / "audits.csv", folder / "returns.csv"
        for path, rows in [
            (audits, [["precinct_id", "A"], ["p1", cell]]),
            (returns, [["precinct_id", "county_id", "ballot_bound", "A", "B"],
                       ["p1", "c1", str(MAX_BALLOT_BOUND), cell, "0"]]),
        ]:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle, quoting=csv.QUOTE_ALL).writerows(rows)
        expected = _int_or_none(cell)
        if expected is None:
            for path, load in [(audits, load_audits), (returns, load_contest)]:
                with pytest.raises(ParseError) as err:
                    load(path)
                assert str(err.value) == (
                    f"{path}, row 2, column 'A': expected an integer, "
                    f"got {_shown(cell)}"
                )
            return
        assert load_audits(audits)[0].hand_votes == {"A": expected}
        if 0 <= expected <= MAX_BALLOT_BOUND:
            assert load_contest(returns).counts == [[expected], [0]]
        else:
            with pytest.raises(AuditError):
                load_contest(returns)


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

    def test_count_rules_left_to_pooling_and_the_join(self, tmp_path):
        path = write(tmp_path, "audits.csv", "precinct_id,A,B\np1,-1,2\n")
        assert load_audits(path)[0].hand_votes == {"A": -1, "B": 2}

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
        assert plans == [CountyPlan("c1", 2),   # statutory
                         CountyPlan("c2", 3)]   # county audits more

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


# The flag names that the config files of these tests set.
CONFIG_FLAGS = {"pool", "pooled_id", "sampling", "counties"}


class TestLoadConfig:
    def test_keys_values_and_comments(self, tmp_path):
        path = write(tmp_path, "audit.cfg",
                     "# sample config\npool=Cavlan,Powers\n\nsampling = wr:78\n"
                     "pooled-id=Minor\n")
        assert load_config(path, CONFIG_FLAGS) == {
            "pool": "Cavlan,Powers", "sampling": "wr:78", "pooled_id": "Minor"}

    def test_malformed_line_rejected(self, tmp_path):
        path = write(tmp_path, "audit.cfg", "just words\n")
        with pytest.raises(ParseError):
            load_config(path, CONFIG_FLAGS)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "audit.cfg"
        path.write_bytes(b"pool=Caf\xe9\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_config(path, CONFIG_FLAGS)

    @pytest.mark.parametrize("text", [
        "sampling=wr:2\nsampling=wr:5\n",
        "pooled-id=A\npooled_id=B\n",
        "pooled_id=A\npooled-id=A\n",
    ])
    def test_repeated_key_rejected(self, tmp_path, text):
        path = write(tmp_path, "audit.cfg", text)
        with pytest.raises(ParseError, match="row 2: key .* already set at "
                                             "row 1"):
            load_config(path, CONFIG_FLAGS)

    def test_nul_character_rejected(self, tmp_path):
        path = write(tmp_path, "audit.cfg", "sampling=wr:2\ncounties=a\0b\n")
        with pytest.raises(ParseError, match="row 2"):
            load_config(path, CONFIG_FLAGS)


# Two precincts a county, so that a table within the statute asks for no
# more samples than a county has and each corpus case keeps its one fault.
COUNTY_RETURNS = [PrecinctReturns("p1", "c1", 400, {"A": 200, "B": 100}),
                  PrecinctReturns("p2", "c1", 400, {"A": 150, "B": 120}),
                  PrecinctReturns("p3", "c2", 400, {"A": 180, "B": 90}),
                  PrecinctReturns("p4", "c2", 400, {"A": 170, "B": 60})]
LOADERS = {
    "returns": load_returns,
    "audits": load_audits,
    "counties": lambda path: load_county_plans(path, COUNTY_RETURNS),
    "config": lambda path: load_config(path, CONFIG_FLAGS),
}


# The cases of TestMessageCorpus; TestFaultsPastTheFirstChunk replays the
# returns row faults among them after a chunk boundary.
BOM = "\ufeff"  # a UTF-8 byte-order mark, as some editors save CSV files
BOM_MESSAGE = ("{path}, row 1: starts with a UTF-8 byte-order mark; save the "
               "file as UTF-8 without one")
CORPUS = [
    pytest.param(
        "returns", "precinct,county,bound,A,B\np,c,1,0,0\n",
        ParseError, "{path}, row 1: header must start with "
                    "precinct_id,county_id,ballot_bound, got "
                    "precinct,county,bound",
        id="returns-bad-header"),
    pytest.param(
        "returns", "precinct_id,county_id,ballot_bound,A\np1,c1,5,3\n",
        ParseError, "{path}, row 1: need at least two candidate columns",
        id="returns-one-candidate"),
    pytest.param(
        "returns", "precinct_id,county_id,ballot_bound,A,A\np1,c1,5,3,1\n",
        ParseError, "{path}, row 1: candidate columns must be unique and "
                    "nonempty",
        id="returns-duplicate-candidate"),
    pytest.param(
        "returns", "precinct_id,county_id,ballot_bound,A,,B\np1,c1,5,3,1,0\n",
        ParseError, "{path}, row 1: candidate columns must be unique and "
                    "nonempty",
        id="returns-empty-candidate"),
    pytest.param(
        "returns", R + "p1,c1,10,5\n",
        ParseError, "{path}, row 2: expected 5 cells, got 4",
        id="returns-short-row"),
    pytest.param(
        "returns", R + "p1,c1,10,5,1\n\np2,c1,10,5,1\n",
        ParseError, "{path}, row 3: expected 5 cells, got 0",
        id="returns-blank-row"),
    pytest.param(
        "returns", R + " ,c1,10,5,1\n",
        ParseError, "{path}, row 2, column 'precinct_id': empty precinct_id",
        id="returns-empty-id"),
    pytest.param(
        "returns", R + "p1,c1,10,5,0\n p1 ,c1,10,4,1\n",
        ParseError, "{path}, row 3, column 'precinct_id': duplicate "
                    "precinct_id 'p1'",
        id="returns-duplicate-id"),
    pytest.param(
        "returns", R + "p1,c1,ten,five,0\n",
        ParseError, "{path}, row 2, column 'ballot_bound': expected an "
                    "integer, got 'ten'",
        id="returns-non-integer-bound"),
    pytest.param(
        "returns", R + "p1,c1,10,5,1\np2,c1,10,five,0\n",
        ParseError, "{path}, row 3, column 'A': expected an integer, got "
                    "'five'",
        id="returns-non-integer-cell"),
    # Python parses no integer of over 4,300 digits; a long cell is echoed
    # cut to its first 100 characters, and its length is stated.
    pytest.param(
        "returns", R + f"p1,c1,{'9' * 5000},5,1\n",
        ParseError, "{path}, row 2, column 'ballot_bound': expected an "
                    f"integer, got '{'9' * 100}' (first 100 of 5000 "
                    "characters)",
        id="returns-5000-digit-bound"),
    pytest.param(
        "returns", R + f"p1,c1,10,{'x' * 3000},1\n",
        ParseError, "{path}, row 2, column 'A': expected an integer, got "
                    f"'{'x' * 100}' (first 100 of 3000 characters)",
        id="returns-long-non-integer-cell"),
    # Python parses up to 4,300 digits; a long count, bound or column name
    # is echoed cut as a long cell is.
    pytest.param(
        "returns", R + f"p1,c1,10,{'9' * 4000},1\n",
        ValidationError, f"{{path}}, row 2: count {'9' * 100} (first 100 of "
                         "4000 characters) for 'A' exceeds ballot bound 10",
        id="returns-4000-digit-count"),
    pytest.param(
        "returns", R + f"p1,c1,{'9' * 4000},1,1\n",
        ValidationError, f"{{path}}, row 2: ballot bound {'9' * 100} (first "
                         "100 of 4000 characters) above 10**18",
        id="returns-4000-digit-bound"),
    pytest.param(
        "returns", f"precinct_id,county_id,ballot_bound,{'x' * 3000},B\n"
                   "p1,c1,10,x,1\n",
        ParseError, f"{{path}}, row 2, column '{'x' * 100}' (first 100 of "
                    "3000 characters): expected an integer, got 'x'",
        id="returns-3000-character-candidate-over-non-integer-cell"),
    pytest.param(
        "returns", R + f"{'p' * 100},c1,10,5,1\n{'p' * 100},c1,10,5,1\n",
        ParseError, "{path}, row 3, column 'precinct_id': duplicate "
                    f"precinct_id '{'p' * 100}'",
        id="returns-duplicate-100-character-id"),
    pytest.param(
        "returns", R + TWO_LINE + "p2,c1,10,x,1\n",
        ParseError, "{path}, row 3, column 'A': expected an integer, got "
                    "'x'",
        id="returns-non-integer-after-two-line-id"),
    pytest.param(
        "returns", R + f"p1,c1,10,{LONG},0\n",
        ParseError, "{path}, row 2: field larger than field limit (131072)",
        id="returns-over-limit-field"),
    pytest.param(
        "returns", R + TWO_LINE + f"p2,c1,10,{LONG},0\n",
        ParseError, "{path}, row 3: field larger than field limit (131072)",
        id="returns-over-limit-after-two-line-id"),
    pytest.param(
        "returns", R.encode() + b"p\xe9,c1,10,5,1\n",
        ParseError, "{path}: not valid UTF-8: 'utf-8' codec can't decode "
                    "byte 0xe9 in position 40: invalid continuation byte",
        id="returns-non-utf8"),
    pytest.param(
        "returns", None,
        ParseError, "{path}: [Errno 2] No such file or directory: '{path}'",
        id="returns-missing-file"),
    pytest.param(
        "returns", "",
        ParseError, "{path}: empty file, expected a header row",
        id="returns-empty-file"),
    pytest.param(
        "returns", "\n" + R + "p1,c1,10,5,1\n",
        ParseError, "{path}, row 1: header row is empty",
        id="returns-blank-first-line"),
    pytest.param(
        "returns", R,
        ValidationError, "{path}: no precinct rows",
        id="returns-no-rows"),
    pytest.param(
        "returns", R + "p1,c1,-1,0,0\n",
        ValidationError, "{path}, row 2: negative ballot bound -1",
        id="returns-negative-bound"),
    pytest.param(
        "returns", R + f"p1,c1,{10**18 + 1},0,0\n",
        ValidationError, "{path}, row 2: ballot bound 1000000000000000001 "
                         "above 10**18",
        id="returns-bound-above-cap"),
    pytest.param(
        "returns", R + "p1,c1,10,3,-1\n",
        ValidationError, "{path}, row 2: negative count -1 for 'B'",
        id="returns-negative-count"),
    pytest.param(
        "returns", R + "p1,c1,10,11,0\n",
        ValidationError, "{path}, row 2: count 11 for 'A' exceeds ballot "
                         "bound 10",
        id="returns-count-over-bound"),
    pytest.param(
        "returns", R + "p1,c1,10,6,5\n",
        ValidationError, "{path}, row 2: 11 votes exceed 1 per ballot "
                         "times bound 10",
        id="returns-votes-over-cap"),
    pytest.param(
        "returns", BOM + R + "p1,c1,10,5,1\n",
        ParseError, BOM_MESSAGE,
        id="returns-byte-order-mark"),
    pytest.param(
        "audits", "precinct,A,B\np1,1,2\n",
        ParseError, "{path}, row 1: header must start with precinct_id, "
                    "got precinct",
        id="audits-bad-header"),
    pytest.param(
        "audits", "precinct_id\np1\n",
        ParseError, "{path}, row 1: need at least one candidate column",
        id="audits-no-candidate"),
    pytest.param(
        "audits", "precinct_id,A,A\np1,1,2\n",
        ParseError, "{path}, row 1: candidate columns must be unique and "
                    "nonempty",
        id="audits-duplicate-candidate"),
    pytest.param(
        "audits", "precinct_id,A,\np1,1,2\n",
        ParseError, "{path}, row 1: candidate columns must be unique and "
                    "nonempty",
        id="audits-empty-candidate"),
    pytest.param(
        "audits", H + "p1,1\n",
        ParseError, "{path}, row 2: expected 3 cells, got 2",
        id="audits-short-row"),
    pytest.param(
        "audits", H + "p1,1,2,3\n",
        ParseError, "{path}, row 2: expected 3 cells, got 4",
        id="audits-long-row"),
    pytest.param(
        "audits", H + ",1,2\n",
        ParseError, "{path}, row 2, column 'precinct_id': empty precinct_id",
        id="audits-empty-id"),
    pytest.param(
        "audits", H + "p1,1,2\np1,1,2\n",
        ParseError, "{path}, row 3, column 'precinct_id': duplicate "
                    "precinct_id 'p1'",
        id="audits-duplicate-id"),
    pytest.param(
        "audits", H + "p1,1,two\n",
        ParseError, "{path}, row 2, column 'B': expected an integer, got "
                    "'two'",
        id="audits-non-integer-cell"),
    pytest.param(
        "audits", H + f"p1,{LONG},2\n",
        ParseError, "{path}, row 2: field larger than field limit (131072)",
        id="audits-over-limit-field"),
    pytest.param(
        "audits", H + '"p\n1",1,2\n' + f"p2,{LONG},2\n",
        ParseError, "{path}, row 3: field larger than field limit (131072)",
        id="audits-over-limit-after-two-line-id"),
    pytest.param(
        "audits", H.encode() + b"p1,1,2\xff\n",
        ParseError, "{path}: not valid UTF-8: 'utf-8' codec can't decode "
                    "byte 0xff in position 22: invalid start byte",
        id="audits-non-utf8"),
    pytest.param(
        "audits", None,
        ParseError, "{path}: [Errno 2] No such file or directory: '{path}'",
        id="audits-missing-file"),
    pytest.param(
        "audits", "",
        ParseError, "{path}: empty file, expected a header row",
        id="audits-empty-file"),
    pytest.param(
        "audits", "\n" + H + "p1,1,2\n",
        ParseError, "{path}, row 1: header row is empty",
        id="audits-blank-first-line"),
    pytest.param(
        "audits", BOM + H + "p1,1,2\n",
        ParseError, BOM_MESSAGE,
        id="audits-byte-order-mark"),
    pytest.param(
        "counties", "county,voters\nc1,10000\n",
        ParseError, "{path}, row 1: header must be "
                    "county_id,registered_voters[,required_samples]",
        id="counties-bad-header"),
    pytest.param(
        "counties", "county_id,registered_voters,extra\nc1,10000,2\n",
        ParseError, "{path}, row 1: header must be "
                    "county_id,registered_voters[,required_samples]",
        id="counties-bad-third-column"),
    pytest.param(
        "counties", CR.replace("\n", ",x\n"),
        ParseError, "{path}, row 1: header must be "
                    "county_id,registered_voters[,required_samples]",
        id="counties-four-columns"),
    pytest.param(
        "counties", C + "c1\n",
        ParseError, "{path}, row 2: expected 2 cells, got 1",
        id="counties-short-row"),
    pytest.param(
        "counties", C + "c1,10000\nc2,10000\nc1,10000\n",
        ParseError, "{path}, row 4, column 'county_id': duplicate "
                    "county_id 'c1'",
        id="counties-duplicate-id"),
    pytest.param(
        "counties", C + ",10000\n",
        ValidationError, "{path}, row 2: county '' has no precincts in the "
                         "returns",
        id="counties-empty-id"),
    pytest.param(
        "counties", C + "c1,many\n",
        ParseError, "{path}, row 2, column 'registered_voters': expected "
                    "an integer, got 'many'",
        id="counties-non-integer-voters"),
    pytest.param(
        "counties", CR + "c1,10000,x\n",
        ParseError, "{path}, row 2, column 'required_samples': expected an "
                    "integer, got 'x'",
        id="counties-non-integer-required"),
    pytest.param(
        "counties", C + f"c1,{LONG}\n",
        ParseError, "{path}, row 2: field larger than field limit (131072)",
        id="counties-over-limit-field"),
    pytest.param(
        "counties", C.encode() + b"c\xe91,10000\n",
        ParseError, "{path}: not valid UTF-8: 'utf-8' codec can't decode "
                    "byte 0xe9 in position 29: invalid continuation byte",
        id="counties-non-utf8"),
    pytest.param(
        "counties", None,
        ParseError, "{path}: [Errno 2] No such file or directory: '{path}'",
        id="counties-missing-file"),
    pytest.param(
        "counties", "",
        ParseError, "{path}: empty file, expected a header row",
        id="counties-empty-file"),
    pytest.param(
        "counties", "\n" + C + "c1,10000\n",
        ParseError, "{path}, row 1: header row is empty",
        id="counties-blank-first-line"),
    pytest.param(
        "counties", C,
        ValidationError, "{path}: counties in returns but not in the "
                         "table: ['c1', 'c2']",
        id="counties-no-rows"),
    pytest.param(
        "counties", C + "c1,10000\nc2,10000\nc9,10000\n",
        ValidationError, "{path}, row 4: county 'c9' has no precincts in "
                         "the returns",
        id="counties-unknown-county"),
    pytest.param(
        "counties", CR + "c1,60000,2\nc2,10000,\n",
        ValidationError, "{path}, row 2: required_samples 2 below the "
                         "statutory minimum 3",
        id="counties-required-below-statute"),
    pytest.param(
        "counties", C + "c1,10000\n",
        ValidationError, "{path}: counties in returns but not in the "
                         "table: ['c2']",
        id="counties-county-missing"),
    pytest.param(
        "counties", C + "c1,-5\nc2,10000\n",
        ValidationError, "{path}, row 2: county c1: negative registered "
                         "voters",
        id="counties-negative-voters"),
    pytest.param(
        "counties", CR + "c1,-1,1\nc2,10000,\n",
        ValidationError, "{path}, row 2: county c1: negative registered "
                         "voters",
        id="counties-negative-voters-with-required-samples"),
    pytest.param(
        "counties", CR + "c1,10000,3\nc2,10000,\n",
        ValidationError, "{path}, row 2: county c1: 3 samples requested "
                         "from 2 precincts",
        id="counties-more-samples-than-precincts"),
    pytest.param(
        "counties", BOM + C + "c1,10000\nc2,10000\n",
        ParseError, BOM_MESSAGE,
        id="counties-byte-order-mark"),
    pytest.param(
        "config", "# comment\n\njust words\n",
        ParseError, "{path}, row 3: expected key=value, got 'just words'",
        id="config-malformed-line"),
    pytest.param(
        "config", "x" * 3000 + "\n",
        ParseError, "{path}, row 1: expected key=value, got "
                    f"'{'x' * 100}' (first 100 of 3000 characters)",
        id="config-long-malformed-line"),
    pytest.param(
        "config", "sampling=wr:2\ncounties=a\0b\n",
        ParseError, "{path}, row 2: NUL character in line",
        id="config-nul"),
    pytest.param(
        "config", "pooled-id=A\n# again\npooled_id=B\n",
        ParseError, "{path}, row 3: key 'pooled_id' already set at row 1",
        id="config-repeated-key"),
    pytest.param(
        "config", b"pool=Caf\xe9\n",
        ParseError, "{path}: not valid UTF-8: 'utf-8' codec can't decode "
                    "byte 0xe9 in position 8: invalid continuation byte",
        id="config-non-utf8"),
    pytest.param(
        "config", None,
        ParseError, "{path}: [Errno 2] No such file or directory: '{path}'",
        id="config-missing-file"),
]


class TestMessageCorpus:
    """Each malformed input and the exact error its loader raises.

    ``{path}`` stands for the file's path; content ``None`` is a missing
    file.  Rows count CSV records, the header being row 1.
    """

    @pytest.mark.parametrize("kind, content, error, message", CORPUS)
    def test_message(self, tmp_path, kind, content, error, message):
        path = tmp_path / "input.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(AuditError) as err:
            LOADERS[kind](path)
        assert type(err.value) is error
        assert str(err.value) == message.format(path=path)


@pytest.mark.usefixtures("chunks_of_two")
class TestMessageCorpusInChunksOfTwo(TestMessageCorpus):
    """The corpus with returns loaded two records at a time."""


def ahead(count):
    """``count`` valid returns rows, to put ahead of a faulty one."""
    return "".join(f"q{i},c1,10,1,1\n" for i in range(count))


# Three valid rows ahead of a returns corpus case put its faulty row past
# the first chunk of two records.
AHEAD = ahead(3)


def _shifted(case):
    kind, content, error, message = case.values
    message = re.sub(r"row (\d+)", lambda m: f"row {int(m[1]) + 3}", message)
    return pytest.param(R + AHEAD + content[len(R):], error, message,
                        id=case.id)


@pytest.mark.usefixtures("chunks_of_two")
class TestFaultsPastTheFirstChunk:
    """Each returns row fault, in a chunk after one that passed, raises the
    class and message the row walk raises at its shifted row."""

    @pytest.mark.parametrize("content, error, message", [
        _shifted(case) for case in CORPUS
        if case.values[0] == "returns" and isinstance(case.values[1], str)
        and case.values[1].startswith(R) and case.values[1] != R
    ] + [
        pytest.param(
            R + AHEAD + "q0,c1,10,1,1\n",
            ParseError, "{path}, row 5, column 'precinct_id': duplicate "
                        "precinct_id 'q0'",
            id="duplicate-of-an-earlier-chunk"),
        pytest.param(
            R + ahead(2) + "p1,c1,10,11,0\np2,c1,10,x,0\n",
            ValidationError, "{path}, row 4: count 11 for 'A' exceeds "
                             "ballot bound 10",
            id="count-rule-before-a-bad-integer-in-its-chunk"),
        pytest.param(
            R + ahead(2) + "p1,c1,10,1,1\np1,c1,x,1,1\n",
            ParseError, "{path}, row 5, column 'precinct_id': duplicate "
                        "precinct_id 'p1'",
            id="duplicate-before-a-bad-integer-in-its-row"),
    ])
    def test_message(self, tmp_path, content, error, message):
        path = write(tmp_path, "returns.csv", content)
        with pytest.raises(AuditError) as err:
            load_returns(path)
        assert type(err.value) is error
        assert str(err.value) == message.format(path=path)


# Over 8 KB of valid rows, so the decoder reaches the bad byte only after
# the rows before it could have been checked.
PADDING = ahead(700)


class TestReadBeforeCheck:
    """A table is read whole before any row is checked, so a decode or
    csv-module error wins over an earlier row's fault; config lines are
    checked as they are read.  Either way the file is closed on error."""

    @pytest.mark.parametrize("kind, content, error, message", [
        pytest.param(
            "returns", (R + "p1,c1,10,11,0\n" + PADDING).encode()
            + b"z\xe9,c1,10,1,1\n",
            ParseError, "{path}: not valid UTF-8: ",
            id="returns-count-rule-then-bad-byte"),
        pytest.param(
            "returns", R + "p1,c1,10,11,0\n" + f"p2,c1,10,{LONG},0\n",
            ParseError, "{path}, row 3: field larger than field limit (131072)",
            id="returns-count-rule-then-over-limit-field"),
        pytest.param(
            "audits", H + "p1,x,0\n" + f"p2,{LONG},0\n",
            ParseError, "{path}, row 3: field larger than field limit (131072)",
            id="audits-non-integer-then-over-limit-field"),
        pytest.param(
            "config", ("just words\n" + "# pad\n" * 2000).encode()
            + b"pool=Caf\xe9\n",
            ParseError, "{path}, row 1: expected key=value, got 'just words'",
            id="config-bad-line-then-bad-byte"),
        pytest.param(
            "returns", R + "p1,c1,10,11,0\n",
            ValidationError, "{path}, row 2: count 11 for 'A' exceeds ballot "
                             "bound 10",
            id="returns-count-rule"),
    ])
    def test_first_error_and_file_closed(self, tmp_path, monkeypatch, kind,
                                         content, error, message):
        path = tmp_path / "input.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        handles = []

        def tracking_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(mro_audit.io, "open", tracking_open, raising=False)
        with pytest.raises(AuditError) as err:
            LOADERS[kind](path)
        assert type(err.value) is error
        assert str(err.value).startswith(message.format(path=path))
        # err keeps the traceback, and with it every frame, alive.
        assert len(handles) == 1 and handles[0].closed


@pytest.mark.usefixtures("chunks_of_two")
class TestReadBeforeCheckInChunksOfTwo(TestReadBeforeCheck):
    """The same, with returns loaded two records at a time."""
