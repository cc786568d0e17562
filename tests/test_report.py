import csv
import json
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mro_audit.cli import cli
from mro_audit.core import (
    MAX_BALLOT_BOUND,
    AuditRecord,
    ContestSetup,
    PrecinctReturns,
    compute_totals,
    pool_audit_records,
    pool_contest,
    prepare_contest,
)
from mro_audit.discrepancy import analyze_precinct, precinct_bound
from mro_audit.errors import AuditError, ValidationError
from mro_audit.io import load_contest
from mro_audit.oracle import gen_instance
from test_cli import AWKWARD_CANDIDATES, AWKWARD_ROWS
from mro_audit.report import (
    SCHEMA,
    build_document,
    document_json,
    file_digest,
    fraction_str,
    percent,
    report_json,
    verify_document,
)
from mro_audit.risk import (
    IDENTITY,
    TAINT,
    SamplingDesign,
    TestConfig,
    run_contest_test,
    run_test,
)


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

    def test_verify_peak_memory_near_no_copy_of_the_rows(self):
        # The rows are matched one at a time as they are rebuilt, so verify
        # never holds a second copy of them beside the loaded document.
        setup, returns, audits = gen_instance(4000, 5, seed=3)
        contest = prepare_contest(setup, returns)
        config = TestConfig(IDENTITY, SamplingDesign("with_replacement", 200))
        report, bounds, discrepancies = run_contest_test(
            contest, audits[::20], config)
        text = document_json(build_document(
            setup, returns, contest.totals, bounds, discrepancies, report,
            tool_version="0.1.0", input_digests={"returns": "0" * 64}))
        del setup, returns, audits, contest, bounds, discrepancies
        tracemalloc.start()
        try:
            document = json.loads(text)
            loaded, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert verify_document(document) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - loaded <= 0.5 * loaded


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


@pytest.fixture()
def docs_report(docs_returns_path, docs_audits_path):
    """The docs example's report document, as the CLI writes it."""
    result = CliRunner().invoke(cli, [
        "report", str(docs_returns_path), str(docs_audits_path),
        "--config", str(docs_returns_path.parent / "audit.cfg"),
    ], catch_exceptions=False)
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert verify_document(document) is True
    return document


def row_of(document, precinct_id):
    return next(row for row in document["precincts"]
                if row["precinct_id"] == precinct_id)


class TestMalformedDocument:
    """A malformed document ends in a domain error that locates the fault."""

    def test_unknown_pair_candidate(self, docs_report):
        docs_report["pairwise_margins"][0]["loser"] = "Zed"
        with pytest.raises(ValidationError, match=r"pairwise_margins\[0\]: "
                           r"stored loser Zed != recomputed Beta"):
            verify_document(docs_report)

    def test_missing_sample_size(self, docs_report):
        del docs_report["risk"]["sample_size"]
        with pytest.raises(ValidationError,
                           match="risk has no field 'sample_size'"):
            verify_document(docs_report)

    def test_missing_totals(self, docs_report):
        del docs_report["totals"]
        with pytest.raises(ValidationError,
                           match="document has no field 'totals'"):
            verify_document(docs_report)

    def test_malformed_mro(self, docs_report):
        row_of(docs_report, "P-104")["mro"] = "x/y"
        with pytest.raises(ValidationError,
                           match="precinct P-104: mro 'x/y' is not an"):
            verify_document(docs_report)

    @pytest.mark.parametrize("flag", ["yes", 1, None])
    def test_sampled_not_a_boolean(self, docs_report, flag):
        row_of(docs_report, "P-101")["sampled"] = flag
        with pytest.raises(ValidationError,
                           match="precinct P-101: sampled is .*, not true"):
            verify_document(docs_report)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(winners=d["losers"], losers=d["winners"]),
         r"document: stored winners \["),
        (lambda d: d.update(winners=[]), r"document: stored winners \[\]"),
        (lambda d: d.update(losers=[]), r"document: stored losers \[\]"),
        (lambda d: d["pairwise_margins"].pop(),
         r"document: stored pairwise_margins \["),
        (lambda d: d["precincts"][1].update(precinct_id="P-101"),
         r"duplicate precinct id 'P-101'"),
        (lambda d: d["contest"].update(precinct_count=5),
         r"precinct_count is 5, got 4 precincts"),
        (lambda d: row_of(d, "P-101").update(mro="1/45"),
         r"precinct P-101: mro is '1/45', not null"),
        (lambda d: d["risk"].update(effective_n=3),
         r"risk: stored effective_n 3 != recomputed 2"),
        (lambda d: d["risk"].update(p_value_percent="9.99%"),
         r"risk: stored p_value_percent 9.99% != recomputed"),
        (lambda d: d["risk"].update(observed_statistic_float=0.5),
         r"risk: stored observed_statistic_float 0.5 != recomputed"),
        (lambda d: d.update(schema="mro-audit/2"),
         r"document: stored schema mro-audit/2 != recomputed mro-audit/1"),
        (lambda d: d["risk"].update(taint_count="1"),
         r"risk: taint_count is '1', not an integer"),
        (lambda d: d["risk"]["sampling"].update(draws="2"),
         r"risk.sampling: draws is '2', not an integer"),
        (lambda d: d["contest"].update(votes_per_voter="1"),
         r"contest: votes_per_voter is '1', not an integer"),
        (lambda d: d["pairwise_margins"][0].update(winner=["x"]),
         r"pairwise_margins\[0\]: winner is \['x'\], not a string"),
        (lambda d: d["risk"].update(note="n/a"),
         r"risk has unexpected field 'note'"),
        (lambda d: d.update(note="n/a"),
         r"^document has unexpected field 'note'$"),
        (lambda d: d["contest"].update(note="n/a"),
         r"^contest has unexpected field 'note'$"),
        (lambda d: d["contest"]["pooled"].update(note="n/a"),
         r"^contest.pooled has unexpected field 'note'$"),
        (lambda d: d["inputs"]["returns"].update(note="n/a"),
         r"^inputs.returns has unexpected field 'note'$"),
        (lambda d: row_of(d, "P-101").update(note="n/a"),
         r"^precinct P-101 has unexpected field 'note'$"),
        (lambda d: d["contest"]["pooled"].update(pooled_id="Zed"),
         r"^contest.pooled: pooled_id 'Zed' is not a candidate$"),
        (lambda d: d["contest"]["pooled"].update(members=["Alpha"]),
         r"^contest.pooled: member 'Alpha' is still a candidate$"),
        (lambda d: d["contest"]["pooled"].update(members=[]),
         r"^contest.pooled: members is empty$"),
        (lambda d: d["risk"].update(weight="bogus"),
         r"^unknown weight function 'bogus'$"),
        (lambda d: d["risk"]["sampling"].update(method="bogus"),
         r"^unknown sampling method 'bogus'$"),
        (lambda d: d["risk"].update(margin_threshold="0/1"),
         r"^margin threshold must be positive$"),
        (lambda d: d["risk"]["sampling"].update(draws=0),
         r"^sampling design needs at least one draw$"),
        (lambda d: row_of(d, "P-101").update(bound="16/5"),
         r"^precinct P-101: stored bound 16/5 != recomputed 16/3$"),
        (lambda d: d.update(tool_version=1),
         r"^document: tool_version is 1, not a string$"),
        (lambda d: d["inputs"]["returns"].update(sha256=1),
         r"^inputs.returns: sha256 is 1, not a string$"),
        (lambda d: d["contest"]["pooled"].update(members=["Gamma", "Gamma"]),
         r"^contest.pooled: member 'Gamma' is listed twice$"),
    ], ids=["swapped-partition", "no-winners", "no-losers", "dropped-pair",
            "duplicate-id", "precinct-count", "unsampled-mro", "effective-n",
            "p-value-percent", "statistic-float", "schema",
            "taint-count-type", "draws-type", "votes-per-voter-type",
            "pair-winner-type", "extra-risk-field", "extra-document-field",
            "extra-contest-field", "extra-pooled-field", "extra-input-field",
            "extra-row-field", "pooled-id-not-a-candidate",
            "member-still-a-candidate", "no-members", "unknown-weight",
            "unknown-method", "zero-margin-threshold", "no-draws",
            "row-bound", "tool-version-type", "digest-type",
            "repeated-member"])
    def test_tampering_named(self, docs_report, edit, message):
        edit(docs_report)
        with pytest.raises(AuditError, match=message):
            verify_document(docs_report)


# Names that need escaping: quotes, backslashes, control characters, the
# JSON-legal line separator, accented and non-BMP letters, and "%", which a
# row template must not read as a slot.
AWKWARD = '"\\\x00\x01\x1f\t\n\r\u2028\u00e9\U0001f5f3%'
any_names = st.text(
    st.sampled_from(AWKWARD) | st.characters(), min_size=1, max_size=6,
)
# What a UTF-8 CSV cell can carry to the CLI: no lone surrogate, no NUL
# (which the csv module rejects before Python 3.11), and nothing that the
# loader's stripping would change.
csv_names = st.text(
    st.sampled_from(AWKWARD.replace("\x00", ""))
    | st.characters(codec="utf-8", exclude_characters="\x00"),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip())


@st.composite
def contests(draw, names):
    """A vote-for-1 contest whose first candidate leads every other.

    Counts reach 10**18, and each row's vote map has its own key order.
    """
    candidates = draw(st.lists(names, min_size=2, max_size=4, unique=True))
    ids = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    returns = []
    for index, precinct_id in enumerate(ids):
        others = [draw(st.integers(0, 10**17)) for _ in candidates[1:]]
        # The first row gives the leader a strict lead over each rival.
        leader = max(others) + draw(st.integers(int(index == 0), 10**17))
        used = leader + sum(others)
        bound = used + draw(st.integers(0, MAX_BALLOT_BOUND - used))
        counts = dict(zip(candidates, [leader, *others]))
        order = draw(st.permutations(candidates))
        returns.append(PrecinctReturns(precinct_id, draw(names), bound,
                                       {c: counts[c] for c in order}))
    return ContestSetup(tuple(candidates), 1, len(returns)), returns


@st.composite
def documents(draw):
    """A report document, as :func:`build_document` builds it, over a
    :func:`contests` contest with at least one audited precinct."""
    setup, returns = draw(contests(any_names))
    flags = draw(st.lists(st.booleans(), min_size=len(returns),
                          max_size=len(returns)))
    flags[draw(st.integers(0, len(returns) - 1))] = True
    audits = []
    for ret, sampled in zip(returns, flags):
        if sampled:
            hand = {c: draw(st.integers(0, ret.ballot_bound
                                        // len(setup.candidates)))
                    for c in draw(st.permutations(setup.candidates))}
            audits.append(AuditRecord(ret.precinct_id, hand))
    config = TestConfig(IDENTITY, SamplingDesign(
        "with_replacement", draw(st.integers(1, 50))))
    contest = prepare_contest(setup, returns)
    report, bounds, discrepancies = run_contest_test(contest, audits, config)
    # A pool as the loader records it: members, each named once, that are
    # no longer candidates, merged into a pooled id that is one.
    pooled = draw(st.none() | st.fixed_dictionaries({
        "members": st.lists(
            any_names.filter(lambda name: name not in setup.candidates),
            min_size=1, max_size=3, unique=True),
        "pooled_id": st.sampled_from(setup.candidates),
    }))
    return build_document(
        setup, returns, contest.totals, bounds, discrepancies, report,
        tool_version=draw(any_names),
        input_digests={"returns": draw(any_names)},
        pooled=pooled,
    )


class TestRenderingReference:
    """The row templates give exactly the bytes of ``json.dumps(indent=2)``."""

    @settings(max_examples=150, deadline=None)
    @given(document=documents())
    def test_document_json(self, document):
        assert document_json(document) == json.dumps(document, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(contest=contests(csv_names))
    def test_bounds_stdout(self, contest):
        setup, returns = contest
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "returns.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["precinct_id", "county_id", "ballot_bound",
                                 *setup.candidates])
                writer.writerows(
                    [r.precinct_id, r.county_id, r.ballot_bound,
                     *(r.machine_votes[c] for c in setup.candidates)]
                    for r in returns
                )
            result = CliRunner().invoke(cli, ["bounds", str(path)],
                                        catch_exceptions=False)
            loaded = load_contest(path).returns
        assert result.exit_code == 0
        margins = compute_totals(setup, returns).pairwise_margins
        rows = []
        for ret in loaded:
            bound = precinct_bound(ret, margins)
            rows.append({
                "precinct_id": ret.precinct_id,
                "county_id": ret.county_id,
                "bound": fraction_str(bound),
                "bound_float": float(bound),
            })
        payload = {
            "schema": SCHEMA,
            "precincts": rows,
            "max_bound_float": max((row["bound_float"] for row in rows),
                                   default=0.0),
        }
        assert result.output == json.dumps(payload, indent=2) + "\n"


# The awkward contest's names and ids, each also with a "%" (which a row
# template must not read as a slot), and short names of awkward characters.
awkward_cells = [*AWKWARD_CANDIDATES, *(row[0] for row in AWKWARD_ROWS),
                 *(row[1] for row in AWKWARD_ROWS)]
cell_names = (st.sampled_from(awkward_cells + [f"{cell}%" for cell in awkward_cells])
              | st.text(st.sampled_from(AWKWARD), min_size=1, max_size=3))


@st.composite
def column_reports(draw):
    """What ``run_contest_test`` returns for a vote-for-1 or vote-for-3
    contest, pooled or not, under either weight, with the first and the
    last precinct sampled; and the pool as the CLI records it."""
    votes_per_voter = draw(st.sampled_from([1, 3]))
    names = draw(st.lists(cell_names, unique=True,
                          min_size=votes_per_voter + 3,
                          max_size=votes_per_voter + 5))
    pooled_id, *candidates = names[:-1]
    ids = draw(st.lists(cell_names, min_size=1, max_size=6, unique=True))
    winners, losers = (candidates[:votes_per_voter],
                       candidates[votes_per_voter:])
    returns, audits = [], []
    flags = draw(st.lists(st.booleans(), min_size=len(ids),
                          max_size=len(ids)))
    flags[0] = flags[-1] = True
    for index, (precinct_id, sampled) in enumerate(zip(ids, flags)):
        counts = {c: draw(st.integers(0, 40)) for c in losers}
        # Each winner holds at least every loser's votes together, and more
        # in the first precinct, so that any pool of losers trails them.
        least = sum(counts.values()) + (index == 0)
        counts |= {c: draw(st.integers(least, least + 40)) for c in winners}
        bound = (max(counts.values()) + sum(counts[c] for c in losers)
                 + draw(st.integers(1, 20)))
        order = draw(st.permutations(candidates))
        returns.append(PrecinctReturns(precinct_id, draw(cell_names), bound,
                                       {c: counts[c] for c in order}))
        if sampled:
            audits.append(AuditRecord(precinct_id, {
                c: draw(st.integers(0, bound // len(candidates)))
                for c in candidates}))
    setup = ContestSetup(tuple(candidates), votes_per_voter, len(ids))
    contest = prepare_contest(setup, returns)
    pooled = None
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(losers), min_size=1,
                                unique=True))
        contest = pool_contest(contest, members, pooled_id)
        audits = pool_audit_records(audits, members, pooled_id)
        pooled = {"members": members, "pooled_id": pooled_id}
    config = TestConfig(draw(st.sampled_from([IDENTITY, TAINT])),
                        SamplingDesign("with_replacement",
                                       draw(st.integers(1, 50))))
    return (contest, *run_contest_test(contest, audits, config), pooled,
            names[-1])


class TestColumnRenderer:
    """``report_json`` writes, from the columns, the bytes that the library
    writes from the rows."""

    @settings(max_examples=150, deadline=None)
    @given(case=column_reports())
    def test_equals_document_json(self, case):
        contest, report, bounds, discrepancies, pooled, version = case
        options = {"tool_version": version,
                   "input_digests": {"returns": "0" * 64, "audits": version},
                   "pooled": pooled}
        text = report_json(contest, bounds, discrepancies, report, **options)
        assert text == document_json(build_document(
            contest.setup, contest.returns, contest.totals, bounds,
            discrepancies, report, **options))


def leaves(value, path=()):
    """``(path, value)`` for each scalar in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, path + (index,))
    else:
        yield path, value


def replaced(document, path, value):
    """A copy of the document with the leaf at ``path`` set to ``value``."""
    copy = json.loads(json.dumps(document))
    part = copy
    for key in path[:-1]:
        part = part[key]
    part[path[-1]] = value
    return copy


def is_output(path):
    """Whether the leaf at ``path`` is rebuilt, not read or carried."""
    head = path[0]
    if head == "precincts":
        return path[-1] == "bound"
    if head == "risk":
        return path[1] not in ("weight", "sampling", "margin_threshold")
    return head in ("schema", "totals", "winners", "losers",
                    "pairwise_margins")


JSON_VALUES = {
    str: st.text(max_size=4), int: st.integers(), bool: st.booleans(),
    float: st.floats(allow_nan=False), type(None): st.none(),
    list: st.just([]), dict: st.just({}),
}


class TestMutatedDocument:
    """A built document verifies, and any one changed leaf of it ends in a
    domain error."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), document=documents())
    def test_one_changed_leaf(self, data, document):
        assert verify_document(document) is True
        assert verify_document(json.loads(document_json(document))) is True

        path, value = data.draw(st.sampled_from(list(leaves(document))))
        kinds = [kind for kind in JSON_VALUES if kind is not type(value)]
        # Python finds 1, 1.0 and True equal; JSON types do not.
        lookalikes = [cast(value) for cast in (int, float, bool)
                      if isinstance(value, (int, float))
                      and cast is not type(value)]
        other = data.draw(st.one_of(
            st.sampled_from(kinds).flatmap(JSON_VALUES.get),
            *map(st.just, lookalikes),
        ))
        with pytest.raises(AuditError):
            verify_document(replaced(document, path, other))

        outputs = [leaf for leaf in leaves(document) if is_output(leaf[0])]
        path, value = data.draw(st.sampled_from(outputs))
        if isinstance(value, bool):
            other = not value
        else:
            other = data.draw(JSON_VALUES[type(value)].filter(
                lambda v: v != value))
        with pytest.raises(ValidationError):
            verify_document(replaced(document, path, other))
