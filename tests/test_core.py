import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minnesota
from mro_audit import __version__
from mro_audit.core import (
    MAX_BALLOT_BOUND,
    AuditRecord,
    ContestSetup,
    PrecinctReturns,
    actual_margins,
    compute_totals,
    pool_audit_records,
    pool_candidates,
    pool_contest,
    prepare_contest,
)
from mro_audit.errors import (
    AmbiguousOutcome,
    AuditError,
    CandidateMismatch,
    IncompleteTally,
    PoolContainsWinner,
    UnknownPrecinct,
    ValidationError,
)
from mro_audit.io import load_audits, load_contest, load_returns
from mro_audit.oracle import gen_instance
from mro_audit.report import build_document, file_digest, verify_document
from mro_audit.risk import (
    IDENTITY,
    SamplingDesign,
    TestConfig,
    run_contest_test,
)


def two_candidate_contest(votes_a, votes_b, bound=None):
    setup = ContestSetup(candidates=("A", "B"), votes_per_voter=1, precinct_count=1)
    if bound is None:
        bound = votes_a + votes_b
    returns = [
        PrecinctReturns("p1", "c1", bound, {"A": votes_a, "B": votes_b})
    ]
    return setup, returns


class TestBallotBound:
    @pytest.mark.parametrize("bound", [None, True, 10.5])
    def test_non_integer_bound_rejected(self, bound):
        setup = ContestSetup(("A", "B"), votes_per_voter=1, precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", bound, {"A": 3, "B": 1})]
        with pytest.raises(ValidationError,
                           match=r"^precinct p1: ballot bound .* is not an integer$"):
            prepare_contest(setup, returns)

    def test_bound_above_cap_rejected(self):
        setup, returns = two_candidate_contest(3, 1, bound=MAX_BALLOT_BOUND)
        assert prepare_contest(setup, returns).totals.winners == ("A",)
        setup, returns = two_candidate_contest(3, 1, bound=MAX_BALLOT_BOUND + 1)
        with pytest.raises(ValidationError,
                           match=r"^precinct p1: ballot bound \d+ above 10\*\*18$"):
            prepare_contest(setup, returns)


@st.composite
def small_contests(draw):
    """A few precincts with bounds in [-2, 12] and counts in [-2, 14]."""
    votes_per_voter = draw(st.integers(1, 2))
    candidates = ("A", "B", "C")[:draw(st.integers(votes_per_voter + 1, 3))]
    returns = [
        PrecinctReturns(f"p{i}", "c1", draw(st.integers(-2, 12)),
                        {c: draw(st.integers(-2, 14)) for c in candidates})
        for i in range(draw(st.integers(1, 4)))
    ]
    setup = ContestSetup(candidates, votes_per_voter, len(returns))
    return setup, returns


def _error_text(call):
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


class TestOneCountCheck:
    """The returns loader and ``prepare_contest`` apply the same count rules."""

    @given(contest=small_contests())
    @settings(max_examples=300, deadline=None)
    def test_loader_and_prepare_contest_agree(self, tmp_path_factory, contest):
        setup, returns = contest
        path = Path(tmp_path_factory.getbasetemp()) / "count_rules.csv"
        path.write_text(
            f"precinct_id,county_id,ballot_bound,{','.join(setup.candidates)}\n"
            + "".join(
                f"{r.precinct_id},{r.county_id},{r.ballot_bound},"
                + ",".join(str(r.machine_votes[c]) for c in setup.candidates)
                + "\n"
                for r in returns
            ),
            encoding="utf-8",
        )
        loaded = _error_text(lambda: load_returns(path, setup.votes_per_voter))
        prepared = _error_text(lambda: prepare_contest(setup, returns))
        assert (loaded is None) == (prepared is None)
        if loaded is not None:
            where, problem = loaded.split(": ", 1)
            precinct, same_problem = prepared.split(": ", 1)
            assert problem == same_problem
            row = int(where.rpartition("row ")[2])
            assert precinct == f"precinct {returns[row - 2].precinct_id}"


class TestContestSetup:
    def test_rejects_single_candidate(self):
        with pytest.raises(ValidationError):
            ContestSetup(candidates=("A",), votes_per_voter=1, precinct_count=1)

    def test_rejects_empty_candidate(self):
        with pytest.raises(ValidationError, match="^candidate identifiers "
                                                  "must be nonempty$"):
            ContestSetup(candidates=("A", ""), votes_per_voter=1,
                         precinct_count=1)

    def test_rejects_duplicate_candidates(self):
        with pytest.raises(ValidationError):
            ContestSetup(candidates=("A", "A"), votes_per_voter=1, precinct_count=1)

    @pytest.mark.parametrize("seats", [0, 2, 5])
    def test_rejects_bad_votes_per_voter(self, seats):
        with pytest.raises(ValidationError):
            ContestSetup(candidates=("A", "B"), votes_per_voter=seats,
                         precinct_count=1)


class TestComputeTotals:
    def test_two_candidate_margin(self):
        setup, returns = two_candidate_contest(3, 1)
        totals = compute_totals(setup, returns)
        assert totals.winners == ("A",)
        assert totals.pairwise_margins[("A", "B")] == 2

    def test_tie_is_ambiguous(self):
        setup, returns = two_candidate_contest(5, 5)
        with pytest.raises(AmbiguousOutcome):
            compute_totals(setup, returns)

    def test_all_pairs_populated(self):
        setup = ContestSetup(("A", "B", "C", "D"), votes_per_voter=2,
                             precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", 100,
                                   {"A": 40, "B": 30, "C": 20, "D": 10})]
        totals = compute_totals(setup, returns)
        assert set(totals.winners) == {"A", "B"}
        assert set(totals.pairwise_margins) == {
            ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"),
        }
        assert all(m > 0 for m in totals.pairwise_margins.values())

    def test_count_over_bound_rejected(self):
        setup, returns = two_candidate_contest(3, 1, bound=2)
        with pytest.raises(ValidationError):
            compute_totals(setup, returns)

    def test_count_over_bound_of_a_non_string_candidate_rejected(self):
        setup = ContestSetup((1, 2), votes_per_voter=1, precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", 5, {1: 9, 2: 0})]
        with pytest.raises(ValidationError, match=r"^precinct p1: count 9 "
                                                  r"for 1 exceeds ballot "
                                                  r"bound 5$"):
            compute_totals(setup, returns)

    def test_votes_per_voter_cap_enforced(self):
        setup = ContestSetup(("A", "B", "C"), votes_per_voter=1, precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", 10, {"A": 8, "B": 7, "C": 0})]
        with pytest.raises(ValidationError):
            compute_totals(setup, returns)

    def test_missing_candidate_entry_rejected(self):
        setup = ContestSetup(("A", "B"), votes_per_voter=1, precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", 10, {"A": 3})]
        with pytest.raises(CandidateMismatch):
            compute_totals(setup, returns)

    def test_permutation_invariant(self):
        rng = random.Random(7)
        setup = ContestSetup(("A", "B", "C"), votes_per_voter=1, precinct_count=6)
        returns = [
            PrecinctReturns(f"p{i}", "c1", 60,
                            {"A": rng.randint(10, 20),
                             "B": rng.randint(0, 9),
                             "C": rng.randint(0, 9)})
            for i in range(6)
        ]
        forward = compute_totals(setup, returns)
        shuffled = list(returns)
        rng.shuffle(shuffled)
        backward = compute_totals(setup, shuffled)
        assert forward == backward


class TestMinnesotaTotals:
    def test_table_margins(self, minnesota_files):
        totals = compute_totals(minnesota_files["setup"], minnesota_files["returns"])
        assert totals.winners == ("Klobuchar",)
        assert totals.totals == minnesota.STATEWIDE_TOTALS
        for loser, margin in minnesota.TABLE_MARGINS.items():
            assert totals.pairwise_margins[("Klobuchar", loser)] == margin

    def test_pooled_margin(self, minnesota_files):
        setup, returns = pool_candidates(
            minnesota_files["setup"], minnesota_files["returns"],
            minnesota.POOL, "Pooled",
        )
        totals = compute_totals(setup, returns)
        assert totals.totals["Pooled"] == minnesota.POOLED_TOTAL
        assert totals.pairwise_margins[("Klobuchar", "Pooled")] == minnesota.POOLED_MARGIN
        assert len(setup.candidates) == 4


class TestPooling:
    def setup_method(self):
        self.setup = ContestSetup(("A", "B", "C", "D"), votes_per_voter=1,
                                  precinct_count=2)
        self.returns = [
            PrecinctReturns("p1", "c1", 100, {"A": 40, "B": 20, "C": 5, "D": 2}),
            PrecinctReturns("p2", "c1", 100, {"A": 35, "B": 25, "C": 4, "D": 1}),
        ]

    def test_identity_pooling(self):
        pooled_setup, pooled_returns = pool_candidates(
            self.setup, self.returns, {"D"}, "Rest"
        )
        before = compute_totals(self.setup, self.returns)
        after = compute_totals(pooled_setup, pooled_returns)
        assert after.totals["Rest"] == before.totals["D"]
        assert after.pairwise_margins[("A", "B")] == before.pairwise_margins[("A", "B")]

    def test_pool_sums_votes_and_shrinks_contest(self):
        pooled_setup, pooled_returns = pool_candidates(
            self.setup, self.returns, {"C", "D"}, "Rest"
        )
        assert pooled_setup.candidates == ("A", "B", "Rest")
        assert pooled_returns[0].machine_votes["Rest"] == 7
        assert pooled_returns[1].machine_votes["Rest"] == 5

    def test_preserves_total_votes_and_unpooled_margins(self):
        before = compute_totals(self.setup, self.returns)
        pooled_setup, pooled_returns = pool_candidates(
            self.setup, self.returns, {"C", "D"}, "Rest"
        )
        after = compute_totals(pooled_setup, pooled_returns)
        assert sum(after.totals.values()) == sum(before.totals.values())
        assert after.pairwise_margins[("A", "B")] == before.pairwise_margins[("A", "B")]

    def test_pool_containing_winner_rejected(self):
        with pytest.raises(PoolContainsWinner):
            pool_candidates(self.setup, self.returns, {"A", "D"}, "Rest")

    @pytest.mark.parametrize("c_votes", [55, 15])
    def test_pool_that_would_win_or_tie_rejected(self, c_votes):
        # A=80, B=65: pooled B+C reaches 120 (outwins A) or 80 (ties A).
        setup = ContestSetup(("A", "B", "C"), votes_per_voter=1,
                             precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", 300,
                                   {"A": 80, "B": 65, "C": c_votes})]
        with pytest.raises(PoolContainsWinner, match="does not trail"):
            pool_candidates(setup, returns, {"B", "C"}, "Minor")

    def test_pooled_id_collision_rejected(self):
        with pytest.raises(ValidationError):
            pool_candidates(self.setup, self.returns, {"D"}, "B")

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            pool_candidates(self.setup, self.returns, set(), "Rest")

    def test_audit_records_pool_the_same_way(self):
        audits = [AuditRecord("p1", {"A": 40, "B": 20, "C": 5, "D": 2})]
        pooled = pool_audit_records(audits, {"C", "D"}, "Rest")
        assert pooled[0].hand_votes == {"A": 40, "B": 20, "Rest": 7}

    def test_audit_pooling_requires_pool_members(self):
        audits = [AuditRecord("p1", {"A": 40, "B": 20})]
        with pytest.raises(CandidateMismatch):
            pool_audit_records(audits, {"C"}, "Rest")

    def test_audit_pooling_rejects_a_negative_pool_member(self):
        # Summed, C = -1 and D = 16 would read as a plausible Rest = 15.
        audits = [AuditRecord("p1", {"A": 40, "B": 20, "C": -1, "D": 16})]
        with pytest.raises(ValidationError) as err:
            pool_audit_records(audits, {"C", "D"}, "Rest")
        assert str(err.value) == "audit of precinct p1: negative count -1 for 'C'"

    @pytest.mark.parametrize("count", ["3", 3.0, True, None])
    def test_audit_pooling_rejects_a_pool_member_that_is_not_an_int(self,
                                                                   count):
        audits = [AuditRecord("p1", {"A": 5, "C": count, "D": 1})]
        with pytest.raises(ValidationError) as err:
            pool_audit_records(audits, {"C", "D"}, "M")
        assert str(err.value) == (
            "audit of precinct p1: count for 'C' is not an integer"
        )

    def test_audit_pooling_leaves_kept_counts_to_the_join(self):
        audits = [AuditRecord("p1", {"A": 40, "B": -1, "C": 5, "D": 2})]
        pooled = pool_audit_records(audits, {"C", "D"}, "Rest")
        assert pooled[0].hand_votes == {"A": 40, "B": -1, "Rest": 7}


class TestActualMargins:
    def test_zero_error_tally_confirms(self):
        setup, returns = two_candidate_contest(5, 2)
        audits = [AuditRecord("p1", {"A": 5, "B": 2})]
        actual = actual_margins(setup, returns, audits)
        assert actual.outcome_confirmed is True
        assert actual.pairwise_margins[("A", "B")] == 3

    def test_full_reversal_detected(self):
        setup, returns = two_candidate_contest(5, 0)
        audits = [AuditRecord("p1", {"A": 0, "B": 5})]
        actual = actual_margins(setup, returns, audits)
        assert actual.outcome_confirmed is False

    def test_incomplete_tally_rejected(self):
        setup = ContestSetup(("A", "B"), votes_per_voter=1, precinct_count=2)
        returns = [
            PrecinctReturns("p1", "c1", 10, {"A": 6, "B": 1}),
            PrecinctReturns("p2", "c1", 10, {"A": 4, "B": 2}),
        ]
        with pytest.raises(IncompleteTally):
            actual_margins(setup, returns, [AuditRecord("p1", {"A": 6, "B": 1})])

    def test_unknown_precinct_rejected(self):
        setup, returns = two_candidate_contest(5, 2)
        audits = [
            AuditRecord("p1", {"A": 5, "B": 2}),
            AuditRecord("zz", {"A": 1, "B": 1}),
        ]
        with pytest.raises(UnknownPrecinct):
            actual_margins(setup, returns, audits)

    def test_matches_resummation_oracle(self):
        # Independent oracle: re-sum the hand counts per candidate directly.
        rng = random.Random(99)
        setup = ContestSetup(("A", "B", "C"), votes_per_voter=1, precinct_count=6)
        returns, audits = [], []
        for i in range(6):
            votes = {"A": rng.randint(5, 30), "B": rng.randint(0, 20),
                     "C": rng.randint(0, 10)}
            bound = sum(votes.values()) + rng.randint(0, 4)
            hand = dict(votes)
            mover = rng.choice(["A", "B", "C"])
            if hand[mover] > 0:
                hand[mover] -= 1
            returns.append(PrecinctReturns(f"p{i}", "c1", bound, votes))
            audits.append(AuditRecord(f"p{i}", hand))
        expected = {
            c: sum(a.hand_votes[c] for a in audits) for c in ("A", "B", "C")
        }
        # Guard against an accidental tie making the apparent outcome invalid.
        machine = {c: sum(r.machine_votes[c] for r in returns) for c in ("A", "B", "C")}
        assert machine["A"] > max(machine["B"], machine["C"])
        actual = actual_margins(setup, returns, audits)
        assert actual.totals == expected


class TestVoteArithmeticProperties:
    @given(st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 10)),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=100)
    def test_total_votes_bounded_by_ballots(self, precincts):
        setup = ContestSetup(("A", "B"), votes_per_voter=1,
                             precinct_count=len(precincts))
        returns = []
        for i, (a, b, slack) in enumerate(precincts):
            bound = a + b + slack
            returns.append(PrecinctReturns(f"p{i}", "c1", bound, {"A": a, "B": b}))
        try:
            totals = compute_totals(setup, returns)
        except AmbiguousOutcome:
            return
        assert sum(totals.totals.values()) <= sum(r.ballot_bound for r in returns)


def _write_returns(path, setup, returns):
    candidates = setup.candidates
    lines = [f"precinct_id,county_id,ballot_bound,{','.join(candidates)}\n"]
    lines += [
        f"{r.precinct_id},{r.county_id},{r.ballot_bound},"
        + ",".join(str(r.machine_votes[c]) for c in candidates) + "\n"
        for r in returns
    ]
    path.write_text("".join(lines), encoding="utf-8")


def _tightest_bounds(returns, votes_per_voter):
    """The smallest legal ballot bounds, so that a pooled count can exceed one."""
    return [r._replace(ballot_bound=max(
        max(r.machine_votes.values()),
        -(-sum(r.machine_votes.values()) // votes_per_voter),
    )) for r in returns]


@st.composite
def pooling_requests(draw):
    """A synthetic contest, maybe tied or with tight bounds, and a pool.

    The pool is mostly losers, sometimes with a winner or an unknown name
    added, and the pooled id sometimes collides with a candidate, so every
    pooling error is drawn as well as valid pools.
    """
    n_candidates = draw(st.integers(2, 6))
    votes_per_voter = draw(st.integers(1, n_candidates - 1))
    setup, returns, _ = gen_instance(
        draw(st.integers(1, 6)), n_candidates, votes_per_voter,
        seed=draw(st.integers(0, 2**30)),
    )
    candidates = setup.candidates
    if draw(st.integers(0, 3)) == 0:
        # Tie the weakest winner with the strongest loser.
        totals = compute_totals(setup, returns)
        weakest, strongest = totals.winners[-1], totals.losers[0]
        returns = [r._replace(machine_votes={
            **r.machine_votes, weakest: r.machine_votes[strongest]
        }) for r in returns]
    if draw(st.booleans()):
        returns = _tightest_bounds(returns, votes_per_voter)
    # gen_instance makes the first votes_per_voter candidates the winners.
    winners, losers = candidates[:votes_per_voter], candidates[votes_per_voter:]
    pool = draw(st.lists(st.sampled_from(losers), min_size=1, unique=True))
    if draw(st.integers(0, 3)) == 0:
        pool.append(draw(st.sampled_from(winners + ("Zed",))))
    pooled_id = draw(st.sampled_from(("Pooled",) * 5 + candidates[:1]))
    return setup, returns, pool, pooled_id


def _tight_vote_for_three():
    """Three pooled losers that together exceed p0000's ballot bound."""
    setup, returns, _ = gen_instance(4, 6, 3, seed=0)
    return setup, _tightest_bounds(returns, 3), ["C03", "C04", "C05"], "Pooled"


def _hand_built(rows, votes_per_voter=1):
    """A contest of one precinct per ``(ballot_bound, votes)`` row."""
    setup = ContestSetup(tuple(rows[0][1]), votes_per_voter, len(rows))
    return setup, [PrecinctReturns(f"p{i}", "c1", bound, votes)
                   for i, (bound, votes) in enumerate(rows)]


TIED = _hand_built([(30, {"A": 8, "B": 8, "C": 7})])
# The pool {C, D} holds 20 votes in p0, whose bound is 10, and its total,
# 20, does not trail B's 11.
OVER_BOUND = _hand_built([(10, {"A": 0, "B": 0, "C": 10, "D": 10}),
                          (11, {"A": 11, "B": 11, "C": 0, "D": 0})], 2)


def _outcome(call):
    try:
        return call()
    except AuditError as exc:
        return type(exc), str(exc)


class TestPreparedContest:
    """``pool_contest(load_contest(...))`` against the validating path."""

    @given(request=pooling_requests())
    @example(request=_tight_vote_for_three())
    @example(request=(*_tight_vote_for_three()[:2],
                      ["C00", "C03", "C04", "C05"], "Pooled"))
    @example(request=(*TIED, ["C"], "B"))
    @example(request=(*TIED, ["A", "C"], "Pooled"))
    @example(request=(*OVER_BOUND, ["C", "D"], "Pooled"))
    @settings(max_examples=150, deadline=None)
    def test_matches_validating_path(self, tmp_path_factory, request):
        setup, returns, pool, pooled_id = request
        path = tmp_path_factory.mktemp("contest") / "returns.csv"
        _write_returns(path, setup, returns)
        votes_per_voter = setup.votes_per_voter

        def prepared():
            contest = pool_contest(load_contest(path, votes_per_voter),
                                   pool, pooled_id)
            return contest.setup, contest.returns, contest.totals

        def validating():
            pooled = pool_candidates(*load_returns(path, votes_per_voter),
                                     pool, pooled_id)
            return (*pooled, compute_totals(*pooled))

        got, expected = _outcome(prepared), _outcome(validating)
        assert got == expected
        if isinstance(expected[0], ContestSetup):
            # Output bytes follow dict order, which == does not compare.
            _, got_returns, got_totals = got
            _, expected_returns, expected_totals = expected
            assert [list(r.machine_votes) for r in got_returns] == [
                list(r.machine_votes) for r in expected_returns
            ]
            assert list(got_totals.totals) == list(expected_totals.totals)
            assert list(got_totals.pairwise_margins) == list(
                expected_totals.pairwise_margins
            )

    def test_pool_arguments_checked_before_the_outcome(self):
        setup = ContestSetup(("A", "B", "C"), votes_per_voter=1,
                             precinct_count=1)
        returns = [PrecinctReturns("p1", "c1", 100, {"A": 40, "B": 40, "C": 10})]
        contest = prepare_contest(setup, returns)
        with pytest.raises(ValidationError,
                           match=r"pool members not in contest: \['Z'\]"):
            pool_contest(contest, ["Z"], "Rest")
        with pytest.raises(AmbiguousOutcome):
            pool_contest(contest, ["C"], "Rest")

    def test_empty_pool_is_rejected(self, docs_returns_path):
        with pytest.raises(ValidationError, match="candidate pool is empty"):
            pool_contest(load_contest(docs_returns_path), [], "Pooled")

    def test_does_not_share_the_callers_rows(self):
        setup, rows = _hand_built([(30, {"A": 10, "B": 8, "C": 7})])
        contest = prepare_contest(setup, rows)
        original = list(rows)
        rows.append(rows[0]._replace(precinct_id="p1"))
        assert len(contest.returns) == len(contest.precinct_ids) == 1
        assert contest.returns == original


class TestPoolRulesAgree:
    """The library's pool rules are the ones ``verify_document`` holds a
    report's ``contest.pooled`` to."""

    def test_member_named_twice(self, docs_returns_path):
        with pytest.raises(ValidationError, match=r"^pool names 'Gamma' twice$"):
            pool_contest(load_contest(docs_returns_path), ["Gamma", "Gamma"],
                         "Minor")
        with pytest.raises(ValidationError, match=r"^pool names 'Gamma' twice$"):
            pool_candidates(*load_returns(docs_returns_path),
                            ["Gamma", "Gamma"], "Minor")

    def test_library_pool_verifies(self, docs_returns_path, docs_audits_path):
        pooled = {"members": ["Gamma"], "pooled_id": "Minor"}
        contest = pool_contest(load_contest(docs_returns_path),
                               pooled["members"], "Minor")
        audits = pool_audit_records(load_audits(docs_audits_path),
                                    pooled["members"], "Minor")
        config = TestConfig(IDENTITY, SamplingDesign("with_replacement", 2))
        report, bounds, discrepancies = run_contest_test(contest, audits,
                                                         config)
        document = build_document(
            contest.setup, contest.returns, contest.totals, bounds,
            discrepancies, report, tool_version=__version__,
            input_digests={"returns": file_digest(docs_returns_path)},
            pooled=pooled)
        assert verify_document(document)


class TestRowTypes:
    @pytest.mark.parametrize("row, field", [
        (PrecinctReturns("p1", "c1", 10, {"A": 1}), "ballot_bound"),
        (PrecinctReturns("p1", "c1", 10, {"A": 1}), "machine_votes"),
        (AuditRecord("p1", {"A": 1}), "precinct_id"),
        (AuditRecord("p1", {"A": 1}), "hand_votes"),
    ])
    def test_fields_cannot_be_assigned(self, row, field):
        with pytest.raises(AttributeError):
            setattr(row, field, 0)
        with pytest.raises(AttributeError):
            row.extra = 0

    def test_rows_are_tuples(self):
        ret = PrecinctReturns("p1", "c1", 10, {"A": 1})
        assert ret == ("p1", "c1", 10, {"A": 1})
        assert ret._replace(ballot_bound=11).ballot_bound == 11
        assert ret.total_votes() == 1
