import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mro_audit.core import AuditRecord, PrecinctReturns, compute_totals
from mro_audit.discrepancy import analyze_precinct, mro_sum, precinct_bound
from mro_audit.errors import (
    CandidateMismatch,
    EmptyPairSet,
    UnknownPrecinct,
    ValidationError,
)
from mro_audit.oracle import gen_instance


def precinct(votes, bound, pid="p1"):
    return PrecinctReturns(pid, "c1", bound, votes)


def audit(votes, pid="p1"):
    return AuditRecord(pid, votes)


def mro(ret, aud, margins):
    return analyze_precinct(ret, aud, margins).max_overstatement


class TestPairwiseOverstatement:
    def test_hand_computed_value(self):
        # ((10 - 5) - (8 - 7)) / 100 = 4/100
        ret = precinct({"W": 10, "L": 5}, bound=20)
        aud = audit({"W": 8, "L": 7})
        assert mro(ret, aud, {("W", "L"): 100}) == Fraction(4, 100)

    def test_zero_error_precinct(self):
        ret = precinct({"W": 10, "L": 5}, bound=20)
        aud = audit({"W": 10, "L": 5})
        assert mro(ret, aud, {("W", "L"): 100}) == 0

    def test_understatement_when_hand_count_favors_winner(self):
        # Hand count finds the winner at the full ballot bound:
        # ((0 - 0) - (50 - 0)) / 100 = -1/2, an understatement.
        ret = precinct({"W": 0, "L": 0}, bound=50)
        aud = audit({"W": 50, "L": 0})
        assert mro(ret, aud, {("W", "L"): 100}) == Fraction(-1, 2)

    def test_overstatement_when_hand_count_favors_loser(self):
        # ((0 - 0) - (0 - 50)) / 100 = +1/2.
        ret = precinct({"W": 0, "L": 0}, bound=50)
        aud = audit({"W": 0, "L": 50})
        assert mro(ret, aud, {("W", "L"): 100}) == Fraction(1, 2)

    def test_precinct_id_mismatch_rejected(self):
        ret = precinct({"W": 1, "L": 0}, bound=2, pid="p1")
        aud = audit({"W": 1, "L": 0}, pid="p2")
        with pytest.raises(UnknownPrecinct):
            analyze_precinct(ret, aud, {("W", "L"): 100})

    def test_candidate_mismatch_rejected(self):
        ret = precinct({"W": 1, "L": 0}, bound=2)
        aud = audit({"W": 1, "X": 0})
        with pytest.raises(CandidateMismatch):
            analyze_precinct(ret, aud, {("W", "L"): 100})


class TestPrecinctMro:
    def test_max_of_two_values(self):
        # W-L1: ((10 - 5) - (8 - 7)) / 100 = 4/100;
        # W-L2: ((10 - 60) - (8 - 8)) / 100 = -1/2, an understatement.
        ret = precinct({"W": 10, "L1": 5, "L2": 60}, bound=70)
        aud = audit({"W": 8, "L1": 7, "L2": 8})
        margins = {("W", "L1"): 100, ("W", "L2"): 100}
        assert mro(ret, aud, margins) == Fraction(4, 100)

    def test_single_pair_passthrough(self):
        # ((7 - 1) - (2 - 2)) / 14 = 3/7
        ret = precinct({"W": 7, "L": 1}, bound=10)
        aud = audit({"W": 2, "L": 2})
        assert mro(ret, aud, {("W", "L"): 14}) == Fraction(3, 7)

    def test_empty_pair_set_rejected(self):
        ret = precinct({"W": 1, "L": 0}, bound=2)
        with pytest.raises(EmptyPairSet):
            analyze_precinct(ret, audit({"W": 1, "L": 0}), {})

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(5)
        for _ in range(50):
            winners = [f"W{i}" for i in range(3)]
            losers = [f"L{i}" for i in range(3)]
            votes = {c: rng.randint(0, 30) for c in winners + losers}
            hand = {c: rng.randint(0, 30) for c in winners + losers}
            margins = {(w, l): rng.randint(50, 500) for w in winners for l in losers}
            ret = precinct(votes, bound=200)
            aud = audit(hand)
            got = mro(ret, aud, margins)
            expected = max(
                Fraction((votes[w] - votes[l]) - (hand[w] - hand[l]), margins[(w, l)])
                for w in winners for l in losers
            )
            assert got == expected


class TestPrecinctBound:
    def test_hand_computed_value(self):
        # (10 - 5 + 20) / 100 = 25/100
        ret = precinct({"W": 10, "L": 5}, bound=20)
        assert precinct_bound(ret, {("W", "L"): 100}) == Fraction(25, 100)

    def test_empty_precinct_bound_is_zero(self):
        ret = precinct({"W": 0, "L": 0}, bound=0)
        assert precinct_bound(ret, {("W", "L"): 100}) == 0

    @pytest.mark.parametrize("margins, error", [
        ({}, EmptyPairSet),
        ({("W", "L"): 0}, ValidationError),
        ({("W", "L"): 100, ("W", "M"): -3}, ValidationError),
    ], ids=["no-pairs", "zero-margin", "negative-margin"])
    def test_bad_margins_rejected(self, margins, error):
        ret = precinct({"W": 1, "L": 0, "M": 0}, bound=5)
        with pytest.raises(error):
            precinct_bound(ret, margins)

    @given(
        st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
        st.integers(0, 40), st.integers(1, 1000), st.integers(0, 20),
    )
    @settings(max_examples=200)
    def test_overstatement_never_exceeds_bound(self, vw, vl, aw, al, margin, slack):
        bound = max(vw, vl, aw, al) + slack
        ret = precinct({"W": vw, "L": vl}, bound=bound)
        aud = audit({"W": aw, "L": al})
        margins = {("W", "L"): margin}
        assert mro(ret, aud, margins) <= precinct_bound(ret, margins)


class TestMroSum:
    def _discrepancies(self, setup, returns, audits):
        totals = compute_totals(setup, returns)
        by_id = {a.precinct_id: a for a in audits}
        return [
            analyze_precinct(ret, by_id[ret.precinct_id], totals.pairwise_margins)
            for ret in returns
        ]

    def test_error_free_audit_sums_to_zero(self):
        setup, returns, audits = gen_instance(8, 4, seed=3)
        discs = self._discrepancies(setup, returns, audits)
        assert mro_sum(discs) == 0

    def test_empty_input_sums_to_zero(self):
        assert mro_sum([]) == 0

    def test_reversed_outcome_forces_sum_to_one(self):
        rng = random.Random(13)
        for trial in range(25):
            setup, returns, audits = gen_instance(
                rng.randint(1, 8), rng.randint(2, 4),
                reversal=True, seed=3000 + trial,
            )
            discs = self._discrepancies(setup, returns, audits)
            assert mro_sum(discs) >= 1


class TestAlgebraicProperties:
    def test_two_candidate_reduction(self):
        # One pair: the MRO is exactly that pair's relative overstatement.
        ret = precinct({"W": 12, "L": 9}, bound=25)
        aud = audit({"W": 11, "L": 10})
        margins = {("W", "L"): 60}
        disc = analyze_precinct(ret, aud, margins)
        assert disc.max_overstatement == Fraction((12 - 9) - (11 - 10), 60)

    @given(st.integers(2, 9))
    @settings(max_examples=20)
    def test_scale_equivariance(self, factor):
        votes = {"W": 10, "L": 4}
        hand = {"W": 9, "L": 6}
        margins = {("W", "L"): 70}
        base = analyze_precinct(precinct(votes, 20), audit(hand), margins)
        scaled = analyze_precinct(
            precinct({c: v * factor for c, v in votes.items()}, 20 * factor),
            audit({c: v * factor for c, v in hand.items()}),
            {pair: m * factor for pair, m in margins.items()},
        )
        assert scaled.max_overstatement == base.max_overstatement
        assert scaled.bound == base.bound
