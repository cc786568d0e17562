import random
from fractions import Fraction

import pytest

from mro_audit.core import actual_margins, compute_totals
from mro_audit.discrepancy import analyze_precinct, mro_sum
from mro_audit.errors import InfeasibleSpec
from mro_audit.oracle import (
    brute_mro,
    brute_taint_count,
    gen_instance,
    random_audits,
)
from mro_audit.risk import IDENTITY, taint_count


class TestBruteMro:
    def test_agrees_with_fast_path_on_random_precincts(self):
        rng = random.Random(31)
        for trial in range(200):
            setup, returns, _ = gen_instance(
                1, rng.randint(2, 6), seed=5000 + trial
            )
            audits = random_audits(setup, returns, seed=6000 + trial)
            margins = compute_totals(setup, returns).pairwise_margins
            disc = analyze_precinct(returns[0], audits[0], margins)
            assert brute_mro(returns[0], audits[0], margins) == disc.max_overstatement

    def test_single_pair(self):
        setup, returns, audits = gen_instance(1, 2, seed=1)
        margins = compute_totals(setup, returns).pairwise_margins
        ((pair, margin),) = margins.items()
        w, l = pair
        hand = dict(audits[0].hand_votes)
        hand[l] += 1  # a one-vote shift the bound always allows
        from mro_audit.core import AuditRecord

        shifted = AuditRecord(audits[0].precinct_id, hand)
        assert brute_mro(returns[0], shifted, margins) == Fraction(1, margin)

    def test_zero_deltas_scores_zero(self):
        setup, returns, audits = gen_instance(1, 4, seed=2)
        margins = compute_totals(setup, returns).pairwise_margins
        assert brute_mro(returns[0], audits[0], margins) == 0


class TestBruteTaintCount:
    def test_zero_target_needs_nothing(self):
        assert brute_taint_count([Fraction(1, 2)] * 4, Fraction(0), 0) == 0

    def test_caps_can_carry_the_whole_target(self):
        # 5 precincts capped at 1/4 reach 5/4 >= 1 with no tainted precinct.
        assert brute_taint_count([Fraction(1, 2)] * 5, Fraction(1, 4), 1) == 0

    def test_cap_never_exceeds_the_bound(self):
        # A precinct whose bound is below the threshold holds only its
        # bound: 5 * 1/9 < 1 whatever is tainted, so no subset works.
        assert brute_taint_count([Fraction(1, 9)] * 5, Fraction(1, 4), 1) == 6

    def test_sentinel_when_unreachable(self):
        assert brute_taint_count([Fraction(1, 10)] * 3, Fraction(0), 1) == 4

    def test_agrees_with_greedy_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(300):
            n = rng.randint(1, 12)
            bounds = [Fraction(rng.randint(0, 50), 100) for _ in range(n)]
            threshold = Fraction(rng.randint(0, 25), 100)
            target = Fraction(rng.randint(1, 250), 100)
            assert brute_taint_count(bounds, threshold, target) == taint_count(
                bounds, threshold, IDENTITY, target
            )

    def test_refuses_huge_instances(self):
        with pytest.raises(ValueError):
            brute_taint_count([Fraction(1)] * 21, 0, 1)


class TestGenInstance:
    def test_same_seed_identical(self):
        first = gen_instance(12, 4, reversal=True, seed=99)
        second = gen_instance(12, 4, reversal=True, seed=99)
        assert first == second

    def test_different_seeds_differ(self):
        a = gen_instance(12, 4, seed=1)
        b = gen_instance(12, 4, seed=2)
        assert a != b

    def test_clean_instance_has_matching_hand_counts(self):
        setup, returns, audits = gen_instance(9, 3, seed=8)
        by_id = {a.precinct_id: a for a in audits}
        for ret in returns:
            assert dict(by_id[ret.precinct_id].hand_votes) == dict(ret.machine_votes)

    def test_apparent_outcome_is_always_strict(self):
        for seed in range(20):
            setup, returns, _ = gen_instance(6, 5, votes_per_voter=2, seed=seed)
            totals = compute_totals(setup, returns)
            assert len(totals.winners) == 2

    def test_reversal_flips_the_actual_outcome(self):
        for seed in range(20):
            setup, returns, audits = gen_instance(7, 3, reversal=True, seed=seed)
            actual = actual_margins(setup, returns, audits)
            assert actual.outcome_confirmed is False

    def test_reversal_forces_mro_sum_to_one(self):
        for seed in range(20):
            setup, returns, audits = gen_instance(5, 4, reversal=True, seed=seed)
            margins = compute_totals(setup, returns).pairwise_margins
            by_id = {a.precinct_id: a for a in audits}
            discs = [
                analyze_precinct(r, by_id[r.precinct_id], margins) for r in returns
            ]
            assert mro_sum(discs) >= 1

    @pytest.mark.parametrize(
        "n_precincts,n_candidates,seats",
        [(0, 3, 1), (3, 1, 1), (3, 3, 0), (3, 3, 3)],
    )
    def test_infeasible_shapes_rejected(self, n_precincts, n_candidates, seats):
        with pytest.raises(InfeasibleSpec):
            gen_instance(n_precincts, n_candidates, seats, seed=1)


class TestRandomAudits:
    def test_audits_respect_ballot_bounds(self):
        rng = random.Random(41)
        for trial in range(50):
            setup, returns, _ = gen_instance(
                rng.randint(1, 10), rng.randint(2, 6), seed=7000 + trial
            )
            audits = random_audits(setup, returns, seed=8000 + trial)
            by_id = {a.precinct_id: a for a in audits}
            for ret in returns:
                hand = by_id[ret.precinct_id].hand_votes
                assert all(0 <= v <= ret.ballot_bound for v in hand.values())
                assert sum(hand.values()) <= (
                    setup.votes_per_voter * ret.ballot_bound
                )

    def test_oracle_shares_no_state_with_fast_path(self):
        # Same instance evaluated twice must not depend on evaluation order.
        setup, returns, _ = gen_instance(4, 3, seed=77)
        audits = random_audits(setup, returns, seed=78)
        margins = compute_totals(setup, returns).pairwise_margins
        slow = [brute_mro(r, a, margins) for r, a in zip(returns, audits)]
        fast = [
            analyze_precinct(r, a, margins).max_overstatement
            for r, a in zip(returns, audits)
        ]
        assert slow == fast
