import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mro_audit.core import PrecinctReturns
from mro_audit.errors import EmptyCounty, InfeasibleConstraint, UnknownPrecinct
from mro_audit.sampling import (
    CountyPlan,
    conservative_effective_n,
    draw_sample,
    statutory_minimum,
)


def returns_for(county_id, votes_by_precinct):
    out = []
    for pid, votes in votes_by_precinct.items():
        out.append(
            PrecinctReturns(pid, county_id, votes + 10, {"A": votes, "B": 0})
        )
    return out


class TestStatutoryMinimum:
    @pytest.mark.parametrize(
        "voters,expected",
        [(0, 2), (49_999, 2), (50_000, 3), (75_000, 3),
         (100_000, 3), (100_001, 4), (2_000_000, 4)],
    )
    def test_brackets(self, voters, expected):
        assert statutory_minimum(voters) == expected

    @given(st.integers(0, 500_000), st.integers(0, 100_000))
    @settings(max_examples=200)
    def test_nondecreasing(self, voters, more):
        assert statutory_minimum(voters + more) >= statutory_minimum(voters)


class TestDrawSample:
    def test_same_seed_same_sample(self):
        votes = {f"p{i}": 100 + i * 30 for i in range(8)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 10_000, tuple(votes), 3)]
        assert draw_sample(plans, returns, "seed-a") == draw_sample(
            plans, returns, "seed-a"
        )

    def test_different_seed_can_differ(self):
        votes = {f"p{i}": 200 for i in range(30)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 10_000, tuple(votes), 3)]
        draws = {tuple(draw_sample(plans, returns, seed)) for seed in range(6)}
        assert len(draws) > 1

    def test_forced_sample_takes_both_precincts(self):
        returns = returns_for("c1", {"p1": 200, "p2": 20})
        plans = [CountyPlan("c1", 10_000, ("p1", "p2"), 2)]
        for seed in ("x", "y", 3):
            assert sorted(draw_sample(plans, returns, seed)) == ["p1", "p2"]

    def test_sample_size_and_distinctness(self):
        returns = []
        plans = []
        for c in range(5):
            votes = {f"c{c}-p{i}": 150 + i for i in range(9)}
            returns.extend(returns_for(f"c{c}", votes))
            plans.append(CountyPlan(f"c{c}", 60_000, tuple(votes), 3))
        sample = draw_sample(plans, returns, 42)
        assert len(sample) == 15
        assert len(set(sample)) == 15

    def test_large_precinct_rule_satisfied(self):
        # Only one precinct clears 150 votes; it must always be drawn.
        votes = {"small1": 10, "small2": 20, "big": 300, "small3": 30}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 10_000, tuple(votes), 2)]
        for seed in range(10):
            assert "big" in draw_sample(plans, returns, seed)

    def test_infeasible_when_no_large_precinct(self):
        returns = returns_for("c1", {"p1": 10, "p2": 20})
        plans = [CountyPlan("c1", 10_000, ("p1", "p2"), 2)]
        with pytest.raises(InfeasibleConstraint):
            draw_sample(plans, returns, 1)

    def test_unknown_precinct_rejected(self):
        returns = returns_for("c1", {"p1": 200})
        plans = [CountyPlan("c1", 10_000, ("p1", "ghost"), 2)]
        with pytest.raises(UnknownPrecinct):
            draw_sample(plans, returns, 1)

    @given(st.integers(0, 2**63))
    @settings(max_examples=50)
    def test_draw_is_uniform_enough_to_move(self, seed):
        # Smoke property: the non-big draw is some valid precinct, never big
        # twice, and the sample is always the required size.
        votes = {f"p{i}": (300 if i == 0 else 50) for i in range(6)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 10_000, tuple(votes), 2)]
        sample = draw_sample(plans, returns, seed)
        assert len(sample) == len(set(sample)) == 2
        assert "p0" in sample


def reference_draw(plans, returns, seed):
    """The county draw written out step by step, sharing no code with it."""
    votes = {r.precinct_id: r.total_votes() for r in returns}
    sample = []
    for plan in plans:
        tickets = {
            pid: hashlib.sha256(f"{seed}|{pid}".encode("utf-8")).hexdigest()
            for pid in plan.precincts
        }
        big = [pid for pid in plan.precincts if votes[pid] >= 150]
        first = min(big, key=lambda pid: (tickets[pid], pid))
        others = sorted(
            (pid for pid in plan.precincts if pid != first),
            key=lambda pid: (tickets[pid], pid),
        )
        sample += [first] + others[: plan.required_samples - 1]
    return sample


class TestDrawMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 42, "x", "mn-2006-senate"])
    def test_synthetic_counties(self, seed):
        returns, plans = [], []
        for c in range(6):
            votes = {f"c{c}-p{i}": 80 * i + c for i in range(3 + 2 * c)}
            returns.extend(returns_for(f"c{c}", votes))
            plans.append(CountyPlan(f"c{c}", 10_000, tuple(votes), 2 + c % 3))
        assert draw_sample(plans, returns, seed) == reference_draw(
            plans, returns, seed
        )

    @pytest.mark.parametrize("seed", ["mn-2006-senate", 0, 7, "2008"])
    def test_minnesota_fixture(self, minnesota_files, seed):
        plans, returns = minnesota_files["plans"], minnesota_files["returns"]
        assert draw_sample(plans, returns, seed) == reference_draw(
            plans, returns, seed
        )


class TestConservativeEffectiveN:
    def test_single_county_identity(self):
        plans = [CountyPlan("c1", 10_000, tuple(f"p{i}" for i in range(100)), 2)]
        assert conservative_effective_n(plans, 100) == 2

    def test_min_fraction_rule(self):
        plans = [
            CountyPlan("c1", 10_000, tuple(f"a{i}" for i in range(10)), 2),
            CountyPlan("c2", 10_000, tuple(f"b{i}" for i in range(100)), 2),
        ]
        assert conservative_effective_n(plans, 110) == 2

    def test_empty_county_rejected(self):
        plans = [CountyPlan("c1", 10_000, ("p1", "p2"), 2),
                 CountyPlan("c2", 10_000, (), 2)]
        with pytest.raises(EmptyCounty):
            conservative_effective_n(plans, 2)

    def test_minnesota_fixture_reduces_to_78(self, minnesota_files):
        plans = minnesota_files["plans"]
        assert conservative_effective_n(plans, 4123) == 78

    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(4, 30)),
                    min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_never_exceeds_total_sample_size(self, shape):
        plans = []
        total = 0
        for c, (required, count) in enumerate(shape):
            plans.append(
                CountyPlan(f"c{c}", 10_000,
                           tuple(f"c{c}-p{i}" for i in range(count)), required)
            )
            total += count
        effective = conservative_effective_n(plans, total)
        assert effective <= sum(p.required_samples for p in plans)


class TestMinnesotaPlan:
    def test_statutory_draw_count_is_202(self, minnesota_files):
        plans = minnesota_files["plans"]
        assert sum(p.required_samples for p in plans) == 202
        assert len(plans) == 87
        assert len(minnesota_files["sampled"]) == 202

    def test_sample_is_reproducible(self, minnesota_files):
        import minnesota as mn

        again = draw_sample(minnesota_files["plans"], minnesota_files["returns"],
                            mn.SAMPLE_SEED)
        assert again == minnesota_files["sampled"]
