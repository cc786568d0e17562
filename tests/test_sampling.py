import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mro_audit.core import PrecinctReturns
from mro_audit.errors import (
    EmptyCounty,
    InfeasibleConstraint,
    UnknownPrecinct,
    ValidationError,
)
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
        plans = [CountyPlan("c1", tuple(votes), 3)]
        assert draw_sample(plans, returns, "seed-a") == draw_sample(
            plans, returns, "seed-a"
        )

    def test_different_seed_can_differ(self):
        votes = {f"p{i}": 200 for i in range(30)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", tuple(votes), 3)]
        draws = {tuple(draw_sample(plans, returns, seed)) for seed in range(6)}
        assert len(draws) > 1

    def test_forced_sample_takes_both_precincts(self):
        returns = returns_for("c1", {"p1": 200, "p2": 20})
        plans = [CountyPlan("c1", ("p1", "p2"), 2)]
        for seed in ("x", "y", 3):
            assert sorted(draw_sample(plans, returns, seed)) == ["p1", "p2"]

    def test_sample_size_and_distinctness(self):
        returns = []
        plans = []
        for c in range(5):
            votes = {f"c{c}-p{i}": 150 + i for i in range(9)}
            returns.extend(returns_for(f"c{c}", votes))
            plans.append(CountyPlan(f"c{c}", tuple(votes), 3))
        sample = draw_sample(plans, returns, 42)
        assert len(sample) == 15
        assert len(set(sample)) == 15

    def test_large_precinct_rule_satisfied(self):
        # Only one precinct clears 150 votes; it must always be drawn.
        votes = {"small1": 10, "small2": 20, "big": 300, "small3": 30}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", tuple(votes), 2)]
        for seed in range(10):
            assert "big" in draw_sample(plans, returns, seed)

    def test_infeasible_when_no_large_precinct(self):
        returns = returns_for("c1", {"p1": 10, "p2": 20})
        plans = [CountyPlan("c1", ("p1", "p2"), 2)]
        with pytest.raises(InfeasibleConstraint):
            draw_sample(plans, returns, 1)

    def test_unknown_precinct_rejected(self):
        returns = returns_for("c1", {"p1": 200})
        plans = [CountyPlan("c1", ("p1", "ghost"), 2)]
        with pytest.raises(UnknownPrecinct):
            draw_sample(plans, returns, 1)

    @given(st.integers(0, 2**63))
    @settings(max_examples=50)
    def test_draw_is_uniform_enough_to_move(self, seed):
        # Smoke property: the non-big draw is some valid precinct, never big
        # twice, and the sample is always the required size.
        votes = {f"p{i}": (300 if i == 0 else 50) for i in range(6)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", tuple(votes), 2)]
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
            plans.append(CountyPlan(f"c{c}", tuple(votes), 2 + c % 3))
        assert draw_sample(plans, returns, seed) == reference_draw(
            plans, returns, seed
        )

    @pytest.mark.parametrize("seed", ["mn-2006-senate", 0, 7, "2008"])
    def test_minnesota_fixture(self, minnesota_files, seed):
        plans, returns = minnesota_files["plans"], minnesota_files["returns"]
        assert draw_sample(plans, returns, seed) == reference_draw(
            plans, returns, seed
        )


def large_returns(plans):
    """Returns giving every precinct of ``plans`` 200 votes."""
    return [ret for plan in plans
            for ret in returns_for(plan.county_id,
                                   dict.fromkeys(plan.precincts, 200))]


class TestCountyPlan:
    def test_more_samples_than_precincts_rejected(self):
        with pytest.raises(ValidationError, match=r"^county c1: 3 samples "
                                                  r"requested from 2 precincts$"):
            CountyPlan("c1", ("p1", "p2"), 3)

    def test_repeated_precinct_rejected(self):
        with pytest.raises(ValidationError, match=r"^county c1: precinct "
                                                  r"'p1' is listed twice$"):
            CountyPlan("c1", ("p1", "p1", "p2"), 2)

    def test_repeat_named_before_the_sample_count(self):
        with pytest.raises(ValidationError, match="'p1' is listed twice"):
            CountyPlan("c1", ("p1", "p1"), 3)


class TestConservativeEffectiveN:
    def test_single_county_identity(self):
        plans = [CountyPlan("c1", tuple(f"p{i}" for i in range(100)), 2)]
        assert conservative_effective_n(plans, large_returns(plans)) == 2

    def test_min_fraction_rule(self):
        plans = [
            CountyPlan("c1", tuple(f"a{i}" for i in range(10)), 2),
            CountyPlan("c2", tuple(f"b{i}" for i in range(100)), 2),
        ]
        assert conservative_effective_n(plans, large_returns(plans)) == 2

    def test_empty_county_rejected(self):
        with pytest.raises(EmptyCounty):
            CountyPlan("c2", (), 2)

    def test_minnesota_fixture_reduces_to_78(self, minnesota_files):
        plans = minnesota_files["plans"]
        returns = minnesota_files["returns"]
        assert len(returns) == 4123
        assert conservative_effective_n(plans, returns) == 78

    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(4, 30)),
                    min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_never_exceeds_total_sample_size(self, shape):
        plans = [
            CountyPlan(f"c{c}", tuple(f"c{c}-p{i}" for i in range(count)),
                       required)
            for c, (required, count) in enumerate(shape)
        ]
        effective = conservative_effective_n(plans, large_returns(plans))
        assert effective <= sum(p.required_samples for p in plans)

    def test_small_precinct_counts_only_the_later_draws(self):
        # "big" is always the first draw, so a small precinct is drawn with
        # probability 1/2, not 2/3: one taint there is missed half the time,
        # and only wr:1 (P = 2/3) covers that; wr:2 gives (2/3)**2 = 4/9.
        plans, returns = SMALL_COUNTY
        assert conservative_effective_n(plans, returns) == 1

    def test_small_precinct_miss_rate_through_the_draw(self):
        plans, returns = SMALL_COUNTY
        seeds = 2_000
        misses = sum("small1" not in draw_sample(plans, returns, seed)
                     for seed in range(seeds))
        assert abs(misses / seeds - 0.5) < 4 * (0.25 / seeds) ** 0.5
        effective = conservative_effective_n(plans, returns)
        assert Fraction(2, 3) ** effective > Fraction(misses, seeds)
        assert Fraction(2, 3) ** 2 < Fraction(misses, seeds)

    def test_county_without_a_large_precinct_rejected(self):
        plans = [CountyPlan("c1", ("p1",), 1)]
        returns = returns_for("c1", {"p1": 20})
        with pytest.raises(InfeasibleConstraint,
                           match="county c1: no precinct has at least 150"):
            conservative_effective_n(plans, returns)


def uncovered():
    """One county of 2 precincts drawing 2, and 98 returns in no plan."""
    plans = [CountyPlan("c1", ("p0", "p1"), 2)]
    others = returns_for("c2", {f"q{i}": 200 for i in range(98)})
    return plans, large_returns(plans) + others


def ghost():
    plans = [CountyPlan("c1", ("p1", "ghost"), 2)]
    return plans, returns_for("c1", {"p1": 200})


def doubly_listed():
    plans = [CountyPlan("c1", ("p1", "p2"), 2),
             CountyPlan("c2", ("p2", "p3"), 2)]
    return plans, returns_for("c1", {"p1": 200, "p2": 200, "p3": 200})


def no_large_precinct():
    plans = [CountyPlan("c1", ("p1", "p2"), 2),
             CountyPlan("c2", ("p3",), 1)]
    return plans, (returns_for("c1", {"p1": 200, "p2": 200})
                   + returns_for("c2", {"p3": 149}))


def ghost_and_no_large_precinct():
    """The cover rules are checked before any county's eligibility."""
    plans = [CountyPlan("c1", ("p1",), 1),
             CountyPlan("c2", ("p2", "ghost"), 2)]
    return plans, (returns_for("c1", {"p1": 20})
                   + returns_for("c2", {"p2": 200}))


class TestPlansCoverTheReturns:
    """The draw and its reduction reject the same designs, with the same
    messages: every precinct must be in one plan, and every plan must hold
    a precinct of 150 votes or more."""

    @pytest.mark.parametrize("reduce", [
        lambda plans, returns: draw_sample(plans, returns, 1),
        conservative_effective_n,
    ], ids=["draw", "reduction"])
    @pytest.mark.parametrize("case, error, message", [
        (uncovered, ValidationError,
         r"^98 precinct\(s\) in no county plan, "
         r"e\.g\. \['q0', 'q1', 'q2', 'q3', 'q4'\]$"),
        (ghost, UnknownPrecinct,
         r"^county c1: precinct 'ghost' not in returns$"),
        (doubly_listed, ValidationError,
         r"^precinct 'p2' appears in more than one county plan$"),
        (no_large_precinct, InfeasibleConstraint,
         r"^county c2: no precinct has at least 150 votes$"),
        (ghost_and_no_large_precinct, UnknownPrecinct,
         r"^county c2: precinct 'ghost' not in returns$"),
    ], ids=["unplanned", "ghost", "doubly-listed", "no-large-precinct",
            "ghost-and-no-large-precinct"])
    def test_rejected(self, reduce, case, error, message):
        with pytest.raises(error, match=message):
            reduce(*case())


def threshold_county(middle_votes):
    """One county of three precincts drawing 2: 200, ``middle_votes`` and
    150 votes."""
    votes = {"p200": 200, "mid": middle_votes, "p150": 150}
    return [CountyPlan("c1", tuple(votes), 2)], returns_for("c1", votes)


class TestLargePrecinctThreshold:
    """150 votes is eligible for the first draw; 149 is not."""

    @pytest.mark.parametrize("middle_votes, effective", [(150, 2), (149, 1)])
    def test_reduction(self, middle_votes, effective):
        assert conservative_effective_n(*threshold_county(middle_votes)) == (
            effective)

    def test_first_draw(self):
        plans, returns = threshold_county(149)
        firsts = {draw_sample(plans, returns, seed)[0] for seed in range(40)}
        assert firsts == {"p200", "p150"}
        plans, returns = threshold_county(150)
        firsts = {draw_sample(plans, returns, seed)[0] for seed in range(40)}
        assert firsts == {"p200", "mid", "p150"}


SMALL_COUNTY = (
    [CountyPlan("c1", ("big", "small1", "small2"), 2)],
    returns_for("c1", {"big": 300, "small1": 20, "small2": 30}),
)


def county_samples(eligible, take):
    """Every ticket order of one county, and the set each order draws.

    The draw, written out as the ticket orders it: the first eligible
    precinct in the order, then the next ``take - 1`` of the others.
    Precincts are numbered by their position in ``eligible``.
    """
    samples = []
    for order in itertools.permutations(range(len(eligible))):
        first = next(i for i in order if eligible[i])
        others = [i for i in order if i != first]
        samples.append(frozenset([first, *others[:take - 1]]))
    return samples


def worst_miss(design):
    """For each taint count t, the largest chance over every set of t
    tainted precincts that the county draw of ``design`` misses them all.

    ``design`` is a list of counties, each a pair (eligible flags, draws).
    Counties draw independently and every ticket order is equally likely,
    so a county's miss chance is the share of its orders whose sample
    avoids its tainted precincts.
    """
    per_county = []
    for eligible, take in design:
        samples = county_samples(eligible, take)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(len(eligible)), size)
            for size in range(len(eligible) + 1))
        per_county.append([
            (len(tainted), Fraction(sum(s.isdisjoint(tainted) for s in samples),
                                    len(samples)))
            for tainted in subsets
        ])
    worst = [Fraction(0)] * (sum(len(e) for e, _ in design) + 1)
    for choice in itertools.product(*per_county):
        t = sum(count for count, _ in choice)
        miss = Fraction(1)
        for _, county_miss in choice:
            miss *= county_miss
        worst[t] = max(worst[t], miss)
    return worst


@st.composite
def county_designs(draw):
    counties = []
    for _ in range(draw(st.integers(1, 3))):
        eligible = draw(st.lists(st.booleans(), min_size=1, max_size=4)
                        .filter(any))
        counties.append((eligible, draw(st.integers(1, len(eligible)))))
    return counties


def design_inputs(design):
    """The plans and returns of ``design``: 200 votes for an eligible
    precinct, 100 for any other."""
    plans, returns = [], []
    for c, (eligible, take) in enumerate(design):
        votes = {f"c{c}-p{i}": 200 if big else 100
                 for i, big in enumerate(eligible)}
        plans.append(CountyPlan(f"c{c}", tuple(votes), take))
        returns.extend(returns_for(f"c{c}", votes))
    return plans, returns


class TestReductionAgainstEveryTicketOrder:
    """The wr P-value at the reduced size never falls below the chance that
    the county draw misses every tainted precinct, for any taint set."""

    def test_oracle_on_known_counties(self):
        # One eligible precinct and two small ones, 2 draws: a small taint
        # is missed half the time, and two taints are never both missed.
        assert worst_miss([([True, False, False], 2)]) == [
            1, Fraction(1, 2), 0, 0]
        # Two eligible precincts and one small one, 2 draws: one eligible
        # taint is missed in 2 of the 6 orders, not the 1/4 of a formula
        # that takes the later draws as uniform over the other precincts.
        samples = county_samples([True, True, False], 2)
        assert sum(0 not in s for s in samples) == 2
        assert worst_miss([([True, True, False], 2)])[1] == Fraction(1, 3)

    @given(county_designs())
    @settings(max_examples=60, deadline=None)
    def test_reduced_pvalue_is_conservative(self, design):
        plans, returns = design_inputs(design)
        effective = conservative_effective_n(plans, returns)
        population = len(returns)
        for t, miss in enumerate(worst_miss(design)):
            assert Fraction(population - t, population) ** effective >= miss, t


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
