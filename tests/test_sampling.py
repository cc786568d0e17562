import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mro_audit.core import ContestSetup, PrecinctReturns, prepare_contest
from mro_audit.errors import InfeasibleConstraint, ValidationError
from mro_audit.sampling import (
    CountyPlan,
    county_walk,
    draw_and_reduce,
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


def effective_n(plans, returns):
    """The reduction :func:`draw_and_reduce` gives for the rows
    ``returns``, walked as ``plan`` walks a contest's columns."""
    walk = county_walk([r.precinct_id for r in returns],
                       [r.county_id for r in returns],
                       [sum(r.machine_votes.values()) for r in returns])
    return draw_and_reduce(plans, walk, 0)[1]


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
        plans = [CountyPlan("c1", 3)]
        assert draw_sample(plans, returns, "seed-a") == draw_sample(
            plans, returns, "seed-a"
        )

    def test_different_seed_can_differ(self):
        votes = {f"p{i}": 200 for i in range(30)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 3)]
        draws = {tuple(draw_sample(plans, returns, seed)) for seed in range(6)}
        assert len(draws) > 1

    def test_forced_sample_takes_both_precincts(self):
        returns = returns_for("c1", {"p1": 200, "p2": 20})
        plans = [CountyPlan("c1", 2)]
        for seed in ("x", "y", 3):
            assert sorted(draw_sample(plans, returns, seed)) == ["p1", "p2"]

    def test_sample_size_and_distinctness(self):
        returns = []
        plans = []
        for c in range(5):
            votes = {f"c{c}-p{i}": 150 + i for i in range(9)}
            returns.extend(returns_for(f"c{c}", votes))
            plans.append(CountyPlan(f"c{c}", 3))
        sample = draw_sample(plans, returns, 42)
        assert len(sample) == 15
        assert len(set(sample)) == 15

    def test_large_precinct_rule_satisfied(self):
        # Only one precinct clears 150 votes; it must always be drawn.
        votes = {"small1": 10, "small2": 20, "big": 300, "small3": 30}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 2)]
        for seed in range(10):
            assert "big" in draw_sample(plans, returns, seed)

    def test_infeasible_when_no_large_precinct(self):
        returns = returns_for("c1", {"p1": 10, "p2": 20})
        plans = [CountyPlan("c1", 2)]
        with pytest.raises(InfeasibleConstraint):
            draw_sample(plans, returns, 1)

    @given(st.integers(0, 2**63))
    @settings(max_examples=50)
    def test_draw_is_uniform_enough_to_move(self, seed):
        # Smoke property: the non-big draw is some valid precinct, never big
        # twice, and the sample is always the required size.
        votes = {f"p{i}": (300 if i == 0 else 50) for i in range(6)}
        returns = returns_for("c1", votes)
        plans = [CountyPlan("c1", 2)]
        sample = draw_sample(plans, returns, seed)
        assert len(sample) == len(set(sample)) == 2
        assert "p0" in sample


def reference_draw(plans, returns, seed):
    """The county draw written out step by step, sharing no code with it:
    a county's precincts are the rows with its county id."""
    votes = {r.precinct_id: r.total_votes() for r in returns}
    sample = []
    for plan in plans:
        precincts = [r.precinct_id for r in returns
                     if r.county_id == plan.county_id]
        tickets = {
            pid: hashlib.sha256(f"{seed}|{pid}".encode("utf-8")).hexdigest()
            for pid in precincts
        }
        big = [pid for pid in precincts if votes[pid] >= 150]
        first = min(big, key=lambda pid: (tickets[pid], pid))
        others = sorted(
            (pid for pid in precincts if pid != first),
            key=lambda pid: (tickets[pid], pid),
        )
        sample += [first] + others[: plan.required_samples - 1]
    return sample


def reference_effective_n(plans, returns):
    """The reduction written out from its rule, in ``Fraction`` rates: a
    county drawing n of its N precincts counts at n/N, or at (n-1)/(N-1)
    if one of them has under 150 votes."""
    rates = []
    for plan in plans:
        votes = [sum(r.machine_votes.values()) for r in returns
                 if r.county_id == plan.county_id]
        n, size = plan.required_samples, len(votes)
        if min(votes) < 150:
            n, size = n - 1, size - 1
        rates.append(Fraction(n, size))
    return math.floor(len(returns) * min(rates))


# Ids and seeds hold the ticket's separator and characters whose UTF-8
# takes two to four bytes.
awkward_text = st.text(
    st.sampled_from("ab|é€😀") | st.characters(exclude_categories=["Cs"]),
    min_size=1, max_size=6)


@st.composite
def awkward_designs(draw):
    """Plans, and returns in any order, of one to four counties: each has a
    precinct of at least 150 votes, and draws at most its precincts."""
    ids = iter(draw(st.lists(awkward_text, min_size=16, max_size=16,
                             unique=True)))
    plans, returns = [], []
    for c in range(draw(st.integers(1, 4))):
        county = f"c{c}|é"
        votes = draw(st.lists(st.integers(0, 300), max_size=3))
        votes.insert(draw(st.integers(0, len(votes))),
                     draw(st.integers(150, 300)))
        plans.append(CountyPlan(county, draw(st.integers(1, len(votes)))))
        returns += [PrecinctReturns(next(ids), county, v, {"A": v, "B": 0})
                    for v in votes]
    return plans, draw(st.permutations(returns))


class TestDrawMatchesReference:
    @given(awkward_designs(),
           st.one_of(st.integers(), awkward_text | st.just("")))
    @settings(max_examples=200, deadline=None)
    def test_column_draw_and_row_draw(self, design, seed):
        """The draw and reduction from the contest's columns, as ``plan``
        makes them, and the draw from rows: tickets, their order and the
        reduction."""
        plans, returns = design
        contest = prepare_contest(ContestSetup(("A", "B"), 1, len(returns)),
                                  returns)
        walk = county_walk(contest.precinct_ids, contest.county_ids,
                           map(sum, zip(*contest.counts)))
        expected = reference_draw(plans, returns, seed)
        reduced = reference_effective_n(plans, returns)
        assert draw_and_reduce(plans, walk, seed) == (expected, reduced)
        assert draw_sample(plans, returns, seed) == expected

    @pytest.mark.parametrize("seed", [0, 1, 42, "x", "mn-2006-senate"])
    def test_synthetic_counties(self, seed):
        returns, plans = [], []
        for c in range(6):
            votes = {f"c{c}-p{i}": 80 * i + c for i in range(3 + 2 * c)}
            returns.extend(returns_for(f"c{c}", votes))
            plans.append(CountyPlan(f"c{c}", 2 + c % 3))
        assert draw_sample(plans, returns, seed) == reference_draw(
            plans, returns, seed
        )

    @pytest.mark.parametrize("seed", ["mn-2006-senate", 0, 7, "2008"])
    def test_minnesota_fixture(self, minnesota_files, seed):
        plans, returns = minnesota_files["plans"], minnesota_files["returns"]
        assert draw_sample(plans, returns, seed) == reference_draw(
            plans, returns, seed
        )


def large_counties(shape):
    """The plans and returns of counties ``c0``, ``c1``, ... of the given
    ``(draws, precincts)`` sizes, every precinct with 200 votes."""
    plans, returns = [], []
    for c, (take, size) in enumerate(shape):
        plans.append(CountyPlan(f"c{c}", take))
        returns += returns_for(f"c{c}", {f"c{c}-p{i}": 200
                                         for i in range(size)})
    return plans, returns


class TestCountyPlan:
    def test_at_least_one_draw(self):
        with pytest.raises(ValidationError, match=r"^county c1: must sample "
                                                  r"at least one precinct$"):
            CountyPlan("c1", 0)

    def test_more_samples_than_precincts_rejected(self):
        with pytest.raises(ValidationError, match=r"^county c1: 3 samples "
                                                  r"requested from 2 precincts$"):
            draw_sample([CountyPlan("c1", 3)],
                        returns_for("c1", {"p1": 200, "p2": 200}), 1)


class TestConservativeEffectiveN:
    def test_single_county_identity(self):
        assert effective_n(*large_counties([(2, 100)])) == 2

    def test_min_fraction_rule(self):
        assert effective_n(*large_counties([(2, 10), (2, 100)])) == 2

    def test_minnesota_fixture_reduces_to_78(self, minnesota_files):
        plans = minnesota_files["plans"]
        returns = minnesota_files["returns"]
        assert len(returns) == 4123
        assert effective_n(plans, returns) == 78

    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(4, 30)),
                    min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_never_exceeds_total_sample_size(self, shape):
        plans, returns = large_counties(shape)
        effective = effective_n(plans, returns)
        assert effective <= sum(p.required_samples for p in plans)

    def test_small_precinct_counts_only_the_later_draws(self):
        # "big" is always the first draw, so a small precinct is drawn with
        # probability 1/2, not 2/3: one taint there is missed half the time,
        # and only wr:1 (P = 2/3) covers that; wr:2 gives (2/3)**2 = 4/9.
        plans, returns = SMALL_COUNTY
        assert effective_n(plans, returns) == 1

    def test_small_precinct_miss_rate_through_the_draw(self):
        plans, returns = SMALL_COUNTY
        seeds = 2_000
        misses = sum("small1" not in draw_sample(plans, returns, seed)
                     for seed in range(seeds))
        assert abs(misses / seeds - 0.5) < 4 * (0.25 / seeds) ** 0.5
        effective = effective_n(plans, returns)
        assert Fraction(2, 3) ** effective > Fraction(misses, seeds)
        assert Fraction(2, 3) ** 2 < Fraction(misses, seeds)

    def test_county_without_a_large_precinct_rejected(self):
        plans = [CountyPlan("c1", 1)]
        returns = returns_for("c1", {"p1": 20})
        with pytest.raises(InfeasibleConstraint,
                           match="county c1: no precinct has at least 150"):
            effective_n(plans, returns)


def doubly_listed():
    """A second plan for county c0, ahead of the first plan's own fault."""
    plans, returns = large_counties([(3, 2), (2, 2)])
    return plans + [CountyPlan("c0", 2)], returns


def ghost():
    """A plan for a county with no precincts in the returns."""
    plans, returns = large_counties([(2, 2)])
    return plans + [CountyPlan("ghost", 2)], returns


def too_many_samples():
    return large_counties([(2, 2), (3, 2)])


def too_many_samples_and_ghost():
    """Each plan's rule is checked in plan order."""
    plans, returns = large_counties([(3, 2)])
    return plans + [CountyPlan("ghost", 2)], returns


def uncovered():
    """A plan for c0 alone: counties c1 to c7 have none, and the message
    names the first five."""
    plans, returns = large_counties([(2, 2)] * 8)
    return plans[:1], returns


def too_many_samples_and_uncovered():
    plans, returns = large_counties([(3, 2), (2, 2)])
    return plans[:1], returns


def no_large_precinct():
    plans = [CountyPlan("c1", 2), CountyPlan("c2", 1)]
    return plans, (returns_for("c1", {"p1": 200, "p2": 200})
                   + returns_for("c2", {"p3": 149}))


def ghost_and_no_large_precinct():
    """The cover rules are checked before any county's eligibility."""
    plans = [CountyPlan("c1", 1), CountyPlan("c2", 2)]
    return plans, returns_for("c1", {"p1": 20})


def no_plans():
    return [], large_counties([(2, 2)])[1]


def no_plans_and_no_returns():
    return [], []


def uncovered_and_no_large_precinct():
    plans = [CountyPlan("c1", 1)]
    return plans, (returns_for("c1", {"p1": 20})
                   + returns_for("c2", {"p2": 200}))


class TestPlansCoverTheReturns:
    """The draw and its reduction reject the same designs, with the same
    messages and in the same order: some plan is given, no county has two
    plans, every plan's county has precincts and at least its draws of
    them, every county of the returns has a plan, and every plan's county
    has a precinct of 150 votes or more."""

    @pytest.mark.parametrize("reduce", [
        lambda plans, returns: draw_sample(plans, returns, 1),
        effective_n,
    ], ids=["draw", "reduction"])
    @pytest.mark.parametrize("case, error, message", [
        (no_plans, ValidationError, r"^no county plans supplied$"),
        (no_plans_and_no_returns, ValidationError,
         r"^no county plans supplied$"),
        (doubly_listed, ValidationError, r"^county 'c0' has two plans$"),
        (ghost, ValidationError,
         r"^county 'ghost' has no precincts in the returns$"),
        (too_many_samples, ValidationError,
         r"^county c1: 3 samples requested from 2 precincts$"),
        (too_many_samples_and_ghost, ValidationError,
         r"^county c0: 3 samples requested from 2 precincts$"),
        (uncovered, ValidationError,
         r"^counties in returns but in no plan: "
         r"\['c1', 'c2', 'c3', 'c4', 'c5'\]$"),
        (too_many_samples_and_uncovered, ValidationError,
         r"^county c0: 3 samples requested from 2 precincts$"),
        (no_large_precinct, InfeasibleConstraint,
         r"^county c2: no precinct has at least 150 votes$"),
        (ghost_and_no_large_precinct, ValidationError,
         r"^county 'c2' has no precincts in the returns$"),
        (uncovered_and_no_large_precinct, ValidationError,
         r"^counties in returns but in no plan: \['c2'\]$"),
    ], ids=["no-plans", "no-plans-and-no-returns", "doubly-listed", "ghost",
            "too-many-samples", "too-many-samples-and-ghost", "unplanned",
            "too-many-samples-and-unplanned", "no-large-precinct",
            "ghost-and-no-large-precinct", "unplanned-and-no-large-precinct"])
    def test_rejected(self, reduce, case, error, message):
        with pytest.raises(error, match=message):
            reduce(*case())


def threshold_county(middle_votes):
    """One county of three precincts drawing 2: 200, ``middle_votes`` and
    150 votes."""
    votes = {"p200": 200, "mid": middle_votes, "p150": 150}
    return [CountyPlan("c1", 2)], returns_for("c1", votes)


class TestLargePrecinctThreshold:
    """150 votes is eligible for the first draw; 149 is not."""

    @pytest.mark.parametrize("middle_votes, effective", [(150, 2), (149, 1)])
    def test_reduction(self, middle_votes, effective):
        assert effective_n(*threshold_county(middle_votes)) == effective

    def test_first_draw(self):
        plans, returns = threshold_county(149)
        firsts = {draw_sample(plans, returns, seed)[0] for seed in range(40)}
        assert firsts == {"p200", "p150"}
        plans, returns = threshold_county(150)
        firsts = {draw_sample(plans, returns, seed)[0] for seed in range(40)}
        assert firsts == {"p200", "mid", "p150"}


SMALL_COUNTY = (
    [CountyPlan("c1", 2)],
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
        plans.append(CountyPlan(f"c{c}", take))
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
        effective = effective_n(plans, returns)
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
