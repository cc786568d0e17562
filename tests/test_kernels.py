"""The integer kernels against Fraction references written from the definitions.

`precinct_bound`, `analyze_precinct`, `BoundColumns` and `taint_count`
compute in integers; the references here compute the same quantities with
one `Fraction` per pair and per step.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mro_audit.core import (
    MAX_BALLOT_BOUND,
    AuditRecord,
    ContestSetup,
    PrecinctReturns,
    prepare_contest,
)
from mro_audit.discrepancy import (
    BoundColumns,
    PrecinctDiscrepancy,
    analyze_precinct,
    precinct_bound,
)
from mro_audit.errors import (
    AmbiguousOutcome,
    AuditError,
    EmptyPairSet,
    InconsistentBounds,
    ValidationError,
)
from mro_audit.oracle import brute_mro
from mro_audit.report import fraction_str, ratio_str
from mro_audit.risk import (
    IDENTITY,
    TAINT,
    SamplingDesign,
    TestConfig,
    assess_sample,
    taint_count,
)


def reference_bound(returns_p, margins):
    """Max over pairs of (m_w - m_l + ballot_bound) / margin(w, l)."""
    machine = returns_p.machine_votes
    return max(
        Fraction(machine[w] - machine[l] + returns_p.ballot_bound, margin)
        for (w, l), margin in margins.items()
    )


def reference_taint_count(bounds, threshold, weight, target):
    """Smallest t for which the t largest bounds in full, plus every other
    precinct at its cap, reach ``target``; ``len(bounds) + 1`` if none does.

    The cap is the largest value at or below the threshold that the bound
    allows: the smaller of the threshold and the bound under identity
    weight, threshold times the bound under taint weight, with a taint
    threshold above 1 clamped to 1.
    """
    ordered = sorted((Fraction(b) for b in bounds), reverse=True)
    threshold = Fraction(threshold)
    if weight is TAINT:
        threshold = min(threshold, Fraction(1))

    def cap(bound):
        return min(threshold, bound) if weight is IDENTITY else threshold * bound

    achievable = sum((cap(b) for b in ordered), Fraction(0))
    for t, bound in enumerate(ordered):
        if achievable >= target:
            return t
        achievable += bound - cap(bound)
    return len(ordered) if achievable >= target else len(ordered) + 1


def first_primes(count):
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


bound_values = st.one_of(
    st.integers(0, 3), st.fractions(0, 2, max_denominator=60)
)
weights = st.sampled_from([IDENTITY, TAINT])


class TestTaintCountMatchesReference:
    @given(
        st.lists(bound_values, max_size=30),
        st.fractions(Fraction(-1, 2), 3, max_denominator=40),
        weights,
        st.fractions(Fraction(1, 10), 4, max_denominator=30),
    )
    @example([], Fraction(1, 10), IDENTITY, Fraction(1))
    @example([], Fraction(1, 10), TAINT, Fraction(1))
    @example([Fraction(1, 2)] * 3, Fraction(2), TAINT, Fraction(1))
    @example([1, Fraction(1, 3), 0], Fraction(5, 2), TAINT, Fraction(3, 2))
    @settings(max_examples=400)
    def test_random_inputs(self, bounds, threshold, weight, target):
        assert taint_count(bounds, threshold, weight, target) == (
            reference_taint_count(bounds, threshold, weight, target)
        )

    @pytest.mark.parametrize("weight", [IDENTITY, TAINT], ids=["identity", "taint"])
    @pytest.mark.parametrize(
        "bounds, threshold, target, expected",
        [
            ([], Fraction(1, 10), 1, 1),
            ([Fraction(1, 2)] * 4, 1, Fraction(1, 2), 0),
            ([Fraction(1, 100)] * 5, 0, 1, 6),
            ([1, 2, Fraction(1, 3)], 0, Fraction(5, 2), 2),
        ],
        ids=["empty", "t=0", "sentinel", "int-and-fraction"],
    )
    def test_edge_results(self, weight, bounds, threshold, target, expected):
        assert taint_count(bounds, threshold, weight, target) == expected
        assert reference_taint_count(bounds, threshold, weight, target) == expected

    def test_taint_threshold_above_one_is_clamped(self):
        bounds = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        # Clamped to 1, every precinct already holds its full bound: sum 1.
        assert taint_count(bounds, Fraction(7, 2), TAINT, 1) == 0
        assert taint_count(bounds, Fraction(7, 2), TAINT, Fraction(11, 10)) == 4

    @pytest.mark.parametrize("weight, threshold", [
        (IDENTITY, Fraction(1, 5000)), (TAINT, Fraction(1, 100)),
    ], ids=["identity", "taint"])
    def test_distinct_prime_denominators(self, weight, threshold):
        rng = random.Random(2008)
        bounds = [Fraction(rng.randint(0, p // 40), p) for p in first_primes(2000)]
        for target in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
            expected = reference_taint_count(bounds, threshold, weight, target)
            assert 0 < expected <= len(bounds)
            assert taint_count(bounds, threshold, weight, target) == expected

    def test_identity_cap_is_at_most_the_bound(self):
        # Untainted, the two small precincts hold their bounds 1/100, not
        # the threshold 1/10: 1/2 + 2/100 < 6/10 even with the large one
        # tainted, so the null is infeasible and P = 0.
        bounds = [Fraction(1, 2), Fraction(1, 100), Fraction(1, 100)]
        target = Fraction(6, 10)
        assert taint_count(bounds, Fraction(1, 10), IDENTITY, target) == 4
        assert reference_taint_count(bounds, Fraction(1, 10), IDENTITY, target) == 4
        sample = [PrecinctDiscrepancy("p1", Fraction(1, 10), Fraction(1, 2))]
        config = TestConfig(IDENTITY, SamplingDesign("with_replacement", 5),
                            target)
        report = assess_sample(bounds, sample, config)
        assert report.null_infeasible
        assert report.p_value == 0

    def test_first_negative_bound_is_named(self):
        with pytest.raises(InconsistentBounds, match=r"bound -1/3$"):
            taint_count([Fraction(1, 2), Fraction(-1, 3), -1], 0, IDENTITY)


@st.composite
def contests(draw):
    winners = [f"W{i}" for i in range(draw(st.integers(1, 3)))]
    losers = [f"L{i}" for i in range(draw(st.integers(1, 4)))]
    ballot_bound = draw(st.integers(0, 200))
    votes = {c: draw(st.integers(0, ballot_bound)) for c in winners + losers}
    margins = {(w, l): draw(st.integers(1, 5000)) for w in winners for l in losers}
    return PrecinctReturns("p1", "c1", ballot_bound, votes), margins


class TestPrecinctBoundMatchesReference:
    @given(contests())
    @settings(max_examples=400)
    def test_random_contests(self, contest):
        returns_p, margins = contest
        assert precinct_bound(returns_p, margins) == reference_bound(returns_p, margins)

    def test_equal_ratios_over_different_margins(self):
        # 25/100 and 5/20 tie; the result is their common value, reduced.
        returns_p = PrecinctReturns("p1", "c1", 20, {"W": 5, "L1": 0, "L2": 20})
        margins = {("W", "L1"): 100, ("W", "L2"): 20}
        assert precinct_bound(returns_p, margins) == Fraction(1, 4)


@st.composite
def audited_precincts(draw):
    """A precinct, its hand count and the pairwise margins of a contest of
    2-6 candidates for 1-3 seats, with counts and margins up to 10**18.
    Hand counts are drawn apart from machine counts, so over- and
    understatements both occur."""
    n = draw(st.integers(2, 6))
    seats = draw(st.integers(1, min(3, n - 1)))
    candidates = [f"C{i}" for i in range(n)]
    ballot_bound = draw(st.integers(0, MAX_BALLOT_BOUND))
    counts = st.integers(0, ballot_bound)
    machine = {c: draw(counts) for c in candidates}
    hand = {c: draw(counts) for c in candidates}
    margins = {(w, l): draw(st.integers(1, MAX_BALLOT_BOUND))
               for w in candidates[:seats] for l in candidates[seats:]}
    return (PrecinctReturns("p1", "c1", ballot_bound, machine),
            AuditRecord("p1", hand), margins)


# Two pairs whose MROs tie as 2/4 and 1/2.
EQUAL_RATIOS = (
    PrecinctReturns("p1", "c1", 4, {"W": 3, "L1": 1, "L2": 2}),
    AuditRecord("p1", {"W": 1, "L1": 1, "L2": 1}),
    {("W", "L1"): 4, ("W", "L2"): 2},
)
# Every count at 0 or 10**18: the largest MRO and bound the rules allow,
# next to an understatement of the same size.
EXTREME_COUNTS = (
    PrecinctReturns("p1", "c1", MAX_BALLOT_BOUND,
                    {"W": MAX_BALLOT_BOUND, "L1": 0, "L2": MAX_BALLOT_BOUND}),
    AuditRecord("p1", {"W": 0, "L1": MAX_BALLOT_BOUND, "L2": 0}),
    {("W", "L1"): 1, ("W", "L2"): MAX_BALLOT_BOUND},
)


class TestPairWalkMatchesReferences:
    """One pair walk serves the MRO and the bound; each matches its reference."""

    @given(audited_precincts())
    @example(EQUAL_RATIOS)
    @example(EXTREME_COUNTS)
    @settings(max_examples=400)
    def test_random_precincts(self, case):
        returns_p, audit_p, margins = case
        assert analyze_precinct(returns_p, audit_p, margins).max_overstatement == (
            brute_mro(returns_p, audit_p, margins)
        )
        assert precinct_bound(returns_p, margins) == reference_bound(returns_p, margins)

    @pytest.mark.parametrize("margins, error", [
        ({}, EmptyPairSet),
        ({("W", "L"): 0}, ValidationError),
        ({("W", "L"): 3, ("W", "M"): -1}, ValidationError),
    ], ids=["no-pairs", "zero-margin", "negative-margin"])
    def test_bad_margins_raise_alike(self, margins, error):
        returns_p = PrecinctReturns("p1", "c1", 5, {"W": 1, "L": 0, "M": 0})
        audit_p = AuditRecord("p1", {"W": 0, "L": 1, "M": 0})
        for call in (
            lambda: analyze_precinct(returns_p, audit_p, margins),
            lambda: analyze_precinct(returns_p, audit_p, margins, Fraction(1)),
            lambda: precinct_bound(returns_p, margins),
        ):
            with pytest.raises(AuditError) as raised:
                call()
            assert type(raised.value) is error


def two_way_contest(ballot_bound, a, b):
    """One precinct, A against B for one seat: its bound is (a - b +
    ballot_bound) / (a - b), over the unreduced margin a - b."""
    returns = [PrecinctReturns("p1", "c1", ballot_bound, {"A": a, "B": b})]
    return prepare_contest(ContestSetup(("A", "B"), 1, 1), returns)


@st.composite
def bounded_contests(draw):
    """A contest of 2-6 candidates for 1-3 seats over 1-4 precincts, with
    ballot bounds and counts up to 10**18 and a strict outcome."""
    n = draw(st.integers(2, 6))
    candidates = tuple(f"C{i}" for i in range(n))
    returns = []
    for p in range(draw(st.integers(1, 4))):
        ballot_bound = draw(st.integers(0, MAX_BALLOT_BOUND))
        counts = st.integers(0, ballot_bound // n)
        returns.append(PrecinctReturns(f"p{p}", "c1", ballot_bound,
                                       {c: draw(counts) for c in candidates}))
    seats = draw(st.integers(1, min(3, n - 1)))
    contest = prepare_contest(ContestSetup(candidates, seats, len(returns)),
                              returns)
    try:
        contest.totals
    except AmbiguousOutcome:
        assume(False)
    return contest


class TestBoundColumnsMatchReference:
    """The column walk keeps each bound as an unreduced (numerator, margin)
    pair; the Fraction, the rendered "n/d" and the float all match the
    reference."""

    @given(bounded_contests())
    # float(n) / float(m) misrounds these two: n and m lie above 2**53.
    @example(two_way_contest(278090210861499926, 127850512098772456,
                             56177372662379442))
    @example(two_way_contest(916516094586439933, 405146725934761101,
                             390176618529296863))
    @settings(max_examples=300)
    def test_random_contests(self, contest):
        bounds = BoundColumns(contest)
        margins = contest.totals.pairwise_margins
        assert list(bounds) == list(contest.precinct_ids)
        for ret, n, m in zip(contest.returns, bounds.numerators,
                             bounds.margins):
            reference = reference_bound(ret, margins)
            assert Fraction(n, m) == reference == bounds[ret.precinct_id]
            assert ratio_str(n, m) == fraction_str(reference) == (
                f"{reference.numerator}/{reference.denominator}")
            assert n / m == float(reference)

    def test_pinned_cases_misround_through_floats(self):
        for args in [(278090210861499926, 127850512098772456,
                      56177372662379442),
                     (916516094586439933, 405146725934761101,
                      390176618529296863)]:
            bounds = BoundColumns(two_way_contest(*args))
            n, m = bounds.numerators[0], bounds.margins[0]
            assert float(n) / float(m) != n / m == float(Fraction(n, m))

    def test_margins_are_kept_unreduced(self):
        # In p1, 25/100 and 5/20 tie at 1/4; the walk keeps one pair whole.
        contest = prepare_contest(
            ContestSetup(("W", "L1", "L2"), 1, 2),
            [PrecinctReturns("p1", "c1", 30, {"W": 0, "L1": 5, "L2": 25}),
             PrecinctReturns("p2", "c1", 200, {"W": 105, "L1": 0, "L2": 60})])
        bounds = BoundColumns(contest)
        assert contest.totals.pairwise_margins == {("W", "L2"): 20,
                                                   ("W", "L1"): 100}
        assert (bounds.numerators[0], bounds.margins[0]) in {(5, 20),
                                                             (25, 100)}
        assert ratio_str(bounds.numerators[0], bounds.margins[0]) == "1/4"
