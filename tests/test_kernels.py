"""The integer kernels against Fraction references written from the definitions.

`precinct_bound` and `taint_count` compute in integers; the references here
compute the same quantities with one `Fraction` per pair and per step.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mro_audit.core import PrecinctReturns
from mro_audit.discrepancy import precinct_bound
from mro_audit.errors import InconsistentBounds
from mro_audit.risk import IDENTITY, TAINT, taint_count


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

    The cap is the threshold under identity weight and threshold times the
    bound under taint weight, with a taint threshold above 1 clamped to 1.
    """
    ordered = sorted((Fraction(b) for b in bounds), reverse=True)
    threshold = Fraction(threshold)
    if weight is TAINT:
        threshold = min(threshold, Fraction(1))

    def cap(bound):
        return threshold if weight is IDENTITY else threshold * bound

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
