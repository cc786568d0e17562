import random
import time
import tracemalloc
from fractions import Fraction
from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mro_audit.core import AuditRecord, ContestSetup, PrecinctReturns, compute_totals
from mro_audit.discrepancy import PrecinctDiscrepancy, analyze_precinct, mro_sum
from mro_audit.errors import (
    EmptySample,
    InconsistentBounds,
    InvalidCount,
    UnknownPrecinct,
    ValidationError,
    ZeroBoundWithTaintWeight,
)
from mro_audit import risk
from mro_audit.oracle import gen_instance
from mro_audit.risk import (
    IDENTITY,
    TAINT,
    MonteCarloResult,
    SamplingDesign,
    TestConfig,
    monte_carlo_pvalue,
    observed_statistic,
    p_value,
    run_test,
    taint_count,
)

WR = lambda n: SamplingDesign("with_replacement", n)  # noqa: E731
SRS = lambda n: SamplingDesign("simple_random_sample", n)  # noqa: E731


def disc(value, bound, pid="p1"):
    return PrecinctDiscrepancy(
        precinct_id=pid,
        max_overstatement=Fraction(value),
        bound=Fraction(bound),
    )


class TestObservedStatistic:
    def test_identity_takes_the_maximum(self):
        sample = [
            disc(Fraction(45, 10_000_000), 1, "a"),
            disc(0, 1, "b"),
            disc(Fraction(-1, 10), 1, "c"),
        ]
        assert observed_statistic(sample, IDENTITY) == Fraction(45, 10_000_000)

    def test_error_free_sample_scores_zero(self):
        sample = [disc(0, Fraction(1, 2), str(i)) for i in range(5)]
        assert observed_statistic(sample, IDENTITY) == 0

    def test_taint_weight_saturates_at_one(self):
        sample = [disc(Fraction(3, 10), Fraction(3, 10), "a"), disc(0, 1, "b")]
        assert observed_statistic(sample, TAINT) == 1

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            observed_statistic([], IDENTITY)

    def test_zero_bound_under_taint_rejected(self):
        with pytest.raises(ZeroBoundWithTaintWeight):
            observed_statistic([disc(0, 0)], TAINT)


class TestRejectedArguments:
    @pytest.mark.parametrize("call, message", [
        (lambda: TestConfig("bogus", WR(2)),
         r"^unknown weight function 'bogus'$"),
        (lambda: taint_count([Fraction(1, 2)], 0, "bogus"),
         r"^unknown weight function 'bogus'$"),
        (lambda: observed_statistic([disc(0, 1)], "bogus"),
         r"^unknown weight function 'bogus'$"),
    ], ids=["config-weight", "taint-count-weight", "statistic-weight"])
    def test_message_pinned(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()


class TestTaintCount:
    def test_uniform_bounds_greedy_accumulation(self):
        # 104 precincts at 97/10000 are needed before the sum reaches 1.
        bounds = [Fraction(97, 10_000)] * 4123
        assert taint_count(bounds, 0, IDENTITY) == 104

    def test_vacuous_sample_needs_no_tainted_precincts(self):
        bounds = [Fraction(1, 100)] * 200
        assert taint_count(bounds, Fraction(1, 100), IDENTITY) == 0

    def test_sentinel_when_null_is_impossible(self):
        bounds = [Fraction(1, 100)] * 5
        assert taint_count(bounds, 0, IDENTITY) == 6

    def test_negative_bound_rejected(self):
        with pytest.raises(InconsistentBounds):
            taint_count([Fraction(-1, 2)], 0, IDENTITY)

    def test_taint_weight_caps_scale_with_bounds(self):
        # Remaining precincts may hide threshold * bound each.
        bounds = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        # threshold 1/2: caps are 1/4, 1/8, 1/8 -> sum 1/2; promoting the
        # largest bound adds 1/4 -> 3/4; promoting the next adds 1/8 -> 7/8.
        assert taint_count(bounds, Fraction(1, 2), TAINT, Fraction(1, 2)) == 0
        assert taint_count(bounds, Fraction(1, 2), TAINT, Fraction(3, 4)) == 1
        assert taint_count(bounds, Fraction(1, 2), TAINT, Fraction(7, 8)) == 2

    @given(
        st.lists(st.fractions(0, 2, max_denominator=20), min_size=1, max_size=12),
        st.fractions(0, 1, max_denominator=10),
        st.fractions(Fraction(1, 10), 3, max_denominator=10),
    )
    @settings(max_examples=150)
    def test_monotone_in_margin_threshold(self, bounds, threshold, target):
        lower = taint_count(bounds, threshold, IDENTITY, target)
        higher = taint_count(bounds, threshold, IDENTITY, target + Fraction(1, 7))
        assert higher >= lower

    @given(
        st.lists(st.fractions(0, 2, max_denominator=20), min_size=1, max_size=12),
        st.fractions(0, 1, max_denominator=10),
        st.integers(0, 11),
        st.fractions(Fraction(1, 10), 1, max_denominator=10),
    )
    @settings(max_examples=150)
    def test_nonincreasing_when_a_bound_grows(self, bounds, threshold, index, bump):
        before = taint_count(bounds, threshold, IDENTITY)
        grown = list(bounds)
        grown[index % len(grown)] += bump
        assert taint_count(grown, threshold, IDENTITY) <= before


class TestPValue:
    def test_with_replacement_golden(self):
        assert p_value(166, 4123, WR(78)) == pytest.approx(0.0405, abs=5e-4)

    def test_larger_sample_golden(self):
        assert 0.0001 <= p_value(166, 4123, WR(202)) <= 0.0004

    def test_nothing_to_detect_gives_one(self):
        assert p_value(0, 4123, WR(78)) == 1.0
        assert p_value(0, 10**12, WR(10**12)) == 1.0
        assert p_value(0, 10, SRS(3)) == 1.0

    def test_everything_tainted_gives_zero(self):
        assert p_value(4123, 4123, WR(1)) == 0.0
        assert p_value(10**12, 10**12, WR(10**12)) == 0.0
        assert p_value(10, 10, SRS(1)) == 0.0

    def test_srs_runs_out_of_clean_precincts(self):
        assert p_value(8, 10, SRS(3)) == 0.0

    def test_count_above_population_rejected(self):
        with pytest.raises(InvalidCount):
            p_value(11, 10, WR(5))

    def test_srs_sample_larger_than_population_rejected(self):
        with pytest.raises(InvalidCount):
            p_value(1, 10, SRS(11))

    @pytest.mark.parametrize("design", [WR(1), SRS(1)])
    def test_empty_population_rejected(self, design):
        with pytest.raises(InvalidCount, match="population 0"):
            p_value(0, 0, design)
        with pytest.raises(InvalidCount, match="population 0"):
            monte_carlo_pvalue(0, 0, design, 10, seed=0)

    @given(st.integers(1, 40), st.integers(0, 40), st.integers(1, 60))
    @settings(max_examples=200)
    def test_srs_never_exceeds_with_replacement(self, population, tainted, draws):
        tainted = min(tainted, population)
        draws = min(draws, population)
        assert p_value(tainted, population, SRS(draws)) <= (
            p_value(tainted, population, WR(draws)) + 1e-15
        )

    @given(st.integers(1, 50), st.integers(0, 50), st.integers(1, 30))
    @settings(max_examples=200)
    def test_nonincreasing_in_taint_count_and_draws(self, population, tainted, draws):
        tainted = min(tainted, population - 1)
        p0 = p_value(tainted, population, WR(draws))
        assert p_value(tainted + 1, population, WR(draws)) <= p0
        assert p_value(tainted, population, WR(draws + 1)) <= p0


@st.composite
def wr_cases(draw):
    """(N, t, n) with N <= 10**12, 0 <= t <= N and 1 <= n <= 5,000."""
    population = draw(st.integers(1, 10**12))
    tainted = draw(st.integers(0, population))
    return population, tainted, draw(st.integers(1, 5_000))


class TestPowerPValue:
    """With replacement, P is ((N - t) / N) ** n rounded as the Fraction rounds."""

    @given(wr_cases())
    @settings(max_examples=300, deadline=None)
    @example((4123, 166, 78))
    @example((2**40, 1, 4_999))  # (1 - 2**-40) ** n: every bound is dyadic
    @example((4, 1, 34))  # 3**34 / 2**68 has a 54-bit odd mantissa: a tie
    # (3/4) ** 2462 is about 2**-1021.8, just above the smallest normal float.
    @example((4, 1, 2_462))
    @example((2**64, 1, 4_999))  # a base near 1 over a 64-bit population
    def test_matches_fraction(self, case):
        population, tainted, draws = case
        expected = float(Fraction(population - tainted, population) ** draws)
        assert p_value(tainted, population, WR(draws)) == expected

    @pytest.mark.parametrize("draws", [1_073, 1_074, 1_075, 1_076])
    def test_halves_into_the_subnormals(self, draws):
        # 2**-1075 ties to 0.0; 2**-1074 is the smallest subnormal.
        assert p_value(1, 2, WR(draws)) == float(Fraction(1, 2**draws))

    @pytest.mark.parametrize("bits", [2, 8, 53])
    def test_loose_bounds_fall_back_to_the_exact_power(self, bits):
        rng = random.Random(bits)
        with mock.patch.object(risk, "_POWER_BITS", bits), \
                mock.patch.object(risk, "Fraction", wraps=Fraction) as exact:
            for _ in range(200):
                population = rng.randint(1, 10**6)
                tainted = rng.randint(0, population)
                draws = rng.randint(1, 300)
                expected = float(
                    Fraction(population - tainted, population) ** draws
                )
                assert p_value(tainted, population, WR(draws)) == expected
        # So few bits never settle the float: every call formed the power.
        assert exact.call_count == 200

    def test_large_samples_are_fast(self):
        start = time.perf_counter()
        assert p_value(166, 4123, WR(1_000_000)) == 0.0
        assert p_value(1, 10**9, WR(300_000)) == 0.9997000449953504
        assert time.perf_counter() - start < 0.1

    def test_many_redrawn_words_are_fast(self):
        # Just above 2^31 and 2^63 about half the generator words are
        # redrawn; a walk that visits each redrawn word takes over 0.6 s.
        for population in (2**31 + 1, 2**63 + 1):
            start = time.perf_counter()
            result = monte_carlo_pvalue(population // 2, population, WR(3),
                                        100_000, seed=0)
            assert time.perf_counter() - start < 0.2, population
            assert abs(result.estimate - 0.125) <= 4 * result.standard_error


class TestMonteCarlo:
    def test_deterministic_for_a_seed(self):
        first = monte_carlo_pvalue(166, 4123, WR(78), 50_000, seed=7)
        second = monte_carlo_pvalue(166, 4123, WR(78), 50_000, seed=7)
        assert first == second

    def test_everything_tainted_estimates_zero(self):
        result = monte_carlo_pvalue(50, 50, WR(10), 10_000, seed=1)
        assert result.estimate == 0.0

    def test_agrees_with_closed_form_with_replacement(self):
        closed = p_value(166, 4123, WR(78))
        result = monte_carlo_pvalue(166, 4123, WR(78), 200_000, seed=11)
        assert abs(result.estimate - closed) <= 3 * result.standard_error

    def test_agrees_with_closed_form_srs(self):
        closed = p_value(4, 20, SRS(6))
        result = monte_carlo_pvalue(4, 20, SRS(6), 200_000, seed=13)
        assert abs(result.estimate - closed) <= 3 * result.standard_error

    def test_statewide_benchmark_point_is_pinned(self):
        result = monte_carlo_pvalue(215, 25_000, WR(347), 200_000, seed=7)
        assert result.estimate == 0.050295

    def test_multiseat_benchmark_point_is_pinned(self):
        result = monte_carlo_pvalue(86, 10_000, WR(347), 200_000, seed=7)
        assert result.estimate == 0.05071

    def test_minnesota_benchmark_point_is_pinned(self):
        result = monte_carlo_pvalue(166, 4123, WR(202), 1_000_000, seed=7)
        assert result.estimate == 0.000229  # 229 misses

    def test_memory_stays_within_a_block(self):
        # A 2,000 x 10,000 int64 draw matrix would be 160 MB.  In one sample
        # of 20 million draws, anything carried from block to block that
        # grows with the sample would hold about 20 MB.  At 2**31 + 1 about
        # half the words are redrawn, and at 2**20 + 1 about 16 in 2**16.
        for population, draws, replications in [
            (10_000, 10_000, 2_000), (10_000, 20_000_000, 1),
            (2**31 + 1, 10_000, 2_000), (2**31 + 1, 20_000_000, 1),
            (2**20 + 1, 20_000_000, 1),
        ]:
            tracemalloc.start()
            try:
                monte_carlo_pvalue(1, population, WR(draws), replications,
                                   seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_population_above_uint64_rejected(self):
        with pytest.raises(InvalidCount, match=r"above 2\*\*64"):
            monte_carlo_pvalue(1, 2**64 + 1, WR(1), 1, seed=0)

    def test_population_of_exactly_two_to_the_64_is_drawn(self):
        result = monte_carlo_pvalue(0, 2**64, WR(3), 10, seed=0)
        assert result == MonteCarloResult(1.0, 0.0)

    @pytest.mark.parametrize("tainted, population", [
        (10**9, 10**9 + 5),
        (1, 10**9 + 1),
    ])
    def test_srs_beyond_hypergeometric_limit_rejected(self, tainted, population):
        with pytest.raises(InvalidCount, match=r"below 10\*\*9"):
            monte_carlo_pvalue(tainted, population, SRS(1), 1, seed=0)


def full_matrix_monte_carlo(taint_count, population, sampling, replications, seed):
    """The unblocked implementation: one uint64 matrix per 100,000
    replications.

    Kept as the reference the blocked draws must reproduce exactly; valid
    for populations up to 2**64.
    """
    n = sampling.draws
    rng = np.random.default_rng(seed)
    chunk = 100_000
    misses = 0
    remaining = replications
    while remaining > 0:
        size = min(chunk, remaining)
        if sampling.method == "with_replacement":
            draws = rng.integers(0, population, size=(size, n),
                                 dtype=np.uint64)
            # taint_count - 1 stays within uint64 when taint_count is 2**64.
            tainted_in_sample = (draws <= taint_count - 1).any(axis=1)
            misses += int(np.count_nonzero(~tainted_in_sample))
        else:
            counts = rng.hypergeometric(
                taint_count, population - taint_count, n, size=size
            )
            misses += int(np.count_nonzero(counts == 0))
        remaining -= size
    estimate = misses / replications
    stderr = sqrt(estimate * (1.0 - estimate) / replications)
    return MonteCarloResult(estimate, stderr)


@st.composite
def simulation_cases(draw):
    method = draw(st.sampled_from(["with_replacement", "simple_random_sample"]))
    if method == "with_replacement":
        population = draw(st.one_of(
            st.integers(1, 50),
            st.integers(2**32 - 3, 2**32 + 3),
            st.integers(2**64 - 3, 2**64),
            st.integers(1, 2**64),
        ))
    else:
        population = draw(st.integers(1, 10**9 - 1))
    # Small taint counts and complements, so that a miss is neither
    # certain nor impossible on the large populations too.
    tainted = draw(st.one_of(
        st.integers(0, min(population, 8)),
        st.integers(max(0, population - 8), population),
        st.integers(0, population),
    ))
    draws = draw(st.integers(1, 40))
    if method == "simple_random_sample":
        draws = min(draws, population)
    return (tainted, population, SamplingDesign(method, draws),
            draw(st.integers(1, 300)), draw(st.integers(0, 2**32)))


class TestBlockedStream:
    """Blocked draws reproduce the full-matrix stream for any block size."""

    @settings(max_examples=300, deadline=None)
    @given(case=simulation_cases(),
           block=st.sampled_from([1, 2, 3, 7, 64, 1000, 2**20]))
    @example(case=(3, 2**32, WR(5), 100_001, 1), block=2**20)
    @example(case=(3, 2**32 - 1, WR(5), 99_999, 2), block=2**20)
    @example(case=(3, 2**32 + 1, WR(5), 100_000, 3), block=2**20)
    @example(case=(2, 9, SRS(4), 100_001, 4), block=2**20)
    # About half of all words are redrawn.
    @example(case=(2**30, 2**31 + 1, WR(3), 300, 5), block=7)
    # About a quarter of all words are redrawn.
    @example(case=(2**30, 3 * 2**30 + 1, WR(3), 300, 6), block=64)
    # Only the word 0 is redrawn.
    @example(case=(2**31, 2**32 - 1, WR(2), 300, 7), block=3)
    # Words taken unmapped.
    @example(case=(2**31, 2**32, WR(2), 300, 8), block=3)
    # The smallest population drawn from 64-bit words.
    @example(case=(2**31, 2**32 + 1, WR(2), 300, 9), block=3)
    # 64-bit words: about half redrawn, only the word 0 redrawn, and taken
    # unmapped.
    @example(case=(2**62, 2**63 + 1, WR(3), 300, 17), block=7)
    @example(case=(2**63, 2**64 - 1, WR(2), 300, 18), block=3)
    @example(case=(2**63, 2**64, WR(2), 300, 19), block=3)
    # No words drawn.
    @example(case=(0, 1, WR(4), 10, 10), block=3)
    @example(case=(1, 1, WR(4), 10, 11), block=3)
    # No word redrawn.
    @example(case=(1, 2, WR(3), 300, 12), block=2)
    # No precinct tainted, and every precinct tainted.
    @example(case=(0, 4123, WR(202), 300, 13), block=64)
    @example(case=(4123, 4123, WR(202), 300, 14), block=64)
    # Samples longer than the block, partial rows carried across seams.
    @example(case=(1, 50, WR(40), 300, 15), block=7)
    @example(case=(1, 3, WR(5), 300, 16), block=1)
    # Blocks of one and two draws, about half the words redrawn: 32-bit and
    # 64-bit words.
    @example(case=(2**30, 2**31 + 1, WR(3), 300, 20), block=1)
    @example(case=(2**30, 2**31 + 1, WR(3), 300, 21), block=2)
    @example(case=(2**62, 2**63 + 1, WR(3), 300, 22), block=1)
    @example(case=(2**62, 2**63 + 1, WR(3), 300, 23), block=2)
    # About 16 words of each 2**16 redrawn, so most blocks lose a few.
    @example(case=(2**14, 2**20 + 1, WR(40), 30_000, 24), block=2**16)
    @example(case=(2**8, 2**20 + 1, WR(5_000), 300, 25), block=2**16)
    def test_matches_full_matrix(self, case, block):
        with mock.patch.object(risk, "_BLOCK_DRAWS", block):
            blocked = monte_carlo_pvalue(*case)
        assert blocked == full_matrix_monte_carlo(*case)


# numpy's PCG64 steps its 128-bit state s to s * _PCG64_MULTIPLIER + inc.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_starting_with(output):
    """A PCG64 whose next 64-bit output is ``output``, then its usual
    stream."""
    inc = 1
    # A state whose high half is 0 outputs its low half, unrotated.
    state = (output - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128)
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state % 2**128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def edge_words(tainted, population, bits):
    """The last tainted and first clean ``bits``-bit word, and for an odd
    population the largest redrawn and smallest kept remainder of
    word * population."""
    cut = -(-(tainted << bits) // population)
    words = [cut - 1, cut]
    redraw_below = 2**bits % population
    if population % 2 and redraw_below:
        inverse = pow(population, -1, 2**bits)
        words += [(redraw_below - 1) * inverse % 2**bits,
                  redraw_below * inverse % 2**bits]
    return words


class BigEndianOutputs:
    """A PCG64 whose ``random_raw`` returns big-endian arrays, as a
    big-endian host would hold them."""

    def __init__(self, seed):
        self._bit_generator = np.random.PCG64(seed)

    def random_raw(self, size):
        return self._bit_generator.random_raw(size).astype(">u8")


class TestWordMapping:
    """The words on either side of the taint cut and of the redraw limit
    are classified as ``integers`` classifies them."""

    @pytest.mark.parametrize("tainted, population", [
        (166, 4123),
        (5, 2**31 + 1),
        (2**30, 3 * 2**30 + 1),
        (2**31, 2**32 - 1),
        (2**31, 2**32),
        (5, 2**32 + 1),
        (2**62, 3 * 2**62 + 1),
        (1, 2**64 - 1),
    ])
    def test_edge_words_match_integers(self, tainted, population):
        # numpy's words are 32-bit up to 2**32, two to an output, low word
        # first; above 2**32 each output is one 64-bit word.
        if population <= 2**32:
            words = edge_words(tainted, population, 32)
            outputs = [low | high << 32 for low in words for high in words]
        else:
            outputs = edge_words(tainted, population, 64)
        for output in outputs:
            assert pcg64_starting_with(output).random_raw(1).tolist() == [output]
            indices = np.random.Generator(
                pcg64_starting_with(output)
            ).integers(0, population, size=3, dtype=np.uint64)
            misses = risk._word_misses(
                pcg64_starting_with(output), tainted, population, 1, 3,
            )
            assert misses == np.count_nonzero(indices >= tainted)

    @pytest.mark.parametrize("tainted, population", [
        (166, 4123),
        (2**31, 2**32 - 1),
        (2**31, 2**32 + 1),
        (2**62, 3 * 2**62 + 1),
    ])
    def test_big_endian_outputs_give_the_same_misses(self, tainted, population):
        with mock.patch.object(risk, "_BLOCK_DRAWS", 64):
            misses = [
                risk._word_misses(bit_generator, tainted, population, 7, 1000)
                for bit_generator in (BigEndianOutputs(3), np.random.PCG64(3))
            ]
        assert misses[0] == misses[1]


def small_contest():
    """Ten precincts, one pair, varied bounds; margin 95."""
    setup = ContestSetup(("W", "L"), votes_per_voter=1, precinct_count=10)
    returns = [
        PrecinctReturns(f"p{i}", "c1", 20 + i, {"W": 10 + i, "L": 5})
        for i in range(10)
    ]
    return setup, returns


class TestRunTest:
    def test_composes_statistic_count_and_pvalue(self):
        setup, returns = small_contest()
        audits = [AuditRecord("p0", {"W": 10, "L": 5})]
        config = TestConfig(weight=IDENTITY, sampling=WR(5))
        report = run_test(setup, returns, audits, config)
        assert report.observed_statistic == 0
        # Bounds are (25 + 2i)/95; the three largest sum past 1.
        assert report.taint_count == 3
        assert report.p_value == p_value(3, 10, WR(5))
        assert report.sample_size == 1
        assert not report.null_infeasible

    def test_bound_saturating_sample_gives_pvalue_one(self):
        # Margin is 9 - 3 = 6; the audited precinct hits its bound exactly:
        # e = ((3-1) - (0-5))/6 = 7/6 = u, and 3 * 7/6 >= 1, so t = 0.
        setup = ContestSetup(("W", "L"), votes_per_voter=1, precinct_count=3)
        returns = [
            PrecinctReturns(f"p{i}", "c1", 5, {"W": 3, "L": 1}) for i in range(3)
        ]
        audits = [AuditRecord("p0", {"W": 0, "L": 5})]
        report = run_test(setup, returns, audits, TestConfig(IDENTITY, WR(4)))
        assert report.observed_statistic == Fraction(7, 6)
        assert report.taint_count == 0
        assert report.p_value == 1.0

    def test_matches_monte_carlo_on_small_instance(self):
        setup, returns = small_contest()
        audits = [AuditRecord("p0", {"W": 10, "L": 5})]
        config = TestConfig(weight=IDENTITY, sampling=WR(5))
        report = run_test(setup, returns, audits, config)
        simulated = monte_carlo_pvalue(
            report.taint_count, report.population_size, config.sampling,
            200_000, seed=17,
        )
        assert abs(report.p_value - simulated.estimate) <= (
            3 * simulated.standard_error
        )

    def test_unknown_sampled_precinct_rejected(self):
        setup, returns = small_contest()
        audits = [AuditRecord("nope", {"W": 1, "L": 1})]
        with pytest.raises(UnknownPrecinct):
            run_test(setup, returns, audits, TestConfig(IDENTITY, WR(5)))

    def test_duplicate_audit_rejected(self):
        # Counted twice, one audit would make sample_size 2 for one sampled
        # precinct, and the report built from it would not verify.
        setup, returns = small_contest()
        audit = AuditRecord("p0", {"W": 10, "L": 5})
        with pytest.raises(ValidationError,
                           match="duplicate audit for precinct 'p0'"):
            run_test(setup, returns, [audit, audit], TestConfig(IDENTITY, WR(5)))

    def test_statewide_zero_discrepancy_sample_of_78(self, minnesota_files):
        from mro_audit.core import AuditRecord, pool_candidates

        setup, returns = pool_candidates(
            minnesota_files["setup"], minnesota_files["returns"],
            ("Cavlan", "Powers", "WriteIns"), "Pooled",
        )
        by_id = {r.precinct_id: r for r in returns}
        audits = [
            AuditRecord(pid, dict(by_id[pid].machine_votes))
            for pid in minnesota_files["sampled"][:78]
        ]
        report = run_test(setup, returns, audits, TestConfig(IDENTITY, WR(78)))
        assert report.sample_size == 78
        assert report.taint_count == 166
        assert report.p_value == pytest.approx(0.0405, abs=5e-4)

    @pytest.mark.parametrize("weight", [IDENTITY, TAINT], ids=["identity", "taint"])
    def test_full_reversed_tally_never_reports_low_risk(self, weight):
        # A complete "sample" that witnesses the reversal must give p = 1.
        rng = random.Random(23)
        for trial in range(10):
            setup, returns, audits = gen_instance(
                rng.randint(2, 8), rng.randint(2, 4),
                reversal=True, seed=4000 + trial,
            )
            totals = compute_totals(setup, returns)
            by_id = {a.precinct_id: a for a in audits}
            discs = [
                analyze_precinct(r, by_id[r.precinct_id], totals.pairwise_margins)
                for r in returns
            ]
            assert mro_sum(discs) >= 1
            report = run_test(
                setup, returns, audits, TestConfig(weight, WR(3))
            )
            assert report.p_value == 1.0
