"""Conservative hypothesis test: could a full hand count reverse the outcome?

The null hypothesis is that the summed per-precinct MRO reaches the margin
threshold (1 for relative overstatements), i.e. that the apparent outcome is
wrong.  The test statistic is the maximum weighted MRO observed in the audit
sample.  Given that observation, `taint_count` asks: how many precincts, at
minimum, must hide errors above the sample-implied cap for the null to
remain possible?  The P-value is then the worst-case chance that a random
sample of the size actually drawn missed all of those precincts.

All intermediates are exact rationals; only the final P-value is a float.
numpy is imported only by the Monte Carlo check, so the exact test starts
without it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, sqrt
from typing import Literal, NamedTuple

from .core import (
    AuditRecord,
    Contest,
    ContestSetup,
    PrecinctReturns,
    join_audits,
    prepare_contest,
)
from .discrepancy import BoundColumns, PrecinctDiscrepancy, analyze_precinct
from .errors import (
    EmptySample,
    InconsistentBounds,
    InvalidCount,
    ValidationError,
    ZeroBoundWithTaintWeight,
)

Rational = Fraction | int


# The per-precinct weightings of the observed MRO.  ``identity`` scores a
# precinct by its MRO directly; ``taint`` scores it by MRO divided by the
# precinct's a priori bound, so precincts are compared by how much of their
# error budget they used.
IDENTITY = "identity"
TAINT = "taint"


def _check_weight(weight: str) -> None:
    if weight not in (IDENTITY, TAINT):
        raise ValidationError(f"unknown weight function {weight!r}")


@dataclass(frozen=True)
class SamplingDesign:
    """How the audit sample relates to the precinct population."""

    method: Literal["with_replacement", "simple_random_sample"]
    draws: int

    def __post_init__(self) -> None:
        if self.method not in ("with_replacement", "simple_random_sample"):
            raise ValidationError(f"unknown sampling method {self.method!r}")
        if self.draws < 1:
            raise ValidationError("sampling design needs at least one draw")


@dataclass(frozen=True)
class TestConfig:
    """Weight and sampling design of a risk test."""

    __test__ = False  # keep pytest from collecting this as a test class

    weight: Literal["identity", "taint"]
    sampling: SamplingDesign

    # Not a field: the apparent outcome stands if the summed MRO is less
    # than 1 (the paper's condition), so the null is a sum that reaches 1.
    margin_threshold = Fraction(1)

    def __post_init__(self) -> None:
        _check_weight(self.weight)


class RiskReport(NamedTuple):
    """Everything needed to reproduce one risk computation."""

    observed_statistic: Fraction
    taint_count: int
    population_size: int
    p_value: float
    config: TestConfig
    sample_size: int
    null_infeasible: bool = False


def observed_statistic(
    sample: Sequence[PrecinctDiscrepancy], weight: str
) -> Fraction:
    """Maximum weighted MRO over the sampled precincts.

    Raises:
        ValidationError: ``weight`` is neither ``identity`` nor ``taint``.
        EmptySample: no precincts were sampled.
        ZeroBoundWithTaintWeight: taint weighting hit a zero bound.
    """
    _check_weight(weight)
    if not sample:
        raise EmptySample("observed statistic needs at least one sampled precinct")
    if weight == IDENTITY:
        return max(d.max_overstatement for d in sample)
    if any(d.bound == 0 for d in sample):
        raise ZeroBoundWithTaintWeight(
            "taint weight undefined for a precinct with bound 0"
        )
    return max(d.max_overstatement / d.bound for d in sample)


def taint_count(
    bounds: Sequence[Rational] | BoundColumns,
    threshold: Rational,
    weight: str = IDENTITY,
    margin_threshold: Rational = Fraction(1),
) -> int:
    """Minimum number of precincts that must exceed the sample-implied cap.

    Worst-case allocation: the adversary gives t precincts their full bound
    and every other precinct the largest MRO whose weighted value stays at
    or below ``threshold`` and that its bound allows: the smaller of the
    threshold and the bound under ``identity``, threshold times the bound
    under ``taint``.  Tainting a precinct gains its bound minus that cap,
    which grows with the bound, so the t largest bounds maximise the
    achievable sum for either weight kind.
    The returned t is the smallest count for which that allocation reaches
    ``margin_threshold``.  Returns ``len(bounds) + 1`` as a sentinel when
    even t = N cannot reach it (the null is impossible and the P-value is 0).

    Bounds are ints or Fractions, or a contest's ``BoundColumns``, whose
    int columns are read as they are.  The walk is exact integer
    arithmetic: bounds, threshold and target are scaled to integers over
    the lcm of their denominators.

    Raises:
        ValidationError: ``weight`` is neither ``identity`` nor ``taint``.
        InconsistentBounds: a bound is negative.
    """
    _check_weight(weight)
    if isinstance(bounds, BoundColumns):
        nums, dens = bounds.numerators, bounds.margins
    else:
        nums = [bound.numerator for bound in bounds]
        dens = [bound.denominator for bound in bounds]
    if nums and min(nums) < 0:
        first = next(Fraction(n, d) for n, d in zip(nums, dens) if n < 0)
        raise InconsistentBounds(f"negative per-precinct bound {first}")
    threshold = Fraction(threshold)
    target = Fraction(margin_threshold)
    if weight == TAINT and threshold > 1:
        # A weighted observation above 1 exceeds every bound; cap at the bound.
        threshold = Fraction(1)
    tn, td = threshold.numerator, threshold.denominator
    denominators = set(dens)
    scale = lcm(td, target.denominator, *denominators)
    factor = {den: scale // den for den in denominators}
    keys = sorted(
        (num * factor[den] for num, den in zip(nums, dens)), reverse=True
    )
    goal = target.numerator * (scale // target.denominator)
    if weight == IDENTITY:
        # In units of 1/scale: precinct i starts at min(threshold, bound_i),
        # so only a bound above the threshold gains when tainted.
        cap = tn * (scale // td)
        achievable = sum(min(cap, key) for key in keys)
        gains = (key - cap for key in keys if key > cap)
    else:
        # In units of 1/(scale*td): precinct i starts at threshold * bound_i.
        goal *= td
        achievable = tn * sum(keys)
        gains = (key * (td - tn) for key in keys)
    if achievable >= goal:
        return 0
    for t, gain in enumerate(gains, start=1):
        achievable += gain
        if achievable >= goal:
            return t
    return len(keys) + 1


def _check_counts(
    taint_count: int, population: int, sampling: SamplingDesign
) -> None:
    if population < 1:
        raise InvalidCount(f"population {population} must be at least 1")
    if not 0 <= taint_count <= population:
        raise InvalidCount(
            f"taint count {taint_count} outside [0, {population}]"
        )
    if sampling.method == "simple_random_sample" and sampling.draws > population:
        raise InvalidCount(
            f"cannot draw {sampling.draws} of {population} precincts "
            f"without replacement"
        )


# Bits below the binary point of the fixed-point bounds in `_power_float`:
# 128 below 2**-1074, the smallest positive float.
_POWER_BITS = 1074 + 128


def _power_bound(num: int, den: int, n: int, up: bool) -> int:
    """A lower (or upper) bound of (num / den) ** n * 2**_POWER_BITS, by
    binary exponentiation rounded down (or up) after every product."""
    bits = _POWER_BITS
    carry = (1 << bits) - 1 if up else 0
    base = ((num << bits) + (den - 1 if up else 0)) // den
    result = 1 << bits
    while True:
        if n & 1:
            result = (result * base + carry) >> bits
        n >>= 1
        if not n:
            return result
        base = (base * base + carry) >> bits


def _power_float(num: int, den: int, n: int) -> float:
    """``float(Fraction(num, den) ** n)`` for 0 <= num <= den and n >= 1.

    The exact power has about n times the bits of ``den``.  Instead, a lower
    and an upper bound of it are held as ints in fixed point, `_POWER_BITS`
    bits below the binary point, so a base of 0 or 1 stays exact.  int/int
    true division rounds each bound correctly, to a subnormal or to 0.0 as
    well, so when both bounds give the same float the exact power, which
    lies between them, gives it too.  Only when they differ (the power lies
    within roughly n * 2**-_POWER_BITS of a rounding boundary) is the exact
    Fraction formed.
    """
    one = 1 << _POWER_BITS
    low = _power_bound(num, den, n, up=False) / one
    if low == _power_bound(num, den, n, up=True) / one:
        return low
    return float(Fraction(num, den) ** n)


def p_value(taint_count: int, population: int, sampling: SamplingDesign) -> float:
    """Chance a clean sample misses every one of `taint_count` precincts.

    With replacement this is ((N - t) / N) ** n, rounded to the nearest
    float exactly as ``float(Fraction(N - t, N) ** n)`` would round it; for
    a simple random sample it is the hypergeometric probability of drawing
    zero tainted precincts.

    Raises:
        InvalidCount: N < 1, t outside [0, N], or an SRS larger than the
            population.
    """
    _check_counts(taint_count, population, sampling)
    n = sampling.draws
    if sampling.method == "with_replacement":
        return _power_float(population - taint_count, population, n)
    clean = population - taint_count
    return float(Fraction(comb(clean, n), comb(population, n)))


class MonteCarloResult(NamedTuple):
    estimate: float
    standard_error: float


# Words drawn per with-replacement block: 256 KiB as 32-bit words.
_BLOCK_DRAWS = 1 << 16
# Largest population a with-replacement draw reaches (the 64-bit words).
_MAX_WR_POPULATION = 1 << 64
# numpy's hypergeometric needs ngood and nbad below this.
_MAX_HYPERGEOMETRIC = 10**9
# Replications per simple-random-sample chunk (one int64 count each).
_SRS_CHUNK = 100_000


def _blocks(total: int, block: int) -> Iterator[int]:
    """Sizes of consecutive blocks of at most ``block`` that sum to ``total``."""
    for start in range(0, total, block):
        yield min(block, total - start)


def _word_misses(
    bit_generator, taint_count: int, population: int, draws: int,
    replications: int,
) -> int:
    """Replications whose ``draws`` with-replacement indices below
    ``population`` (at most 2**64) all miss the first ``taint_count``.

    ``Generator.integers`` draws below N by Lemire's method on b-bit words,
    b = 32 for N <= 2**32 and 64 above: it maps a word w to the index
    (w * N) >> b and redraws w when (w * N) mod 2**b, which
    ``w * (N mod 2**b)`` wraps to, is below 2**b mod N.  This reads the same words,
    in the same order, from ``random_raw`` (a 64-bit output is one word, or
    two, low word first), drops the ones numpy would redraw, and calls a
    kept word tainted when w < ceil(t * 2**b / N), which is exactly when
    its index is below t.  The kept words form the replications' samples
    in turn; only the partial sample at a block's end is carried over, as
    the words it still needs and whether it has a tainted word yet.
    Every block's redraw test multiplies into one product buffer per call.
    """
    import numpy as np

    if taint_count in (0, population):
        return replications if taint_count == 0 else 0
    bits = 32 if population <= 1 << 32 else 64
    word = np.dtype(f"<u{bits // 8}")
    reject_below = word.type((1 << bits) % population)
    factor = word.type(population % (1 << bits))
    cut = word.type(-(-(taint_count << bits) // population))
    lowest = np.minimum.reduce
    buffer = np.empty(-(-_BLOCK_DRAWS * bits // 64), "<u8").view(word)
    remaining = replications * draws
    misses = 0
    need, tainted = draws, False
    while remaining:
        outputs = -(-min(_BLOCK_DRAWS, remaining) * bits // 64)
        # Low word first whatever the host's byte order.
        words = bit_generator.random_raw(outputs).astype(
            "<u8", copy=False).view(word)
        if reject_below:
            products = np.multiply(words, factor, out=buffer[:words.size])
            if lowest(products) < reject_below:
                words = np.delete(words, np.flatnonzero(products < reject_below))
        words = words[:remaining]
        remaining -= words.size
        head = words[:need]
        if head.size:
            tainted = tainted or bool(lowest(head) < cut)
            need -= head.size
            if not need:
                misses += not tainted
                need, tainted = draws, False
        rest = words[head.size:]
        rows = rest.size // draws
        if rows:
            lows = lowest(rest[:rows * draws].reshape(rows, draws), axis=1)
            misses += int(np.count_nonzero(lows >= cut))
        tail = rest[rows * draws:]
        if tail.size:
            need, tainted = draws - tail.size, bool(lowest(tail) < cut)
    return misses


def monte_carlo_pvalue(
    taint_count: int,
    population: int,
    sampling: SamplingDesign,
    replications: int,
    seed: int,
) -> MonteCarloResult:
    """Simulation check of :func:`p_value`; deterministic for a given seed.

    Each replication draws a sample from a population in which exactly
    ``taint_count`` precincts are tainted and records whether the sample
    missed all of them.  With-replacement draws are simulated literally;
    for a simple random sample the number of tainted precincts drawn is
    simulated hypergeometrically.

    With-replacement draws are read as the generator's words and mapped to
    precincts as ``Generator.integers`` maps them (see `_word_misses`), so
    the estimate equals the one from drawing the indices with ``integers``,
    for every population up to 2**64 and every seed; ``TestBlockedStream``
    holds it to that reference.  The draws are made in blocks of about
    ``_BLOCK_DRAWS``, so memory stays bounded whatever the sample size and
    replication count, and every block takes the next values of the same
    stream, so the result depends on the seed alone, not on the block size.

    Raises:
        ValidationError: fewer than one replication.
        InvalidCount: as for :func:`p_value`; also when numpy cannot draw
            the design: a population above 2**64 with replacement, or a
            simple random sample with ``taint_count`` or
            ``population - taint_count`` at or above 10**9.
    """
    import numpy as np

    if replications < 1:
        raise ValidationError("need at least one replication")
    _check_counts(taint_count, population, sampling)
    n = sampling.draws
    rng = np.random.default_rng(seed)
    if sampling.method == "with_replacement":
        if population > _MAX_WR_POPULATION:
            raise InvalidCount(
                f"population {population} is above 2**64, the largest "
                f"numpy can draw from with replacement"
            )
        misses = _word_misses(rng.bit_generator, taint_count, population,
                              n, replications)
    else:
        clean_count = population - taint_count
        if max(taint_count, clean_count) >= _MAX_HYPERGEOMETRIC:
            raise InvalidCount(
                f"taint count {taint_count} and clean count {clean_count} "
                f"must both be below 10**9 to simulate a simple random sample"
            )
        misses = sum(
            int(np.count_nonzero(
                rng.hypergeometric(taint_count, clean_count, n, size=size) == 0
            ))
            for size in _blocks(replications, _SRS_CHUNK)
        )
    estimate = misses / replications
    stderr = sqrt(estimate * (1.0 - estimate) / replications)
    return MonteCarloResult(estimate, stderr)


def run_test(
    setup: ContestSetup,
    returns: Sequence[PrecinctReturns],
    audits: Sequence[AuditRecord],
    config: TestConfig,
) -> RiskReport:
    """The report of :func:`run_contest_test` for hand-built returns, which
    it validates first."""
    return run_contest_test(prepare_contest(setup, returns), audits, config)[0]


def run_contest_test(
    contest: Contest,
    audits: Sequence[AuditRecord],
    config: TestConfig,
) -> tuple[RiskReport, BoundColumns, list[PrecinctDiscrepancy]]:
    """Full pipeline: bounds and discrepancies, then :func:`assess_sample`.

    Each audit is joined to its precinct by ``core.join_audits``.  Returns
    the report with the bounds (in the contest's precinct order) and the
    per-audit discrepancies it was computed from, so a caller that reports
    them need not compute them again.
    """
    margins = contest.totals.pairwise_margins
    bounds = BoundColumns(contest)
    nums, dens = bounds.numerators, bounds.margins
    discrepancies = [
        analyze_precinct(ret, audit, margins, Fraction(nums[i], dens[i]))
        for i, ret, audit in join_audits(contest, audits)
    ]
    report = assess_sample(bounds, discrepancies, config)
    return report, bounds, discrepancies


def assess_sample(
    bounds: Sequence[Rational] | BoundColumns,
    sample: Sequence[PrecinctDiscrepancy],
    config: TestConfig,
) -> RiskReport:
    """Statistic -> taint count -> P-value, for a sample of the precincts
    whose a priori bounds are ``bounds``, as :func:`taint_count` takes them.

    When even a fully adversarial population cannot reach the margin
    threshold, the report carries ``null_infeasible=True``, the taint count
    saturates at the population size, and the P-value is 0.

    Raises:
        EmptySample, ZeroBoundWithTaintWeight: as :func:`observed_statistic`.
        InvalidCount: as :func:`p_value`.
    """
    statistic = observed_statistic(sample, config.weight)
    population = len(bounds)
    raw_count = taint_count(bounds, statistic, config.weight,
                            config.margin_threshold)
    count = min(raw_count, population)
    return RiskReport(
        observed_statistic=statistic,
        taint_count=count,
        population_size=population,
        p_value=p_value(count, population, config.sampling),
        config=config,
        sample_size=len(sample),
        null_infeasible=raw_count > population,
    )
