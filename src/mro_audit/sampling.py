"""Stratified county-by-county audit sampling and its conservative reduction.

County rules of the Minnesota kind: each county draws a statutory minimum
number of precincts at random (2, 3 or 4 depending on registered voters),
and at least one drawn precinct must have 150 or more votes.  "Votes" means
votes counted for this contest, not registered voters.

Draws use per-precinct tickets derived from SHA-256 over (seed, precinct id),
so a sample is reproducible from the seed alone on any platform and in any
implementation of the scheme, and drawing is consistent: a precinct's ticket
does not depend on which other precincts exist.

The stratified design is reduced for the risk test to an effective
with-replacement sample size: the population size times the smallest
per-county inclusion rate, rounded down; a precinct under 150 votes is
reached only by its county's later draws.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import PrecinctReturns
from .errors import (
    EmptyCounty,
    InfeasibleConstraint,
    UnknownPrecinct,
    ValidationError,
)

LARGE_PRECINCT_VOTES = 150


@dataclass(frozen=True)
class CountyPlan:
    """How many precincts one county must draw, and from which.

    A plan can model any stratified design, such as the one-draw counties
    that the draw and reduction tests build, so it does not apply the
    statutory minimum: that is the county table's rule, which
    ``io.load_county_plans`` applies.
    """

    county_id: str
    registered_voters: int
    precincts: tuple[str, ...]
    required_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "precincts", tuple(self.precincts))
        if self.registered_voters < 0:
            raise ValidationError(
                f"county {self.county_id}: negative registered voters"
            )
        if self.required_samples < 1:
            raise ValidationError(
                f"county {self.county_id}: must sample at least one precinct"
            )
        if not self.precincts:
            raise EmptyCounty(f"county {self.county_id} has no precincts")
        if self.required_samples > len(self.precincts):
            raise ValidationError(
                f"county {self.county_id}: {self.required_samples} samples "
                f"requested from {len(self.precincts)} precincts"
            )


def statutory_minimum(registered_voters: int) -> int:
    """Minimum precincts a county must audit, from its registered voters.

    Below 50,000 voters: 2.  From 50,000 through 100,000 inclusive: 3.
    Above 100,000: 4.  Both boundary values land in the middle bracket.
    """
    if registered_voters < 50_000:
        return 2
    if registered_voters <= 100_000:
        return 3
    return 4


def _ticket(seed: int | str, precinct_id: str) -> str:
    return hashlib.sha256(f"{seed}|{precinct_id}".encode("utf-8")).hexdigest()


def _no_large_precinct(plan: CountyPlan) -> InfeasibleConstraint:
    return InfeasibleConstraint(f"county {plan.county_id}: no precinct has "
                                f"at least {LARGE_PRECINCT_VOTES} votes")


def _returns_by_id(
    plans: Sequence[CountyPlan], returns: Sequence[PrecinctReturns]
) -> dict[str, PrecinctReturns]:
    """The returns by precinct id, once each is found in exactly one plan.

    Raises:
        UnknownPrecinct: a plan lists a precinct absent from the returns.
        ValidationError: a precinct appears in two plans, or in none.
    """
    by_id = {ret.precinct_id: ret for ret in returns}
    claimed: set[str] = set()
    for plan in plans:
        for pid in plan.precincts:
            if pid not in by_id:
                raise UnknownPrecinct(
                    f"county {plan.county_id}: precinct {pid!r} not in returns"
                )
            if pid in claimed:
                raise ValidationError(
                    f"precinct {pid!r} appears in more than one county plan"
                )
            claimed.add(pid)
    if len(claimed) < len(by_id):
        unplanned = [pid for pid in by_id if pid not in claimed]
        raise ValidationError(
            f"{len(unplanned)} precinct(s) in no county plan, "
            f"e.g. {unplanned[:5]}"
        )
    return by_id


def draw_sample(
    plans: Sequence[CountyPlan],
    returns: Sequence[PrecinctReturns],
    seed: int | str,
) -> list[str]:
    """Draw each county's sample; deterministic given the seed.

    Construction per county, resampling-free: the eligible precinct (>= 150
    votes) with the smallest ticket is taken first, then the remaining draws
    are the smallest-ticket precincts among all others.  Output size is the
    sum of the counties' required samples, with no duplicates.

    Raises:
        InfeasibleConstraint: a county has no precinct with >= 150 votes.
        UnknownPrecinct, ValidationError: as :func:`_returns_by_id`.
    """
    by_id = _returns_by_id(plans, returns)
    sample: list[str] = []
    for plan in plans:
        ordered = sorted(
            plan.precincts, key=lambda pid: (_ticket(seed, pid), pid)
        )
        first = next(
            (pid for pid in ordered
             if by_id[pid].total_votes() >= LARGE_PRECINCT_VOTES),
            None,
        )
        if first is None:
            raise _no_large_precinct(plan)
        rest = [pid for pid in ordered if pid != first]
        sample.extend([first, *rest[: plan.required_samples - 1]])
    return sample


def conservative_effective_n(plans: Sequence[CountyPlan],
                             returns: Sequence[PrecinctReturns]) -> int:
    """``len(returns)`` times the smallest county inclusion rate, floored.

    This is the with-replacement sample size the risk test may safely use in
    place of :func:`draw_sample`'s design: no precinct is drawn at a lower
    rate.  County c counts at n_c/N_c, or at (n_c - 1)/(N_c - 1) if it holds
    a precinct under 150 votes, which only the later draws reach.

    Raises:
        InfeasibleConstraint: a county has no precinct with >= 150 votes.
        UnknownPrecinct: as :func:`_returns_by_id`.
        ValidationError: no plans are given, or as :func:`_returns_by_id`.
    """
    if not plans:
        raise ValidationError("no county plans supplied")
    small = {pid for pid, ret in _returns_by_id(plans, returns).items()
             if ret.total_votes() < LARGE_PRECINCT_VOTES}
    rates = []
    for plan in plans:
        size, take = len(plan.precincts), plan.required_samples
        if not small.isdisjoint(plan.precincts):
            if small.issuperset(plan.precincts):
                raise _no_large_precinct(plan)
            size, take = size - 1, take - 1
        rates.append(Fraction(take, size))
    smallest = min(rates)
    return (len(returns) * smallest.numerator) // smallest.denominator
