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
from functools import partial

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
    """How many precincts one county must draw, and from which."""

    county_id: str
    precincts: tuple[str, ...]
    required_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "precincts", tuple(self.precincts))
        if self.required_samples < 1:
            raise ValidationError(
                f"county {self.county_id}: must sample at least one precinct"
            )
        if not self.precincts:
            raise EmptyCounty(f"county {self.county_id} has no precincts")
        if len(set(self.precincts)) < len(self.precincts):
            repeated = next(pid for i, pid in enumerate(self.precincts)
                            if pid in self.precincts[:i])
            raise ValidationError(
                f"county {self.county_id}: precinct {repeated!r} is listed "
                "twice"
            )
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


def _eligible(
    plans: Sequence[CountyPlan], returns: Sequence[PrecinctReturns]
) -> list[set[str]]:
    """Each plan's eligible precincts, those with at least 150 votes, once
    every precinct of the returns is found in exactly one plan.

    Raises:
        UnknownPrecinct: a plan lists a precinct absent from the returns.
        ValidationError: a precinct appears in two plans, or in none.
        InfeasibleConstraint: a plan has no precinct with >= 150 votes.
    """
    votes = {ret.precinct_id: ret.total_votes() for ret in returns}
    claimed: set[str] = set()
    for plan in plans:
        for pid in plan.precincts:
            if pid not in votes:
                raise UnknownPrecinct(
                    f"county {plan.county_id}: precinct {pid!r} not in returns"
                )
            if pid in claimed:
                raise ValidationError(
                    f"precinct {pid!r} appears in more than one county plan"
                )
            claimed.add(pid)
    if len(claimed) < len(votes):
        unplanned = [pid for pid in votes if pid not in claimed]
        raise ValidationError(
            f"{len(unplanned)} precinct(s) in no county plan, "
            f"e.g. {unplanned[:5]}"
        )
    eligible = [{pid for pid in plan.precincts
                 if votes[pid] >= LARGE_PRECINCT_VOTES} for plan in plans]
    for plan, large in zip(plans, eligible):
        if not large:
            raise InfeasibleConstraint(
                f"county {plan.county_id}: no precinct has at least "
                f"{LARGE_PRECINCT_VOTES} votes"
            )
    return eligible


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
        InfeasibleConstraint, UnknownPrecinct, ValidationError: as
            :func:`_eligible`.
    """
    sample: list[str] = []
    for plan, large in zip(plans, _eligible(plans, returns)):
        ordered = sorted(plan.precincts, key=partial(_ticket, seed))
        first = next(pid for pid in ordered if pid in large)
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
        InfeasibleConstraint, UnknownPrecinct: as :func:`_eligible`.
        ValidationError: no plans are given, or as :func:`_eligible`.
    """
    if not plans:
        raise ValidationError("no county plans supplied")
    rates = []
    for plan, large in zip(plans, _eligible(plans, returns)):
        size, take = len(plan.precincts), plan.required_samples
        if len(large) < size:
            size, take = size - 1, take - 1
        rates.append(Fraction(take, size))
    smallest = min(rates)
    return (len(returns) * smallest.numerator) // smallest.denominator
