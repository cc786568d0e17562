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
per-county sampling fraction, rounded down.
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
    """How many precincts one county must draw, and from which."""

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


def draw_sample(
    plans: Sequence[CountyPlan],
    returns: Sequence[PrecinctReturns],
    seed: int | str,
) -> list[str]:
    """Draw each county's sample; deterministic given the seed.

    Construction per county, resampling-free: the eligible precinct (>= 150
    votes) with the smallest ticket is taken first, then the remaining draws
    are the smallest-ticket precincts among all others.  Output size is the sum of the counties' required
    samples, with no duplicates.

    Raises:
        InfeasibleConstraint: a county has no precinct with >= 150 votes.
        UnknownPrecinct: a plan lists a precinct absent from the returns.
        ValidationError: a county requires more samples than it has
            precincts, or a precinct appears in two plans.
    """
    votes_by_id = {ret.precinct_id: ret.total_votes() for ret in returns}
    claimed: set[str] = set()
    sample: list[str] = []
    for plan in plans:
        for pid in plan.precincts:
            if pid not in votes_by_id:
                raise UnknownPrecinct(
                    f"county {plan.county_id}: precinct {pid!r} not in returns"
                )
            if pid in claimed:
                raise ValidationError(
                    f"precinct {pid!r} appears in more than one county plan"
                )
            claimed.add(pid)
        if plan.required_samples > len(plan.precincts):
            raise ValidationError(
                f"county {plan.county_id}: {plan.required_samples} samples "
                f"requested from {len(plan.precincts)} precincts"
            )

        ordered = sorted(
            plan.precincts, key=lambda pid: (_ticket(seed, pid), pid)
        )
        first = next(
            (pid for pid in ordered
             if votes_by_id[pid] >= LARGE_PRECINCT_VOTES),
            None,
        )
        if first is None:
            raise InfeasibleConstraint(
                f"county {plan.county_id}: no precinct has at least "
                f"{LARGE_PRECINCT_VOTES} votes"
            )
        rest = [pid for pid in ordered if pid != first]
        sample.extend([first, *rest[: plan.required_samples - 1]])
    return sample


def conservative_effective_n(plans: Sequence[CountyPlan], population: int) -> int:
    """Population size times the smallest county sampling fraction, floored.

    This is the with-replacement sample size the risk test may safely use in
    place of the stratified design: no county samples at a lower rate.

    Raises:
        EmptyCounty: a plan lists no precincts.
    """
    if not plans:
        raise ValidationError("no county plans supplied")
    fractions = []
    for plan in plans:
        if not plan.precincts:
            raise EmptyCounty(f"county {plan.county_id} has no precincts")
        fractions.append(Fraction(plan.required_samples, len(plan.precincts)))
    smallest = min(fractions)
    return (population * smallest.numerator) // smallest.denominator
