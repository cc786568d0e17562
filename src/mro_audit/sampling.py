"""Stratified county-by-county audit sampling and its conservative reduction.

County rules of the Minnesota kind: each county draws a statutory minimum
number of precincts at random (2, 3 or 4 depending on registered voters),
and at least one drawn precinct must have 150 or more votes.  "Votes" means
votes counted for this contest, not registered voters.  A county's
precincts are the returns rows with its ``county_id``; a plan says only
how many of them to draw.

Draws use per-precinct tickets derived from SHA-256 over (seed, precinct id),
so a sample is reproducible from the seed alone on any platform and in any
implementation of the scheme, and drawing is consistent: a precinct's ticket
does not depend on which other precincts exist.

The stratified design is reduced for the risk test to an effective
with-replacement sample size: the population size times the smallest
per-county inclusion rate, rounded down; a precinct under 150 votes is
reached only by its county's later draws.

One walk of the returns, :func:`_counties`, states the county rules for
the draw and its reduction alike; ``io.load_county_plans`` applies its
per-plan rule, :func:`_plan_problem`, at each row of a county table.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .core import PrecinctReturns
from .errors import InfeasibleConstraint, ValidationError

LARGE_PRECINCT_VOTES = 150


@dataclass(frozen=True)
class CountyPlan:
    """How many precincts one county must draw.  Its precincts are the
    returns rows whose ``county_id`` is the plan's."""

    county_id: str
    required_samples: int

    def __post_init__(self) -> None:
        if self.required_samples < 1:
            raise ValidationError(
                f"county {self.county_id}: must sample at least one precinct"
            )


def _plan_problem(plan: CountyPlan, size: int) -> str | None:
    """The rule ``plan`` breaks against the ``size`` precincts of its county
    in the returns, or ``None``.  The caller adds the location."""
    if not size:
        return f"county {plan.county_id!r} has no precincts in the returns"
    if plan.required_samples > size:
        return (f"county {plan.county_id}: "
                f"{plan.required_samples} samples requested from {size} precincts")
    return None


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


def _counties(
    plans: Sequence[CountyPlan], returns: Sequence[PrecinctReturns]
) -> list[tuple[list[str], set[str]]]:
    """Each plan's precincts, in returns order, and those of them with at
    least 150 votes, from one walk of the returns.

    The county rules, in this order: no county has two plans; each plan
    keeps :func:`_plan_problem`; every county of the returns has a plan;
    and each plan's county has a precinct with at least 150 votes.

    Raises:
        ValidationError: one of the first three rules is broken.
        InfeasibleConstraint: a plan's county has no precinct with >= 150
            votes.
    """
    walk: dict[str, tuple[list[str], set[str]]] = {}
    for plan in plans:
        if plan.county_id in walk:
            raise ValidationError(f"county {plan.county_id!r} has two plans")
        walk[plan.county_id] = [], set()
    unplanned: set[str] = set()
    for ret in returns:
        county = walk.get(ret.county_id)
        if county is None:
            unplanned.add(ret.county_id)
            continue
        county[0].append(ret.precinct_id)
        if ret.total_votes() >= LARGE_PRECINCT_VOTES:
            county[1].add(ret.precinct_id)
    for plan in plans:
        problem = _plan_problem(plan, len(walk[plan.county_id][0]))
        if problem is not None:
            raise ValidationError(problem)
    if unplanned:
        raise ValidationError(
            f"counties in returns but in no plan: {sorted(unplanned)[:5]}")
    for plan in plans:
        if not walk[plan.county_id][1]:
            raise InfeasibleConstraint(
                f"county {plan.county_id}: no precinct has at least "
                f"{LARGE_PRECINCT_VOTES} votes"
            )
    return [walk[plan.county_id] for plan in plans]


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
        InfeasibleConstraint, ValidationError: as :func:`_counties`.
    """
    sample: list[str] = []
    for plan, (precincts, large) in zip(plans, _counties(plans, returns)):
        ordered = sorted(precincts, key=partial(_ticket, seed))
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
        InfeasibleConstraint: as :func:`_counties`.
        ValidationError: no plans are given, or as :func:`_counties`.
    """
    if not plans:
        raise ValidationError("no county plans supplied")
    rates = []
    for plan, (precincts, large) in zip(plans, _counties(plans, returns)):
        size, take = len(precincts), plan.required_samples
        if len(large) < size:
            size, take = size - 1, take - 1
        rates.append(Fraction(take, size))
    smallest = min(rates)
    return (len(returns) * smallest.numerator) // smallest.denominator
