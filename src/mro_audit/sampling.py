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

One walk of the returns' columns, :func:`county_walk`, groups the precincts
by county; :func:`_counties` states the county rules on it once for
:func:`draw_and_reduce`, the row calls walk their rows' columns, and
``io.load_county_table`` applies :func:`_plan_problem` at each table row.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import PrecinctReturns
from .errors import InfeasibleConstraint, ValidationError

LARGE_PRECINCT_VOTES = 150

County = tuple[list[str], set[str]]  # its precincts; those of >= 150 votes
Counties = dict[str, County]


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


def _plan_problem(plan: CountyPlan, counties: Counties) -> str | None:
    """The rule ``plan`` breaks against its county of ``counties``, or
    ``None``.  The caller adds the location."""
    size = len(counties[plan.county_id][0]) if plan.county_id in counties else 0
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


def county_walk(precinct_ids: Iterable[str], county_ids: Iterable[str],
                votes: Iterable[int]) -> Counties:
    """Each county of the returns, with its precincts in returns order, from
    one walk of the columns; ``votes`` holds each precinct's counts summed."""
    counties: Counties = {}
    for precinct_id, county_id, total in zip(precinct_ids, county_ids, votes):
        county = counties.get(county_id)
        if county is None:
            county = counties[county_id] = [], set()
        county[0].append(precinct_id)
        if total >= LARGE_PRECINCT_VOTES:
            county[1].add(precinct_id)
    return counties


def _row_walk(returns: Sequence[PrecinctReturns]) -> Counties:
    return county_walk((ret.precinct_id for ret in returns),
                       (ret.county_id for ret in returns),
                       map(PrecinctReturns.total_votes, returns))


def _counties(plans: Sequence[CountyPlan], counties: Counties) -> list[County]:
    """Each plan's county, once the county rules hold.  In this order: some
    plan is given; no county has two plans; each plan keeps
    :func:`_plan_problem`; every county of the returns has a plan (each a
    ``ValidationError``); each plan's county has a precinct with at least
    150 votes (else ``InfeasibleConstraint``)."""
    if not plans:
        raise ValidationError("no county plans supplied")
    planned: set[str] = set()
    for plan in plans:
        if plan.county_id in planned:
            raise ValidationError(f"county {plan.county_id!r} has two plans")
        planned.add(plan.county_id)
    for plan in plans:
        problem = _plan_problem(plan, counties)
        if problem is not None:
            raise ValidationError(problem)
    unplanned = counties.keys() - planned
    if unplanned:
        raise ValidationError(
            f"counties in returns but in no plan: {sorted(unplanned)[:5]}")
    for plan in plans:
        if not counties[plan.county_id][1]:
            raise InfeasibleConstraint(
                f"county {plan.county_id}: no precinct has at least "
                f"{LARGE_PRECINCT_VOTES} votes"
            )
    return [counties[plan.county_id] for plan in plans]


def _effective_n(plans: Sequence[CountyPlan], counties: list[County]) -> int:
    rates = []
    population = 0
    for plan, (precincts, large) in zip(plans, counties):
        size, take = len(precincts), plan.required_samples
        population += size
        if len(large) < size:
            size, take = size - 1, take - 1
        rates.append(Fraction(take, size))
    smallest = min(rates)
    return (population * smallest.numerator) // smallest.denominator


def draw_and_reduce(plans: Sequence[CountyPlan], counties: Counties,
                    seed: int | str) -> tuple[list[str], int]:
    """Draw each county's sample, deterministic given the seed, and reduce
    the design to its conservative effective n; raises as :func:`_counties`.

    Construction per county, resampling-free: the eligible precinct (>= 150
    votes) with the smallest ticket is taken first, then the remaining draws
    are the smallest-ticket precincts among all others.  The sample's size
    is the sum of the counties' required samples, with no duplicates.

    The conservative effective n is the number of precincts times the
    smallest county inclusion rate, floored: the with-replacement sample
    size the risk test may safely use in place of this design, since no
    precinct is drawn at a lower rate.  County c counts at n_c/N_c, or at
    (n_c - 1)/(N_c - 1) if it holds a precinct under 150 votes, which only
    the later draws reach.
    """
    checked = _counties(plans, counties)
    # Tickets hash f"{seed}|{precinct_id}"; digests sort as hexdigests do.
    prefix = hashlib.sha256(f"{seed}|".encode("utf-8"))

    def ticket(precinct_id: str) -> bytes:
        digest = prefix.copy()
        digest.update(precinct_id.encode("utf-8"))
        return digest.digest()

    sample: list[str] = []
    for plan, (precincts, large) in zip(plans, checked):
        ordered = sorted(precincts, key=ticket)
        first = next(pid for pid in ordered if pid in large)
        rest = [pid for pid in ordered if pid != first]
        sample.extend([first, *rest[: plan.required_samples - 1]])
    return sample, _effective_n(plans, checked)


def draw_sample(plans: Sequence[CountyPlan],
                returns: Sequence[PrecinctReturns], seed: int | str) -> list[str]:
    """The sample of :func:`draw_and_reduce`, from the rows ``returns``."""
    return draw_and_reduce(plans, _row_walk(returns), seed)[0]

