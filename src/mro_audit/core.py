"""Domain model for contests, precinct returns, and exact vote arithmetic.

This module is the single source of truth for tabulation: candidate totals,
the apparent winner/loser partition, pairwise margins, candidate pooling and
full-hand-tally comparison.  Everything here is exact integer arithmetic;
ratios appear only in :mod:`mro_audit.discrepancy`.

It is also the one statement of the count rules every precinct obeys (see
:func:`_count_problem`): the ballot bound is nonnegative, each count is
nonnegative and at most the bound, and the counts sum to at most
``votes_per_voter`` times the bound.  The returns loader, return and audit
validation and report verification all apply them through that function.
A bound above 10**18 is rejected too: no precinct comes near it, and
larger ones give MRO bounds that overflow a float in the output.

A :class:`Contest` is the one validated, tabulated value a run works from:
the setup, the returns as columns and their totals, built once (by
:func:`prepare_contest`, or ``io.load_contest`` for a returns file) and
handed to bounds and the risk test, none of which validates or tabulates
the returns again, or builds rows it does not need.  :func:`pool_contest`
is the one statement of the pool rules.
:func:`compute_totals`, :func:`pool_candidates` and ``risk.run_test`` keep
taking bare setups and returns; each builds the contest and calls the same
code.

All values are immutable after construction (the row types and the totals
are named tuples; a contest works out its outcome and rows on first use)
and all operations are pure, so they are safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, le
from typing import NamedTuple

from .errors import (
    AmbiguousOutcome,
    CandidateMismatch,
    IncompleteTally,
    PoolContainsWinner,
    UnknownPrecinct,
    ValidationError,
    _echo,
)

Candidate = str
Pair = tuple[Candidate, Candidate]

MAX_BALLOT_BOUND = 10**18


@dataclass(frozen=True)
class ContestSetup:
    """Static description of a contest.

    Attributes:
        candidates: ordered, unique, nonempty candidate identifiers
            (write-ins are modelled as an ordinary candidate so pooling
            handles them uniformly).
        votes_per_voter: how many candidates each voter may vote for; the
            contest seats exactly this many winners.
        precinct_count: number of precincts reporting in this contest.
    """

    candidates: tuple[Candidate, ...]
    votes_per_voter: int
    precinct_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if len(self.candidates) < 2:
            raise ValidationError("a contest needs at least two candidates")
        if "" in self.candidates:
            raise ValidationError("candidate identifiers must be nonempty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValidationError("candidate identifiers must be unique")
        if not 1 <= self.votes_per_voter < len(self.candidates):
            raise ValidationError(
                f"votes_per_voter must be in [1, {len(self.candidates) - 1}], "
                f"got {self.votes_per_voter}"
            )
        if self.precinct_count < 1:
            raise ValidationError("precinct_count must be at least 1")


class PrecinctReturns(NamedTuple):
    """Machine counts for one precinct.

    ``ballot_bound`` is the a priori cap on valid ballots cast in the
    precinct, an integer that every precinct has: each precinct's a priori
    MRO bound comes from it.
    """

    precinct_id: str
    county_id: str
    ballot_bound: int
    machine_votes: Mapping[Candidate, int]

    def total_votes(self) -> int:
        return sum(self.machine_votes.values())


class AuditRecord(NamedTuple):
    """Hand-count results for one audited precinct."""

    precinct_id: str
    hand_votes: Mapping[Candidate, int]


class ContestTotals(NamedTuple):
    """Contest-wide totals, the winner/loser partition and pairwise margins.

    For apparent totals (from machine counts) every stored margin is strictly
    positive and ``outcome_confirmed`` is ``None``.  For actual totals (from a
    full hand tally, see :func:`actual_margins`) the partition is still the
    *apparent* one, margins may be nonpositive, and ``outcome_confirmed``
    records whether every winner kept a positive margin.
    """

    totals: dict[Candidate, int]
    winners: tuple[Candidate, ...]
    losers: tuple[Candidate, ...]
    pairwise_margins: dict[Pair, int]
    outcome_confirmed: bool | None = None


class Contest:
    """Validated returns as columns, and their tabulation, built once per run.

    ``precinct_ids``, ``county_ids``, ``ballot_bounds`` and, in ``counts``,
    one column per candidate of ``setup.candidates`` satisfy every
    invariant :func:`validate_returns` checks.  The constructor trusts them
    all, and sums each count column once for the candidates' totals; build
    a contest with :func:`prepare_contest`, ``io.load_contest`` or
    :func:`pool_contest`.

    ``totals`` adds the apparent outcome on first use, so that a caller can
    check its own arguments against the contest (a pool naming an unknown
    candidate, say) before a tie at the seat boundary is reported.
    ``returns`` builds the rows from the columns on first use.
    """

    __slots__ = ("setup", "precinct_ids", "county_ids", "ballot_bounds",
                 "counts", "_votes", "_totals", "_returns")

    def __init__(self, setup: ContestSetup, precinct_ids: Sequence[str],
                 county_ids: Sequence[str], ballot_bounds: Sequence[int],
                 counts: list[Sequence[int]]) -> None:
        self.setup = setup
        self.precinct_ids = precinct_ids
        self.county_ids = county_ids
        self.ballot_bounds = ballot_bounds
        self.counts = counts
        self._votes = dict(zip(setup.candidates, map(sum, counts)))
        self._totals: ContestTotals | None = None
        self._returns: list[PrecinctReturns] | None = None

    @property
    def totals(self) -> ContestTotals:
        """The apparent outcome; see :func:`compute_totals`.

        Raises:
            AmbiguousOutcome: a tie at the seat boundary.
        """
        if self._totals is None:
            self._totals = _outcome(self.setup, self._votes)
        return self._totals

    @property
    def returns(self) -> Sequence[PrecinctReturns]:
        """The rows, each vote map in ``setup.candidates`` order."""
        if self._returns is None:
            votes = map(dict, map(zip, repeat(self.setup.candidates),
                                  zip(*self.counts)))
            self._returns = list(map(
                tuple.__new__, repeat(PrecinctReturns),
                zip(self.precinct_ids, self.county_ids, self.ballot_bounds,
                    votes)))
        return self._returns

    def row(self, i: int) -> PrecinctReturns:
        """The returns of the precinct at position ``i``, built alone."""
        votes = {c: column[i] for c, column in zip(self.setup.candidates,
                                                   self.counts)}
        return PrecinctReturns(self.precinct_ids[i], self.county_ids[i],
                               self.ballot_bounds[i], votes)


def _negative_count(candidate: Candidate, count: int) -> str:
    """The negative-count rule's message, shared by pooling and the join."""
    return f"negative count {_echo(str(count), str)} for {_echo(candidate)}"


def _check_int_count(candidate: Candidate, count: object, where: str) -> None:
    """Reject a count that is not an ``int`` (or is a ``bool``)."""
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValidationError(f"{where}: count for {candidate!r} is not an integer")


def _count_problem(counts: Iterable[tuple[Candidate, int]], ballot_bound: int,
                   votes_per_voter: int) -> str | None:
    """The first count rule one precinct's integer counts break, or ``None``.

    ``counts`` are ``(candidate, count)`` pairs, in column order.  The
    rules: the ballot bound is nonnegative (and at most
    :data:`MAX_BALLOT_BOUND`), each count is nonnegative and at most the
    bound, and the counts sum to at most ``votes_per_voter`` times the
    bound.  The caller adds the location.  A long count, bound or
    candidate is echoed cut; past the first two rules the bound, and so the
    total, are short.
    """
    if ballot_bound < 0:
        return f"negative ballot bound {_echo(str(ballot_bound), str)}"
    if ballot_bound > MAX_BALLOT_BOUND:
        return f"ballot bound {_echo(str(ballot_bound), str)} above 10**18"
    total = 0
    for candidate, count in counts:
        if count < 0:
            return _negative_count(candidate, count)
        if count > ballot_bound:
            return (f"count {_echo(str(count), str)} for {_echo(candidate)} "
                    f"exceeds ballot bound {ballot_bound}")
        total += count
    if total > votes_per_voter * ballot_bound:
        return (f"{total} votes exceed {votes_per_voter} "
                f"per ballot times bound {ballot_bound}")
    return None


def _check_vote_map(
    setup: ContestSetup,
    votes: Mapping[Candidate, int],
    ballot_bound: int,
    where: str,
) -> None:
    """Validate one precinct's vote map against the contest invariants."""
    expected = set(setup.candidates)
    got = set(votes)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise CandidateMismatch(
            f"{where}: candidate set mismatch"
            + (f", missing {missing}" if missing else "")
            + (f", unexpected {extra}" if extra else "")
        )
    for candidate, count in votes.items():
        _check_int_count(candidate, count, where)
    if not isinstance(ballot_bound, int) or isinstance(ballot_bound, bool):
        raise ValidationError(
            f"{where}: ballot bound {ballot_bound!r} is not an integer"
        )
    problem = _count_problem(votes.items(), ballot_bound,
                             setup.votes_per_voter)
    if problem is not None:
        raise ValidationError(f"{where}: {problem}")


def validate_returns(setup: ContestSetup, returns: Sequence[PrecinctReturns]) -> None:
    """Check one-returns-per-precinct and every per-precinct count invariant.

    Raises:
        ValidationError: wrong precinct count, duplicate ids, negative or
            bound-violating counts.
        CandidateMismatch: a precinct does not cover the contest candidates.
    """
    if len(returns) != setup.precinct_count:
        raise ValidationError(
            f"precinct_count is {setup.precinct_count}, got {len(returns)} precincts"
        )
    seen: set[str] = set()
    for ret in returns:
        if ret.precinct_id in seen:
            raise ValidationError(f"duplicate precinct id {ret.precinct_id!r}")
        seen.add(ret.precinct_id)
        _check_vote_map(setup, ret.machine_votes, ret.ballot_bound,
                        f"precinct {ret.precinct_id}")


def join_audits(
    contest: Contest, audits: Iterable[AuditRecord]
) -> list[tuple[int, PrecinctReturns, AuditRecord]]:
    """Pair each hand-count record with its precinct's position and row, in
    order, checking the hand counts against that precinct's ballot bound.

    Raises:
        UnknownPrecinct: a record names a precinct not in the returns.
        ValidationError, CandidateMismatch: a second record for a precinct,
            or hand counts that break the count rules or miss a candidate.
    """
    positions = {pid: i for i, pid in enumerate(contest.precinct_ids)}
    joined: dict[str, tuple[int, PrecinctReturns, AuditRecord]] = {}
    for audit in audits:
        precinct_id = audit.precinct_id
        position = positions.get(precinct_id)
        if position is None:
            raise UnknownPrecinct(
                f"audited precinct {precinct_id!r} not in the returns"
            )
        if precinct_id in joined:
            raise ValidationError(f"duplicate audit for precinct {precinct_id!r}")
        _check_vote_map(contest.setup, audit.hand_votes,
                        contest.ballot_bounds[position],
                        f"audit of precinct {precinct_id}")
        joined[precinct_id] = position, contest.row(position), audit
    return list(joined.values())


def _outcome(setup: ContestSetup, votes: dict[Candidate, int]) -> ContestTotals:
    order = {candidate: i for i, candidate in enumerate(setup.candidates)}
    ranked = sorted(setup.candidates, key=lambda c: (-votes[c], order[c]))
    seats = setup.votes_per_voter
    winners = tuple(ranked[:seats])
    losers = tuple(ranked[seats:])
    if votes[winners[-1]] <= votes[losers[0]]:
        raise AmbiguousOutcome(
            f"no strict margin between {winners[-1]!r} ({votes[winners[-1]]}) "
            f"and {losers[0]!r} ({votes[losers[0]]})"
        )
    margins = {(w, l): votes[w] - votes[l] for w in winners for l in losers}
    return ContestTotals(totals=votes, winners=winners, losers=losers,
                         pairwise_margins=margins)


def prepare_contest(setup: ContestSetup,
                    returns: Sequence[PrecinctReturns]) -> Contest:
    """Validate hand-built returns into a :class:`Contest`.

    Raises:
        ValidationError, CandidateMismatch: as :func:`validate_returns`.
    """
    validate_returns(setup, returns)
    ids, counties, bounds, votes = zip(*returns)
    counts = [list(map(itemgetter(c), votes)) for c in setup.candidates]
    return Contest(setup, ids, counties, bounds, counts)


def compute_totals(setup: ContestSetup,
                   returns: Sequence[PrecinctReturns]) -> ContestTotals:
    """Tabulate returns and determine the apparent outcome.

    The winners are the ``votes_per_voter`` candidates whose totals strictly
    exceed every other candidate's total; the result carries one positive
    margin per winner/loser pair.  Precinct order does not affect the result.

    Raises:
        AmbiguousOutcome: a tie at the seat boundary (or any winner/loser
            margin that is not strictly positive); the audit framework
            requires strictly positive apparent margins.
    """
    return prepare_contest(setup, returns).totals


def _check_pool(setup: ContestSetup, pool: list[Candidate],
                pooled_id: Candidate) -> None:
    """The pool rules; ``report`` holds ``contest.pooled`` to the same."""
    if not pool:
        raise ValidationError("candidate pool is empty")
    for i, member in enumerate(pool):
        if member in pool[:i]:
            raise ValidationError(f"pool names {member!r} twice")
    unknown = set(pool) - set(setup.candidates)
    if unknown:
        raise ValidationError(f"pool members not in contest: {sorted(unknown)}")
    if pooled_id in setup.candidates:
        raise ValidationError(f"pooled id {pooled_id!r} is already a candidate")


def pool_contest(contest: Contest, pool: Iterable[Candidate],
                 pooled_id: Candidate) -> Contest:
    """Merge losing candidates into a single pseudo-candidate.

    The pooled candidate's votes in each precinct are the sum of the pool's
    votes; all other entries, ballot bounds and county assignments are
    unchanged.  Margins between unpooled candidates are preserved.  The
    returns are not validated again, save the pooled column against the
    bound; the pooled contest sums its own columns.

    The pool arguments are checked before the contest's outcome is taken,
    so a bad pool is reported ahead of a tie.

    Raises:
        PoolContainsWinner: the pool intersects the apparent winner set, or
            the pooled total would not trail the smallest winner's total
            (the pseudo-candidate would win or tie for a seat).
        ValidationError: empty pool, a member named twice, unknown pool
            member, ``pooled_id`` colliding with an existing candidate, or a
            pooled count above its precinct's ballot bound.
        AmbiguousOutcome: the contest itself has no strict outcome.
    """
    setup, votes, pool = contest.setup, contest._votes, list(pool)
    _check_pool(setup, pool, pooled_id)
    outcome = _outcome(setup, votes)
    winners_in_pool = set(pool) & set(outcome.winners)
    if winners_in_pool:
        raise PoolContainsWinner(
            f"pool contains apparent winner(s): {sorted(winners_in_pool)}"
        )
    columns = dict(zip(setup.candidates, contest.counts))
    pooled = list(map(sum, zip(*map(columns.get, pool))))
    bounds = contest.ballot_bounds
    if not all(map(le, pooled, bounds)):
        i = next(i for i, bound in enumerate(bounds) if pooled[i] > bound)
        problem = _count_problem([(pooled_id, pooled[i])], bounds[i],
                                 setup.votes_per_voter)
        raise ValidationError(f"precinct {contest.precinct_ids[i]}: {problem}")
    pooled_total = sum(votes[c] for c in pool)
    weakest = outcome.winners[-1]
    if pooled_total >= votes[weakest]:
        raise PoolContainsWinner(
            f"pooled total {pooled_total} for {pooled_id!r} does not trail "
            f"winner {weakest!r} ({votes[weakest]})"
        )
    kept = [c for c in setup.candidates if c not in pool]
    return Contest(ContestSetup((*kept, pooled_id), setup.votes_per_voter,
                                setup.precinct_count), contest.precinct_ids,
                   contest.county_ids, bounds, [*map(columns.get, kept), pooled])


def pool_candidates(
    setup: ContestSetup,
    returns: Sequence[PrecinctReturns],
    pool: Iterable[Candidate],
    pooled_id: Candidate,
) -> tuple[ContestSetup, list[PrecinctReturns]]:
    """:func:`pool_contest` for hand-built returns, which it validates first.

    The pool arguments are checked before the returns, as in
    :func:`pool_contest`; raises what it and :func:`prepare_contest` raise.
    """
    pool = list(pool)
    _check_pool(setup, pool, pooled_id)
    pooled = pool_contest(prepare_contest(setup, returns), pool, pooled_id)
    return pooled.setup, pooled.returns


def pool_audit_records(
    audits: Sequence[AuditRecord],
    pool: Iterable[Candidate],
    pooled_id: Candidate,
) -> list[AuditRecord]:
    """Apply the same candidate pooling to hand-count records.

    Mechanical companion to :func:`pool_contest` for audit data; the
    winner checks happened when the returns were pooled.  A pool member's
    count that is not an ``int``, or is negative, is rejected here, since
    the sum would hide it from :func:`join_audits`, which checks the rest.

    Raises:
        CandidateMismatch: a record lacks a pool member, or already has a
            column named ``pooled_id``.
        ValidationError: a pool member's count is not an int, or negative.
    """
    pool = set(pool)
    pooled = []
    for audit in audits:
        missing = pool - set(audit.hand_votes)
        if missing:
            raise CandidateMismatch(
                f"audit of precinct {audit.precinct_id}: pool members "
                f"{sorted(missing)} not in the hand counts"
            )
        if pooled_id in audit.hand_votes:
            raise CandidateMismatch(
                f"audit of precinct {audit.precinct_id}: pooled id "
                f"{pooled_id!r} is already a hand-count column"
            )
        votes, pooled_count = {}, 0
        where = f"audit of precinct {audit.precinct_id}"
        for candidate, count in audit.hand_votes.items():
            if candidate not in pool:
                votes[candidate] = count
                continue
            _check_int_count(candidate, count, where)
            if count < 0:
                raise ValidationError(f"{where}: {_negative_count(candidate, count)}")
            pooled_count += count
        votes[pooled_id] = pooled_count
        pooled.append(AuditRecord(audit.precinct_id, votes))
    return pooled


def actual_margins(
    setup: ContestSetup,
    returns: Sequence[PrecinctReturns],
    audits: Sequence[AuditRecord],
) -> ContestTotals:
    """Tabulate a complete hand tally against the apparent partition.

    Requires an audit record for every precinct.  The returned totals keep
    the *apparent* winner/loser partition; ``outcome_confirmed`` is True
    exactly when every apparent winner still beats every apparent loser in
    the hand counts.

    Raises:
        IncompleteTally: some precinct has no audit record.
        UnknownPrecinct, ValidationError, CandidateMismatch: as
            :func:`join_audits`.
    """
    contest = prepare_contest(setup, returns)
    apparent = contest.totals
    joined = join_audits(contest, audits)
    missing = sorted({ret.precinct_id for ret in returns}
                     - {audit.precinct_id for _, _, audit in joined})
    if missing:
        raise IncompleteTally(
            f"{len(missing)} precinct(s) lack an audit record, "
            f"e.g. {missing[:3]}"
        )
    hand = [audit.hand_votes for _, _, audit in joined]
    totals = {c: sum(map(itemgetter(c), hand)) for c in setup.candidates}

    margins = {
        (w, l): totals[w] - totals[l]
        for w in apparent.winners
        for l in apparent.losers
    }
    confirmed = min(margins.values()) > 0
    return ContestTotals(
        totals=totals,
        winners=apparent.winners,
        losers=apparent.losers,
        pairwise_margins=margins,
        outcome_confirmed=confirmed,
    )
