"""Relative overstatement of pairwise margins, per precinct and contest-wide.

For a winner/loser pair, a precinct's relative overstatement is the error the
machine count introduced into that pair's margin, as a fraction of the
contest-wide margin:

    ((machine_w - machine_l) - (hand_w - hand_l)) / margin(w, l)

The per-precinct maximum over all pairs (the precinct MRO) summed across
precincts bounds the error on every pairwise margin, so the apparent outcome
can only be wrong if that sum reaches 1.  A precinct's MRO is itself bounded
a priori by (machine_w - machine_l + ballot_bound) / margin(w, l), maximised
over pairs, which needs no hand counts and so supports audit planning.

Both maxima are one walk over the pairs (:func:`_max_over_pairs`): the MRO
walks the machine-minus-hand counts, the bound walks the machine counts
offset by the ballot bound.  Everything is exact: the walk compares pairs by
integer cross-multiplication; :class:`BoundColumns` keeps a contest's bounds
as two int columns, with no `Fraction` per precinct.  Floats appear only at
the risk-test and reporting boundaries.  Understatements (negative values)
are preserved, never clamped.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .core import AuditRecord, Candidate, Contest, Pair, PrecinctReturns
from .errors import (
    CandidateMismatch,
    EmptyPairSet,
    UnknownPrecinct,
    ValidationError,
)


class PrecinctDiscrepancy(NamedTuple):
    """One audited precinct: its MRO and its a priori bound."""

    precinct_id: str
    max_overstatement: Fraction
    bound: Fraction


def _check_margins(margins: Mapping[Pair, int]) -> None:
    if not margins:
        raise EmptyPairSet("no winner/loser pairs")
    for pair, margin in margins.items():
        if margin <= 0:
            raise ValidationError(f"margin for {pair} is {margin}, must be positive")


def _max_over_pairs(values: Sequence[int] | Mapping[Candidate, int],
                    offset: int, margins: Mapping[Pair, int]) -> tuple[int, int]:
    """Max over pairs (w, l) of (values[w] - values[l] + offset) / margin(w, l),
    as its numerator and margin; ``values`` is indexed as the pairs are.

    Raises:
        EmptyPairSet: no pairs.
        ValidationError: a margin is not positive.
    """
    # With positive margins, n/m > bn/bm exactly when n*bm > bn*m: pick the
    # winning pair in integers.  The margins are checked in the same pass,
    # which keeps a separate check off this per-precinct path.
    best_num = best_margin = None
    for (w, l), margin in margins.items():
        if margin <= 0:
            _check_margins(margins)
        num = values[w] - values[l] + offset
        if best_num is None or num * best_margin > best_num * margin:
            best_num, best_margin = num, margin
    if best_num is None:
        _check_margins(margins)
    return best_num, best_margin


class BoundColumns(Mapping):
    """A contest's :func:`precinct_bound` by precinct id, from one walk over
    the rows of its count columns (each pair as its candidates' positions).
    Kept as the int columns ``numerators`` and ``margins``, unreduced; a
    `Fraction` is built only for a bound looked up."""

    def __init__(self, contest: Contest) -> None:
        position = {c: i for i, c in enumerate(contest.setup.candidates)}
        pairs = {(position[w], position[l]): margin for (w, l), margin
                 in contest.totals.pairwise_margins.items()}
        self.precinct_ids = contest.precinct_ids
        self.numerators, self.margins = nums, margins = [], []
        for num, margin in map(_max_over_pairs, zip(*contest.counts),
                               contest.ballot_bounds, repeat(pairs)):
            nums.append(num)
            margins.append(margin)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.precinct_ids)}

    def __getitem__(self, precinct_id: str) -> Fraction:
        i = self._positions[precinct_id]
        return Fraction(self.numerators[i], self.margins[i])

    def __iter__(self) -> Iterator[str]:
        return iter(self.precinct_ids)

    def __len__(self) -> int:
        return len(self.precinct_ids)


def precinct_bound(
    returns_p: PrecinctReturns, margins: Mapping[Pair, int]
) -> Fraction:
    """A priori cap on the precinct's MRO, from machine counts and the ballot bound.

    Valid hand counts keep each candidate between 0 and the ballot bound, so
    no audit can push the precinct MRO above this value.  Needs no hand
    counts, which is what makes pre-audit planning possible.  The returns
    must obey the count rules of :mod:`mro_audit.core`, as every validated
    or loaded contest's do.
    """
    return Fraction(*_max_over_pairs(returns_p.machine_votes,
                                     returns_p.ballot_bound, margins))


def mro_sum(discrepancies: Iterable[PrecinctDiscrepancy]) -> Fraction:
    """Sum of the precinct MROs: the quantity the risk test bounds.  If the
    apparent and actual outcomes differ, it is at least 1."""
    return sum((d.max_overstatement for d in discrepancies), Fraction(0))


def analyze_precinct(
    returns_p: PrecinctReturns,
    audit_p: AuditRecord,
    margins: Mapping[Pair, int],
    bound: Fraction | None = None,
) -> PrecinctDiscrepancy:
    """The precinct's MRO over the pairs in ``margins``, and its a priori bound.

    ``bound`` is the precinct's a priori bound when the caller already has
    it; otherwise it is computed with :func:`precinct_bound`.

    Raises:
        UnknownPrecinct: the audit record is for a different precinct.
        CandidateMismatch: machine and hand counts cover different candidates.
        EmptyPairSet, ValidationError: as :func:`precinct_bound`.
    """
    machine = returns_p.machine_votes
    hand = audit_p.hand_votes
    if audit_p.precinct_id != returns_p.precinct_id:
        raise UnknownPrecinct(
            f"audit for {audit_p.precinct_id!r} does not match "
            f"precinct {returns_p.precinct_id!r}"
        )
    if set(hand) != set(machine):
        raise CandidateMismatch(
            f"precinct {returns_p.precinct_id}: hand counts cover "
            f"{sorted(hand)} but machine counts cover {sorted(machine)}"
        )
    error = {c: machine[c] - hand[c] for c in machine}
    return PrecinctDiscrepancy(
        returns_p.precinct_id,
        Fraction(*_max_over_pairs(error, 0, margins)),
        precinct_bound(returns_p, margins) if bound is None else bound,
    )
