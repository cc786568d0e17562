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

Everything here is exact: results are `Fraction`s, and `precinct_bound`
compares pairs by integer cross-multiplication.  Floats appear only at the
risk-test and reporting boundaries.  Understatements (negative values) are
preserved, never clamped.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import AuditRecord, Pair, PrecinctReturns
from .errors import (
    CandidateMismatch,
    EmptyPairSet,
    UnknownPrecinct,
    ValidationError,
)


@dataclass(frozen=True)
class PrecinctDiscrepancy:
    """Per-precinct overstatements: one per pair, their maximum, and the a priori bound."""

    precinct_id: str
    pairwise: dict[Pair, Fraction]
    max_overstatement: Fraction
    bound: Fraction


def _check_margins(margins: Mapping[Pair, int]) -> None:
    if not margins:
        raise EmptyPairSet("no winner/loser pairs")
    for pair, margin in margins.items():
        if margin <= 0:
            raise ValidationError(f"margin for {pair} is {margin}, must be positive")


def pairwise_overstatement(
    returns_p: PrecinctReturns,
    audit_p: AuditRecord,
    margins: Mapping[Pair, int],
) -> dict[Pair, Fraction]:
    """Exact relative overstatement in this precinct, for every pair in `margins`.

    Raises:
        UnknownPrecinct: the audit record is for a different precinct.
        CandidateMismatch: machine and hand counts cover different candidates.
    """
    if audit_p.precinct_id != returns_p.precinct_id:
        raise UnknownPrecinct(
            f"audit for {audit_p.precinct_id!r} does not match "
            f"precinct {returns_p.precinct_id!r}"
        )
    if set(audit_p.hand_votes) != set(returns_p.machine_votes):
        raise CandidateMismatch(
            f"precinct {returns_p.precinct_id}: hand counts cover "
            f"{sorted(audit_p.hand_votes)} but machine counts cover "
            f"{sorted(returns_p.machine_votes)}"
        )
    _check_margins(margins)
    machine = returns_p.machine_votes
    hand = audit_p.hand_votes
    return {
        (w, l): Fraction(
            (machine[w] - machine[l]) - (hand[w] - hand[l]), margins[(w, l)]
        )
        for (w, l) in margins
    }


def precinct_mro(pairwise: Mapping[Pair, Fraction]) -> Fraction:
    """Maximum relative overstatement across pairs; raises EmptyPairSet if none."""
    if not pairwise:
        raise EmptyPairSet("cannot take the maximum over zero pairs")
    return max(pairwise.values())


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
    machine = returns_p.machine_votes
    cap = returns_p.ballot_bound
    # With positive margins, n/m > bn/bm exactly when n*bm > bn*m: pick the
    # winning pair in integers and build a single Fraction for it.  The
    # margins are checked in the same pass, which keeps a separate check off
    # this per-precinct path; _check_margins raises the error.
    best_num = best_margin = None
    for (w, l), margin in margins.items():
        if margin <= 0:
            _check_margins(margins)
        num = machine[w] - machine[l] + cap
        if best_num is None or num * best_margin > best_num * margin:
            best_num, best_margin = num, margin
    if best_num is None:
        _check_margins(margins)
    return Fraction(best_num, best_margin)


class MroSums(NamedTuple):
    """Contest-level discrepancy aggregates over a set of precincts."""

    total: Fraction          # sum over precincts of each precinct's MRO
    pairwise_max: Fraction   # max over pairs of the summed per-pair overstatements


def mro_sum(discrepancies: Sequence[PrecinctDiscrepancy]) -> MroSums:
    """Sum precinct MROs, and the largest per-pair total for cross-checking.

    ``total`` is the quantity the risk test bounds: if the apparent and
    actual outcomes differ, it is at least 1.  ``pairwise_max`` is the
    sharper left-hand side it dominates; callers can verify
    ``pairwise_max <= total`` on any precinct set.
    """
    if not discrepancies:
        return MroSums(Fraction(0), Fraction(0))
    pairs = set(discrepancies[0].pairwise)
    per_pair = {pair: Fraction(0) for pair in pairs}
    total = Fraction(0)
    for disc in discrepancies:
        if set(disc.pairwise) != pairs:
            raise CandidateMismatch(
                f"precinct {disc.precinct_id} has a different pair set"
            )
        total += disc.max_overstatement
        for pair, value in disc.pairwise.items():
            per_pair[pair] += value
    return MroSums(total, max(per_pair.values()))


def analyze_precinct(
    returns_p: PrecinctReturns,
    audit_p: AuditRecord,
    margins: Mapping[Pair, int],
    bound: Fraction | None = None,
) -> PrecinctDiscrepancy:
    """Bundle the pairwise overstatements, their max, and the a priori bound.

    ``bound`` is the precinct's a priori bound when the caller already has
    it; otherwise it is computed with :func:`precinct_bound`.
    """
    pairwise = pairwise_overstatement(returns_p, audit_p, margins)
    return PrecinctDiscrepancy(
        precinct_id=returns_p.precinct_id,
        pairwise=pairwise,
        max_overstatement=precinct_mro(pairwise),
        bound=precinct_bound(returns_p, margins) if bound is None else bound,
    )
