"""Brute-force verifiers and synthetic instance generators.

These deliberately share no code with the modules they check: the MRO
verifier enumerates pairs on its own, and the taint-count verifier searches
every subset instead of sorting.  They are exponential and meant for small
instances only.  They ship in the library (not just the tests) so the CLI
can run end-to-end self-checks.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm

from .core import AuditRecord, ContestSetup, Pair, PrecinctReturns
from .errors import InfeasibleSpec


def brute_mro(
    returns_p: PrecinctReturns,
    audit_p: AuditRecord,
    margins: Mapping[Pair, int],
) -> Fraction:
    """Precinct MRO by exhaustive pair enumeration; small candidate sets only."""
    best: Fraction | None = None
    for (w, l), margin in margins.items():
        machine_edge = returns_p.machine_votes[w] - returns_p.machine_votes[l]
        hand_edge = audit_p.hand_votes[w] - audit_p.hand_votes[l]
        value = Fraction(machine_edge - hand_edge, margin)
        if best is None or value > best:
            best = value
    if best is None:
        raise InfeasibleSpec("no winner/loser pairs to enumerate")
    return best


def brute_taint_count(
    bounds: Sequence[Fraction | int],
    threshold: Fraction | int,
    margin_threshold: Fraction | int = 1,
) -> int:
    """Minimal subset size reaching the target, by full subset search.

    Checks every subset S: the subset contributes its bounds in full, every
    other precinct contributes `threshold` (identity weighting), and S counts
    if the total reaches `margin_threshold`.  Returns len(bounds) + 1 when no
    subset works.  Exponential; keep len(bounds) <= 15 or so.
    """
    n = len(bounds)
    if n > 20:
        raise ValueError("subset search is exponential; refusing n > 20")
    fractions = [Fraction(b) for b in bounds]
    threshold = Fraction(threshold)
    target = Fraction(margin_threshold)
    # Common integer scale so the 2^n subset sums stay cheap.
    scale = lcm(
        threshold.denominator,
        target.denominator,
        *(f.denominator for f in fractions),
    ) if fractions else lcm(threshold.denominator, target.denominator)
    values = [int(f * scale) for f in fractions]
    cap = int(threshold * scale)
    goal = int(target * scale)

    sums = [0] * (1 << n)
    best = n + 1
    rest_cap = [goal - (n - size) * cap for size in range(n + 1)]
    if 0 >= rest_cap[0]:
        return 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
        size = mask.bit_count()
        if size < best and sums[mask] >= rest_cap[size]:
            best = size
    return best


def random_audits(
    setup: ContestSetup,
    returns: Sequence[PrecinctReturns],
    seed: int,
) -> list[AuditRecord]:
    """Valid but otherwise arbitrary hand counts for every precinct.

    Hand counts respect each precinct's ballot bound and the votes-per-voter
    cap but are unrelated to the machine counts, so they exercise both
    overstatements and understatements.
    """
    rng = random.Random(seed)
    audits = []
    for ret in returns:
        bound = ret.ballot_bound
        budget = setup.votes_per_voter * bound
        hand: dict[str, int] = {}
        order = list(setup.candidates)
        rng.shuffle(order)
        for candidate in order:
            count = rng.randint(0, min(bound, budget))
            hand[candidate] = count
            budget -= count
        audits.append(AuditRecord(precinct_id=ret.precinct_id, hand_votes=hand))
    return audits


def gen_instance(
    n_precincts: int,
    n_candidates: int,
    votes_per_voter: int = 1,
    *,
    reversal: bool = False,
    seed: int = 0,
) -> tuple[ContestSetup, list[PrecinctReturns], list[AuditRecord]]:
    """Deterministic synthetic election with a full set of hand counts.

    With ``reversal=False`` the hand counts equal the machine counts.  With
    ``reversal=True`` votes are moved from the weakest apparent winner to one
    apparent loser until that loser actually wins, so the apparent and actual
    outcomes provably differ (and the summed MRO must reach 1).

    Raises:
        InfeasibleSpec: impossible shape (fewer than 2 candidates, no
            precincts, or votes_per_voter outside [1, candidates - 1]).
    """
    if n_candidates < 2 or n_precincts < 1:
        raise InfeasibleSpec(
            f"need >= 2 candidates and >= 1 precinct, "
            f"got {n_candidates} and {n_precincts}"
        )
    if not 1 <= votes_per_voter < n_candidates:
        raise InfeasibleSpec(
            f"votes_per_voter {votes_per_voter} out of range for "
            f"{n_candidates} candidates"
        )
    rng = random.Random(seed)
    candidates = tuple(f"C{i:02d}" for i in range(n_candidates))
    intended_winners = candidates[:votes_per_voter]

    votes = {c: [rng.randint(0, 20) for _ in range(n_precincts)] for c in candidates}
    # Force strictly positive margins for the intended winners.
    loser_best = max(
        sum(votes[c]) for c in candidates if c not in intended_winners
    )
    for winner in intended_winners:
        deficit = loser_best + 1 - sum(votes[winner])
        while deficit > 0:
            precinct = rng.randrange(n_precincts)
            add = min(deficit, rng.randint(1, 10))
            votes[winner][precinct] += add
            deficit -= add

    returns = []
    for p in range(n_precincts):
        cast = sum(votes[c][p] for c in candidates)
        # At least one ballot per vote; headroom makes reversal moves legal.
        bound = max(cast, 1) + rng.randint(0, 5)
        returns.append(
            PrecinctReturns(
                precinct_id=f"p{p:04d}",
                county_id="c00",
                ballot_bound=bound,
                machine_votes={c: votes[c][p] for c in candidates},
            )
        )

    hand = {c: list(votes[c]) for c in candidates}
    if reversal:
        target = rng.choice([c for c in candidates if c not in intended_winners])
        victim = min(
            intended_winners, key=lambda w: sum(votes[w]) - sum(votes[target])
        )
        margin = sum(votes[victim]) - sum(votes[target])
        to_move = margin // 2 + 1
        for p in range(n_precincts):
            if to_move == 0:
                break
            bound = returns[p].ballot_bound
            movable = min(hand[victim][p], bound - hand[target][p], to_move)
            if movable > 0:
                hand[victim][p] -= movable
                hand[target][p] += movable
                to_move -= movable
        if to_move > 0:
            raise InfeasibleSpec("could not move enough votes to plant a reversal")

    audits = [
        AuditRecord(
            precinct_id=f"p{p:04d}",
            hand_votes={c: hand[c][p] for c in candidates},
        )
        for p in range(n_precincts)
    ]
    setup = ContestSetup(
        candidates=candidates,
        votes_per_voter=votes_per_voter,
        precinct_count=n_precincts,
    )
    return setup, returns, audits
