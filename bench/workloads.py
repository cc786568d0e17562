"""Seeded inputs, expected values and command lines for the benchmark workloads.

Every workload runs the same six CLI commands (``margins``, ``bounds``,
``plan``, ``pvalue``, ``report``, ``simulate``), so every end-to-end metric
exists on every workload.  The inputs are a function of the seed alone: the
same seed writes the same files byte for byte.  The expected values that the
output checks compare against are computed here from the generator's own
numbers, with plain integer and ``Fraction`` arithmetic and without the
``mro_audit`` package.

Workloads:

``statewide-25k``
    25,000 precincts in 87 counties, five candidates of which the two
    smallest are pooled (leaving four at about 40/33/17/10 %, three pairs),
    500 audited precincts with about 2 % small overstatements, identity
    weight.  Per-precinct work dominates: CSV parse, tabulation, bounds,
    a walk of about 830 taint steps and a report of about 7 MB.
``multiseat-10k``
    10,000 precincts, 16 candidates, vote-for-3, the 8 smallest pooled into
    ``Minor`` (9 candidates, 18 pairs), an escalated hand count of 2,000
    precincts with about 30 % small over- and understatements, taint
    weight.  Per-pair and per-audit work dominates; the taint walk is short.
``minnesota-4k``
    The 4,123-precinct Minnesota 2006 fixture from ``tests/minnesota.py``
    with a clean stratified sample of 202 precincts drawn with the seed.
    Contest layers do little; process start, SHA-256 sampling and the
    Monte Carlo check dominate.  It carries the golden values.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

COMMANDS = ("margins", "bounds", "plan", "pvalue", "report", "simulate")

# The Monte Carlo seed stays fixed so that the 3-standard-error check of
# ``simulate`` gives the same verdict on every run.
SIMULATE_SEED = 7

# Precincts with at least this many votes satisfy the large-precinct rule of
# the county sample (mirrors ``mro_audit.sampling.LARGE_PRECINCT_VOTES``).
LARGE_PRECINCT_VOTES = 150

WORKLOADS = ("statewide-25k", "multiseat-10k", "minnesota-4k")


@dataclass
class Spec:
    """One generated workload: its files, CLI parameters and expected values."""

    name: str
    seed: int
    returns_path: Path
    audits_path: Path
    counties_path: Path
    candidates: tuple[str, ...]
    pool: tuple[str, ...]
    pooled_id: str
    votes_per_voter: int
    weight: str
    draws: int
    simulate: dict
    # Expected values, computed without the program.
    precincts: int
    totals: dict[str, int]
    winners: tuple[str, ...]
    losers: tuple[str, ...]
    margins: dict[tuple[str, str], int]
    max_bound: Fraction
    observed: Fraction
    sample: list[str]
    effective_n: int
    audited: int
    golden: dict = field(default_factory=dict)

    @property
    def pairs(self) -> int:
        return len(self.margins)

    def common_flags(self) -> list[str]:
        flags = ["--votes-per-voter", str(self.votes_per_voter)]
        if self.pool:
            flags += ["--pool", ",".join(self.pool), "--pooled-id", self.pooled_id]
        return flags

    def argv(self, command: str) -> list[str]:
        """Arguments after ``python -m mro_audit`` for one command."""
        returns, audits = str(self.returns_path), str(self.audits_path)
        risk = ["--weight", self.weight, "--sampling", f"wr:{self.draws}"]
        if command in ("margins", "bounds"):
            return [command, returns, *self.common_flags()]
        if command == "plan":
            return ["plan", returns, "--counties", str(self.counties_path),
                    "--seed", str(self.seed),
                    "--votes-per-voter", str(self.votes_per_voter)]
        if command in ("pvalue", "report"):
            return [command, returns, audits, *risk, *self.common_flags()]
        if command == "simulate":
            sim = self.simulate
            return ["simulate", "--taint-count", str(sim["taint_count"]),
                    "--population", str(sim["population"]),
                    "--sampling", f"wr:{sim['draws']}",
                    "--reps", str(sim["reps"]),
                    "--seed", str(sim["seed"]), "--verify"]
        raise ValueError(f"unknown command {command!r}")

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in
                   (self.returns_path, self.audits_path, self.counties_path))


# ---------------------------------------------------------------------------
# Independent arithmetic shared by the generators and the checks.


def pooled_votes(candidates, votes, pool, pooled_id) -> dict[str, int]:
    kept = {c: v for c, v in zip(candidates, votes) if c not in pool}
    if pool:
        kept[pooled_id] = sum(v for c, v in zip(candidates, votes) if c in pool)
    return kept


def outcome(totals: dict[str, int], seats: int):
    """Winners, losers and pairwise margins, ranking ties by column order."""
    order = {c: i for i, c in enumerate(totals)}
    ranked = sorted(totals, key=lambda c: (-totals[c], order[c]))
    winners, losers = tuple(ranked[:seats]), tuple(ranked[seats:])
    if totals[winners[-1]] <= totals[losers[0]]:
        raise ValueError("generated contest has no strict seat margin")
    margins = {(w, l): totals[w] - totals[l] for w in winners for l in losers}
    return winners, losers, margins


def bound_of(votes: dict[str, int], cap: int, margins) -> Fraction:
    return max(Fraction(votes[w] - votes[l] + cap, m) for (w, l), m in margins.items())


def mro_of(machine: dict[str, int], hand: dict[str, int], margins) -> Fraction:
    return max(
        Fraction((machine[w] - machine[l]) - (hand[w] - hand[l]), m)
        for (w, l), m in margins.items()
    )


def ticket(seed, precinct_id: str) -> str:
    return hashlib.sha256(f"{seed}|{precinct_id}".encode("utf-8")).hexdigest()


def statutory_minimum(registered_voters: int) -> int:
    if registered_voters < 50_000:
        return 2
    return 3 if registered_voters <= 100_000 else 4


def county_draw(counties, precincts_by_county, votes_by_id, seed):
    """The stratified sample: per county, the smallest-ticket precinct with
    at least 150 votes, then the smallest tickets among the rest."""
    sample = []
    for county_id, required in counties:
        pids = precincts_by_county[county_id]
        key = lambda pid: (ticket(seed, pid), pid)  # noqa: E731
        first = min((p for p in pids if votes_by_id[p] >= LARGE_PRECINCT_VOTES), key=key)
        rest = sorted((p for p in pids if p != first), key=key)[: required - 1]
        sample += [first, *rest]
    return sample


def effective_n(counties, precincts_by_county, population: int) -> int:
    smallest = min(Fraction(req, len(precincts_by_county[c])) for c, req in counties)
    return population * smallest.numerator // smallest.denominator


# ---------------------------------------------------------------------------
# Synthetic contests.


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(str, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class _Shape:
    precincts: int
    counties: int
    candidates: tuple[str, ...]
    shares: tuple[float, ...]
    pool: tuple[str, ...]
    pooled_id: str
    seats: int
    audited: int
    discrepant_share: float
    understatements: bool
    planted_votes: int
    weight: str
    simulate_taint_count: int
    simulate_reps: int


STATEWIDE = _Shape(
    precincts=25_000, counties=87,
    candidates=("Adams", "Baker", "Clark", "Dunn", "Ellis"),
    shares=(0.40, 0.33, 0.17, 0.06, 0.04),
    pool=("Dunn", "Ellis"), pooled_id="Other", seats=1,
    audited=500, discrepant_share=0.02, understatements=False,
    planted_votes=5, weight="identity",
    simulate_taint_count=215, simulate_reps=200_000,
)

MULTISEAT = _Shape(
    precincts=10_000, counties=87,
    candidates=tuple(f"C{i:02d}" for i in range(1, 17)),
    shares=(0.18, 0.17, 0.16, 0.13, 0.11, 0.08, 0.06, 0.03,
            0.014, 0.012, 0.011, 0.010, 0.009, 0.009, 0.008, 0.007),
    pool=tuple(f"C{i:02d}" for i in range(9, 17)), pooled_id="Minor", seats=3,
    audited=2_000, discrepant_share=0.30, understatements=True,
    planted_votes=6, weight="taint",
    simulate_taint_count=86, simulate_reps=200_000,
)


def synthetic(name: str, shape: _Shape, seed: int, workdir: Path) -> Spec:
    rng = random.Random(f"{name}:{seed}")
    n, seats, cands = shape.precincts, shape.seats, shape.candidates
    ids = [f"p{i + 1:06d}" for i in range(n)]
    county_of = [f"c{i * shape.counties // n + 1:03d}" for i in range(n)]

    rows, bounds_cap, machine = [], [], []
    ballots_by_county: dict[str, int] = {}
    for i in range(n):
        ballots = rng.randint(200, 1_500)
        cast = seats * ballots - rng.randint(0, seats * ballots // 50)
        weights = [s * rng.uniform(0.85, 1.15) for s in shape.shares]
        scale = cast / sum(weights)
        votes = [int(w * scale) for w in weights]
        cap = ballots + rng.randint(0, 20)
        rows.append((ids[i], county_of[i], cap, *votes))
        bounds_cap.append(cap)
        machine.append(votes)
        ballots_by_county[county_of[i]] = ballots_by_county.get(county_of[i], 0) + ballots

    returns_path = workdir / "returns.csv"
    _write_csv(returns_path, ["precinct_id", "county_id", "ballot_bound", *cands], rows)
    del rows

    raw_totals = [sum(col) for col in zip(*machine)]
    totals = pooled_votes(cands, raw_totals, shape.pool, shape.pooled_id)
    winners, losers, margins = outcome(totals, seats)

    # The largest a priori bound: per pair, the largest numerator over all
    # precincts, over that pair's margin.
    pooled = [pooled_votes(cands, votes, shape.pool, shape.pooled_id) for votes in machine]
    max_bound = max(
        Fraction(max(pv[w] - pv[l] + cap for pv, cap in zip(pooled, bounds_cap)), m)
        for (w, l), m in margins.items()
    )
    index = {c: k for k, c in enumerate(cands)}

    # Audits: a random set of precincts, a share of them with small errors.
    audited = rng.sample(range(n), shape.audited)
    discrepant = set(rng.sample(audited, round(shape.discrepant_share * shape.audited)))
    # The planted overstatement goes to the smallest audited precinct and
    # removes votes from the weakest winner, so it sets the observed
    # statistic under either weight and the taint count barely varies
    # between seeds.
    planted = min(audited, key=lambda i: (bounds_cap[i], i))
    discrepant.add(planted)
    weakest_winner = winners[-1]
    hand_rows, observed = [], None
    for i in audited:
        hand = list(machine[i])
        if i == planted:
            hand[index[weakest_winner]] -= shape.planted_votes
        elif i in discrepant:
            if shape.understatements and rng.random() < 0.5:
                loser = rng.choice([c for c in cands if c not in winners])
                hand[index[loser]] -= min(rng.randint(1, 3), hand[index[loser]])
            else:
                hand[index[rng.choice(winners)]] -= rng.randint(1, 2)
        hand_rows.append((ids[i], *hand))
        hand_p = pooled_votes(cands, hand, shape.pool, shape.pooled_id)
        mro = mro_of(pooled[i], hand_p, margins) if i in discrepant else Fraction(0)
        if shape.weight == "taint":
            mro /= bound_of(pooled[i], bounds_cap[i], margins)
        observed = mro if observed is None else max(observed, mro)
    audits_path = workdir / "audits.csv"
    _write_csv(audits_path, ["precinct_id", *cands], hand_rows)

    # County table: registered voters above every ballot cast, so each
    # county's statutory minimum is the same on every seed.
    counties = [(c, statutory_minimum(b * 13 // 10)) for c, b in ballots_by_county.items()]
    counties_path = workdir / "counties.csv"
    _write_csv(counties_path, ["county_id", "registered_voters"],
               [(c, b * 13 // 10) for c, b in ballots_by_county.items()])
    by_county: dict[str, list[str]] = {}
    for pid, county in zip(ids, county_of):
        by_county.setdefault(county, []).append(pid)
    votes_by_id = {pid: sum(v) for pid, v in zip(ids, machine)}
    eff_n = effective_n(counties, by_county, n)

    return Spec(
        name=name, seed=seed,
        returns_path=returns_path, audits_path=audits_path, counties_path=counties_path,
        candidates=cands, pool=shape.pool, pooled_id=shape.pooled_id,
        votes_per_voter=seats, weight=shape.weight, draws=shape.audited,
        simulate={"taint_count": shape.simulate_taint_count, "population": n,
                  "draws": eff_n, "reps": shape.simulate_reps, "seed": SIMULATE_SEED},
        precincts=n, totals=totals, winners=winners, losers=losers,
        margins=margins, max_bound=max_bound, observed=observed,
        sample=county_draw(counties, by_county, votes_by_id, seed),
        effective_n=eff_n, audited=shape.audited,
    )


# ---------------------------------------------------------------------------
# Minnesota fixture.


def load_minnesota(root: Path):
    """Import ``tests/minnesota.py`` from the checkout, without copying it."""
    path = root / "tests" / "minnesota.py"
    spec = importlib.util.spec_from_file_location("minnesota_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _minnesota(seed: int, workdir: Path, root: Path) -> Spec:
    mn = load_minnesota(root)
    returns_path = workdir / "returns.csv"
    counties_path = workdir / "counties.csv"
    audits_path = workdir / "audits.csv"
    mn.write_returns_csv(returns_path)
    mn.write_counties_csv(counties_path)

    rows = mn.build_rows()
    cands = mn.CANDIDATES
    by_county: dict[str, list[str]] = {}
    for pid, county, _, _ in rows:
        by_county.setdefault(county, []).append(pid)
    counties = [(c, statutory_minimum(v)) for c, v in mn.county_table()]
    votes_by_id = {pid: sum(v.values()) for pid, _, _, v in rows}
    sample = county_draw(counties, by_county, votes_by_id, seed)
    by_id = {pid: votes for pid, _, _, votes in rows}
    mn.write_audits_csv(audits_path, sample, by_id)

    pool, pooled_id = tuple(mn.POOL), "Pooled"
    totals = pooled_votes(cands, [mn.STATEWIDE_TOTALS[c] for c in cands], pool, pooled_id)
    winners, losers, margins = outcome(totals, 1)
    max_bound = max(
        bound_of(pooled_votes(cands, [v[c] for c in cands], pool, pooled_id), cap, margins)
        for _, _, cap, v in rows
    )
    population = mn.PRECINCT_COUNT
    return Spec(
        name="minnesota-4k", seed=seed,
        returns_path=returns_path, audits_path=audits_path, counties_path=counties_path,
        candidates=cands, pool=pool, pooled_id=pooled_id,
        votes_per_voter=1, weight="identity", draws=len(sample),
        simulate={"taint_count": mn.EXPECTED_TAINT_COUNT, "population": population,
                  "draws": len(sample), "reps": 1_000_000, "seed": SIMULATE_SEED},
        precincts=population, totals=totals, winners=winners, losers=losers,
        margins=margins, max_bound=max_bound, observed=Fraction(0),
        sample=sample, effective_n=effective_n(counties, by_county, population),
        audited=len(sample),
        golden={"taint_count": mn.EXPECTED_TAINT_COUNT, "p_value_percent": "0.02%",
                "margin": ("Klobuchar", pooled_id, mn.POOLED_MARGIN)},
    )


def generate(name: str, seed: int, workdir: Path, root: Path) -> Spec:
    """Write the workload's input files into ``workdir`` and describe them."""
    if name == "statewide-25k":
        return synthetic(name, STATEWIDE, seed, workdir)
    if name == "multiseat-10k":
        return synthetic(name, MULTISEAT, seed, workdir)
    if name == "minnesota-4k":
        return _minnesota(seed, workdir, root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
