"""Command-line interface.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 validation / domain error, 2 usage error.  Every flag can also
be supplied from a ``key=value`` config file via ``--config``: a flag on the
command line wins over the file, which wins over the flag's declared
default.
"""

from __future__ import annotations

import functools
import gc
from itertools import islice
from math import sqrt

import click

from . import __version__
from .errors import AuditError, ValidationError

# Only click, stdlib that click loads itself and ``errors`` load with this
# module, so ``--version``, ``--help`` and the usage errors click finds
# import no library module; each command, and each helper it calls,
# imports the library functions it uses.

_SAMPLING_METHODS = {"wr": "with_replacement", "srs": "simple_random_sample"}


def _domain_errors(fn):
    """Map domain errors to exit code 1 with the error class in the message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except AuditError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc

    return wrapper


def _parse_sampling(text: str):
    from .risk import SamplingDesign

    method_key, _, draws_text = text.strip().partition(":")
    if method_key not in _SAMPLING_METHODS:
        raise click.UsageError(
            f"--sampling must be wr[:N] or srs[:N], got {text!r}"
        )
    if not draws_text:
        raise click.UsageError(
            "sample size missing: use --sampling wr:N or srs:N"
        )
    try:
        draws = int(draws_text)
    except ValueError:
        raise click.UsageError(f"bad sample size in --sampling {text!r}")
    return SamplingDesign(method=_SAMPLING_METHODS[method_key], draws=draws)


def _parse_pool(text: str | None) -> list[str]:
    if not text:
        return []
    members = [part.strip() for part in text.split(",") if part.strip()]
    if not members:
        raise click.UsageError("--pool given but names no candidates")
    for i, member in enumerate(members):
        if member in members[:i]:
            raise click.UsageError(f"--pool names {member!r} twice")
    return members


def _load_contest(returns_path, votes_per_voter, pool, pooled_id):
    """Load the returns as a contest and merge the ``--pool`` members, if any."""
    from .core import pool_contest
    from .io import load_contest

    members = _parse_pool(pool)
    contest = load_contest(returns_path, votes_per_voter)
    if not members:
        return contest, None
    return (pool_contest(contest, members, pooled_id),
            {"members": members, "pooled_id": pooled_id})


def _echo_json(payload) -> None:
    import json

    click.echo(json.dumps(payload, indent=2))


@click.group()
@click.version_option(version=__version__, prog_name="mro-audit")
def cli() -> None:
    """Post-election audit calculations over precinct returns."""


def _config_defaults(ctx, param, path):
    """Make the config file's ``key=value`` pairs the command's defaults.

    ``--config`` is eager, so this runs before any other option is resolved;
    click then takes each value from the command line, else the file, else
    the declared default, and converts and checks file values like flags.
    A key that names no flag of any command is a ``ParseError``; one that
    names another command's flag is left to that command.
    """
    if path is None:
        return
    from .io import load_config

    flags = {option.name for command in cli.commands.values()
             for option in command.params}
    ctx.default_map = _domain_errors(load_config)(path, flags)


option_config = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_config_defaults,
    help="key=value file supplying defaults for the flags.",
)
option_pool = click.option(
    "--pool", default=None,
    help="Comma-separated losing candidates to merge into one pseudo-candidate.",
)
option_sampling = click.option(
    "--sampling", required=True,
    help="wr:N (with replacement) or srs:N (simple random sample).",
)
option_pooled_id = click.option(
    "--pooled-id", default="Pooled", show_default=True,
    help="Name for the pooled pseudo-candidate.",
)


def _at_least_one(ctx, param, value):
    # Not click.IntRange, which reports a non-integer as "not a valid
    # integer range"; the upper limit depends on the contest.
    if value < 1:
        raise click.BadParameter(f"{value} is not in the range x>=1.")
    return value


def _utf8_seed(ctx, param, value):
    # Tickets hash the seed as UTF-8; argv bytes that are not UTF-8 reach
    # here as surrogate escapes.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise click.BadParameter(f"{value!r} is not valid UTF-8.")
    return value


option_votes_per_voter = click.option(
    "--votes-per-voter", type=int, default=1, show_default=True,
    callback=_at_least_one, help="Votes each voter may cast.",
)


@cli.command()
@click.argument("returns_file", type=click.Path(exists=True, dir_okay=False))
@option_pool
@option_pooled_id
@option_votes_per_voter
@option_config
@_domain_errors
def margins(returns_file, pool, pooled_id, votes_per_voter):
    """Tabulate totals and pairwise margins."""
    from .report import SCHEMA, outcome_block

    contest, pooled_info = _load_contest(
        returns_file, votes_per_voter, pool, pooled_id
    )
    payload = {
        "schema": SCHEMA,
        "candidates": list(contest.setup.candidates),
        **outcome_block(contest.totals),
        "total_ballot_bound": sum(contest.ballot_bounds),
    }
    if pooled_info:
        payload["pooled"] = pooled_info
    _echo_json(payload)


@cli.command()
@click.argument("returns_file", type=click.Path(exists=True, dir_okay=False))
@option_pool
@option_pooled_id
@option_votes_per_voter
@option_config
@_domain_errors
def bounds(returns_file, pool, pooled_id, votes_per_voter):
    """Per-precinct a priori MRO bounds (no hand counts needed)."""
    from .discrepancy import BoundColumns
    from .report import bounds_json

    contest, _ = _load_contest(returns_file, votes_per_voter, pool, pooled_id)
    click.echo(bounds_json(contest.county_ids, BoundColumns(contest)))


@cli.command()
@click.argument("returns_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--counties", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="County table: county_id,registered_voters[,required_samples].")
@click.option("--seed", required=True, callback=_utf8_seed,
              help="Sampling seed (any string or integer).")
@option_votes_per_voter
@option_config
@_domain_errors
def plan(returns_file, counties, seed, votes_per_voter):
    """Draw the stratified county sample and its conservative reduction."""
    from .io import load_contest, load_county_table
    from .report import SCHEMA
    from .sampling import county_walk, draw_and_reduce

    contest = load_contest(returns_file, votes_per_voter)
    walk = county_walk(contest.precinct_ids, contest.county_ids,
                       map(sum, zip(*contest.counts)))
    plans = load_county_table(counties, walk)
    sample, effective_n = draw_and_reduce(plans, walk, seed)
    draws = iter(sample)
    _echo_json({
        "schema": SCHEMA,
        "seed": str(seed),
        "total_samples": len(sample),
        "conservative_effective_n": effective_n,
        "counties": [
            {"county_id": county_plan.county_id,
             "required_samples": county_plan.required_samples,
             "sampled": list(islice(draws, county_plan.required_samples))}
            for county_plan in plans
        ],
    })


def _risk_options(fn):
    for option in (
        # risk.IDENTITY and risk.TAINT, spelled here so that parsing
        # imports no library module.
        click.option("--weight", type=click.Choice(["identity", "taint"]),
                     default="identity", show_default=True,
                     help="Per-precinct weighting of the MRO."),
        option_sampling,
        option_pool,
        option_pooled_id,
        option_votes_per_voter,
        option_config,
    ):
        fn = option(fn)
    return fn


def _run_pipeline(returns_file, audits_file, *, weight, sampling,
                  pool, pooled_id, votes_per_voter):
    from .core import pool_audit_records
    from .io import load_audits
    from .risk import TestConfig, run_contest_test

    test_config = TestConfig(weight=weight, sampling=_parse_sampling(sampling))
    contest, pooled_info = _load_contest(
        returns_file, votes_per_voter, pool, pooled_id
    )
    audits = load_audits(audits_file)
    if pooled_info:
        audits = pool_audit_records(audits, pooled_info["members"], pooled_id)
    results = run_contest_test(contest, audits, test_config)
    # The P-value assumes that every draw was counted by hand.  Checked
    # last, so that a fault in the files is reported first.
    draws = test_config.sampling.draws
    if draws > len(audits):
        raise ValidationError(
            f"--sampling declares {draws} draws, more than the "
            f"{len(audits)} hand-count records in {audits_file}")
    return contest, results, pooled_info


@cli.command()
@click.argument("returns_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("audits_file", type=click.Path(exists=True, dir_okay=False))
@_risk_options
@_domain_errors
def pvalue(returns_file, audits_file, **options):
    """Conservative P-value that the apparent outcome is wrong."""
    from .report import SCHEMA, risk_block

    _, (report, *_), pooled_info = _run_pipeline(
        returns_file, audits_file, **options
    )
    payload = {"schema": SCHEMA, **risk_block(report)}
    if pooled_info:
        payload["pooled"] = pooled_info
    _echo_json(payload)


@cli.command(name="report")
@click.argument("returns_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("audits_file", type=click.Path(exists=True, dir_okay=False))
@_risk_options
@_domain_errors
def report_command(returns_file, audits_file, **options):
    """Full audit report document (schema mro-audit/1)."""
    from .report import file_digest, report_json

    contest, (report, bounds, discrepancies), pooled_info = _run_pipeline(
        returns_file, audits_file, **options)
    click.echo(report_json(
        contest, bounds, discrepancies, report, tool_version=__version__,
        input_digests={"returns": file_digest(returns_file),
                       "audits": file_digest(audits_file)},
        pooled=pooled_info))


@cli.command()
@click.option("--taint-count", type=int, required=True,
              help="Number of tainted precincts in the simulated population.")
@click.option("--population", type=int, required=True, help="Population size.")
@option_sampling
@click.option("--reps", type=int, default=100_000, show_default=True,
              help="Monte Carlo replications.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Simulation seed.")
@click.option("--verify", is_flag=True, default=False,
              help="Also run the brute-force oracle self-checks.")
@option_config
@click.pass_context
@_domain_errors
def simulate(ctx, taint_count, population, sampling, reps, seed, verify):
    """Monte Carlo validation of the closed-form P-value."""
    from .report import SCHEMA, percent
    from .risk import monte_carlo_pvalue, p_value

    design = _parse_sampling(sampling)
    closed = p_value(taint_count, population, design)
    estimate, stderr = monte_carlo_pvalue(
        taint_count, population, design, reps, seed
    )
    # Judge against the spread at the closed form: the estimate's own
    # standard error is 0 when it lands on 0 or 1.
    expected_se = sqrt(closed * (1.0 - closed) / reps)
    agrees = abs(estimate - closed) <= 3.0 * expected_se + 1e-12
    payload = {
        "schema": SCHEMA,
        "closed_form": closed,
        "closed_form_percent": percent(closed),
        "monte_carlo": {
            "estimate": estimate,
            "standard_error": stderr,
            "replications": reps,
            "seed": seed,
        },
        "within_3_standard_errors": agrees,
    }
    ok = agrees
    if verify:
        checks = _oracle_checks(seed)
        payload["oracle_checks"] = checks
        ok = ok and all(c["passed"] for c in checks.values())
    _echo_json(payload)
    if not ok:
        ctx.exit(1)


def _oracle_checks(seed: int) -> dict:
    """Cross-check fast implementations against the brute-force oracles."""
    import random
    from fractions import Fraction

    from .core import prepare_contest
    from .discrepancy import analyze_precinct, mro_sum
    from .oracle import brute_mro, brute_taint_count, gen_instance, random_audits
    from .risk import IDENTITY, taint_count

    rng = random.Random(seed)
    checks: dict[str, dict] = {}

    trials, failures = 150, 0
    for _ in range(trials):
        n = rng.randint(1, 10)
        bound_values = [Fraction(rng.randint(0, 60), 100) for _ in range(n)]
        cap = Fraction(rng.randint(0, 30), 100)
        goal = Fraction(rng.randint(1, 300), 100)
        if taint_count(bound_values, cap, IDENTITY, goal) != brute_taint_count(
            bound_values, cap, goal
        ):
            failures += 1
    checks["taint_count_vs_subset_search"] = {
        "trials": trials, "failures": failures, "passed": failures == 0,
    }

    trials, failures = 150, 0
    for _ in range(trials):
        setup, returns, _ = gen_instance(1, rng.randint(2, 6), seed=rng.randrange(2**30))
        audits = random_audits(setup, returns, seed=rng.randrange(2**30))
        margins = prepare_contest(setup, returns).totals.pairwise_margins
        if analyze_precinct(returns[0], audits[0], margins).max_overstatement != (
            brute_mro(returns[0], audits[0], margins)
        ):
            failures += 1
    checks["precinct_mro_vs_pair_enumeration"] = {
        "trials": trials, "failures": failures, "passed": failures == 0,
    }

    trials, failures = 30, 0
    for _ in range(trials):
        setup, returns, audits = gen_instance(
            rng.randint(1, 10), rng.randint(2, 4),
            reversal=True, seed=rng.randrange(2**30),
        )
        margins = prepare_contest(setup, returns).totals.pairwise_margins
        by_id = {a.precinct_id: a for a in audits}
        discs = [
            analyze_precinct(ret, by_id[ret.precinct_id], margins)
            for ret in returns
        ]
        if mro_sum(discs) < 1:
            failures += 1
    checks["planted_reversals_reach_threshold"] = {
        "trials": trials, "failures": failures, "passed": failures == 0,
    }
    return checks


def main() -> None:
    """Entry point of the ``mro-audit`` script and ``python -m mro_audit``.

    Each command runs in a short process whose objects form no reference
    cycles that grow with its input (``tests/test_cli.py`` checks this), so
    the cyclic collector is off: it would only rescan the tens of thousands
    of rows a load keeps, freeing nothing.  Importing this module, or
    calling ``cli`` in process, leaves the collector as it was.
    """
    gc.disable()
    cli()


if __name__ == "__main__":
    main()
