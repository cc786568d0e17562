import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import minnesota
from mro_audit import __version__
from mro_audit.cli import cli
from mro_audit.core import compute_totals, pool_audit_records, pool_candidates
from mro_audit.discrepancy import analyze_precinct, precinct_bound
from mro_audit.io import load_audits, load_returns
from mro_audit.oracle import gen_instance
from mro_audit.report import (
    build_document,
    document_json,
    file_digest,
    verify_document,
)
from mro_audit.risk import IDENTITY, TAINT, SamplingDesign, TestConfig, run_test


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False)


class TestMargins:
    def test_docs_sample(self, runner, docs_returns_path):
        result = invoke(runner, ["margins", str(docs_returns_path)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["winners"] == ["Alpha"]
        assert {"winner": "Alpha", "loser": "Beta", "margin": 90} in (
            payload["pairwise_margins"]
        )

    def test_tied_contest_exits_one(self, runner, tmp_path):
        tied = tmp_path / "tied.csv"
        tied.write_text(
            "precinct_id,county_id,ballot_bound,A,B\np1,c1,10,4,4\n",
            encoding="utf-8",
        )
        result = runner.invoke(cli, ["margins", str(tied)])
        assert result.exit_code == 1
        assert "AmbiguousOutcome" in result.output + str(result.stderr)

    def test_usage_error_exits_two(self, runner):
        result = runner.invoke(cli, ["margins", "--no-such-flag"])
        assert result.exit_code == 2

    def test_minnesota_aggregate_pooled(self, runner, minnesota_aggregate_path):
        result = invoke(runner, [
            "margins", str(minnesota_aggregate_path),
            "--pool", "Cavlan,Powers,WriteIns",
        ])
        payload = json.loads(result.output)
        assert payload["total_ballot_bound"] == 2_217_818
        assert {"winner": "Klobuchar", "loser": "Pooled",
                "margin": minnesota.POOLED_MARGIN} in payload["pairwise_margins"]


class TestBounds:
    def test_reports_max_bound(self, runner, minnesota_files):
        result = invoke(runner, [
            "bounds", str(minnesota_files["returns_path"]),
            "--pool", "Cavlan,Powers,WriteIns",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["max_bound_float"] == pytest.approx(0.0097, abs=1e-6)
        assert len(payload["precincts"]) == 4123

    def test_docs_example_bytes(self, runner, docs_returns_path):
        result = invoke(runner, ["bounds", str(docs_returns_path)])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "2bf2d5ab80bc06f79ca77a7aaad3b449de57b51a1eb8142bcf16776ccd612e14"
        )

    def test_pooled_synthetic_bytes(self, runner, tmp_path):
        pool = ["C04", "C05", "C06"]
        returns_path, _ = write_contest(tmp_path, *pooled_vote_for_three(pool))
        result = invoke(runner, [
            "bounds", str(returns_path), "--votes-per-voter", "3",
            "--pool", ",".join(pool), "--pooled-id", "Minor",
        ])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "6f71a1c1a686ee161f2cc8828aa3e0013a28cc7a71d5f30494ffc672ed5cb462"
        )
        payload = json.loads(result.output)
        assert payload["max_bound_float"] == max(
            float(Fraction(row["bound"])) for row in payload["precincts"]
        )


class TestPooledRevalidation:
    """Pooling can push a pseudo-candidate past the ballot bound.

    D, E and F each fit under the bound of 100, but pooled into ``Minor``
    they hold 110 votes in p1; only re-validating the pooled returns
    catches it.
    """

    @pytest.fixture()
    def contest(self, tmp_path):
        returns_path = tmp_path / "returns.csv"
        returns_path.write_text(
            "precinct_id,county_id,ballot_bound,A,B,C,D,E,F\n"
            "p1,c1,100,60,60,60,40,35,35\n"
            "p2,c1,100,50,50,50,10,10,10\n",
            encoding="utf-8",
        )
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text(
            "precinct_id,A,B,C,D,E,F\np1,60,60,60,40,35,35\n",
            encoding="utf-8",
        )
        return returns_path, audits_path

    @pytest.mark.parametrize("command", ["margins", "bounds", "pvalue"])
    def test_pooled_count_over_ballot_bound_exits_one(self, runner, contest,
                                                       command):
        returns_path, audits_path = contest
        args = [command, str(returns_path)]
        if command == "pvalue":
            args += [str(audits_path), "--sampling", "wr:1"]
        args += ["--votes-per-voter", "3", "--pool", "D,E,F",
                 "--pooled-id", "Minor"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert (
            "ValidationError: precinct p1: count 110 for 'Minor' exceeds "
            "ballot bound 100"
        ) in result.output


class TestPoolThatWouldWin:
    """Pooled B and C (120) outpoll the only winner A (80)."""

    @pytest.mark.parametrize("command", ["margins", "bounds", "pvalue", "report"])
    def test_exits_one(self, runner, tmp_path, command):
        returns_path = tmp_path / "returns.csv"
        returns_path.write_text(
            "precinct_id,county_id,ballot_bound,A,B,C\np1,c1,300,80,65,55\n",
            encoding="utf-8",
        )
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text("precinct_id,A,B,C\np1,80,65,55\n",
                               encoding="utf-8")
        args = [command, str(returns_path)]
        if command in ("pvalue", "report"):
            args += [str(audits_path), "--sampling", "wr:1"]
        result = runner.invoke(cli, args + ["--pool", "B,C",
                                            "--pooled-id", "Minor"])
        assert result.exit_code == 1
        assert "PoolContainsWinner: pooled total 120 for 'Minor'" in (
            result.output
        )


class TestPlan:
    def test_deterministic_and_sized(self, runner, minnesota_files):
        args = [
            "plan", str(minnesota_files["returns_path"]),
            "--counties", str(minnesota_files["counties_path"]),
            "--seed", minnesota.SAMPLE_SEED,
        ]
        first = invoke(runner, args)
        second = invoke(runner, args)
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert payload["total_samples"] == 202
        assert payload["conservative_effective_n"] == 78
        assert len(payload["counties"]) == 87

    def test_seed_required(self, runner, minnesota_files):
        result = runner.invoke(cli, [
            "plan", str(minnesota_files["returns_path"]),
            "--counties", str(minnesota_files["counties_path"]),
        ])
        assert result.exit_code == 2


class TestPvalue:
    def test_minnesota_conservative_pvalue(self, runner, minnesota_files):
        result = invoke(runner, [
            "pvalue", str(minnesota_files["returns_path"]),
            str(minnesota_files["audits_path"]),
            "--pool", "Cavlan,Powers,WriteIns",
            "--sampling", "wr:78",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["taint_count"] == 166
        assert payload["p_value"] == pytest.approx(0.0405, abs=5e-4)
        assert payload["p_value_percent"] == "4.05%"

    def test_larger_sample_pvalue(self, runner, minnesota_files):
        result = invoke(runner, [
            "pvalue", str(minnesota_files["returns_path"]),
            str(minnesota_files["audits_path"]),
            "--pool", "Cavlan,Powers,WriteIns",
            "--sampling", "wr:202",
        ])
        payload = json.loads(result.output)
        assert 0.0001 <= payload["p_value"] <= 0.0004
        assert payload["p_value_percent"] == "0.02%"

    def test_effective_n_overrides_sampling_size(self, runner, minnesota_files):
        result = invoke(runner, [
            "pvalue", str(minnesota_files["returns_path"]),
            str(minnesota_files["audits_path"]),
            "--pool", "Cavlan,Powers,WriteIns",
            "--sampling", "wr", "--effective-n", "78",
        ])
        payload = json.loads(result.output)
        assert payload["effective_n"] == 78
        assert payload["p_value_percent"] == "4.05%"

    def test_config_file_supplies_flags(self, runner, minnesota_files, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(
            "pool=Cavlan,Powers,WriteIns\nsampling=wr:78\nweight=identity\n",
            encoding="utf-8",
        )
        result = invoke(runner, [
            "pvalue", str(minnesota_files["returns_path"]),
            str(minnesota_files["audits_path"]),
            "--config", str(cfg),
        ])
        payload = json.loads(result.output)
        assert payload["p_value_percent"] == "4.05%"

    def test_cli_overrides_config(self, runner, minnesota_files, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(
            "pool=Cavlan,Powers,WriteIns\nsampling=wr:78\n", encoding="utf-8"
        )
        result = invoke(runner, [
            "pvalue", str(minnesota_files["returns_path"]),
            str(minnesota_files["audits_path"]),
            "--config", str(cfg), "--sampling", "wr:202",
        ])
        payload = json.loads(result.output)
        assert payload["effective_n"] == 202

    def test_taint_weight_accepted(self, runner, docs_returns_path,
                                   docs_audits_path):
        result = invoke(runner, [
            "pvalue", str(docs_returns_path), str(docs_audits_path),
            "--weight", "taint", "--sampling", "wr:2",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["weight"] == "taint"
        assert 0.0 <= payload["p_value"] <= 1.0


class TestConfigResolution:
    """Command line > config file > declared default, resolved by click."""

    @pytest.mark.parametrize("args, key", [
        (["margins", "RETURNS"], "votes-per-voter"),
        (["pvalue", "RETURNS", "AUDITS", "--sampling", "wr"], "effective-n"),
        (["simulate", "--taint-count", "1", "--population", "10",
          "--sampling", "wr:2"], "reps"),
    ])
    @pytest.mark.parametrize("bad", ["two", "1e5"])
    def test_malformed_int_exits_two(self, runner, tmp_path, docs_returns_path,
                                     docs_audits_path, args, key, bad):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"{key}={bad}\n", encoding="utf-8")
        paths = {"RETURNS": str(docs_returns_path),
                 "AUDITS": str(docs_audits_path)}
        args = [paths.get(arg, arg) for arg in args]
        result = runner.invoke(cli, args + ["--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert (f"Invalid value for '--{key}': '{bad}' is not a valid integer."
                in result.output)

    def test_plan_required_flags_from_config(self, runner, minnesota_files,
                                             tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(
            f"counties={minnesota_files['counties_path']}\n"
            f"seed={minnesota.SAMPLE_SEED}\n",
            encoding="utf-8",
        )
        returns_path = str(minnesota_files["returns_path"])
        from_config = invoke(runner, ["plan", returns_path, "--config", str(cfg)])
        from_flags = invoke(runner, [
            "plan", returns_path,
            "--counties", str(minnesota_files["counties_path"]),
            "--seed", minnesota.SAMPLE_SEED,
        ])
        assert from_config.exit_code == 0
        assert from_config.output == from_flags.output

    def test_simulate_required_flags_from_config(self, runner, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(
            "taint-count=3\npopulation=20\nsampling=srs:4\nreps=2000\n",
            encoding="utf-8",
        )
        result = invoke(runner, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["monte_carlo"]["replications"] == 2000
        assert payload["monte_carlo"]["seed"] == 0

    def test_flag_beats_config_beats_default(self, runner, docs_returns_path,
                                             tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("votes-per-voter=2\n", encoding="utf-8")
        base = ["margins", str(docs_returns_path)]
        default = json.loads(invoke(runner, base).output)
        config = json.loads(invoke(runner, base + ["--config", str(cfg)]).output)
        flag = json.loads(invoke(runner, base + [
            "--config", str(cfg), "--votes-per-voter", "1",
        ]).output)
        assert default["winners"] == flag["winners"] == ["Alpha"]
        assert config["winners"] == ["Alpha", "Beta"]

    def test_non_utf8_config_exits_one(self, runner, docs_returns_path,
                                       tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_bytes(b"pool=Caf\xe9\n")
        result = runner.invoke(cli, ["margins", str(docs_returns_path),
                                     "--config", str(cfg)])
        assert result.exit_code == 1
        assert "ParseError" in result.output
        assert "not valid UTF-8" in result.output

    def test_nul_in_config_path_exits_one(self, runner, docs_returns_path,
                                          tmp_path):
        # os.stat raises ValueError, not OSError, on an embedded NUL.
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("seed=1\ncounties=counties\0.csv\n", encoding="utf-8")
        result = runner.invoke(cli, ["plan", str(docs_returns_path),
                                     "--config", str(cfg)])
        assert result.exit_code == 1
        assert "NUL character" in result.output

    def test_empty_population_exits_one(self, runner):
        result = runner.invoke(cli, ["simulate", "--taint-count", "0",
                                     "--population", "0", "--sampling", "wr:1"])
        assert result.exit_code == 1
        assert "InvalidCount: population 0 must be at least 1" in result.output


# Each command, the flags that make it runnable, and the keys to fuzz; a
# fuzzed key's own flag is dropped so that the config value is the one used.
_FUZZ_BASE = {
    "margins": ({}, ["pool", "pooled-id", "votes-per-voter"]),
    "bounds": ({}, ["pool", "pooled-id", "votes-per-voter"]),
    "plan": ({"counties": "counties.csv", "seed": "1"},
             ["counties", "seed", "votes-per-voter"]),
    "pvalue": ({"sampling": "wr:2"},
               ["weight", "sampling", "effective-n", "pool", "pooled-id",
                "votes-per-voter"]),
    "report": ({"sampling": "wr:2"},
               ["weight", "sampling", "effective-n", "pool", "pooled-id",
                "votes-per-voter"]),
    "simulate": ({"taint-count": "1", "population": "10", "sampling": "wr:2",
                  "reps": "100"},
                 ["taint-count", "population", "sampling", "reps", "seed",
                  "verify"]),
}
_FUZZ_CASES = [(command, key) for command, (_, keys) in _FUZZ_BASE.items()
               for key in keys]


def _small(text):
    # Five or more digits could ask for a sample, population or replication
    # count too large to simulate in a unit test.
    return re.search(r"\d{5}", text.replace("_", "")) is None


@pytest.mark.parametrize("command, key", _FUZZ_CASES)
@given(value=st.text(st.characters(blacklist_categories=("Cs",)),
                     max_size=20).filter(_small))
@settings(max_examples=15, deadline=None)
def test_any_config_value_exits_cleanly(docs_returns_path, docs_audits_path,
                                        command, key, value):
    runner = CliRunner()
    flags, _ = _FUZZ_BASE[command]
    args = [command]
    if command != "simulate":
        args.append(str(docs_returns_path))
    if command in ("pvalue", "report"):
        args.append(str(docs_audits_path))
    for flag, flag_value in flags.items():
        if flag != key:
            args += [f"--{flag}", flag_value]
    with runner.isolated_filesystem():
        with open("counties.csv", "w", encoding="utf-8") as handle:
            handle.write("county_id,registered_voters\nNorth,1000\nSouth,1000\n")
        with open("audit.cfg", "w", encoding="utf-8") as handle:
            handle.write(f"{key}={value}\n")
        result = runner.invoke(cli, args + ["--config", "audit.cfg"])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


class TestReport:
    def test_document_verifies(self, runner, minnesota_files):
        result = invoke(runner, [
            "report", str(minnesota_files["returns_path"]),
            str(minnesota_files["audits_path"]),
            "--pool", "Cavlan,Powers,WriteIns",
            "--sampling", "wr:78",
        ])
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert document["schema"] == "mro-audit/1"
        assert verify_document(document) is True
        assert document["risk"]["taint_count"] == 166
        assert document["contest"]["pooled"]["members"] == [
            "Cavlan", "Powers", "WriteIns"
        ]
        sampled = [p for p in document["precincts"] if p["sampled"]]
        assert len(sampled) == 202


def pooled_vote_for_three(pool):
    """A vote-for-3 synthetic contest whose ``pool`` still trails C03 pooled.

    Every third precinct is audited.
    """

    def minor(votes):
        # Quarter the pool's votes so that pooled they still trail C03.
        return {c: v // 4 if c in pool else v for c, v in votes.items()}

    _, returns, audits = gen_instance(
        40, 7, votes_per_voter=3, reversal=True, seed=11
    )
    returns = [replace(r, machine_votes=minor(r.machine_votes))
               for r in returns]
    audits = [replace(a, hand_votes=minor(a.hand_votes)) for a in audits[::3]]
    return returns, audits


def write_contest(tmp_path, returns, audits):
    candidates = list(returns[0].machine_votes)
    returns_path = tmp_path / "returns.csv"
    returns_path.write_text(
        "".join(
            [f"precinct_id,county_id,ballot_bound,{','.join(candidates)}\n"]
            + [
                f"{r.precinct_id},{r.county_id},{r.ballot_bound},"
                + ",".join(str(r.machine_votes[c]) for c in candidates) + "\n"
                for r in returns
            ]
        ),
        encoding="utf-8",
    )
    audits_path = tmp_path / "audits.csv"
    audits_path.write_text(
        "".join(
            [f"precinct_id,{','.join(candidates)}\n"]
            + [
                f"{a.precinct_id},"
                + ",".join(str(a.hand_votes[c]) for c in candidates) + "\n"
                for a in audits
            ]
        ),
        encoding="utf-8",
    )
    return returns_path, audits_path


def assembled_document(returns_path, audits_path, *, votes_per_voter, pool,
                       pooled_id, weight, draws):
    """The report document built step by step, recomputing every part."""
    setup, returns = load_returns(returns_path, votes_per_voter)
    audits = load_audits(audits_path)
    setup, returns = pool_candidates(setup, returns, pool, pooled_id)
    audits = pool_audit_records(audits, pool, pooled_id)
    config = TestConfig(weight, SamplingDesign("with_replacement", draws))
    report = run_test(setup, returns, audits, config)
    totals = compute_totals(setup, returns)
    margins = totals.pairwise_margins
    bounds = {r.precinct_id: precinct_bound(r, margins) for r in returns}
    by_id = {r.precinct_id: r for r in returns}
    discrepancies = [
        analyze_precinct(by_id[a.precinct_id], a, margins) for a in audits
    ]
    return build_document(
        setup, returns, totals, bounds, discrepancies, report,
        tool_version=__version__,
        input_digests={
            "returns": file_digest(returns_path),
            "audits": file_digest(audits_path),
        },
        pooled={"members": list(pool), "pooled_id": pooled_id},
    )


class TestReportEquivalence:
    """``report`` reuses what ``run_test`` built; the bytes must not change."""

    def test_docs_example(self, runner, docs_returns_path, docs_audits_path):
        result = invoke(runner, [
            "report", str(docs_returns_path), str(docs_audits_path),
            "--config", str(docs_returns_path.parent / "audit.cfg"),
        ])
        assert result.exit_code == 0
        expected = assembled_document(
            docs_returns_path, docs_audits_path, votes_per_voter=1,
            pool=["Gamma"], pooled_id="Minor", weight=IDENTITY, draws=2,
        )
        assert result.output == document_json(expected) + "\n"

    def test_pooled_vote_for_three_under_taint(self, runner, tmp_path):
        pool = ["C04", "C05", "C06"]
        returns_path, audits_path = write_contest(
            tmp_path, *pooled_vote_for_three(pool)
        )
        result = invoke(runner, [
            "report", str(returns_path), str(audits_path),
            "--votes-per-voter", "3", "--pool", ",".join(pool),
            "--pooled-id", "Minor", "--weight", "taint", "--sampling", "wr:14",
        ])
        assert result.exit_code == 0
        expected = assembled_document(
            returns_path, audits_path, votes_per_voter=3, pool=pool,
            pooled_id="Minor", weight=TAINT, draws=14,
        )
        assert expected["losers"][-1] == "Minor"
        assert expected["risk"]["weight"] == "taint"
        assert len(expected["pairwise_margins"]) == 6
        assert result.output == document_json(expected) + "\n"


class TestSimulate:
    def test_validates_closed_form(self, runner):
        result = invoke(runner, [
            "simulate", "--taint-count", "166", "--population", "4123",
            "--sampling", "wr:78", "--reps", "100000", "--seed", "5",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["within_3_standard_errors"] is True
        assert payload["closed_form"] == pytest.approx(0.0405, abs=5e-4)

    def test_certain_miss_agrees_with_closed_form(self, runner):
        # The estimate lands on 1.0 with standard error 0; the closed form
        # is 0.99976, within 3 standard errors at that value.
        result = invoke(runner, [
            "simulate", "--taint-count", "1", "--population", "4123",
            "--sampling", "wr:1", "--reps", "1000", "--seed", "0",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["monte_carlo"]["estimate"] == 1.0
        assert payload["monte_carlo"]["standard_error"] == 0.0
        assert payload["within_3_standard_errors"] is True

    @pytest.mark.parametrize("population, sampling, limit", [
        ("100000000000000000000", "wr:1", "above 2**64"),
        ("3000000000", "srs:1", "below 10**9"),
    ])
    def test_population_numpy_cannot_draw_exits_one(self, runner, population,
                                                    sampling, limit):
        result = runner.invoke(cli, [
            "simulate", "--taint-count", "1", "--population", population,
            "--sampling", sampling, "--reps", "1",
        ])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "InvalidCount" in result.output and limit in result.output

    def test_verify_runs_oracle_checks(self, runner):
        result = invoke(runner, [
            "simulate", "--taint-count", "3", "--population", "20",
            "--sampling", "srs:4", "--reps", "20000", "--seed", "9",
            "--verify",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        checks = payload["oracle_checks"]
        assert all(block["passed"] for block in checks.values())
        assert checks["taint_count_vs_subset_search"]["failures"] == 0
