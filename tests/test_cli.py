import csv
import gc
import hashlib
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import minnesota
from mro_audit import __version__, core, risk
from mro_audit.cli import cli, pvalue, report_command
from mro_audit.core import compute_totals, pool_audit_records, pool_candidates
from mro_audit.discrepancy import analyze_precinct, precinct_bound
from mro_audit.errors import CandidateMismatch, ValidationError
from mro_audit.io import load_audits, load_contest, load_returns
from mro_audit.oracle import gen_instance
from mro_audit.report import (
    build_document,
    document_json,
    file_digest,
    verify_document,
)
from mro_audit.risk import (
    IDENTITY,
    TAINT,
    SamplingDesign,
    TestConfig,
    p_value,
    run_test,
)


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

    @pytest.mark.parametrize("command", ["margins", "bounds", "pvalue", "report"])
    def test_bad_pool_reported_before_a_tie(self, runner, tmp_path, command):
        returns_path = tmp_path / "tied.csv"
        returns_path.write_text(
            "precinct_id,county_id,ballot_bound,A,B,C\np1,c1,100,40,40,10\n",
            encoding="utf-8",
        )
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text("precinct_id,A,B,C\np1,40,40,10\n",
                               encoding="utf-8")
        args = [command, str(returns_path)]
        if command in ("pvalue", "report"):
            args += [str(audits_path), "--sampling", "wr:1"]
        result = runner.invoke(cli, args + ["--pool", "Z"])
        assert result.exit_code == 1
        assert ("ValidationError: pool members not in contest: ['Z']"
                in result.output)

    def test_empty_pooled_id_exits_one(self, runner, docs_returns_path):
        result = runner.invoke(cli, ["margins", str(docs_returns_path),
                                     "--pool", "Gamma", "--pooled-id", ""])
        assert result.exit_code == 1
        assert result.output == ("Error: ValidationError: candidate "
                                 "identifiers must be nonempty\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["margins", "pvalue", "report"])
    def test_repeated_pool_member_exits_two(self, runner, tmp_path, source,
                                            command, docs_returns_path,
                                            docs_audits_path):
        args = [command, str(docs_returns_path)]
        if command != "margins":
            args += [str(docs_audits_path), "--sampling", "wr:2"]
        if source == "flag":
            args += ["--pool", "Gamma,Gamma,Gamma"]
        else:
            cfg = tmp_path / "audit.cfg"
            cfg.write_text("pool = Gamma, Gamma\n", encoding="utf-8")
            args += ["--config", str(cfg)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.output.endswith("Error: --pool names 'Gamma' twice\n")

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
    """Pooled B and C (120) outpoll the only winner A (80); a pool of the
    docs example that holds its winner Alpha is no pool of losers."""

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

    @pytest.mark.parametrize("command", ["margins", "bounds", "pvalue", "report"])
    def test_pool_holding_the_winner_exits_one(self, runner, command,
                                               docs_returns_path,
                                               docs_audits_path):
        args = [command, str(docs_returns_path)]
        if command in ("pvalue", "report"):
            args += [str(docs_audits_path), "--sampling", "wr:2"]
        result = runner.invoke(cli, args + ["--pool", "Alpha,Gamma"])
        assert result.exit_code == 1
        assert result.output == ("Error: PoolContainsWinner: pool contains "
                                 "apparent winner(s): ['Alpha']\n")


class TestAuditColumns:
    def test_duplicated_candidate_column_exits_one(self, runner, tmp_path,
                                                   docs_returns_path):
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text(
            "precinct_id,Alpha,Alpha,Beta,Gamma\nP-102,999,150,160,55\n",
            encoding="utf-8",
        )
        result = runner.invoke(cli, [
            "pvalue", str(docs_returns_path), str(audits_path),
            "--sampling", "wr:2",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "ParseError" in result.output and "row 1" in result.output
        assert "candidate columns must be unique and nonempty" in result.output

    @pytest.mark.parametrize("command", ["pvalue", "report"])
    def test_column_named_like_the_pooled_id_exits_one(self, runner, tmp_path,
                                                       docs_returns_path,
                                                       command):
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text(
            "precinct_id,Alpha,Beta,Gamma,Minor\nP-102,150,160,55,7777\n",
            encoding="utf-8",
        )
        result = runner.invoke(cli, [
            command, str(docs_returns_path), str(audits_path),
            "--sampling", "wr:2", "--pool", "Gamma", "--pooled-id", "Minor",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert ("CandidateMismatch: audit of precinct P-102: pooled id "
                "'Minor' is already a hand-count column") in result.output


class TestNegativeHandCount:
    """A negative hand count is rejected whether or not it is pooled.

    Pooled into ``Minor``, C = -1 and D = 16 would sum to a plausible 15.
    """

    @pytest.mark.parametrize("hand_counts, pool, candidate", [
        ("50,30,-1,16", None, "C"),
        ("50,30,-1,16", "C,D", "C"),
        ("50,-1,5,10", "C,D", "B"),
    ])
    def test_pvalue_exits_one(self, runner, tmp_path, hand_counts, pool,
                              candidate):
        returns_path = tmp_path / "returns.csv"
        returns_path.write_text(
            "precinct_id,county_id,ballot_bound,A,B,C,D\n"
            "p1,c1,100,50,30,5,10\np2,c1,100,50,30,5,10\n",
            encoding="utf-8",
        )
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text(f"precinct_id,A,B,C,D\np1,{hand_counts}\n",
                               encoding="utf-8")
        args = ["pvalue", str(returns_path), str(audits_path),
                "--sampling", "wr:1"]
        if pool:
            args += ["--pool", pool, "--pooled-id", "Minor"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "Error: ValidationError: audit of precinct p1: negative count -1 "
            f"for {candidate!r}\n"
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
        assert hashlib.sha256(first.output.encode()).hexdigest() == (
            "5db5cdc94760e2ac319f1c90f805d3dc6f5d7d99186468ad182ca9f705338b48"
        )

    def test_docs_example_bytes(self, runner, docs_returns_path, tmp_path):
        counties = tmp_path / "counties.csv"
        counties.write_text("county_id,registered_voters\n"
                            "North,1000\nSouth,1000\n")
        result = invoke(runner, ["plan", str(docs_returns_path),
                                 "--counties", str(counties), "--seed", "1"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "0f999903ce54b9d775318ca5b7b998d35d70e87aa860672b7d3605a12872a217"
        )

    def test_seed_required(self, runner, minnesota_files):
        result = runner.invoke(cli, [
            "plan", str(minnesota_files["returns_path"]),
            "--counties", str(minnesota_files["counties_path"]),
        ])
        assert result.exit_code == 2

    def test_seed_not_utf8_is_a_usage_error(self, runner, tmp_path):
        # click decodes argv bytes that are not UTF-8, such as b"\xff", as
        # surrogate escapes.  The seed is rejected before the returns load,
        # so their bad cell is never reported.
        returns = tmp_path / "returns.csv"
        returns.write_text("precinct_id,county_id,ballot_bound,A,B\n"
                           "p1,North,10,x,1\n")
        counties = tmp_path / "counties.csv"
        counties.write_text("county_id,registered_voters\nNorth,1000\n")
        result = invoke(runner, ["plan", str(returns), "--counties",
                                 str(counties), "--seed", "1\udcff"])
        assert result.exit_code == 2
        assert ("Error: Invalid value for '--seed': '1\\udcff' is not valid "
                "UTF-8.") in result.output
        assert "ParseError" not in result.output


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

    @pytest.mark.parametrize("text", ["wr", "srs:"])
    def test_sampling_without_size_exits_two(self, runner, docs_returns_path,
                                             docs_audits_path, text):
        result = runner.invoke(cli, [
            "pvalue", str(docs_returns_path), str(docs_audits_path),
            "--sampling", text,
        ])
        assert result.exit_code == 2
        assert ("Error: sample size missing: use --sampling wr:N or srs:N\n"
                in result.output)

    def test_effective_n_flag_is_gone(self, runner, docs_returns_path,
                                      docs_audits_path):
        result = runner.invoke(cli, [
            "pvalue", str(docs_returns_path), str(docs_audits_path),
            "--sampling", "wr:2", "--effective-n", "2",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output
        assert "--effective-n" in result.output

    def test_effective_n_config_key_exits_one(self, runner, docs_returns_path,
                                              docs_audits_path, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("sampling=wr:2\neffective-n=2\n", encoding="utf-8")
        result = runner.invoke(cli, ["pvalue", str(docs_returns_path),
                                     str(docs_audits_path), "--config",
                                     str(cfg)])
        assert result.exit_code == 1
        assert result.output == (f"Error: ParseError: {cfg}, row 2: unknown "
                                 "key 'effective-n', not a flag of any "
                                 "command\n")

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


@pytest.mark.parametrize("command", [pvalue, report_command],
                         ids=["pvalue", "report"])
def test_weight_choices_are_risks(command):
    """The CLI spells the ``--weight`` choices, so that parsing needs no
    ``risk``; they are ``risk``'s weights."""
    weight, = (param for param in command.params if param.name == "weight")
    assert tuple(weight.type.choices) == (risk.IDENTITY, risk.TAINT)
    assert weight.default == risk.IDENTITY


class TestConfigResolution:
    """Command line > config file > declared default, resolved by click."""

    @pytest.mark.parametrize("args, key", [
        (["margins", "RETURNS"], "votes-per-voter"),
        (["simulate", "--taint-count", "1", "--sampling", "wr:2"],
         "population"),
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

    @pytest.mark.parametrize("line, key", [
        ("wieght=taint", "wieght"),
        ("\ufeffweight=taint", "\ufeffweight"),  # saved with a byte-order mark
        ("help=1", "help"),
    ])
    def test_key_of_no_flag_exits_one(self, runner, docs_returns_path,
                                      docs_audits_path, tmp_path, line, key):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"sampling=wr:1\n{line}\n", encoding="utf-8")
        result = runner.invoke(cli, ["pvalue", str(docs_returns_path),
                                     str(docs_audits_path), "--sampling",
                                     "wr:1", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (f"Error: ParseError: {cfg}, row 2: unknown "
                                 f"key {key!r}, not a flag of any command\n")

    @pytest.mark.parametrize("args, lines", [
        (["pvalue", "RETURNS", "AUDITS"], "sampling=wr:2\nsampling=wr:5"),
        (["margins", "RETURNS", "--pool", "Gamma"],
         "pooled-id=A\npooled_id=B"),
    ])
    def test_repeated_key_exits_one(self, runner, docs_returns_path,
                                    docs_audits_path, tmp_path, args, lines):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"{lines}\n", encoding="utf-8")
        paths = {"RETURNS": str(docs_returns_path),
                 "AUDITS": str(docs_audits_path)}
        args = [paths.get(arg, arg) for arg in args]
        result = runner.invoke(cli, args + ["--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        key = lines.splitlines()[1].partition("=")[0]
        assert result.output == (f"Error: ParseError: {cfg}, row 2: key "
                                 f"{key!r} already set at row 1\n")

    def test_key_of_another_command_is_left_to_it(self, runner,
                                                  docs_returns_path, tmp_path):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("weight=taint\nreps=10\nvotes_per_voter=2\n",
                       encoding="utf-8")
        result = invoke(runner, ["margins", str(docs_returns_path),
                                 "--config", str(cfg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["winners"] == ["Alpha", "Beta"]

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_votes_per_voter_below_one_exits_two(self, runner, tmp_path,
                                                 docs_returns_path, value,
                                                 source):
        args = ["margins", str(docs_returns_path)]
        if source == "flag":
            args.append(f"--votes-per-voter={value}")
        else:
            cfg = tmp_path / "audit.cfg"
            cfg.write_text(f"votes-per-voter={value}\n", encoding="utf-8")
            args += ["--config", str(cfg)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert (f"Invalid value for '--votes-per-voter': {value} is not in "
                "the range x>=1." in result.output)

    def test_empty_population_exits_one(self, runner):
        result = runner.invoke(cli, ["simulate", "--taint-count", "0",
                                     "--population", "0", "--sampling", "wr:1"])
        assert result.exit_code == 1
        assert "InvalidCount: population 0 must be at least 1" in result.output


# Each command, the flags that make it runnable, and the keys to fuzz; a
# fuzzed key's own flag is dropped so that the config value is the one used.
# ``effective-n`` names a flag that no longer exists: any value exits 1.
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


_FUZZ_COUNTIES = "county_id,registered_voters\nNorth,1000\nSouth,1000\n"
# bounds and pvalue pool Gamma through the docs config file.
_FUZZ_COMMANDS = {
    "margins": ["margins", "returns.csv"],
    "bounds": ["bounds", "returns.csv", "--config", "audit.cfg"],
    "plan": ["plan", "returns.csv", "--counties", "counties.csv", "--seed", "1"],
    "pvalue": ["pvalue", "returns.csv", "audits.csv", "--config", "audit.cfg"],
}


def _docs_inputs(docs_returns_path, docs_audits_path):
    """The docs example's files, and a county table for them, by name."""
    return {
        "returns.csv": docs_returns_path.read_text(encoding="utf-8"),
        "audits.csv": docs_audits_path.read_text(encoding="utf-8"),
        "counties.csv": _FUZZ_COUNTIES,
        "audit.cfg": (docs_returns_path.parent / "audit.cfg").read_text(
            encoding="utf-8"),
    }


_FUZZ_CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(-10**6, 10**6).map(str),
    st.integers(-10**400, 10**400).map(str),
    # Past the csv module's 131,072-character field limit, and past
    # Python's 4,300-digit limit on parsing an int.
    st.sampled_from(["7" * 140_000, "9" * 4_301, "1" + "0" * 4_299]),
)


@st.composite
def _mutated_csv(draw, text):
    """``text`` as bytes after a few random edits, or random bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=300))
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        edit = draw(st.sampled_from(["replace", "drop", "extra", "blank"]))
        if edit == "replace" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_FUZZ_CELLS)
        elif edit == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "extra":
            row.insert(draw(st.integers(0, len(row))), draw(_FUZZ_CELLS))
        else:
            rows.insert(draw(st.integers(0, len(rows))), [])
    return "\n".join(",".join(row) for row in rows).encode("utf-8")


@pytest.mark.parametrize("command", list(_FUZZ_COMMANDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_any_input_file_exits_cleanly(docs_returns_path, docs_audits_path,
                                      command, data):
    files = _docs_inputs(docs_returns_path, docs_audits_path)
    target = data.draw(st.sampled_from(["audits.csv", "counties.csv",
                                        "returns.csv"]))
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in files.items():
            content = text.encode("utf-8")
            if name == target:
                content = data.draw(_mutated_csv(text), label=name)
            with open(name, "wb") as handle:
                handle.write(content)
        result = runner.invoke(cli, _FUZZ_COMMANDS[command])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


class TestOutsizedInput:
    @pytest.mark.parametrize("name, row", [
        ("returns.csv", 3), ("audits.csv", 2), ("counties.csv", 2),
    ])
    def test_field_over_the_csv_limit_exits_one(self, runner, name, row,
                                                 docs_returns_path,
                                                 docs_audits_path):
        texts = _docs_inputs(docs_returns_path, docs_audits_path)
        lines = texts[name].splitlines()
        lines[row - 1] = lines[row - 1].replace(",", "," + "7" * 140_000, 1)
        texts[name] = "\n".join(lines) + "\n"
        command = {"returns.csv": "margins", "audits.csv": "pvalue",
                   "counties.csv": "plan"}[name]
        with runner.isolated_filesystem():
            for file_name, text in texts.items():
                Path(file_name).write_text(text, encoding="utf-8")
            result = runner.invoke(cli, _FUZZ_COMMANDS[command])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (f"ParseError: {name}, row {row}: field larger than field "
                "limit" in result.output)

    @pytest.mark.parametrize("command", ["margins", "bounds", "pvalue", "report"])
    def test_bound_too_large_for_a_float_exits_one(self, runner, tmp_path,
                                                   docs_audits_path, command):
        # The bound (1 - 0 + 10**400) / 1 would overflow float().
        returns = tmp_path / "returns.csv"
        returns.write_text("precinct_id,county_id,ballot_bound,Alpha,Beta,Gamma\n"
                           f"P-102,c1,{10**400},1,0,0\n", encoding="utf-8")
        args = [command, str(returns)]
        if command in ("pvalue", "report"):
            args += [str(docs_audits_path), "--sampling", "wr:2"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "ValidationError" in result.output
        assert "above 10**18" in result.output

    @pytest.mark.parametrize("hand_counts, pool, message", [
        (f"{'9' * 4000},30,5,10", None,
         f"count {'9' * 100} (first 100 of 4000 characters) for 'A' exceeds "
         "ballot bound 100"),
        (f"50,30,-{'9' * 4000},16", "C,D",
         f"negative count -{'9' * 99} (first 100 of 4001 characters) for "
         "'C'"),
    ], ids=["over-the-bound", "negative-pooled"])
    def test_long_hand_count_echoed_cut(self, runner, tmp_path, hand_counts,
                                        pool, message):
        returns_path = tmp_path / "returns.csv"
        returns_path.write_text(
            "precinct_id,county_id,ballot_bound,A,B,C,D\n"
            "p1,c1,100,50,30,5,10\np2,c1,100,50,30,5,10\n",
            encoding="utf-8",
        )
        audits_path = tmp_path / "audits.csv"
        audits_path.write_text(f"precinct_id,A,B,C,D\np1,{hand_counts}\n",
                               encoding="utf-8")
        args = ["pvalue", str(returns_path), str(audits_path),
                "--sampling", "wr:1"]
        if pool:
            args += ["--pool", pool, "--pooled-id", "Minor"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert result.output == (
            f"Error: ValidationError: audit of precinct p1: {message}\n")


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

    @pytest.mark.parametrize("contest, weight", [
        ("docs", "identity"), ("docs", "taint"), ("vote_for_three", "taint"),
    ])
    def test_report_verifies(self, runner, tmp_path, docs_returns_path,
                             docs_audits_path, contest, weight):
        document = self.document(runner, tmp_path, docs_returns_path,
                                 docs_audits_path, contest, weight)
        assert verify_document(document) is True

    @pytest.mark.parametrize("weight, field, value, message", [
        # P-104 sets the statistic: 1/45, or 2/305 under the taint weight.
        ("identity", "mro", "1/10", "observed_statistic"),
        ("taint", "bound", "61/9",
         "precinct P-104: stored bound 61/9 != recomputed 61/18"),
    ], ids=["identity-mro-1/10-observed_statistic",
            "taint-bound-61/9-stored-bound"])
    def test_tampered_row_detected(self, runner, tmp_path, docs_returns_path,
                                   docs_audits_path, weight, field, value,
                                   message):
        document = self.document(runner, tmp_path, docs_returns_path,
                                 docs_audits_path, "docs", weight)
        row = next(r for r in document["precincts"]
                   if r["precinct_id"] == "P-104")
        row[field] = value
        with pytest.raises(ValidationError, match=message):
            verify_document(document)

    @pytest.mark.parametrize("edit, error, message", [
        # Under the identity weight this bound moves neither the statistic
        # nor the taint count.
        (lambda row: row.update(bound="1000/1"), ValidationError,
         r"precinct P-104: stored bound 1000/1 != recomputed"),
        (lambda row: row.update(ballot_bound=296), ValidationError,
         r"precinct P-104: stored bound .* != recomputed"),
        (lambda row: row.update(ballot_bound=100), ValidationError,
         r"precinct P-104: count 120 for 'Alpha' exceeds ballot bound 100"),
        (lambda row: row["votes"].update(Zed=0), CandidateMismatch,
         r"precinct P-104: candidate set mismatch, unexpected \['Zed'\]"),
        (lambda row: row["votes"].pop("Alpha"), CandidateMismatch,
         r"precinct P-104: candidate set mismatch, missing \['Alpha'\]"),
    ], ids=["bound", "ballot-bound", "count-over-bound", "extra-candidate",
            "missing-candidate"])
    def test_tampered_precinct_row_detected(self, runner, tmp_path,
                                            docs_returns_path, docs_audits_path,
                                            edit, error, message):
        document = self.document(runner, tmp_path, docs_returns_path,
                                 docs_audits_path, "docs", "identity")
        edit(next(r for r in document["precincts"]
                  if r["precinct_id"] == "P-104"))
        with pytest.raises(error, match=message):
            verify_document(document)

    @pytest.mark.parametrize("taint_count, infeasible, message", [
        (2, False, "taint_count"), (1, True, "null_infeasible"),
    ], ids=["2-False", "1-True"])
    def test_tampered_taint_count_detected(self, runner, tmp_path,
                                           docs_returns_path, docs_audits_path,
                                           taint_count, infeasible, message):
        document = self.document(runner, tmp_path, docs_returns_path,
                                 docs_audits_path, "docs", "identity")
        risk = document["risk"]
        assert (risk["taint_count"], risk["null_infeasible"]) == (1, False)
        # A P-value that matches the tampered count, so only re-deriving
        # the count catches it.
        risk["taint_count"] = taint_count
        risk["null_infeasible"] = infeasible
        risk["p_value"] = p_value(taint_count, 4,
                                  SamplingDesign("with_replacement", 2))
        with pytest.raises(ValidationError, match=message):
            verify_document(document)

    @staticmethod
    def document(runner, tmp_path, docs_returns_path, docs_audits_path,
                 contest, weight):
        args = command_args("report", contest, tmp_path, docs_returns_path,
                            docs_audits_path)
        result = invoke(runner, args + ["--weight", weight])
        assert result.exit_code == 0
        return json.loads(result.output)


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
    returns = [r._replace(machine_votes=minor(r.machine_votes))
               for r in returns]
    audits = [a._replace(hand_votes=minor(a.hand_votes)) for a in audits[::3]]
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
    """``report`` reuses what ``run_contest_test`` built; the bytes must not
    change."""

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


AWKWARD_CANDIDATES = ['\u014ctsuka, "K\u014d"', "Back\\slash", "Zo\u00eb \U0001d504"]
AWKWARD_ROWS = [
    ('P-1, "north"', "Comt\u00e9\\A", 500, 260, 180, 40),
    ("P\\2", "Comt\u00e9\\A", 400, 200, 150, 30),
    ("\u6771-3", "Sud\u2028B", 300, 150, 120, 20),
    ('\U0001d513-4 "q"', "Sud\u2028B", 350, 170, 140, 25),
    ("p5\t\u00e9", "Sud\u2028B", 250, 120, 100, 15),
]
AWKWARD_AUDITS = [
    ('P-1, "north"', 255, 185, 40),
    ("\u6771-3", 150, 120, 20),
    ("p5\t\u00e9", 118, 103, 14),
]


def awkward_contest(tmp_path):
    """A contest whose ids and candidate names need quoting and escaping.

    Cells hold commas, quotes, backslashes, a tab, U+2028, accented and
    CJK letters and a character outside the Basic Multilingual Plane.
    """
    candidates, rows, audits = AWKWARD_CANDIDATES, AWKWARD_ROWS, AWKWARD_AUDITS
    returns_path = tmp_path / "awkward_returns.csv"
    audits_path = tmp_path / "awkward_audits.csv"
    for path, header, body in (
        (returns_path, ["precinct_id", "county_id", "ballot_bound"], rows),
        (audits_path, ["precinct_id"], audits),
    ):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(header + candidates)
            writer.writerows(body)
    return returns_path, audits_path


# Each command's stdout SHA-256, recorded from the validating path that the
# prepared contest replaced; the awkward contest's from the generic indent
# encoder that the row templates replaced.
STDOUT_SHA256 = {
    ("docs", "margins"):
        "9b02c2f0763a9006bfc8c90c7d989dbe207198bfa3511e69f73229806dc5dc66",
    ("docs", "pvalue"):
        "c48a9e4a5427cf018dba2aa9a85d3c45b15ec0716f838963a1f7d904d2e632fd",
    ("docs", "report"):
        "1dc28bdcdfd5db01d3f8141ce0b10e5b91d5dbeac6f7b6192db48dd822712e96",
    ("vote_for_three", "margins"):
        "5d398739ae0bfdb9d52e9bee974fa7c306efb226117c1a5c112ec6b0fd6b4e5a",
    ("vote_for_three", "pvalue"):
        "5c7e0e5c00f49413cec4523e216fdb1d5ca121e122a4506319d5580e8c9d09bb",
    ("vote_for_three", "report"):
        "f2dd0512237243d2ead06ddec16fa082e3d78f8bb18188abdcf3d8ed700ba642",
    ("awkward", "margins"):
        "aac2206ef0ef042fbc3c9341fbc36b1ecabd8c03776ea1dabfe243b3a708124b",
    ("awkward", "bounds"):
        "8e03f90ce8a40537109c5f6605cb24b3e75d7669908b50d04978688fe5488afc",
    ("awkward", "pvalue"):
        "a1cc39034c42392a1420894cccc6dd3c77ad8fde3a48edd2725144be1b5f5897",
    ("awkward", "report"):
        "6ce84623e78a1135ec48006ae8c23e4839d6fb57e40aa39a0ff1c9ba7fb88bf9",
}
VOTE_FOR_THREE_POOL = ["C04", "C05", "C06"]


def county_table(tmp_path, returns_path):
    """A county table for the counties of ``returns_path``, each with 1,000
    registered voters and so two draws."""
    with open(returns_path, newline="", encoding="utf-8") as handle:
        counties = dict.fromkeys(row["county_id"]
                                 for row in csv.DictReader(handle))
    path = tmp_path / "counties.csv"
    path.write_text("county_id,registered_voters\n"
                    + "".join(f"{county},1000\n" for county in counties),
                    encoding="utf-8")
    return path


def command_args(command, contest, tmp_path, docs_returns_path,
                 docs_audits_path):
    """Arguments for ``command`` on the docs example (with its config file),
    on the pooled vote-for-3 contest under the taint weight, or on the
    awkward contest.  ``plan`` pools nothing, and draws seed 1 from a
    county table of the returns' counties."""
    if contest == "docs":
        returns_path, audits_path = docs_returns_path, docs_audits_path
        flags = ["--config", str(docs_returns_path.parent / "audit.cfg")]
    elif contest == "awkward":
        returns_path, audits_path = awkward_contest(tmp_path)
        flags = ["--sampling", "wr:3"] if command in ("pvalue", "report") else []
    else:
        returns_path, audits_path = write_contest(
            tmp_path, *pooled_vote_for_three(VOTE_FOR_THREE_POOL)
        )
        flags = ["--votes-per-voter", "3", "--pool",
                 ",".join(VOTE_FOR_THREE_POOL), "--pooled-id", "Minor"]
        if command in ("pvalue", "report"):
            flags += ["--weight", "taint", "--sampling", "wr:14"]
    if command == "plan":
        # The docs config, or the vote-for-3 contest's --votes-per-voter:
        # plan takes no pool.
        flags = [*flags[:2], "--counties",
                 str(county_table(tmp_path, returns_path)), "--seed", "1"]
    args = [command, str(returns_path)]
    if command in ("pvalue", "report"):
        args.append(str(audits_path))
    return args + flags


@pytest.mark.parametrize("contest, command", list(STDOUT_SHA256))
def test_stdout_bytes(runner, tmp_path, docs_returns_path, docs_audits_path,
                      contest, command):
    result = invoke(runner, command_args(command, contest, tmp_path,
                                         docs_returns_path, docs_audits_path))
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        STDOUT_SHA256[contest, command]
    )


def test_commands_validate_and_tabulate_once(runner, tmp_path, monkeypatch,
                                             docs_returns_path,
                                             docs_audits_path):
    """The loader's checks are the only validation on the CLI path, and no
    command goes through the validating wrapper ``compute_totals``."""
    calls = []
    modules = [m for name, m in list(sys.modules.items())
               if name.partition(".")[0] == "mro_audit"]
    for name in ("validate_returns", "compute_totals"):
        original = getattr(core, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for contest in ("docs", "vote_for_three"):
        for command in ("margins", "bounds", "pvalue", "report"):
            result = invoke(runner, command_args(
                command, contest, tmp_path, docs_returns_path,
                docs_audits_path,
            ))
            assert result.exit_code == 0
    assert calls == []
    # The oracle checks validate the contests they generate, through
    # prepare_contest.
    result = invoke(runner, [
        "simulate", "--taint-count", "3", "--population", "20",
        "--sampling", "srs:4", "--reps", "20000", "--seed", "9", "--verify",
    ])
    assert result.exit_code == 0
    assert "validate_returns" in calls
    assert "compute_totals" not in calls
    # The counters do see the library entry points.
    calls.clear()
    setup, returns = load_returns(docs_returns_path)
    run_test(setup, returns, load_audits(docs_audits_path),
             TestConfig(IDENTITY, SamplingDesign("with_replacement", 2)))
    assert calls == ["validate_returns"]


def test_contest_commands_build_no_rows(runner, tmp_path, monkeypatch,
                                        docs_returns_path, docs_audits_path):
    """``margins``, ``bounds``, ``plan``, ``pvalue`` and ``report`` work
    from the contest's columns: none of them asks for its rows."""
    def no_rows(contest):
        raise AssertionError("the contest's rows were built")

    monkeypatch.setattr(core.Contest, "returns", property(no_rows))
    for contest in ("docs", "vote_for_three"):
        for command in ("margins", "bounds", "plan", "pvalue", "report"):
            result = invoke(runner, command_args(
                command, contest, tmp_path, docs_returns_path,
                docs_audits_path,
            ))
            if (contest, command) == ("vote_for_three", "plan"):
                # No precinct of that contest has 150 votes: the county
                # rules reject it once its columns are walked.
                assert result.exit_code == 1
                assert ("InfeasibleConstraint: county c00: no precinct has "
                        "at least 150 votes") in result.output
            else:
                assert result.exit_code == 0


def traced_peak_over_kept(runner, args, returns_path):
    """The tracemalloc peak of the command ``args`` run in process, over
    what the contest loaded from ``returns_path`` keeps."""
    # Once first, so that nothing imported on a first run is counted.
    assert invoke(runner, args).exit_code == 0
    tracemalloc.start()
    try:
        contest = load_contest(returns_path)
        kept, _ = tracemalloc.get_traced_memory()
        del contest
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = invoke(runner, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    return (peak - before) / kept


def test_plan_peak_memory_near_what_the_contest_keeps(runner, tmp_path):
    """``plan`` draws from the contest's columns, so its traced peak stays
    within a fixed multiple of what the loaded contest keeps.

    On this contest the peak is about 1.5 times the contest; drawing from
    one row per precinct took it to 3.0.
    """
    rng = random.Random(1)
    returns_path = tmp_path / "returns.csv"
    with open(returns_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["precinct_id", "county_id", "ballot_bound",
                         "A", "B", "C", "D", "E"])
        for i in range(4000):
            counts = [rng.randint(0, 120) for _ in range(5)]
            writer.writerow([f"p{i}", f"c{i % 10}", sum(counts), *counts])
    args = ["plan", str(returns_path), "--counties",
            str(county_table(tmp_path, returns_path)), "--seed", "1"]
    assert traced_peak_over_kept(runner, args, returns_path) <= 2.2


def test_report_peak_memory_near_what_the_contest_keeps(runner, tmp_path):
    """``report`` renders its rows from the contest's columns, so its traced
    peak stays within a fixed multiple of what the loaded contest keeps.

    On this contest the peak is about 9.3 times the contest; rendering
    through one row and one row dict per precinct took it to 13.9.
    """
    _, returns, audits = gen_instance(4000, 5, seed=3)
    returns_path, audits_path = write_contest(tmp_path, returns, audits[::10])
    del returns, audits
    args = ["report", str(returns_path), str(audits_path), "--sampling",
            "wr:50"]
    assert traced_peak_over_kept(runner, args, returns_path) <= 11


@pytest.mark.parametrize("command, limit", [
    ("margins", 1.8),
    ("bounds", 6),
    ("pvalue", 2.5),
])
def test_contest_command_peak_memory_near_what_the_contest_keeps(
        runner, tmp_path, command, limit):
    """``margins``, ``bounds`` and ``pvalue`` work from the contest's
    columns, so each traced peak stays within a fixed multiple of what the
    loaded contest keeps.

    On the ``report`` test's contest the peaks are about 1.24, 4.86 and
    1.75 times the contest; ``bounds`` holds its JSON text whole.
    """
    _, returns, audits = gen_instance(4000, 5, seed=3)
    returns_path, audits_path = write_contest(tmp_path, returns, audits[::10])
    del returns, audits
    args = {
        "margins": ["margins", str(returns_path)],
        "bounds": ["bounds", str(returns_path)],
        "pvalue": ["pvalue", str(returns_path), str(audits_path),
                   "--sampling", "wr:50"],
    }[command]
    assert traced_peak_over_kept(runner, args, returns_path) <= limit


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


def unreachable_after(args):
    """How many objects ``args`` leaves unreachable when run in process with
    the collector off, as the ``mro-audit`` process runs it."""
    gc.collect()
    gc.disable()
    try:
        cli.main(args, standalone_mode=False)
    finally:
        found = gc.collect()
        gc.enable()
    return found


class TestNoGrowingGarbage:
    """The ``mro-audit`` process runs with the cyclic collector off
    (``mro_audit.cli.main``).  That is safe because no command leaves
    reference cycles whose number grows with its input: each leaves as many
    unreachable objects on the docs example (4 precincts) as on a contest
    of 100."""

    PRECINCTS = 100

    @pytest.fixture(scope="class")
    def contests(self, tmp_path_factory, docs_returns_path, docs_audits_path):
        """Arguments for the docs example and for a generated contest of the
        same shape: two counties, two audits in four, the third candidate
        pooled, and counts large enough for ``plan`` to draw from."""
        tmp_path = tmp_path_factory.mktemp("garbage")
        counties = tmp_path / "counties.csv"
        counties.write_text(
            "county_id,registered_voters\nNorth,1000\nSouth,1000\n",
            encoding="utf-8",
        )
        _, returns, audits = gen_instance(self.PRECINCTS, 3, seed=1)
        returns = [r._replace(
            county_id=("North", "South")[i % 2],
            ballot_bound=10 * r.ballot_bound,
            machine_votes={c: 10 * v for c, v in r.machine_votes.items()},
        ) for i, r in enumerate(returns)]
        audits = [a._replace(
            hand_votes={c: 10 * v for c, v in a.hand_votes.items()},
        ) for a in audits[::2]]
        returns_path, audits_path = write_contest(tmp_path, returns, audits)
        config = str(docs_returns_path.parent / "audit.cfg")
        return [
            (docs_returns_path, docs_audits_path, 4, ["--config", config], []),
            (returns_path, audits_path, self.PRECINCTS,
             ["--pool", "C02", "--pooled-id", "Minor"],
             ["--sampling", f"wr:{len(audits)}"]),
        ], counties

    @pytest.mark.parametrize("command", [
        "margins", "bounds", "plan", "pvalue", "report", "simulate",
    ])
    def test_unreachable_count_does_not_grow(self, contests, command):
        inputs, counties = contests

        def args(returns_path, audits_path, precincts, flags, risk_flags):
            if command == "simulate":
                return ["simulate", "--taint-count", str(precincts // 4),
                        "--population", str(precincts), "--sampling", "wr:2",
                        "--reps", "100", "--verify"]
            if command == "plan":
                return ["plan", str(returns_path), "--counties", str(counties),
                        "--seed", "1"]
            if command in ("margins", "bounds"):
                return [command, str(returns_path), *flags]
            return [command, str(returns_path), str(audits_path), *flags,
                    *risk_flags]

        unreachable_after(args(*inputs[0]))  # first imports and caches
        small, large = (unreachable_after(args(*each)) for each in inputs)
        assert small == large
