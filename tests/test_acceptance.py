"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from operator import le, truediv

from hypothesis import given, settings
from hypothesis import strategies as st

import minnesota
from mro_audit.core import (
    compute_totals,
    pool_audit_records,
    pool_candidates,
    pool_contest,
    prepare_contest,
)
from mro_audit.discrepancy import analyze_precinct, mro_sum
from mro_audit.io import load_audits
from mro_audit.oracle import (
    brute_mro,
    brute_taint_count,
    gen_instance,
    random_audits,
)
from mro_audit.risk import (
    IDENTITY,
    TAINT,
    SamplingDesign,
    TestConfig,
    assess_sample,
    monte_carlo_pvalue,
    p_value,
    run_contest_test,
    run_test,
    taint_count,
)
from mro_audit.report import percent
from mro_audit.sampling import draw_sample, statutory_minimum

WR = lambda n: SamplingDesign("with_replacement", n)  # noqa: E731


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_pvalue_golden():
    value = p_value(166, 4123, WR(78))
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        p_value(166, 4123, WR(78))
        timings.append(time.perf_counter() - start)
    fastest = min(timings)
    ok = abs(value - 0.0405) <= 0.0005 and fastest < 0.001
    _report(1, ok, f"p={value:.6f} (target 0.0405 +/- 0.0005), "
                   f"runtime {fastest * 1e6:.0f}us < 1ms")


def test_criterion_2_larger_sample_golden():
    value = p_value(166, 4123, WR(202))
    ok = 0.0001 <= value <= 0.0004 and percent(value) == "0.02%"
    _report(2, ok, f"p={value:.6f} in [0.0001, 0.0004], prints as {percent(value)}")


def test_criterion_3_statewide_margins(minnesota_files):
    totals = compute_totals(minnesota_files["setup"], minnesota_files["returns"])
    expected = {
        "Fitzgerald": 1_207_655,
        "Kennedy": 443_196,
        "Cavlan": 1_268_135,
        "Powers": 1_273_441,
        "WriteIns": 1_277_948,
    }
    margins_ok = all(
        totals.pairwise_margins[("Klobuchar", loser)] == margin
        for loser, margin in expected.items()
    )
    pooled_setup, pooled_returns = pool_candidates(
        minnesota_files["setup"], minnesota_files["returns"],
        minnesota.POOL, "Pooled",
    )
    pooled_totals = compute_totals(pooled_setup, pooled_returns)
    pooled_ok = pooled_totals.pairwise_margins[("Klobuchar", "Pooled")] == 1_261_826
    _report(3, margins_ok and pooled_ok,
            f"all five margins exact, pooled margin "
            f"{pooled_totals.pairwise_margins[('Klobuchar', 'Pooled')]:,} "
            f"(sum-of-candidates arithmetic)")


def test_criterion_4_full_pipeline_on_calibrated_fixture(minnesota_files):
    pooled_setup, pooled_returns = pool_candidates(
        minnesota_files["setup"], minnesota_files["returns"],
        minnesota.POOL, "Pooled",
    )
    audits = pool_audit_records(
        load_audits(minnesota_files["audits_path"]), minnesota.POOL, "Pooled"
    )
    report = run_test(
        pooled_setup, pooled_returns, audits, TestConfig(IDENTITY, WR(78))
    )
    ok = (
        report.taint_count == 166
        and abs(report.p_value - 0.0405) <= 0.0005
        and report.observed_statistic == 0
    )
    _report(4, ok,
            f"taint_count={report.taint_count} (target 166), "
            f"p={report.p_value:.6f} (target 4.05% +/- 0.05pp), "
            f"sample={report.sample_size} zero-discrepancy precincts")


def test_criterion_5_inequality_property_suite():
    start = time.perf_counter()
    rng = random.Random(20_060_913)
    instances = 10_000
    zero_delta_checked = 0
    for trial in range(instances):
        n = rng.randint(1, 50)
        k = rng.randint(2, 6)
        seats = rng.randint(1, min(2, k - 1))
        setup, returns, clean = gen_instance(n, k, seats, seed=trial)
        zero_delta = trial % 10 == 0
        audits = clean if zero_delta else random_audits(setup, returns,
                                                        seed=trial + instances)
        totals = compute_totals(setup, returns)
        by_id = {a.precinct_id: a for a in audits}
        discs = [
            analyze_precinct(r, by_id[r.precinct_id], totals.pairwise_margins)
            for r in returns
        ]
        for d in discs:
            assert d.max_overstatement <= d.bound, (trial, d.precinct_id)
        if zero_delta:
            assert mro_sum(discs) == 0, trial
            zero_delta_checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report(5, ok,
            f"{instances} instances (incl. {zero_delta_checked} zero-delta): "
            f"every MRO <= bound, zero-delta MRO sums are 0, "
            f"{elapsed:.1f}s < 30s")


def test_criterion_6_reversal_necessity():
    rng = random.Random(166)
    violations = 0
    for trial in range(1_000):
        candidates = rng.randint(2, 5)
        seats = rng.randint(1, min(2, candidates - 1))
        setup, returns, audits = gen_instance(
            rng.randint(1, 12), candidates, seats,
            reversal=True, seed=trial,
        )
        totals = compute_totals(setup, returns)
        by_id = {a.precinct_id: a for a in audits}
        discs = [
            analyze_precinct(r, by_id[r.precinct_id], totals.pairwise_margins)
            for r in returns
        ]
        if mro_sum(discs) < 1:
            violations += 1
    _report(6, violations == 0,
            f"1000 planted reversals, {violations} violations of sum >= 1")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(443_196)
    taint_mismatches = 0
    for _ in range(2_000):
        n = rng.randint(1, 15)
        bounds = [Fraction(rng.randint(0, 60), 100) for _ in range(n)]
        threshold = Fraction(rng.randint(0, 30), 100)
        target = Fraction(rng.randint(1, 300), 100)
        if brute_taint_count(bounds, threshold, target) != taint_count(
            bounds, threshold, IDENTITY, target
        ):
            taint_mismatches += 1

    mro_mismatches = 0
    for trial in range(1_000):
        setup, returns, _ = gen_instance(1, rng.randint(2, 6), seed=trial)
        audits = random_audits(setup, returns, seed=trial + 5_000)
        margins = compute_totals(setup, returns).pairwise_margins
        disc = analyze_precinct(returns[0], audits[0], margins)
        if brute_mro(returns[0], audits[0], margins) != disc.max_overstatement:
            mro_mismatches += 1

    ok = taint_mismatches == 0 and mro_mismatches == 0
    _report(7, ok,
            f"taint_count matched subset search on 2000 instances "
            f"({taint_mismatches} mismatches); precinct MRO matched pair "
            f"enumeration on 1000 instances ({mro_mismatches} mismatches)")


def test_criterion_8_monte_carlo_validation():
    start = time.perf_counter()
    closed = p_value(166, 4123, WR(78))
    result = monte_carlo_pvalue(166, 4123, WR(78), 1_000_000, seed=20_061_107)
    elapsed = time.perf_counter() - start
    window = 3 * result.standard_error
    ok = abs(result.estimate - closed) <= window and elapsed < 60.0
    _report(8, ok,
            f"estimate {result.estimate:.6f} vs closed form {closed:.6f}, "
            f"|diff| {abs(result.estimate - closed):.6f} <= 3SE {window:.6f}, "
            f"{elapsed:.1f}s < 60s")


def test_criterion_9_determinism_and_brackets(minnesota_files):
    sample_a = draw_sample(minnesota_files["plans"], minnesota_files["returns"],
                           minnesota.SAMPLE_SEED)
    sample_b = draw_sample(minnesota_files["plans"], minnesota_files["returns"],
                           minnesota.SAMPLE_SEED)
    draw_ok = json.dumps(sample_a).encode() == json.dumps(sample_b).encode()

    gen_a = gen_instance(20, 5, 2, reversal=True, seed=31337)
    gen_b = gen_instance(20, 5, 2, reversal=True, seed=31337)
    gen_ok = repr(gen_a).encode() == repr(gen_b).encode()

    brackets = {49_999: 2, 50_000: 3, 100_000: 3, 100_001: 4}
    bracket_ok = all(
        statutory_minimum(voters) == expected
        for voters, expected in brackets.items()
    )
    _report(9, draw_ok and gen_ok and bracket_ok,
            f"draw_sample and gen_instance byte-identical on reruns; "
            f"statutory brackets {brackets} all match")


def _runner_up_measure(returns, votes_per_voter, audits):
    """Each precinct's bound, and each audit's MRO, under the earlier
    measure that divides every pair's error by the smallest pairwise margin
    V_min: the bound is the max over pairs of (v_w - v_l + b) / V_min.
    Totals, margins and V_min are its own, from the rows; it shares no code
    with ``discrepancy``."""
    totals = Counter()
    for ret in returns:
        totals.update(ret.machine_votes)
    ranked = sorted(totals, key=totals.__getitem__, reverse=True)
    pairs = [(w, l) for w in ranked[:votes_per_voter]
             for l in ranked[votes_per_voter:]]
    v_min = min(totals[w] - totals[l] for w, l in pairs)
    bounds = [Fraction(max(ret.machine_votes[w] - ret.machine_votes[l]
                           for w, l in pairs) + ret.ballot_bound, v_min)
              for ret in returns]
    machine = {ret.precinct_id: ret.machine_votes for ret in returns}
    mros = [Fraction(max(machine[a.precinct_id][w] - machine[a.precinct_id][l]
                         - a.hand_votes[w] + a.hand_votes[l] for w, l in pairs),
                     v_min)
            for a in audits]
    return bounds, mros


def test_criterion_10_mro_sharper_than_runner_up(minnesota_files):
    setup, returns = minnesota_files["setup"], minnesota_files["returns"]
    audits = load_audits(minnesota_files["audits_path"])
    contest = prepare_contest(setup, returns)
    pooled_rows = [ret._replace(machine_votes={
        **{c: n for c, n in ret.machine_votes.items()
           if c not in minnesota.POOL},
        "Pooled": sum(ret.machine_votes[c] for c in minnesota.POOL),
    }) for ret in returns]
    cases = {
        "unpooled": (contest, returns, audits),
        "pooled": (pool_contest(contest, minnesota.POOL, "Pooled"),
                   pooled_rows,
                   pool_audit_records(audits, minnesota.POOL, "Pooled")),
    }
    population = setup.precinct_count
    results = {}
    bounds_ok = True
    for name, (case, rows, hand_counts) in cases.items():
        ru_bounds, ru_mros = _runner_up_measure(
            rows, setup.votes_per_voter, hand_counts)
        ru_count = taint_count(ru_bounds, max(ru_mros), IDENTITY)
        for draws in (78, 202):
            report, bounds, _ = run_contest_test(
                case, hand_counts, TestConfig(IDENTITY, WR(draws)))
            assert list(bounds.precinct_ids) == [r.precinct_id for r in rows]
            bounds_ok &= all(map(le, map(Fraction, bounds.numerators,
                                         bounds.margins), ru_bounds))
            ru_p = p_value(min(ru_count, population), population, WR(draws))
            results[name, draws] = (ru_count, f"{100 * ru_p:.4g}%",
                                    report.taint_count,
                                    f"{100 * report.p_value:.4g}%")
    expected = {78: (150, "5.554%", 166, "4.054%"),
                202: (150, "0.05609%", 166, "0.02482%")}
    values_ok = all(results[name, draws] == expected[draws]
                    for name, draws in results)
    _report(10, bounds_ok and values_ok,
            f"every MRO bound <= its runner-up form; runner-up against MRO "
            f"(taint count, P), pooled and unpooled: {results}")


def _nudged(audit, ret, deltas, votes_per_voter):
    """``audit`` with each hand count moved by its delta, kept within the
    ballot bound; unmoved if the moved counts break the per-ballot cap."""
    bound = ret.ballot_bound
    hand = {c: min(bound, max(0, n + deltas[c]))
            for c, n in audit.hand_votes.items()}
    if sum(hand.values()) > votes_per_voter * bound:
        return audit
    return audit._replace(hand_votes=hand)


def test_criterion_11_mro_never_looser_than_runner_up():
    """Criterion 10's comparison as a property over drawn contests of 2-6
    candidates and 1-3 seats, each audit a precinct's own counts moved by
    at most one vote per candidate, or unrelated hand counts."""
    tally = Counter()

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=250)
    @given(data=st.data(), candidates=st.integers(2, 6),
           precincts=st.integers(1, 40), seed=st.integers(0, 2**32))
    def check(data, candidates, precincts, seed):
        seats = data.draw(st.integers(1, min(3, candidates - 1)))
        setup, returns, clean = gen_instance(precincts, candidates, seats,
                                             seed=seed)
        unrelated = random_audits(setup, returns, seed=seed + 1)
        picks = sorted(data.draw(st.sets(st.integers(0, precincts - 1),
                                         min_size=1)))
        steps = st.sampled_from((-1, 0, 1))
        sample = [unrelated[i] if data.draw(st.integers(0, 9)) == 0
                  else _nudged(clean[i], returns[i], {
                      c: data.draw(steps) for c in setup.candidates}, seats)
                  for i in picks]
        design = WR(len(sample))
        contest = prepare_contest(setup, returns)
        report, bounds, discrepancies = run_contest_test(
            contest, sample, TestConfig(IDENTITY, design))
        ru_bounds, ru_mros = _runner_up_measure(returns, seats, sample)
        mro_bounds = list(map(Fraction, bounds.numerators, bounds.margins))
        mros = [d.max_overstatement for d in discrepancies]
        assert all(map(le, mro_bounds, ru_bounds))
        assert all(mro <= ru for mro, ru in zip(mros, ru_mros) if mro >= 0)

        population = setup.precinct_count
        ru_count = min(taint_count(ru_bounds, max(ru_mros), IDENTITY),
                       population)
        ru_p = p_value(ru_count, population, design)
        holds = (report.taint_count >= ru_count and report.p_value <= ru_p)
        if report.observed_statistic >= 0:
            assert holds
        else:
            tally["negative"] += 1
            tally["negative held"] += holds

        if 0 not in mro_bounds:
            taint = assess_sample(bounds, discrepancies,
                                  TestConfig(TAINT, design))
            ru_weighted = max(map(truediv, ru_mros,
                                  [ru_bounds[i] for i in picks]))
            ru_taint = min(taint_count(ru_bounds, ru_weighted, TAINT),
                           population)
            tally["taint"] += 1
            tally["taint held"] += (taint.taint_count >= ru_taint and
                                    taint.p_value <= p_value(
                                        ru_taint, population, design))

        if candidates == 2:
            tally["two"] += 1
            assert mro_bounds == ru_bounds and mros == ru_mros
            assert (report.taint_count, report.p_value) == (ru_count, ru_p)
        else:
            tally["more"] += 1
            tally["sharper"] += report.p_value < ru_p

    check()
    _report(11, tally["sharper"] >= 1,
            f"every MRO bound, and every non-negative MRO, <= its runner-up "
            f"form; with a non-negative statistic the MRO taint count is at "
            f"least and its P-value at most the runner-up ones; "
            f"{tally['two']} two-candidate contests equal; "
            f"{tally['sharper']} of {tally['more']} larger contests strictly "
            f"sharper; held with a negative statistic in "
            f"{tally['negative held']} of {tally['negative']}, under the taint "
            f"weight in {tally['taint held']} of {tally['taint']}")
