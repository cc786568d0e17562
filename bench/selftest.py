"""Toy-size self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit in both modes, that corrupted outputs are counted as failures rather
than passing, that a process outliving the run's time budget is killed and
counted as failed, and that the benchmark refuses to run, without printing
a result, in a directory that holds only the benchmark.  Exits 1 on any
problem.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

# Toy shapes: counties of 200 precincts keep every statutory minimum at 4,
# and the simulate points keep the Monte Carlo P-value near 0.3, where
# 20,000 replications decide the 3-standard-error check reliably.
TOY = {
    "statewide": dataclasses.replace(
        workloads.STATEWIDE, precincts=1_000, counties=5, audited=50,
        simulate_taint_count=60, simulate_reps=20_000),
    "multiseat": dataclasses.replace(
        workloads.MULTISEAT, precincts=600, counties=3, audited=120,
        simulate_taint_count=60, simulate_reps=20_000),
}


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)
            print(f"FAIL {message}", file=sys.stderr)


def metric_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from mro_audit.report import verify_document

    declared = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = Problems()
    scratch = root / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        for name, shape in TOY.items():
            for trace in (0, 1):
                workdir = scratch / f"{name}-{trace}"
                workdir.mkdir(parents=True)
                spec = workloads.synthetic(f"toy-{name}", shape, 3, workdir)
                runner = run.Runner(root, workdir)
                checker = checks.Checker(spec, verify_document)
                if trace:
                    metrics, _ = run.per_layer(spec, runner, checker, scratch)
                else:
                    metrics, _ = run.end_to_end(spec, runner, checker, 0)
                result = run.result_object(runner, metrics)
                want = layer if trace else e2e
                problems.expect(metric_units(result) == want,
                                f"{name} trace={trace}: metrics/units {metric_units(result)} "
                                f"!= declared {want}")
                problems.expect(result["correct"] and result["failed"] == 0,
                                f"{name} trace={trace}: clean toy run failed: {runner.failures}")
                problems.expect(all(m["value"] > 0 for k, m in result["metrics"].items()
                                    if k != "trace.overhead_s"),
                                f"{name} trace={trace}: a metric is not positive")

        # Corrupted outputs are failures, one per operation.
        workdir = scratch / "corrupt"
        workdir.mkdir(parents=True)
        spec = workloads.synthetic("toy-corrupt", TOY["statewide"], 4, workdir)
        runner = run.Runner(root, workdir)
        checker = checks.Checker(spec, verify_document)
        captured: dict[str, bytes] = {}
        for command in ("margins", "pvalue", "report"):
            runner.operation(command, spec.argv(command),
                             lambda out, c=command: captured.__setitem__(c, out))
        problems.expect(not runner.failures, f"corrupt: clean outputs failed {runner.failures}")

        margins = json.loads(captured["margins"])
        margins["totals"][spec.winners[0]] += 1
        problems.expect(checker.check("margins", json.dumps(margins).encode()) is not None,
                        "corrupt: a wrong total passed the margins check")
        checker.check("pvalue", captured["pvalue"])
        report = json.loads(captured["report"])
        report["precincts"][0]["votes"][spec.winners[0]] += 1
        problems.expect(checker.check("report", json.dumps(report).encode()) is not None,
                        "corrupt: a tampered report passed verify_document")
        problems.expect(checker.check("report", b"{\"schema\": ") is not None,
                        "corrupt: truncated JSON passed")

        # A wrong expectation makes the whole loop count failures.
        spec.totals = {k: v + 1 for k, v in spec.totals.items()}
        runner = run.Runner(root, workdir)
        run.end_to_end(spec, runner, checks.Checker(spec, verify_document), 0)
        result = run.result_object(runner, {})
        problems.expect(not result["correct"] and result["failed"] == 2,
                        f"corrupt: expected margins and report to fail, got {runner.failures}")

        # A process still running at the run's time budget is killed and failed.
        runner = run.Runner(root, workdir)
        runner.deadline = 0.0
        long_run = ["simulate", "--taint-count", "1", "--population", "10",
                    "--sampling", "wr:10", "--reps", "1000000000"]
        elapsed, _ = runner.operation("simulate", long_run, lambda out: None)
        problems.expect(elapsed < 10 and len(runner.failures) == 1
                        and "killed" in runner.failures[0],
                        f"budget: {elapsed:.1f} s, failures {runner.failures}")

        # Without the program the benchmark exits non-zero and prints nothing.
        bare = scratch / "bare"
        shutil.copytree(root / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "minnesota-4k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        problems.expect(proc.returncode != 0 and not proc.stdout.strip(),
                        f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
