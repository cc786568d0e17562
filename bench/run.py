"""Benchmark for the mro-audit CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload statewide-25k --seed 1 --seconds 36 --trace 0

The benchmark writes the workload's CSV inputs from ``--seed`` into a
scratch directory of the checkout, then runs the CLI as a user does: one
fresh ``python -m mro_audit`` process per command, in a closed loop with one
command at a time, for about ``--seconds`` seconds (always at least one full
cycle of the six commands).  Every output is checked; a non-zero exit, a
timeout or a failed check counts as a failed operation.

The host's speed drifts by 10-30 % within minutes and moves all of a run's
commands together, so each command is timed between two runs of a fixed
reference task of the benchmark's own (``reference_task``).  A command's
metric is the median over cycles of its wall time scaled to the reference
task's nominal speed: ``wall * REFERENCE_S / r``, where ``r`` is the median
reference time of that cycle.  A change to the program moves the scaled
time exactly as it moves the wall time.  ``simulate`` spends its time in
numpy, so it is scaled by a numpy reference; the other commands by a
pure-Python one, which also scales ``setup_s``.  The raw wall medians are
in the info line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one cycle
of processes, then replays the cycle in-process through the program's public
calls, once with span recording off and once on, and reports the per-layer
metrics.  The last stdout line is the result object; the line before it
records the environment and the input identity.
"""

from __future__ import annotations

import argparse
import fractions
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import tracing
import workloads

SETUP_REPS = 5
# Every process is killed once a run has lasted this long, so that a hung
# command cannot keep the run past 180 s.
RUN_BUDGET_S = 150.0
# Nominal durations of the two reference tasks (about their medians on a
# 2-vCPU Xeon KVM guest), and the one each command is scaled by.
REFERENCE_S = {"python": 0.03, "numpy": 0.022}
SCALED_BY = {"simulate": "numpy"}


def reference_task() -> dict[str, float]:
    """Seconds for two fixed tasks like the CLI's work.  ``python``: split and
    convert CSV-like rows, sort and sum Fractions, dump indented JSON.
    ``numpy``: draw integers and reduce them, as the Monte Carlo does."""
    start = time.perf_counter()
    rows = [f"p{i},c{i % 87},{i * 7 % 1500},{i * 3 % 400}" for i in range(3000)]
    parsed = [[int(x) if x.isdigit() else x for x in row.split(",")] for row in rows]
    ratios = sorted(fractions.Fraction(r[2] + 1, r[3] + 7) for r in parsed)
    sum(ratios[:300], fractions.Fraction(0))
    json.dumps([{"id": r[0], "votes": r[2]} for r in parsed], indent=2)
    middle = time.perf_counter()
    draws = numpy.random.default_rng(0).integers(0, 1000, size=(40_000, 100))
    int(numpy.count_nonzero((draws < 5).any(axis=1)))
    return {"python": middle - start, "numpy": time.perf_counter() - middle}


class Runner:
    """Starts CLI processes one at a time and keeps the operation tally."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0
        self.digests: dict[str, set[str]] = {}
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def operation(self, label: str, args: list[str], check) -> tuple[float, dict]:
        """Run ``python -m mro_audit <args>`` and check its stdout.

        Returns the wall seconds and the mean reference-task times around the
        process.  A timeout, a non-zero exit or a failed check counts as one
        failed operation.
        """
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        self.attempted += 1
        before = reference_task()
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "mro_audit", *args],
                                    stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            # pidfd + select waits without polling; wait4 then reaps the
            # process and gives its own resource usage.
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            elapsed = time.perf_counter() - start
        after = reference_task()
        reference = {kind: (before[kind] + after[kind]) / 2 for kind in before}
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        stdout = out_path.read_bytes()
        self.digests.setdefault(label, set()).add(hashlib.sha256(stdout).hexdigest())
        if not ready:
            reason = f"{label}: killed after {timeout:.0f} s, at the run's time budget"
        elif proc.returncode != 0:
            tail = err_path.read_text("utf-8", "replace").strip().splitlines()[-1:]
            reason = f"{label}: exit {proc.returncode} {tail}"
        else:
            reason = check(stdout)
        if reason:
            self.failures.append(reason)
        return elapsed, reference


def measure_setup(runner: Runner) -> tuple[float, float]:
    """Start-up time of ``--version``: the median over ``SETUP_REPS`` runs
    after one untimed warm-up that fills the bytecode cache, raw and scaled
    by the median Python reference of those runs."""
    samples = [runner.operation("setup", ["--version"], checks.check_version)
               for _ in range(SETUP_REPS + 1)][1:]
    raw = statistics.median(wall for wall, _ in samples)
    reference = statistics.median(ref["python"] for _, ref in samples)
    return raw, raw * REFERENCE_S["python"] / reference


def run_cycle(spec, runner: Runner, checker: checks.Checker, times: dict) -> None:
    """One process per command; appends (wall, reference) to ``times``."""
    for command in workloads.COMMANDS:
        check = lambda stdout: checker.check(command, stdout)  # noqa: E731
        times[command].append(runner.operation(command, spec.argv(command), check))


def closed_loop(spec, runner: Runner, checker, seconds: float) -> dict[str, list]:
    """Cycles of the six commands; a new cycle starts only if it should end
    within ``seconds``, judged by the previous cycle's length."""
    times = {command: [] for command in workloads.COMMANDS}
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        run_cycle(spec, runner, checker, times)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return times


def end_to_end(spec, runner, checker, seconds: float):
    setup_raw, setup_s = measure_setup(runner)
    times = closed_loop(spec, runner, checker, seconds)
    cycles = range(len(times["margins"]))
    references = {kind: [statistics.median(times[c][i][1][kind] for c in times) for i in cycles]
                  for kind in REFERENCE_S}
    metrics = {"setup_s": (setup_s, "s")}
    for command, samples in times.items():
        kind = SCALED_BY.get(command, "python")
        scaled = [samples[i][0] * REFERENCE_S[kind] / references[kind][i] for i in cycles]
        metrics[f"{command}_s"] = (statistics.median(scaled), "s")
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024, "MB")
    extra = {
        "samples": {command: len(samples) for command, samples in times.items()},
        "wall_median_s": {"setup": setup_raw, **{
            command: statistics.median(w for w, _ in samples)
            for command, samples in times.items()}},
        "reference_median_s": {kind: statistics.median(r) for kind, r in references.items()},
    }
    return metrics, extra


def per_layer(spec, runner, checker, out_dir: Path):
    """One cycle of processes for the command walls, then the traced replay."""
    setup_s, _ = measure_setup(runner)
    walls = {command: [] for command in workloads.COMMANDS}
    run_cycle(spec, runner, checker, walls)

    def replay(tracer):
        """Seconds for the whole cycle, and the report command's document."""
        player = tracing.Replay(spec, tracer)
        start = time.perf_counter()
        results = {command: player.run_command(command) for command in workloads.COMMANDS}
        return time.perf_counter() - start, results["report"]

    run_id = f"{spec.name}-seed{spec.seed}"
    wall_off, _ = replay(tracing.Tracer(False, run_id))
    tracer = tracing.Tracer(True, run_id)
    wall_on, document = replay(tracer)
    with tracer.span("report.verify_document"):
        checker.verify_document(document)
    del document
    tracing.Replay(spec, tracer).decompose_run_test()

    durations, counts = tracer.durations(), tracer.counts
    metrics = {f"{name}_s": (durations[name], "s") for name in tracing.TIMED}
    for name, unit in (("io.returns_rows", "count"), ("io.input_bytes", "bytes"),
                       ("discrepancy.pairs", "count"), ("discrepancy.pair_evals", "count"),
                       ("risk.taint_walk_steps", "count"), ("sampling.sampled", "count"),
                       ("report.bytes", "bytes")):
        metrics[name] = (counts[name], unit)
    metrics["risk.mc_draws_per_s"] = (
        counts["risk.mc_draws"] / durations["risk.monte_carlo_pvalue"], "1/s")
    metrics["cli.unaccounted_s"] = (sum(
        walls[c][0][0] - setup_s - tracer.children_time(f"cli.{c}")
        for c in workloads.COMMANDS
    ), "s")
    metrics["trace.overhead_s"] = (wall_on - wall_off, "s")

    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{run_id}.json"
    tracer.dump(span_path)
    return metrics, {"spans": str(span_path), "replay_s": wall_off}


def result_object(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():  # git would otherwise report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "mro_audit" / "__main__.py", root / "tests" / "minnesota.py"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: run from the root of an mro-audit checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from mro_audit.report import verify_document

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        spec = workloads.generate(args.workload, args.seed, workdir, root)
        runner = Runner(root, workdir)
        checker = checks.Checker(spec, verify_document)
        if args.trace:
            metrics, extra = per_layer(spec, runner, checker, root / ".bench_out")
        else:
            metrics, extra = end_to_end(spec, runner, checker, args.seconds)
        info = {
            "workload": spec.name, "seed": spec.seed, "trace": args.trace,
            "environment": environment(root),
            "input": {"precincts": spec.precincts, "candidates": len(spec.candidates),
                      "candidates_after_pooling": len(spec.totals), "pairs": spec.pairs,
                      "sample_size": spec.audited, "input_bytes": spec.input_bytes()},
            "taint_walk_steps": checker.risk and checker.risk.get("taint_count"),
            "stdout_sha256": {k: sorted(v) for k, v in runner.digests.items()},
            "failures": runner.failures[:20],
            **extra,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"info": info}))
    print(json.dumps(result_object(runner, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
