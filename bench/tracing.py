"""In-process traced replay of the CLI commands, one span per public call.

Each command becomes a root span whose children are the calls into ``io``,
``core``, ``discrepancy``, ``risk``, ``sampling`` and ``report`` that the CLI
makes, in the CLI's order.  ``risk.run_test`` gets a second, sibling
decomposition (root ``risk.run_test.parts``) into the stages it performs
internally, so the gap between the two shows work ``run_test`` repeats.
Spans live in memory; ``Tracer.dump`` writes them out when the run ends.

The replay imports the program from the checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

# Span names whose summed duration is reported as ``<name>_s``.
TIMED = (
    "io.load_returns", "io.load_audits", "io.load_county_plans",
    "core.compute_totals", "core.pool_candidates", "core.pool_audit_records",
    "discrepancy.precinct_bound", "discrepancy.analyze_precinct",
    "risk.run_test", "risk.taint_count", "risk.observed_statistic",
    "risk.p_value", "risk.monte_carlo_pvalue",
    "sampling.draw_sample",
    "report.build_document", "report.document_json", "report.verify_document",
)


class Tracer:
    """Records spans (name, start, end, parent, run id) and named counts."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent, "run_id": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def durations(self) -> dict[str, float]:
        """Summed duration per span name."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
        return totals

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def children_time(self, root_name: str) -> float:
        """Summed duration of the direct children of the root span ``root_name``."""
        roots = {i for i, s in enumerate(self.spans)
                 if s["parent"] is None and s["name"] == root_name}
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] in roots)

    def dump(self, path: Path) -> None:
        own = self.self_times()
        rows = [dict(s, self_s=own[i]) for i, s in enumerate(self.spans)]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}, indent=1))


class Replay:
    """Replays the workload's commands through the program's public API."""

    def __init__(self, spec, tracer: Tracer):
        from mro_audit import core, discrepancy, io, report, risk, sampling

        self.spec, self.t = spec, tracer
        self.io, self.core, self.disc = io, core, discrepancy
        self.risk, self.reporting, self.sampling = risk, report, sampling

    def _load_returns(self):
        spec, t = self.spec, self.t
        with t.span("io.load_returns"):
            setup, returns = self.io.load_returns(spec.returns_path, spec.votes_per_voter)
        t.count("io.returns_rows", len(returns))
        t.count("io.input_bytes", spec.returns_path.stat().st_size)
        return setup, returns

    def _load_contest(self):
        spec, t = self.spec, self.t
        setup, returns = self._load_returns()
        if spec.pool:
            with t.span("core.pool_candidates"):
                setup, returns = self.core.pool_candidates(
                    setup, returns, spec.pool, spec.pooled_id)
        return setup, returns

    def _load_audits(self):
        spec, t = self.spec, self.t
        with t.span("io.load_audits"):
            audits = self.io.load_audits(spec.audits_path)
        t.count("io.input_bytes", spec.audits_path.stat().st_size)
        if spec.pool:
            with t.span("core.pool_audit_records"):
                audits = self.core.pool_audit_records(audits, spec.pool, spec.pooled_id)
        return audits

    def _config(self):
        risk = self.risk
        return risk.TestConfig(
            weight=risk.IDENTITY if self.spec.weight == "identity" else risk.TAINT,
            sampling=risk.SamplingDesign("with_replacement", self.spec.draws),
        )

    def _bounds(self, returns, margins):
        with self.t.span("discrepancy.precinct_bound"):
            return {r.precinct_id: self.disc.precinct_bound(r, margins) for r in returns}

    def margins(self):
        setup, returns = self._load_contest()
        with self.t.span("core.compute_totals"):
            self.core.compute_totals(setup, returns)

    def bounds(self):
        setup, returns = self._load_contest()
        with self.t.span("core.compute_totals"):
            totals = self.core.compute_totals(setup, returns)
        self._bounds(returns, totals.pairwise_margins)

    def plan(self):
        spec, t = self.spec, self.t
        _, returns = self._load_returns()
        with t.span("io.load_county_plans"):
            plans = self.io.load_county_plans(spec.counties_path, returns)
        t.count("io.input_bytes", spec.counties_path.stat().st_size)
        with t.span("sampling.draw_sample"):
            sample = self.sampling.draw_sample(plans, returns, str(spec.seed))
        t.count("sampling.sampled", len(sample))

    def pvalue(self):
        setup, returns = self._load_contest()
        audits = self._load_audits()
        with self.t.span("risk.run_test"):
            self.risk.run_test(setup, returns, audits, self._config())

    def report(self):
        spec, t = self.spec, self.t
        setup, returns = self._load_contest()
        audits = self._load_audits()
        with t.span("risk.run_test"):
            result = self.risk.run_test(setup, returns, audits, self._config())
        with t.span("core.compute_totals"):
            totals = self.core.compute_totals(setup, returns)
        bounds = self._bounds(returns, totals.pairwise_margins)
        by_id = {r.precinct_id: r for r in returns}
        with t.span("discrepancy.analyze_precinct"):
            discrepancies = [
                self.disc.analyze_precinct(by_id[a.precinct_id], a, totals.pairwise_margins)
                for a in audits
            ]
        with t.span("report.file_digest"):
            digests = {"returns": self.reporting.file_digest(spec.returns_path),
                       "audits": self.reporting.file_digest(spec.audits_path)}
        pooled = {"members": list(spec.pool), "pooled_id": spec.pooled_id} if spec.pool else None
        with t.span("report.build_document"):
            document = self.reporting.build_document(
                setup, returns, totals, bounds, discrepancies, result,
                tool_version="bench", input_digests=digests, pooled=pooled)
        with t.span("report.document_json"):
            text = self.reporting.document_json(document)
        t.count("report.bytes", len(text.encode("utf-8")))
        return document

    def simulate(self):
        sim, t = self.spec.simulate, self.t
        design = self.risk.SamplingDesign("with_replacement", sim["draws"])
        with t.span("risk.p_value"):
            self.risk.p_value(sim["taint_count"], sim["population"], design)
        with t.span("risk.monte_carlo_pvalue"):
            self.risk.monte_carlo_pvalue(sim["taint_count"], sim["population"], design,
                                         sim["reps"], sim["seed"])
        t.count("risk.mc_draws", sim["reps"] * sim["draws"])

    def run_command(self, command: str):
        with self.t.span(f"cli.{command}"):
            return getattr(self, command)()

    def decompose_run_test(self):
        """The stages inside ``risk.run_test``, each timed on its own."""
        t, disc, risk = self.t, self.disc, self.risk
        quiet = Replay(self.spec, Tracer(False, t.run_id))
        setup, returns = quiet._load_contest()
        audits = quiet._load_audits()
        config = self._config()
        with t.span("risk.run_test.parts"):
            with t.span("core.compute_totals"):
                totals = self.core.compute_totals(setup, returns)
            margins = totals.pairwise_margins
            bounds = self._bounds(returns, margins)
            by_id = {r.precinct_id: r for r in returns}
            with t.span("discrepancy.analyze_precinct"):
                sample = [disc.analyze_precinct(by_id[a.precinct_id], a, margins)
                          for a in audits]
            with t.span("risk.observed_statistic"):
                statistic = risk.observed_statistic(sample, config.weight)
            with t.span("risk.taint_count"):
                count = risk.taint_count([bounds[r.precinct_id] for r in returns],
                                         statistic, config.weight, config.margin_threshold)
            population = setup.precinct_count
            with t.span("risk.p_value"):
                risk.p_value(min(count, population), population, config.sampling)
        t.count("risk.taint_walk_steps", min(count, population))
        t.count("discrepancy.pairs", len(margins))
        t.count("discrepancy.pair_evals", (len(returns) + len(audits)) * len(margins))
