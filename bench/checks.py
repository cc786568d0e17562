"""Output checks for each CLI command.

Each check compares a command's stdout with values the benchmark computed
itself (see ``workloads.py``), or with another command's output from the
same cycle.  A check returns ``None`` when the output is right and a short
reason when it is not; the runner counts every reason as a failed operation.
"""

from __future__ import annotations

import json
from fractions import Fraction


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def wr_p_value(taint_count: int, population: int, draws: int) -> float:
    """Chance that ``draws`` draws with replacement miss ``taint_count`` of
    ``population`` precincts."""
    return float(Fraction(population - taint_count, population) ** draws)


class Checker:
    """Checks one workload's outputs; remembers the cycle's ``pvalue`` risk block."""

    def __init__(self, spec, verify_document):
        self.spec = spec
        self.verify_document = verify_document
        self.risk = None

    def check(self, command: str, stdout: bytes) -> str | None:
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return f"{command}: stdout is not JSON ({exc})"
        try:
            return getattr(self, f"_{command}")(payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"{command}: malformed output ({type(exc).__name__}: {exc})"

    def _margins(self, out) -> str | None:
        spec = self.spec
        if out["totals"] != spec.totals:
            return f"margins: totals {out['totals']} != generated {spec.totals}"
        if out["winners"] != list(spec.winners) or out["losers"] != list(spec.losers):
            return "margins: winner/loser partition differs from the generated totals"
        got = {(e["winner"], e["loser"]): e["margin"] for e in out["pairwise_margins"]}
        if got != spec.margins:
            return f"margins: pairwise margins {got} != generated {spec.margins}"
        return None

    def _bounds(self, out) -> str | None:
        if len(out["precincts"]) != self.spec.precincts:
            return f"bounds: {len(out['precincts'])} rows for {self.spec.precincts} precincts"
        if out["max_bound_float"] != float(self.spec.max_bound):
            return (f"bounds: max bound {out['max_bound_float']} != "
                    f"{float(self.spec.max_bound)}")
        return None

    def _plan(self, out) -> str | None:
        sampled = [pid for county in out["counties"] for pid in county["sampled"]]
        if sampled != self.spec.sample:
            return "plan: sample differs from the benchmark's own SHA-256 ticket draw"
        if out["conservative_effective_n"] != self.spec.effective_n:
            return (f"plan: effective n {out['conservative_effective_n']} != "
                    f"{self.spec.effective_n}")
        return None

    def _pvalue(self, out) -> str | None:
        spec = self.spec
        risk = {k: v for k, v in out.items() if k not in ("schema", "pooled")}
        self.risk = risk
        t = risk["taint_count"]
        if risk["observed_statistic"] != fraction_text(spec.observed):
            return (f"pvalue: observed statistic {risk['observed_statistic']} != "
                    f"generated {fraction_text(spec.observed)}")
        if not 1 <= t <= spec.precincts or risk["null_infeasible"]:
            return f"pvalue: taint count {t} outside [1, {spec.precincts}]"
        if risk["p_value"] != wr_p_value(t, spec.precincts, spec.draws):
            return f"pvalue: p_value {risk['p_value']} != closed form for t={t}"
        golden = spec.golden
        if golden and (t != golden["taint_count"]
                       or risk["p_value_percent"] != golden["p_value_percent"]):
            return (f"pvalue: taint count {t} / {risk['p_value_percent']} != golden "
                    f"{golden['taint_count']} / {golden['p_value_percent']}")
        return None

    def _report(self, out) -> str | None:
        spec = self.spec
        try:
            self.verify_document(out)
        except Exception as exc:  # any verifier error is a failed check
            return f"report: verify_document failed ({type(exc).__name__}: {exc})"
        if self.risk is None or out["risk"] != self.risk:
            return "report: risk block differs from the pvalue output"
        if out["totals"] != spec.totals:
            return "report: totals differ from the generated totals"
        if spec.golden:
            winner, loser, margin = spec.golden["margin"]
            got = {(e["winner"], e["loser"]): e["margin"] for e in out["pairwise_margins"]}
            if got.get((winner, loser)) != margin:
                return f"report: {winner}-{loser} margin {got.get((winner, loser))} != {margin}"
        return None

    def _simulate(self, out) -> str | None:
        sim = self.spec.simulate
        if not out["within_3_standard_errors"]:
            return "simulate: Monte Carlo estimate outside 3 standard errors"
        failed = [name for name, c in out["oracle_checks"].items() if not c["passed"]]
        if failed or not out["oracle_checks"]:
            return f"simulate: oracle checks failed: {failed}"
        closed = wr_p_value(sim["taint_count"], sim["population"], sim["draws"])
        if out["closed_form"] != closed:
            return f"simulate: closed form {out['closed_form']} != {closed}"
        return None


def check_version(stdout: bytes) -> str | None:
    text = stdout.decode("utf-8", "replace")
    return None if "mro-audit" in text and "version" in text else f"--version printed {text!r}"
