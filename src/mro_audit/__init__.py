"""Risk-limiting post-election audit engine.

Quantifies the discrepancy between machine counts and hand tallies via the
maximum relative overstatement of pairwise margins (MRO), and computes
conservative P-values for the hypothesis that a full hand count would
reverse the apparent outcome.

``import mro_audit`` loads no submodule: each public name, and each
submodule, is imported from its home module on first use (PEP 562).
"""

__version__ = "0.1.0"

# Each home module and the public names it defines.
_NAMES = {
    "core": "AuditRecord Contest ContestSetup ContestTotals PrecinctReturns "
            "actual_margins compute_totals pool_audit_records pool_candidates "
            "pool_contest prepare_contest",
    "discrepancy": "PrecinctDiscrepancy analyze_precinct mro_sum "
                   "precinct_bound",
    "errors": "AuditError",
    "risk": "IDENTITY TAINT MonteCarloResult RiskReport SamplingDesign "
            "TestConfig monte_carlo_pvalue observed_statistic p_value "
            "run_contest_test run_test taint_count",
    "sampling": "CountyPlan conservative_effective_n draw_sample "
                "statutory_minimum",
}
_HOME = {name: module for module, names in _NAMES.items()
         for name in names.split()}
_SUBMODULES = ("cli", "core", "discrepancy", "errors", "io", "oracle",
               "report", "risk", "sampling")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f"{__name__}.{_HOME[name]}"), name
    )
    return value


def __dir__() -> list[str]:
    return sorted({"__version__", *__all__, *_SUBMODULES})
