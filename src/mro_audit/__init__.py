"""Risk-limiting post-election audit engine.

Quantifies the discrepancy between machine counts and hand tallies via the
maximum relative overstatement of pairwise margins (MRO), and computes
conservative P-values for the hypothesis that a full hand count would
reverse the apparent outcome.
"""

from .core import (
    AuditRecord,
    Contest,
    ContestSetup,
    ContestTotals,
    PrecinctReturns,
    actual_margins,
    compute_totals,
    pool_audit_records,
    pool_candidates,
    pool_contest,
    prepare_contest,
)
from .discrepancy import (
    PrecinctDiscrepancy,
    analyze_precinct,
    mro_sum,
    precinct_bound,
)
from .errors import AuditError
from .risk import (
    IDENTITY,
    TAINT,
    MonteCarloResult,
    RiskReport,
    SamplingDesign,
    TestConfig,
    monte_carlo_pvalue,
    observed_statistic,
    p_value,
    run_contest_test,
    run_test,
    taint_count,
)
from .sampling import (
    CountyPlan,
    conservative_effective_n,
    draw_sample,
    statutory_minimum,
)

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "AuditRecord",
    "Contest",
    "ContestSetup",
    "ContestTotals",
    "CountyPlan",
    "IDENTITY",
    "MonteCarloResult",
    "PrecinctDiscrepancy",
    "PrecinctReturns",
    "RiskReport",
    "SamplingDesign",
    "TAINT",
    "TestConfig",
    "actual_margins",
    "analyze_precinct",
    "compute_totals",
    "conservative_effective_n",
    "draw_sample",
    "monte_carlo_pvalue",
    "mro_sum",
    "observed_statistic",
    "p_value",
    "pool_audit_records",
    "pool_candidates",
    "pool_contest",
    "precinct_bound",
    "prepare_contest",
    "run_contest_test",
    "run_test",
    "statutory_minimum",
    "taint_count",
]
